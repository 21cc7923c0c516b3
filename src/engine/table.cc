#include "engine/table.h"

#include <mutex>
#include <unordered_set>

#include "common/logging.h"

namespace hydra {

void Table::AppendRow(const Row& row) {
  HYDRA_DCHECK(static_cast<int>(row.size()) == num_columns_);
  data_.insert(data_.end(), row.begin(), row.end());
}

void Table::AppendRaw(const Value* row) {
  data_.insert(data_.end(), row, row + num_columns_);
}

void Table::AppendBlock(const Value* rows, int64_t num_rows) {
  data_.insert(data_.end(), rows, rows + num_rows * num_columns_);
}

void Table::GetRow(uint64_t row, Row* out) const {
  out->assign(RowPtr(row), RowPtr(row) + num_columns_);
}

Database::Database(Schema schema) : schema_(std::move(schema)) {
  tables_.reserve(schema_.num_relations());
  for (int r = 0; r < schema_.num_relations(); ++r) {
    tables_.emplace_back(schema_.relation(r).num_attributes());
  }
}

uint64_t Database::TotalBytes() const {
  uint64_t total = 0;
  for (const Table& t : tables_) total += t.ByteSize();
  return total;
}

uint64_t Database::TotalRows() const {
  uint64_t total = 0;
  for (const Table& t : tables_) total += t.num_rows();
  return total;
}

uint64_t Database::RowCount(int relation) const {
  return tables_[relation].num_rows();
}

void TableSource::FillBlockRange(int relation, int64_t begin, int64_t end,
                                 RowBlock* out) const {
  ScanRange(relation, begin, end,
            [out](const Row& row) { out->AppendRowMajor(row.data(), 1); });
}

void Database::Scan(int relation,
                    const std::function<void(const Row&)>& fn) const {
  ScanRange(relation, 0, static_cast<int64_t>(tables_[relation].num_rows()),
            fn);
}

void Database::ScanRange(int relation, int64_t begin, int64_t end,
                         const std::function<void(const Row&)>& fn) const {
  const Table& t = tables_[relation];
  HYDRA_CHECK_MSG(begin >= 0 && begin <= end &&
                      end <= static_cast<int64_t>(t.num_rows()),
                  "scan range [" << begin << ", " << end
                                 << ") out of bounds for relation "
                                 << relation);
  Row row(t.num_columns());
  for (int64_t r = begin; r < end; ++r) {
    const Value* p = t.RowPtr(r);
    row.assign(p, p + t.num_columns());
    fn(row);
  }
}

void Database::FillBlockRange(int relation, int64_t begin, int64_t end,
                              RowBlock* out) const {
  const Table& t = tables_[relation];
  const int64_t rows = static_cast<int64_t>(t.num_rows());
  HYDRA_CHECK_MSG(begin >= 0 && begin <= end && end <= rows,
                  "scan range [" << begin << ", " << end
                                 << ") out of bounds for relation "
                                 << relation);
  // Serve from the columnar mirror: a per-call transpose would redo the
  // same work for every query that scans this relation.
  std::shared_lock<std::shared_mutex> read(columnar_->mu);
  if (!MirrorCurrent(relation)) {
    read.unlock();
    PrepareScan(relation);
    read.lock();
  }
  out->AppendRange(columnar_->blocks[relation], begin, end - begin);
}

bool Database::MirrorCurrent(int relation) const {
  return static_cast<size_t>(relation) < columnar_->blocks.size() &&
         columnar_->blocks[relation].num_rows() ==
             static_cast<int64_t>(tables_[relation].num_rows());
}

void Database::PrepareScan(int relation) const {
  {
    std::shared_lock<std::shared_mutex> read(columnar_->mu);
    if (MirrorCurrent(relation)) return;
  }
  // The mirror only ever appends (tables are append-only), so refresh =
  // transpose the tail.
  std::unique_lock<std::shared_mutex> write(columnar_->mu);
  if (columnar_->blocks.size() != tables_.size()) {
    columnar_->blocks.resize(tables_.size());
  }
  const Table& t = tables_[relation];
  const int64_t rows = static_cast<int64_t>(t.num_rows());
  RowBlock& mirror = columnar_->blocks[relation];
  if (mirror.num_columns() != t.num_columns() || mirror.num_rows() > rows) {
    mirror.Reset(t.num_columns());
  }
  if (mirror.num_rows() < rows) {
    mirror.Reserve(rows);
    mirror.AppendRowMajor(t.RowPtr(mirror.num_rows()),
                          rows - mirror.num_rows());
  }
}

Status Database::CheckReferentialIntegrity() const {
  for (int r = 0; r < schema_.num_relations(); ++r) {
    const Relation& rel = schema_.relation(r);
    for (int fk : rel.ForeignKeyIndices()) {
      const int target = rel.attribute(fk).fk_target;
      const Relation& target_rel = schema_.relation(target);
      const int target_pk = target_rel.PrimaryKeyIndex();
      if (target_pk < 0) {
        return Status::FailedPrecondition("FK target " + target_rel.name() +
                                          " has no primary key");
      }
      std::unordered_set<Value> pks;
      const Table& tt = tables_[target];
      pks.reserve(tt.num_rows() * 2);
      for (uint64_t i = 0; i < tt.num_rows(); ++i) {
        pks.insert(tt.At(i, target_pk));
      }
      const Table& ft = tables_[r];
      for (uint64_t i = 0; i < ft.num_rows(); ++i) {
        if (pks.find(ft.At(i, fk)) == pks.end()) {
          return Status::FailedPrecondition(
              "dangling FK " + rel.name() + "." + rel.attribute(fk).name +
              " = " + std::to_string(ft.At(i, fk)) + " at row " +
              std::to_string(i));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace hydra

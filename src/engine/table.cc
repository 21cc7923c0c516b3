#include "engine/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace hydra {

void Table::Reserve(uint64_t rows) {
  for (ValueBuffer& col : cols_) col.reserve(rows);
}

void Table::ResizeRows(uint64_t rows) {
  for (ValueBuffer& col : cols_) col.resize(rows);
  num_rows_ = rows;
}

void Table::AppendRow(const Row& row) {
  HYDRA_DCHECK(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
  ++num_rows_;
}

void Table::GetRow(uint64_t row, Row* out) const {
  out->resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) (*out)[c] = cols_[c][row];
}

bool Table::operator==(const Table& other) const {
  if (cols_.size() != other.cols_.size() || num_rows_ != other.num_rows_) {
    return false;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!std::equal(cols_[c].begin(), cols_[c].end(),
                    other.cols_[c].begin())) {
      return false;
    }
  }
  return true;
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

void TableSource::Scan(int relation,
                       const std::function<void(const Row&)>& fn) const {
  ScanRange(relation, 0, static_cast<int64_t>(RowCount(relation)), fn);
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
    t.GetRow(r, &row);
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
  const int64_t base = out->num_rows();
  out->ResizeUninitialized(base + (end - begin));
  for (int c = 0; c < t.num_columns(); ++c) {
    if (!out->IsLive(c)) continue;
    std::copy(t.Column(c) + begin, t.Column(c) + end,
              out->MutableColumn(c) + base);
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

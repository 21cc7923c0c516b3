#include "hydra/tuple_generator.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/kernels.h"
#include "storage/disk_table.h"

namespace hydra {

// One columnar generation pass (FillBlockRange: an engine scan block, a
// private serving grant or a shared chunk).
HYDRA_METRIC_HISTOGRAM(g_gen_fill_us, "gen/fill_us");

TupleGenerator::TupleGenerator(const DatabaseSummary& summary)
    : summary_(summary) {
  const int num_relations = static_cast<int>(summary_.relations.size());
  pk_attr_.resize(num_relations);
  uncovered_attrs_.resize(num_relations);
  for (int r = 0; r < num_relations; ++r) {
    const RelationSummary& rs = summary_.relations[r];
    HYDRA_CHECK_MSG(!rs.rows.empty() == !rs.prefix_counts.empty() &&
                        rs.prefix_counts.size() == rs.rows.size(),
                    "relation summary not finalized");
    const Relation& rel = summary_.schema.relation(r);
    pk_attr_[r] = rel.PrimaryKeyIndex();
    // Attributes neither produced by the summary nor the PK default to 0;
    // they are zeroed once per output buffer instead of once per tuple.
    std::vector<char> covered(rel.num_attributes(), 0);
    for (int a : rs.attr_indices) covered[a] = 1;
    if (pk_attr_[r] >= 0) covered[pk_attr_[r]] = 1;
    for (int a = 0; a < rel.num_attributes(); ++a) {
      if (!covered[a]) uncovered_attrs_[r].push_back(a);
    }
  }
}

uint64_t TupleGenerator::RowCount(int relation) const {
  return static_cast<uint64_t>(summary_.relations[relation].TotalCount());
}

void TupleGenerator::FillRow(int relation, int summary_row, int64_t pk,
                             Row* out) const {
  const RelationSummary& rs = summary_.relations[relation];
  const SolutionRow& srow = rs.rows[summary_row];
  for (size_t i = 0; i < rs.attr_indices.size(); ++i) {
    (*out)[rs.attr_indices[i]] = srow.values[i];
  }
  const int pk_attr = pk_attr_[relation];
  if (pk_attr >= 0) (*out)[pk_attr] = pk;
}

void TupleGenerator::CheckRange(int relation, int64_t begin,
                                int64_t end) const {
  HYDRA_CHECK_MSG(begin >= 0 && begin <= end &&
                      end <= summary_.relations[relation].TotalCount(),
                  "scan range [" << begin << ", " << end
                                 << ") out of bounds for relation "
                                 << summary_.schema.relation(relation).name());
}

void TupleGenerator::ForEachSummaryRun(
    int relation, int64_t begin, int64_t end,
    const std::function<void(int, int64_t, int64_t)>& fn) const {
  CheckRange(relation, begin, end);
  if (begin == end) return;
  const RelationSummary& rs = summary_.relations[relation];
  int64_t pk = begin;
  for (int i = rs.RowIndexForTuple(begin); pk < end; ++i) {
    const int64_t stop = std::min(end, rs.prefix_counts[i] + rs.rows[i].count);
    if (stop > pk) {
      fn(i, pk, stop);
      pk = stop;
    }
  }
}

void TupleGenerator::ScanRange(
    int relation, int64_t begin, int64_t end,
    const std::function<void(const Row&)>& fn) const {
  const Relation& rel = summary_.schema.relation(relation);
  const int pk_attr = pk_attr_[relation];
  Row row(rel.num_attributes(), 0);
  ForEachSummaryRun(
      relation, begin, end, [&](int i, int64_t pk, int64_t stop) {
        // All tuples of a summary row share its attribute values: fill
        // once, then only rewrite the PK in the inner loop.
        FillRow(relation, i, pk, &row);
        for (; pk < stop; ++pk) {
          if (pk_attr >= 0) row[pk_attr] = pk;
          fn(row);
        }
      });
}

void TupleGenerator::ScanBlocksRange(
    int relation, int64_t begin, int64_t end, int64_t block_rows,
    const std::function<void(const Value*, int64_t)>& fn) const {
  HYDRA_CHECK_MSG(block_rows > 0, "block_rows must be positive");
  CheckRange(relation, begin, end);
  const int width = summary_.schema.relation(relation).num_attributes();
  // Uninitialized: FillRange writes every value of each block.
  ValueBuffer block(static_cast<size_t>(
      std::min(block_rows, end - begin) * width));
  for (int64_t b = begin; b < end; b += block_rows) {
    const int64_t n = std::min(block_rows, end - b);
    FillRange(relation, b, b + n, block.data());
    fn(block.data(), n);
  }
}

namespace {

// FillRange's copy unit. A run's rows are copied from its first tile, which
// is re-read for every copy and so must stay in L1 at any relation width.
// Filling materialize_wls' 3.95M rows on one thread, 2-8 KiB tiles read the
// same, and 512 B, 32 KiB and 128 KiB tiles up to 1.5x more CPU
// (docs/generation.md).
constexpr int64_t kTileBytes = 8192;

}  // namespace

void TupleGenerator::FillRange(int relation, int64_t begin, int64_t end,
                               Value* dst) const {
  const int width = summary_.schema.relation(relation).num_attributes();
  const int pk_attr = pk_attr_[relation];
  const size_t row_bytes = sizeof(Value) * width;
  const int64_t tile_rows = std::max<int64_t>(
      1, kTileBytes / std::max<int64_t>(1, static_cast<int64_t>(row_bytes)));
  Row row(width, 0);
  ForEachSummaryRun(
      relation, begin, end, [&](int i, int64_t pk, int64_t stop) {
        // The run's first row is its template row. Every copy reads the
        // run's first rows, doubling until they fill a tile, then a whole
        // tile at a time, and rewrites its PK column while it is in cache.
        FillRow(relation, i, pk, &row);
        std::memcpy(dst, row.data(), row_bytes);
        const int64_t n = stop - pk;
        for (int64_t done = 1; done < n;) {
          const int64_t m = std::min({done, tile_rows, n - done});
          Value* out = dst + done * width;
          std::memcpy(out, dst, row_bytes * m);
          if (pk_attr >= 0) {
            for (int64_t t = 0; t < m; ++t) {
              out[t * width + pk_attr] = pk + done + t;
            }
          }
          done += m;
        }
        dst += n * width;
      });
}

template <typename ColumnFn, typename LiveFn, typename RunFn>
void TupleGenerator::FillColumns(int relation, int64_t begin, int64_t end,
                                 bool heads, ColumnFn column, LiveFn live,
                                 RunFn run) const {
  const RelationSummary& rs = summary_.relations[relation];
  const int pk_attr = pk_attr_[relation];
  int64_t head = 0;  // with `heads`, the row of the next run
  ForEachSummaryRun(
      relation, begin, end, [&](int i, int64_t pk, int64_t stop) {
        // One summary run = one constant splat per summary attribute, an
        // iota run for the PK (splatted attributes the PK shadows are
        // overwritten, mirroring FillRow), and zeros for uncovered columns.
        // A head is the run's first row alone.
        const SolutionRow& srow = rs.rows[i];
        const int64_t offset = heads ? head++ : pk - begin;
        const int64_t n = heads ? 1 : stop - pk;
        for (size_t a = 0; a < rs.attr_indices.size(); ++a) {
          if (!live(rs.attr_indices[a])) continue;
          kernels::FillConst(column(rs.attr_indices[a]) + offset, n,
                             srow.values[a]);
        }
        if (pk_attr >= 0 && live(pk_attr)) {
          kernels::FillIota(column(pk_attr) + offset, n, pk);
        }
        for (int a : uncovered_attrs_[relation]) {
          if (live(a)) kernels::FillConst(column(a) + offset, n, 0);
        }
        run(pk, stop);
      });
}

void TupleGenerator::FillBlockRange(int relation, int64_t begin, int64_t end,
                                    RowBlock* out) const {
  ScopedLatencyTimer timer(&g_gen_fill_us);
  const int64_t base = out->num_rows();
  // Weights describe the whole block, so only a fill into an empty block
  // answers a heads request.
  const bool heads = base == 0 && out->heads_requested();
  int64_t rows = end - begin;
  if (heads) {
    rows = 0;
    ForEachSummaryRun(relation, begin, end,
                      [&rows](int, int64_t, int64_t) { ++rows; });
  }
  out->ResizeUninitialized(base + rows);
  FillColumns(
      relation, begin, end, heads,
      [out, base](int a) { return out->MutableColumn(a) + base; },
      [out](int a) { return out->IsLive(a); },
      [out, heads](int64_t pk, int64_t stop) {
        if (heads) out->AppendWeight(static_cast<uint64_t>(stop - pk));
      });
}

void TupleGenerator::FillTableRange(int relation, int64_t begin, int64_t end,
                                    Table* table) const {
  HYDRA_CHECK_MSG(end <= static_cast<int64_t>(table->num_rows()),
                  "table of " << table->num_rows() << " rows cannot hold rank "
                              << end - 1);
  FillColumns(
      relation, begin, end, /*heads=*/false,
      [table, begin](int a) { return table->MutableColumn(a) + begin; },
      [](int) { return true; }, [](int64_t, int64_t) {});
}

void TupleGenerator::GetTuple(int relation, int64_t r, Row* out) const {
  const RelationSummary& rs = summary_.relations[relation];
  HYDRA_CHECK_MSG(r >= 0 && r < rs.TotalCount(),
                  "tuple index " << r << " out of range for relation "
                                 << summary_.schema.relation(relation).name());
  const int width = summary_.schema.relation(relation).num_attributes();
  // FillRow covers every summary attribute and the PK; only attributes the
  // summary never mentions need zeroing, so repeated calls reusing one
  // buffer skip the full per-call reassignment.
  if (static_cast<int>(out->size()) != width) {
    out->assign(width, 0);
  } else {
    for (int a : uncovered_attrs_[relation]) (*out)[a] = 0;
  }
  FillRow(relation, rs.RowIndexForTuple(r), r, out);
}

namespace {

// One unit of parallel materialization work: the rank range [begin, end) of
// one relation.
struct Shard {
  int relation;
  int64_t begin;
  int64_t end;
};

// Splits every relation of `summary` into shards of at most
// `options.shard_rows` rows, in (relation, rank) order.
std::vector<Shard> PlanShards(const DatabaseSummary& summary,
                              const GenerationOptions& options) {
  HYDRA_CHECK_MSG(options.shard_rows > 0, "shard_rows must be positive");
  std::vector<Shard> shards;
  for (int r = 0; r < summary.schema.num_relations(); ++r) {
    const int64_t rows = summary.relations[r].TotalCount();
    for (int64_t b = 0; b < rows; b += options.shard_rows) {
      shards.push_back({r, b, std::min(rows, b + options.shard_rows)});
    }
  }
  return shards;
}

int ResolveThreads(const GenerationOptions& options, size_t num_shards) {
  const int threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                               : options.num_threads;
  return std::max(1, std::min<int>(threads, static_cast<int>(num_shards)));
}

}  // namespace

StatusOr<Database> MaterializeDatabase(const DatabaseSummary& summary,
                                       const GenerationOptions& options) {
  Database db(summary.schema);
  const TupleGenerator gen(summary);
  for (int r = 0; r < summary.schema.num_relations(); ++r) {
    db.table(r).ResizeRows(gen.RowCount(r));
  }
  const std::vector<Shard> shards = PlanShards(summary, options);
  ThreadPool pool(ResolveThreads(options, shards.size()));
  ParallelFor(pool, static_cast<int>(shards.size()), [&](int i) {
    const Shard& s = shards[i];
    gen.FillTableRange(s.relation, s.begin, s.end, &db.table(s.relation));
  });
  return db;
}

StatusOr<uint64_t> MaterializeToDisk(const DatabaseSummary& summary,
                                     const std::string& dir,
                                     const GenerationOptions& options) {
  const TupleGenerator gen(summary);
  const Schema& schema = summary.schema;
  // Every table is emptied to its in-progress header before any is
  // reserved: a rewrite frees the previous run's blocks before it allocates
  // its own, and a failed reservation leaves no table of the directory
  // scanning as the previous run's.
  std::vector<std::string> paths(schema.num_relations());
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    paths[r] = dir + "/" + rel.name() + ".tbl";
    HYDRA_RETURN_IF_ERROR(
        PreallocateDiskTable(paths[r], rel.num_attributes()));
  }
  for (int r = 0; r < schema.num_relations(); ++r) {
    HYDRA_RETURN_IF_ERROR(PreallocateDiskTable(
        paths[r], schema.relation(r).num_attributes(), gen.RowCount(r)));
  }
  // One flat shard list across all relations keeps every worker busy even
  // when a single relation dominates the row count.
  const std::vector<Shard> shards = PlanShards(summary, options);
  ThreadPool pool(ResolveThreads(options, shards.size()));
  std::vector<Status> statuses(shards.size(), Status::OK());
  // The table lock: shards of one table generate in parallel but write one
  // block at a time. Concurrent writes to one file serialize on its inode
  // lock in the kernel anyway; waiting here costs the workers less CPU.
  std::vector<std::mutex> table_locks(schema.num_relations());
  // One failed shard (disk full, deleted file) aborts the fleet: shards not
  // yet started bail before generating their ranges. An in-flight shard
  // still finishes generating its (shard_rows-bounded) range — its callback
  // just stops writing — which keeps ScanBlocksRange abort-free.
  std::atomic<bool> failed{false};
  ParallelFor(pool, static_cast<int>(shards.size()), [&](int i) {
    if (failed.load(std::memory_order_relaxed)) return;
    const Shard& s = shards[i];
    DiskTableWriter writer(paths[s.relation],
                           schema.relation(s.relation).num_attributes());
    Status status = writer.OpenShard(s.begin);
    if (status.ok()) {
      gen.ScanBlocksRange(s.relation, s.begin, s.end, options.block_rows,
                          [&](const Value* rows, int64_t n) {
                            if (!status.ok()) return;
                            std::lock_guard<std::mutex> lock(
                                table_locks[s.relation]);
                            status = writer.AppendBlock(rows, n);
                          });
      const Status close_status = writer.Close();
      if (status.ok()) status = close_status;
    }
    if (!status.ok()) {
      statuses[i] = status;
      failed.store(true, std::memory_order_relaxed);
    }
  });
  for (const Status& s : statuses) HYDRA_RETURN_IF_ERROR(s);
  // Every shard landed: only now stamp the real row counts, so a crashed or
  // failed run leaves files that scan as empty instead of as tables whose
  // unwritten holes read back as rows of zeros.
  uint64_t total_bytes = 0;
  for (int r = 0; r < schema.num_relations(); ++r) {
    HYDRA_RETURN_IF_ERROR(FinalizeDiskTable(
        paths[r], schema.relation(r).num_attributes(), gen.RowCount(r)));
    HYDRA_ASSIGN_OR_RETURN(const uint64_t bytes, DiskTableBytes(paths[r]));
    total_bytes += bytes;
  }
  return total_bytes;
}

}  // namespace hydra

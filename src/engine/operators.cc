#include "engine/operators.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace hydra {

namespace {

HYDRA_METRIC_COUNTER(g_join_index_dense, "engine/join_index_dense");
HYDRA_METRIC_COUNTER(g_join_index_hashed, "engine/join_index_hashed");

// Rows per morsel under `ctx` (ExecOptions' default without one).
int64_t MorselRows(const ExecContext* ctx) {
  return std::max<int64_t>(
      1, ctx == nullptr ? ExecOptions{}.morsel_rows : ctx->morsel_rows());
}

}  // namespace

// --- ExecContext ---------------------------------------------------------

ExecContext::ExecContext(ExecOptions options) : options_(options) {
  if (options_.morsel_rows < 1) options_.morsel_rows = 1;
  const int threads = options_.ResolvedThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

ExecContext::ExecContext(ExecOptions options, ThreadPool* shared_pool,
                         int slot_parallelism)
    : options_(options) {
  if (options_.morsel_rows < 1) options_.morsel_rows = 1;
  if (shared_pool != nullptr && slot_parallelism > 1 &&
      shared_pool->num_threads() > 1) {
    external_pool_ = shared_pool;
    slot_parallelism_ =
        std::min(slot_parallelism, shared_pool->num_threads());
  }
}

int64_t NumMorsels(const ExecContext* ctx, int64_t total_rows) {
  // Not (total_rows + rows - 1) / rows, which wraps for rows near
  // INT64_MAX.
  const int64_t rows = MorselRows(ctx);
  return total_rows / rows + (total_rows % rows != 0 ? 1 : 0);
}

void ForEachMorsel(ExecContext* ctx, int64_t total_rows,
                   const MorselTask& task) {
  const int64_t morsel_rows = MorselRows(ctx);
  // Morsel m starts at m × morsel_rows <= total_rows - 1, and ends at most
  // morsel_rows later: neither sum can overflow.
  const auto run = [&](int64_t m) {
    const int64_t begin = m * morsel_rows;
    task(m, begin, begin + std::min(morsel_rows, total_rows - begin));
  };
  ParallelFor(ctx == nullptr ? nullptr : ctx->pool(),
              ctx == nullptr ? 1 : ctx->parallelism(),
              NumMorsels(ctx, total_rows), run,
              ctx == nullptr ? nullptr : ctx->cancel());
}

Status ScanFiltered(const TableSource& source, int relation, int width,
                    const DnfPredicate& filter,
                    const std::vector<int>& columns, const ExecContext* ctx,
                    RowBlock* out) {
  const kernels::BlockPredicate predicate(filter);
  std::vector<int> live = columns;
  for (const int c : filter.Columns()) live.push_back(c);
  const int64_t total_rows = static_cast<int64_t>(source.RowCount(relation));
  const int64_t morsel_rows = MorselRows(ctx);
  const int num_kept = static_cast<int>(columns.size());
  out->Reset(num_kept);
  // Reused across scans, so a workload loop fills one set of buffers.
  thread_local RowBlock morsel;
  thread_local SelVector sel;
  for (int64_t m = 0, n = NumMorsels(ctx, total_rows); m < n; ++m) {
    if (ctx != nullptr) HYDRA_RETURN_IF_ERROR(ctx->CheckCancel());
    const int64_t begin = m * morsel_rows;
    const int64_t end = begin + std::min(morsel_rows, total_rows - begin);
    morsel.Reset(width);
    morsel.SetLiveColumns(live);
    source.FillBlockRange(relation, begin, end, &morsel);
    // The selection is ascending, so the kept rows stay in rank order.
    const bool keep_all = predicate.is_true();
    if (!keep_all) predicate.Select(morsel, &sel);
    const int64_t kept =
        keep_all ? morsel.num_rows() : static_cast<int64_t>(sel.size());
    const int64_t base = out->num_rows();
    out->ResizeUninitialized(base + kept);
    for (int c = 0; c < num_kept; ++c) {
      const Value* src = morsel.Column(columns[c]);
      Value* dst = out->MutableColumn(c) + base;
      if (keep_all) {
        std::copy(src, src + kept, dst);
      } else {
        kernels::Gather(src, sel.data(), kept, dst);
      }
    }
  }
  return Status::OK();
}

// --- JoinIndex -----------------------------------------------------------

JoinIndex::Layout JoinIndex::ChooseLayout(uint64_t key_distance,
                                          int64_t build_rows,
                                          int64_t scanned_rows) {
  const int64_t limit = std::max<int64_t>(
      8 * build_rows, std::min(scanned_rows, kScanRangeCap));
  // range = key_distance + 1 <= limit, without forming the (possibly
  // wrapping) range itself.
  if (key_distance < static_cast<uint64_t>(limit)) return Layout::kDense;
  return Layout::kHashed;
}

void JoinIndex::KeyMap::Init(int64_t rows) {
  uint64_t cap = 8;
  while (cap < static_cast<uint64_t>(rows) * 2) cap <<= 1;
  slots.assign(cap, {});
  mask = static_cast<uint32_t>(cap - 1);
}

JoinIndex::KeySlot* JoinIndex::KeyMap::FindOrInsert(Value key,
                                                    uint64_t hash) {
  uint32_t i = static_cast<uint32_t>(hash >> 32) & mask;
  while (slots[i].len != 0) {
    if (slots[i].key == key) return &slots[i];
    i = (i + 1) & mask;
  }
  slots[i].key = key;
  return &slots[i];
}

void JoinIndex::Build(const Value* keys, int64_t n, int64_t scanned_rows,
                      ExecContext* ctx) {
  HYDRA_CHECK_MSG(n < INT64_C(0xffffffff),
                  "build side too large for uint32 row ids");
  Value min = 0;
  Value max = 0;
  if (n > 0) {
    const auto [lo, hi] = std::minmax_element(keys, keys + n);
    min = *lo;
    max = *hi;
  }
  const uint64_t distance =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  // An empty build has no key range; dense is then a two-entry array.
  layout_ = n == 0 ? Layout::kDense : ChooseLayout(distance, n, scanned_rows);
  row_ids_.resize(static_cast<size_t>(n));
  if (layout_ == Layout::kDense) {
    g_join_index_dense.Inc();
    BuildDense(keys, n, min, n == 0 ? 0 : distance + 1);
  } else {
    g_join_index_hashed.Inc();
    BuildHashed(keys, n, ctx);
  }
}

void JoinIndex::BuildDense(const Value* keys, int64_t n, Value min,
                           uint64_t range) {
  partitions_.clear();
  min_ = min;
  range_ = range;
  // Count pass, inclusive prefix sum (each entry becomes its key's span
  // end), then a reverse-order placement pass that walks every entry down
  // to its span begin — the CSR fill of the hashed layout, with the slot
  // found by subtraction instead of a probe. The two trailing entries stay
  // at n: key k - min_ == range_ then reads the empty span [n, n).
  offsets_.assign(range + 2, 0);
  uint32_t* const off = offsets_.data();
  const uint64_t base = static_cast<uint64_t>(min);
  for (int64_t r = 0; r < n; ++r) ++off[static_cast<uint64_t>(keys[r]) - base];
  uint32_t end = 0;
  for (uint64_t k = 0; k < range; ++k) {
    end += off[k];
    off[k] = end;
  }
  off[range] = off[range + 1] = static_cast<uint32_t>(n);
  for (int64_t r = n - 1; r >= 0; --r) {
    const uint64_t k = static_cast<uint64_t>(keys[r]) - base;
    row_ids_[--off[k]] = static_cast<uint32_t>(r);
  }
}

void JoinIndex::BuildHashed(const Value* keys, int64_t n, ExecContext* ctx) {
  offsets_.clear();
  // One kernel pass hashes the whole key column; partition index and
  // bucket index both come from the precomputed hash (low bits pick the
  // partition, high bits the bucket — see KeyMap).
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());

  // Hash-partitioned CSR build. Each partition runs a count pass (span
  // lengths per key), assigns span *end* offsets within its region of
  // row_ids_, then a reverse-order fill pass that places row ids back to
  // front — after which every span's begin has walked down to its start
  // and the ids sit in build-stream order. Two passes over a flat
  // open-addressing map cost less than a node allocation per distinct key,
  // and the flat layout probes cache-friendly.
  const bool parallel = ctx != nullptr && ctx->parallelism() > 1 && n >= 1024;
  const int num_parts = parallel ? std::min(ctx->parallelism(), 64) : 1;
  partitions_.assign(num_parts, {});
  // Builds partition `p`, whose rows fill row_ids_[base[p], base[p + 1]),
  // from forward/reverse walks of its row ids (both in build-stream order /
  // reversed build-stream order respectively). The walkers are generic
  // callables so every per-row call inlines — a std::function here costs an
  // indirect call per build row per pass. Pass 1 records each row's slot so
  // the fill pass never re-probes.
  std::vector<uint32_t> slot_of_row(static_cast<size_t>(n));
  std::vector<int64_t> base = {0, n};
  const auto build_partition =
      [&](int p, const auto& forward, const auto& reverse) {
        KeyMap& part = partitions_[p];
        part.Init(base[p + 1] - base[p]);
        KeySlot* const slots = part.slots.data();
        forward([&](uint32_t r) {
          KeySlot* slot = part.FindOrInsert(keys[r], hashes[r]);
          ++slot->len;
          slot_of_row[r] = static_cast<uint32_t>(slot - slots);
        });
        uint32_t offset = static_cast<uint32_t>(base[p]);
        for (KeySlot& slot : part.slots) {
          if (slot.len == 0) continue;
          offset += slot.len;
          slot.begin = offset;  // one past the span end; fill walks it down
        }
        reverse([&](uint32_t r) {
          row_ids_[--slots[slot_of_row[r]].begin] = r;
        });
      };
  if (num_parts == 1) {
    build_partition(
        0,
        [n](const auto& fn) {
          for (int64_t r = 0; r < n; ++r) fn(static_cast<uint32_t>(r));
        },
        [n](const auto& fn) {
          for (int64_t r = n - 1; r >= 0; --r) fn(static_cast<uint32_t>(r));
        });
  } else {
    // buckets[chunk][partition] -> row ids, so total work stays O(n):
    // pass 1 has each chunk bucket its own rows by partition; pass 2 has
    // each partition consume its buckets in chunk order, which is exactly
    // build-stream order.
    const int num_chunks = num_parts;
    std::vector<std::vector<std::vector<uint32_t>>> buckets(
        num_chunks, std::vector<std::vector<uint32_t>>(num_parts));
    const int64_t chunk_rows = (n + num_chunks - 1) / num_chunks;
    ParallelFor(ctx->pool(), ctx->parallelism(), num_chunks, [&](int64_t c) {
      auto& mine = buckets[c];
      const int64_t begin = c * chunk_rows;
      const int64_t end = std::min(n, begin + chunk_rows);
      for (int64_t r = begin; r < end; ++r) {
        mine[hashes[r] % static_cast<uint64_t>(num_parts)].push_back(
            static_cast<uint32_t>(r));
      }
    });
    base.assign(num_parts + 1, 0);
    for (int p = 0; p < num_parts; ++p) {
      base[p + 1] = base[p];
      for (int c = 0; c < num_chunks; ++c) {
        base[p + 1] += static_cast<int64_t>(buckets[c][p].size());
      }
    }
    ParallelFor(ctx->pool(), ctx->parallelism(), num_parts, [&](int64_t p) {
      build_partition(
          p,
          [&buckets, num_chunks, p](const auto& fn) {
            for (int c = 0; c < num_chunks; ++c) {
              for (const uint32_t r : buckets[c][p]) fn(r);
            }
          },
          [&buckets, num_chunks, p](const auto& fn) {
            for (int c = num_chunks - 1; c >= 0; --c) {
              const auto& ids = buckets[c][p];
              for (size_t i = ids.size(); i > 0; --i) fn(ids[i - 1]);
            }
          });
    });
  }
}

void JoinIndex::Probe(const Value* keys, int64_t n, Span* spans) const {
  if (layout_ == Layout::kDense) {
    // Out-of-range keys clamp onto the trailing empty span: no branch.
    const uint32_t* const off = offsets_.data();
    const uint64_t lo = static_cast<uint64_t>(min_);
    for (int64_t i = 0; i < n; ++i) {
      const uint64_t k = std::min(static_cast<uint64_t>(keys[i]) - lo, range_);
      spans[i] = {off[k], off[k + 1] - off[k]};
    }
    return;
  }
  // The whole key column is hashed in one kernel pass; the per-key loop
  // only partitions and probes. thread_local scratch: probes run
  // concurrently from morsel workers.
  thread_local std::vector<uint64_t> hashes;
  hashes.resize(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());
  const uint64_t num_parts = partitions_.size();
  // The slot array exceeds cache for large build sides, so each probe's
  // first bucket touch is a miss; prefetching a fixed distance ahead hides
  // it behind the current key's work.
  constexpr int64_t kPrefetchAhead = 16;
  for (int64_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchAhead < n) {
      const uint64_t ha = hashes[i + kPrefetchAhead];
      const KeyMap& pa = partitions_[num_parts == 1 ? 0 : ha % num_parts];
      __builtin_prefetch(&pa.slots[static_cast<uint32_t>(ha >> 32) & pa.mask]);
    }
#endif
    const uint64_t h = hashes[i];
    const KeySlot* slot =
        partitions_[num_parts == 1 ? 0 : h % num_parts].Find(keys[i], h);
    spans[i] = slot == nullptr ? Span{} : Span{slot->begin, slot->len};
  }
}

}  // namespace hydra

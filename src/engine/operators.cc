#include "engine/operators.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace hydra {

namespace {

HYDRA_METRIC_COUNTER(g_join_index_dense, "engine/join_index_dense");
HYDRA_METRIC_COUNTER(g_join_index_hashed, "engine/join_index_hashed");
HYDRA_METRIC_COUNTER(g_join_index_runs, "engine/join_index_runs");

}  // namespace

Status ScanFiltered(const TableSource& source, int relation, int width,
                    const DnfPredicate& filter,
                    const std::vector<int>& columns, int64_t morsel_rows,
                    bool heads, const CancelScope* cancel, RowBlock* out) {
  const kernels::BlockPredicate predicate(filter);
  std::vector<int> live = columns;
  for (const int c : filter.Columns()) live.push_back(c);
  const int64_t total_rows = static_cast<int64_t>(source.RowCount(relation));
  morsel_rows = std::max<int64_t>(1, morsel_rows);
  const int num_kept = static_cast<int>(columns.size());
  out->Reset(num_kept);
  // Reused across scans, so a workload loop fills one set of buffers.
  thread_local RowBlock morsel;
  thread_local SelVector sel;
  thread_local std::vector<uint64_t> kept_weights;
  kept_weights.clear();
  // Whether the first fill came back as run heads: then the rest of the
  // relation is one more fill, and every kept row carries a weight.
  bool weighted = false;
  // end - begin <= total_rows - begin: no sum can wrap, even for a morsel
  // size near INT64_MAX.
  for (int64_t begin = 0; begin < total_rows;) {
    if (cancel != nullptr) HYDRA_RETURN_IF_ERROR(cancel->Check());
    const int64_t end =
        weighted ? total_rows
                 : begin + std::min(morsel_rows, total_rows - begin);
    morsel.Reset(width);
    morsel.SetLiveColumns(live);
    if (heads && (begin == 0 || weighted)) morsel.RequestHeads();
    source.FillBlockRange(relation, begin, end, &morsel);
    if (begin == 0) weighted = morsel.weighted();
    // The selection is ascending, so the kept rows stay in rank order.
    const bool keep_all = predicate.is_true();
    if (!keep_all) predicate.SelectRange(morsel, 0, morsel.num_rows(), &sel);
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
    if (weighted) {
      // A rest fill the source answered per row weighs 1 a row.
      const uint64_t* w = morsel.weighted() ? morsel.weights() : nullptr;
      for (int64_t i = 0; i < kept; ++i) {
        const int64_t row = keep_all ? i : sel[i];
        kept_weights.push_back(w != nullptr ? w[row] : 1);
      }
    }
    begin = end;
  }
  for (const uint64_t w : kept_weights) out->AppendWeight(w);
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

void JoinIndex::Build(const Value* keys, int64_t n, int64_t scanned_rows) {
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
  run_starts_.clear();
  run_lengths_.clear();
  if (layout_ == Layout::kDense) {
    g_join_index_dense.Inc();
    BuildDense(keys, n, min, n == 0 ? 0 : distance + 1);
  } else {
    g_join_index_hashed.Inc();
    BuildHashed(keys, n);
  }
}

void JoinIndex::BuildDense(const Value* keys, int64_t n, Value min,
                           uint64_t range) {
  slots_ = std::vector<KeySlot>();
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

void JoinIndex::BuildHashed(const Value* keys, int64_t n) {
  offsets_.clear();
  // One kernel pass hashes the whole key column.
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());
  uint64_t cap = 8;
  while (cap < static_cast<uint64_t>(n) * 2) cap <<= 1;
  slots_.assign(cap, {});
  mask_ = static_cast<uint32_t>(cap - 1);

  // CSR build: a count pass (span lengths per key) that records each row's
  // slot, span *end* offsets assigned in slot order, then a reverse-order
  // fill pass that places row ids back to front — after which every span's
  // begin has walked down to its start and the ids sit in build order. Two
  // passes over a flat open-addressing map cost less than a node allocation
  // per distinct key, and the flat layout probes cache-friendly.
  std::vector<uint32_t> slot_of_row(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const uint32_t s = FindSlot(keys[r], hashes[r]);
    slots_[s].key = keys[r];
    ++slots_[s].len;
    slot_of_row[r] = s;
  }
  uint32_t offset = 0;
  for (KeySlot& slot : slots_) {
    if (slot.len == 0) continue;
    offset += slot.len;
    slot.begin = offset;  // one past the span end; the fill walks it down
  }
  for (int64_t r = n - 1; r >= 0; --r) {
    row_ids_[--slots_[slot_of_row[r]].begin] = static_cast<uint32_t>(r);
  }
}

void JoinIndex::BuildRuns(const Value* starts, const uint64_t* lengths,
                          int64_t n) {
  HYDRA_CHECK_MSG(n < INT64_C(0xffffffff),
                  "build side too large for uint32 row ids");
  g_join_index_runs.Inc();
  layout_ = Layout::kRuns;
  offsets_.clear();
  slots_ = std::vector<KeySlot>();
  run_starts_.assign(starts, starts + n);
  run_lengths_.assign(lengths, lengths + n);
  row_ids_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    HYDRA_DCHECK(i == 0 || (starts[i] > starts[i - 1] &&
                            static_cast<uint64_t>(starts[i]) -
                                    static_cast<uint64_t>(starts[i - 1]) >=
                                lengths[i - 1]));
    row_ids_[i] = static_cast<uint32_t>(i);
  }
}

void JoinIndex::Probe(const Value* keys, int64_t n, Span* spans) const {
  if (layout_ == Layout::kRuns) {
    // The last run starting at or before the key holds it if the key lies
    // within its length; the unsigned distance cannot overflow.
    const Value* const first = run_starts_.data();
    const Value* const last = first + run_starts_.size();
    for (int64_t i = 0; i < n; ++i) {
      const Value* it = std::upper_bound(first, last, keys[i]);
      spans[i] = {};
      if (it == first) continue;
      const size_t run = static_cast<size_t>(it - first) - 1;
      if (static_cast<uint64_t>(keys[i]) - static_cast<uint64_t>(first[run]) <
          run_lengths_[run]) {
        spans[i] = {static_cast<uint32_t>(run), 1};
      }
    }
    return;
  }
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
  // only probes. thread_local scratch: the queries of a batch probe
  // concurrently.
  thread_local std::vector<uint64_t> hashes;
  hashes.resize(static_cast<size_t>(n));
  kernels::HashKeys(keys, n, hashes.data());
  // The slot array exceeds cache for large build sides, so each probe's
  // first bucket touch is a miss; prefetching a fixed distance ahead hides
  // it behind the current key's work.
  constexpr int64_t kPrefetchAhead = 16;
  for (int64_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchAhead < n) {
      const uint64_t ha = hashes[i + kPrefetchAhead];
      __builtin_prefetch(&slots_[static_cast<uint32_t>(ha >> 32) & mask_]);
    }
#endif
    const KeySlot& slot = slots_[FindSlot(keys[i], hashes[i])];
    spans[i] = {slot.begin, slot.len};
  }
}

}  // namespace hydra

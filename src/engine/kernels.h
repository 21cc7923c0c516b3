// Per-column kernels for the engine's hot loops: branch-free interval masks,
// mask combination, selection-vector extraction, gathers, batched join-key
// hashing, and constant/iota column fills.
//
// Every kernel has a scalar body written as a tight autovectorizable loop and
// an explicit SIMD body selected by a compile-time dispatch macro:
//
//   HYDRA_SIMD_LEVEL 0  portable scalar only
//   HYDRA_SIMD_LEVEL 1  SSE2   (x86-64 baseline: interval masks, mask ops,
//                               constant fills)
//   HYDRA_SIMD_LEVEL 2  AVX2   (adds 4-wide 64-bit compares and vectorized
//                               splitmix64 key hashing; build with -mavx2)
//
// The level is picked from the compiler's target flags; SetSimdEnabled(false)
// forces the scalar bodies at runtime so tests and benches can A/B the two
// paths in one binary. Scalar and SIMD bodies compute bit-identical results —
// the dispatch is a pure performance choice, never a semantic one — which is
// what keeps engine output byte-identical across ISAs (docs/engine.md).
//
// BlockPredicate is the compiled form of a DnfPredicate over a columnar
// RowBlock: atoms become interval-mask kernels, conjuncts AND masks,
// disjuncts OR them, and the result leaves as a selection vector.

#ifndef HYDRA_ENGINE_KERNELS_H_
#define HYDRA_ENGINE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "engine/row_block.h"
#include "query/predicate.h"

#if defined(__AVX2__)
#define HYDRA_SIMD_LEVEL 2
#elif defined(__SSE2__) || defined(_M_X64)
#define HYDRA_SIMD_LEVEL 1
#else
#define HYDRA_SIMD_LEVEL 0
#endif

namespace hydra {
namespace kernels {

// The dispatch level this binary was compiled with ("scalar", "sse2",
// "avx2").
const char* SimdLevelName();

// Runtime override: false forces every kernel onto its scalar body. Global;
// intended for A/B benchmarking and cross-path identity tests, not for
// toggling while queries run.
void SetSimdEnabled(bool enabled);
bool SimdEnabled();

// out[i] = col[i] in [lo, hi), as 0/1 bytes.
void IntervalMask(const Value* col, int64_t n, Value lo, Value hi,
                  uint8_t* out);
// out[i] |= col[i] in [lo, hi) — accumulates the disjuncts of a
// multi-interval atom (e.g. IN lists).
void IntervalMaskOr(const Value* col, int64_t n, Value lo, Value hi,
                    uint8_t* out);

// a[i] &= b[i] / a[i] |= b[i] over 0/1 byte masks.
void MaskAnd(uint8_t* a, const uint8_t* b, int64_t n);
void MaskOr(uint8_t* a, const uint8_t* b, int64_t n);

// Appends base + the indices with mask[i] != 0 to *sel (not cleared),
// ascending. `base` shifts the emitted indices so a mask computed over a
// sub-range of a block selects into the full block's row space.
void MaskToSel(const uint8_t* mask, int64_t n, SelVector* sel,
               int32_t base = 0);

// dst[i] = src[sel[i]]. In-place compaction (dst == src) is allowed because
// selection vectors are ascending: sel[i] >= i, so reads stay ahead of
// writes.
void Gather(const Value* src, const int32_t* sel, int64_t n, Value* dst);

// The engine's fixed integer mix (splitmix64 finalizer) for join-key
// hashing and hash partitioning. Only distributions depend on it — results
// never do — but it must stay platform-independent so partition shapes are
// reproducible.
inline uint64_t MixKey(Value v) {
  uint64_t x = static_cast<uint64_t>(v);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// out[i] = MixKey(col[i]): one pass over the whole key column, so the mix is
// computed once per batch instead of once per probe inside the hash-table
// loop. AVX2 runs 4 lanes of the 64x64 multiplies via the mul_epu32
// cross-product emulation; below AVX2 the scalar body is already the fastest
// formulation.
void HashKeys(const Value* col, int64_t n, uint64_t* out);

// dst[0..n) = v. GCC 12 leaves the scalar loop unvectorized at -O2, so the
// SIMD bodies store 2 (SSE2) or 4 (AVX2) values at a time.
void FillConst(Value* dst, int64_t n, Value v);
// dst[i] = start + i — primary keys are ranks, so generator fills emit PK
// columns as iota runs.
void FillIota(Value* dst, int64_t n, Value start);

// A DnfPredicate compiled to per-column kernel plans. SelectRange() is
// const and thread-safe (scratch masks are thread_local), so one compiled
// predicate serves concurrent morsel workers.
class BlockPredicate {
 public:
  // Default: matches nothing (same as DnfPredicate(), which is FALSE).
  BlockPredicate() = default;
  explicit BlockPredicate(const DnfPredicate& dnf);

  bool is_true() const { return is_true_; }
  bool is_false() const { return !is_true_ && conjuncts_.empty(); }

  // Clears *sel and fills it with the indices of the passing rows among
  // `block`'s rows [begin, end), ascending. Masks are evaluated over the
  // sub-range only, and the emitted indices stay absolute (in [begin,
  // end)), so gathers against the full block's columns work unchanged: a
  // scan selects a whole morsel with [0, num_rows()), and the shared-scan
  // fan path filters its slice of a group chunk without copying it first.
  // Every atom's column index must be < block.num_columns().
  void SelectRange(const RowBlock& block, int64_t begin, int64_t end,
                   SelVector* sel) const;

 private:
  struct AtomPlan {
    int column = -1;
    std::vector<Interval> intervals;  // sorted, disjoint, non-empty
  };

  std::vector<std::vector<AtomPlan>> conjuncts_;
  bool is_true_ = false;
};

}  // namespace kernels
}  // namespace hydra

#endif  // HYDRA_ENGINE_KERNELS_H_

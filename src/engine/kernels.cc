#include "engine/kernels.h"

#include <atomic>

#if HYDRA_SIMD_LEVEL >= 1
#include <immintrin.h>
#endif

namespace hydra {
namespace kernels {

namespace {

std::atomic<bool> g_simd_enabled{true};

// --- Scalar bodies -------------------------------------------------------
//
// Written as single-expression loops over contiguous data so -O2/-O3 can
// autovectorize them even at HYDRA_SIMD_LEVEL 0. They are also the reference
// semantics the explicit SIMD bodies must reproduce bit-for-bit.

void IntervalMaskScalar(const Value* col, int64_t n, Value lo, Value hi,
                        uint8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void IntervalMaskOrScalar(const Value* col, int64_t n, Value lo, Value hi,
                          uint8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] |= static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void MaskAndScalar(uint8_t* a, const uint8_t* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] &= b[i];
}

void MaskOrScalar(uint8_t* a, const uint8_t* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] |= b[i];
}

void HashKeysScalar(const Value* col, int64_t n, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = MixKey(col[i]);
}

void FillConstScalar(Value* dst, int64_t n, Value v) {
  for (int64_t i = 0; i < n; ++i) dst[i] = v;
}

void FillIotaScalar(Value* dst, int64_t n, Value start) {
  for (int64_t i = 0; i < n; ++i) dst[i] = start + i;
}

#if HYDRA_SIMD_LEVEL == 1

// Signed 64-bit a > b with only the sign bit of each lane valid (SSE2 has no
// pcmpgtq): compare the high dwords signed, and on a high-dword tie fall
// back to the low dwords compared unsigned (via the sign-flip bias). The
// per-lane verdict is assembled into the high dword, i.e. the lane's sign
// bit, which movemask_pd then extracts.
inline __m128i CmpGt64Sign(__m128i a, __m128i b) {
  const __m128i bias = _mm_set1_epi32(INT32_MIN);
  const __m128i hi_gt = _mm_cmpgt_epi32(a, b);
  const __m128i eq = _mm_cmpeq_epi32(a, b);
  const __m128i lo_gt =
      _mm_cmpgt_epi32(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias));
  // Lift each lane's low-dword verdict into its high-dword position.
  const __m128i lo_in_hi = _mm_shuffle_epi32(lo_gt, _MM_SHUFFLE(2, 2, 0, 0));
  return _mm_or_si128(hi_gt, _mm_and_si128(eq, lo_in_hi));
}

// in-range bits for lanes [i, i+2): bit j set iff col[i+j] in [lo, hi).
inline int InRangeBits2(const Value* p, __m128i vlo, __m128i vhi) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const int below = _mm_movemask_pd(_mm_castsi128_pd(CmpGt64Sign(vlo, v)));
  const int lt_hi = _mm_movemask_pd(_mm_castsi128_pd(CmpGt64Sign(vhi, v)));
  return ~below & lt_hi & 0x3;
}

void IntervalMaskSse2(const Value* col, int64_t n, Value lo, Value hi,
                      uint8_t* out) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int bits = InRangeBits2(col + i, vlo, vhi);
    out[i] = static_cast<uint8_t>(bits & 1);
    out[i + 1] = static_cast<uint8_t>(bits >> 1);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void IntervalMaskOrSse2(const Value* col, int64_t n, Value lo, Value hi,
                        uint8_t* out) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int bits = InRangeBits2(col + i, vlo, vhi);
    out[i] |= static_cast<uint8_t>(bits & 1);
    out[i + 1] |= static_cast<uint8_t>(bits >> 1);
  }
  for (; i < n; ++i) {
    out[i] |= static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void FillConstSse2(Value* dst, int64_t n, Value v) {
  const __m128i vv = _mm_set1_epi64x(v);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), vv);
  }
  for (; i < n; ++i) dst[i] = v;
}

#endif  // HYDRA_SIMD_LEVEL == 1

#if HYDRA_SIMD_LEVEL >= 2

// in-range bits for lanes [i, i+4): bit j set iff col[i+j] in [lo, hi).
inline int InRangeBits4(const Value* p, __m256i vlo, __m256i vhi) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i below = _mm256_cmpgt_epi64(vlo, v);  // v < lo
  const __m256i lt_hi = _mm256_cmpgt_epi64(vhi, v);  // v < hi
  return _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_andnot_si256(below, lt_hi)));
}

void IntervalMaskAvx2(const Value* col, int64_t n, Value lo, Value hi,
                      uint8_t* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int bits = InRangeBits4(col + i, vlo, vhi);
    out[i] = static_cast<uint8_t>(bits & 1);
    out[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    out[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    out[i + 3] = static_cast<uint8_t>(bits >> 3);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

void IntervalMaskOrAvx2(const Value* col, int64_t n, Value lo, Value hi,
                        uint8_t* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int bits = InRangeBits4(col + i, vlo, vhi);
    out[i] |= static_cast<uint8_t>(bits & 1);
    out[i + 1] |= static_cast<uint8_t>((bits >> 1) & 1);
    out[i + 2] |= static_cast<uint8_t>((bits >> 2) & 1);
    out[i + 3] |= static_cast<uint8_t>(bits >> 3);
  }
  for (; i < n; ++i) {
    out[i] |= static_cast<uint8_t>((col[i] >= lo) & (col[i] < hi));
  }
}

// 64x64->64 multiply (AVX2 has no vpmullq): the low-64 product is
// lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32), built from 32x32
// partial products.
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i b_swap = _mm256_shuffle_epi32(b, 0xB1);  // hi<->lo per lane
  const __m256i cross = _mm256_mullo_epi32(a, b_swap);   // lo*hi, hi*lo
  const __m256i cross_sum =
      _mm256_shuffle_epi32(_mm256_hadd_epi32(cross, _mm256_setzero_si256()),
                           _MM_SHUFFLE(1, 3, 0, 3));  // sums into hi dwords
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(lo_lo, cross_sum);
}

inline __m256i MixKey4(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ull)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ull)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebull)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

void FillConstAvx2(Value* dst, int64_t n, Value v) {
  const __m256i vv = _mm256_set1_epi64x(v);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), vv);
  }
  for (; i < n; ++i) dst[i] = v;
}

void HashKeysAvx2(const Value* col, int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), MixKey4(v));
  }
  for (; i < n; ++i) out[i] = MixKey(col[i]);
}

#endif  // HYDRA_SIMD_LEVEL >= 2

#if HYDRA_SIMD_LEVEL >= 1

void MaskAndSse2(uint8_t* a, const uint8_t* b, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_and_si128(va, vb));
  }
  for (; i < n; ++i) a[i] &= b[i];
}

void MaskOrSse2(uint8_t* a, const uint8_t* b, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i), _mm_or_si128(va, vb));
  }
  for (; i < n; ++i) a[i] |= b[i];
}

#endif  // HYDRA_SIMD_LEVEL >= 1

}  // namespace

const char* SimdLevelName() {
#if HYDRA_SIMD_LEVEL >= 2
  return "avx2";
#elif HYDRA_SIMD_LEVEL == 1
  return "sse2";
#else
  return "scalar";
#endif
}

void SetSimdEnabled(bool enabled) {
  g_simd_enabled.store(enabled, std::memory_order_relaxed);
}

bool SimdEnabled() { return g_simd_enabled.load(std::memory_order_relaxed); }

void IntervalMask(const Value* col, int64_t n, Value lo, Value hi,
                  uint8_t* out) {
#if HYDRA_SIMD_LEVEL >= 2
  if (SimdEnabled()) return IntervalMaskAvx2(col, n, lo, hi, out);
#elif HYDRA_SIMD_LEVEL == 1
  if (SimdEnabled()) return IntervalMaskSse2(col, n, lo, hi, out);
#endif
  IntervalMaskScalar(col, n, lo, hi, out);
}

void IntervalMaskOr(const Value* col, int64_t n, Value lo, Value hi,
                    uint8_t* out) {
#if HYDRA_SIMD_LEVEL >= 2
  if (SimdEnabled()) return IntervalMaskOrAvx2(col, n, lo, hi, out);
#elif HYDRA_SIMD_LEVEL == 1
  if (SimdEnabled()) return IntervalMaskOrSse2(col, n, lo, hi, out);
#endif
  IntervalMaskOrScalar(col, n, lo, hi, out);
}

void MaskAnd(uint8_t* a, const uint8_t* b, int64_t n) {
#if HYDRA_SIMD_LEVEL >= 1
  if (SimdEnabled()) return MaskAndSse2(a, b, n);
#endif
  MaskAndScalar(a, b, n);
}

void MaskOr(uint8_t* a, const uint8_t* b, int64_t n) {
#if HYDRA_SIMD_LEVEL >= 1
  if (SimdEnabled()) return MaskOrSse2(a, b, n);
#endif
  MaskOrScalar(a, b, n);
}

void MaskToSel(const uint8_t* mask, int64_t n, SelVector* sel, int32_t base) {
  for (int64_t i = 0; i < n; ++i) {
    if (mask[i]) sel->push_back(base + static_cast<int32_t>(i));
  }
}

void Gather(const Value* src, const int32_t* sel, int64_t n, Value* dst) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[sel[i]];
}

void HashKeys(const Value* col, int64_t n, uint64_t* out) {
#if HYDRA_SIMD_LEVEL >= 2
  if (SimdEnabled()) return HashKeysAvx2(col, n, out);
#endif
  HashKeysScalar(col, n, out);
}

void FillConst(Value* dst, int64_t n, Value v) {
#if HYDRA_SIMD_LEVEL >= 2
  if (SimdEnabled()) return FillConstAvx2(dst, n, v);
#elif HYDRA_SIMD_LEVEL == 1
  if (SimdEnabled()) return FillConstSse2(dst, n, v);
#endif
  FillConstScalar(dst, n, v);
}

void FillIota(Value* dst, int64_t n, Value start) {
  FillIotaScalar(dst, n, start);
}

// --- BlockPredicate ------------------------------------------------------

BlockPredicate::BlockPredicate(const DnfPredicate& dnf) {
  for (const Conjunct& conj : dnf.conjuncts()) {
    std::vector<AtomPlan> plan;
    plan.reserve(conj.atoms.size());
    bool conjunct_false = false;
    for (const Atom& atom : conj.atoms) {
      if (atom.values.empty()) {
        conjunct_false = true;  // contradicted atom: conjunct matches nothing
        break;
      }
      plan.push_back({atom.column, atom.values.intervals()});
    }
    if (conjunct_false) continue;
    if (plan.empty()) {
      // An empty conjunct is TRUE, which makes the whole disjunction TRUE.
      is_true_ = true;
      conjuncts_.clear();
      return;
    }
    conjuncts_.push_back(std::move(plan));
  }
}

namespace {

void AtomMask(const Value* col, int64_t n, const std::vector<Interval>& ivs,
              uint8_t* out) {
  IntervalMask(col, n, ivs[0].lo, ivs[0].hi, out);
  for (size_t k = 1; k < ivs.size(); ++k) {
    IntervalMaskOr(col, n, ivs[k].lo, ivs[k].hi, out);
  }
}

}  // namespace

void BlockPredicate::SelectRange(const RowBlock& block, int64_t begin,
                                 int64_t end, SelVector* sel) const {
  sel->clear();
  const int64_t n = end - begin;
  if (n <= 0 || is_false()) return;
  if (is_true_) {
    sel->resize(n);
    for (int64_t i = 0; i < n; ++i) {
      (*sel)[i] = static_cast<int32_t>(begin + i);
    }
    return;
  }
  // thread_local scratch: SelectRange is const and runs concurrently on
  // morsel workers; each thread folds into its own masks.
  thread_local std::vector<uint8_t> total_mask;
  thread_local std::vector<uint8_t> conj_mask;
  thread_local std::vector<uint8_t> atom_mask;
  const bool single = conjuncts_.size() == 1;
  if (!single) total_mask.assign(n, 0);
  conj_mask.resize(n);
  atom_mask.resize(n);
  for (const std::vector<AtomPlan>& conj : conjuncts_) {
    AtomMask(block.Column(conj[0].column) + begin, n, conj[0].intervals,
             conj_mask.data());
    for (size_t a = 1; a < conj.size(); ++a) {
      AtomMask(block.Column(conj[a].column) + begin, n, conj[a].intervals,
               atom_mask.data());
      MaskAnd(conj_mask.data(), atom_mask.data(), n);
    }
    if (single) break;
    MaskOr(total_mask.data(), conj_mask.data(), n);
  }
  sel->reserve(n);
  MaskToSel(single ? conj_mask.data() : total_mask.data(), n, sel,
            static_cast<int32_t>(begin));
}

}  // namespace kernels
}  // namespace hydra

#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace hydra {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// zeta(n, theta) = sum_{i=1..n} 1/i^theta. For large n uses an integral
// approximation to keep construction O(1)-ish while remaining monotone.
double Zeta(uint64_t n, double theta) {
  constexpr uint64_t kExactLimit = 100000;
  if (n <= kExactLimit) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
    return sum;
  }
  double sum = Zeta(kExactLimit, theta);
  // Integral of x^-theta from kExactLimit to n.
  if (theta == 1.0) {
    sum += std::log(double(n) / double(kExactLimit));
  } else {
    sum += (std::pow(double(n), 1 - theta) -
            std::pow(double(kExactLimit), 1 - theta)) /
           (1 - theta);
  }
  return sum;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  HYDRA_CHECK(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  HYDRA_CHECK_MSG(hi > lo, "empty range [" << lo << "," << hi << ")");
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo)));
}

double Rng::NextDouble() {
  return (Next64() >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(Next64() ^ 0xA5A5A5A5A5A5A5A5ULL); }

ZipfDistribution::ZipfDistribution(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  HYDRA_CHECK(n > 0);
  HYDRA_CHECK(theta > 0 && theta < 2);
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta_);
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  const uint64_t k = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k >= n_ ? n_ - 1 : k;
}

std::vector<uint64_t> RandomPermutation(uint64_t n, Rng& rng) {
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = i;
  for (uint64_t i = n; i > 1; --i) {
    const uint64_t j = rng.NextBounded(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace hydra

// Deterministic pseudo-random number generation utilities.
//
// All data generation in the repository is seeded and reproducible. Rng wraps
// the splitmix64/xoshiro256** generators; ZipfDistribution implements skewed
// key popularity used by the synthetic client databases.

#ifndef HYDRA_COMMON_RANDOM_H_
#define HYDRA_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace hydra {

// xoshiro256** PRNG with splitmix64 seeding. Not thread-safe; create one per
// thread/task.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t Next64();

  // Uniform in [0, bound); bound must be > 0. Uses Lemire's method.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi); hi must be > lo.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p.
  bool NextBool(double p);

  // Creates an independently-seeded child generator (for parallel streams).
  Rng Fork();

 private:
  uint64_t s_[4];
};

// Zipf(theta) distribution over {0, ..., n-1} using the Gray et al. (SIGMOD
// '94) rejection-free inversion approximation. theta in (0, 2); theta -> 0
// approaches uniform.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  // 1 + 0.5^theta: Sample's bound between ranks 1 and 2.
  double rank1_bound_;
};

// Returns a uniformly random permutation of {0, ..., n-1}.
std::vector<uint64_t> RandomPermutation(uint64_t n, Rng& rng);

}  // namespace hydra

#endif  // HYDRA_COMMON_RANDOM_H_

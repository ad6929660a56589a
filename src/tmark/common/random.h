#ifndef TMARK_COMMON_RANDOM_H_
#define TMARK_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace tmark {

/// Deterministic, fast pseudo-random generator (SplitMix64 core).
///
/// Every stochastic component in the library (dataset generation, train/test
/// splits, SGD shuffling, weight init) draws from an explicitly seeded Rng so
/// that experiments are bit-reproducible across runs and platforms. The
/// generator satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value (SplitMix64).
  result_type operator()() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Standard normal variate (Box-Muller, no caching — deterministic).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Poisson draw with the given mean (Knuth for small, normal approx large).
  int Poisson(double mean);

  /// Draws an index in [0, weights.size()) proportionally to `weights`
  /// (non-negative, not all zero).
  std::size_t Categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each trial or
  /// each worker its own stream without correlation.
  Rng Fork();

 private:
  std::uint64_t state_;
};

}  // namespace tmark

#endif  // TMARK_COMMON_RANDOM_H_

#include "tmark/common/random.h"

#include <cmath>

#include "tmark/common/check.h"

namespace tmark {

double Rng::Uniform() {
  // 53 random bits into the mantissa for a uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  TMARK_CHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  TMARK_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::Normal() {
  // Box-Muller; draw until u1 > 0 to avoid log(0).
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Poisson(double mean) {
  TMARK_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    double prod = Uniform();
    int k = 0;
    while (prod > limit) {
      prod *= Uniform();
      ++k;
    }
    return k;
  }
  // Normal approximation for large means; clamp to non-negative.
  const double v = Normal(mean, std::sqrt(mean));
  return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  TMARK_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TMARK_CHECK_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  TMARK_CHECK_MSG(total > 0.0, "categorical weights must not all be zero");
  double target = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point slack: return the last index.
}

Rng Rng::Fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace tmark

// Seeded random number generation.
//
// Every stochastic component of the simulator draws from an Rng derived from
// the run seed via Split(), so that (a) two runs with the same seed are
// bit-identical and (b) adding draws in one component does not perturb the
// stream seen by another.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace gs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Derives an independent child generator. The tag keeps child streams
  // stable as unrelated call sites are added or removed.
  Rng Split(std::string_view tag);
  Rng Split(std::uint64_t salt);

  // Uniform integer in [lo, hi] inclusive: exactly what
  // std::uniform_int_distribution<std::int64_t> draws from this engine.
  // Inline because input generation makes one call per character.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    GS_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  double Normal(double mean, double stddev);

  // Exponentially distributed with the given mean.
  double Exponential(double mean);

  // True with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle of indices [0, n).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// Samples from a Zipf distribution over {0, ..., n-1} with exponent s.
// Used for word frequencies (WordCount) and web-graph degrees (PageRank).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Sample(Rng& rng) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative probabilities
};

}  // namespace gs

#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace gs {
namespace {

// FNV-1a, used only to mix split tags into seeds.
std::uint64_t HashTag(std::string_view tag) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Rng Rng::Split(std::string_view tag) { return Split(HashTag(tag)); }

Rng Rng::Split(std::uint64_t salt) {
  // Draw a fresh state from this engine and mix in the salt; splitmix-style
  // finalizer avoids correlated children.
  std::uint64_t z = engine_() ^ (salt + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return Rng(z);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::Exponential(double mean) {
  GS_CHECK(mean > 0);
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  std::bernoulli_distribution d(p);
  return d(engine_);
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  GS_CHECK(n > 0);
  cdf_.resize(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.Uniform(0.0, 1.0);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace gs

// Deterministic random source.
//
// Everything stochastic in the reproduction (firmware "time noise" jitter,
// Trojan trigger randomness, thermistor measurement noise) draws from a
// seeded Rng so runs are exactly reproducible.  Draws that must not depend
// on how many draws came before (retry backoff, per-probe noise seeds,
// scheduler timing jitter) hash their key with mix64 instead.
#pragma once

#include <cstdint>
#include <random>

namespace offramps::sim {

/// splitmix64's finalizer: the usual strong 64-bit mix.  A pure function,
/// so a value derived from it depends only on its key.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Thin wrapper over std::mt19937_64 with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x0ffa117b5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal sample with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace offramps::sim

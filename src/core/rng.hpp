// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the library (simulated loss, cross traffic,
// synthetic datasets) draws from this generator so that a given seed yields a
// bit-identical run. The engine is xoshiro256** (Blackman & Vigna), seeded via
// splitmix64 so that small consecutive seeds still produce well-mixed state.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace swiftest::core {

/// The splitmix64 golden gamma: 2^64 / phi, rounded to odd.
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9E3779B97F4A7C15ull;

/// splitmix64 (Steele, Lea & Flood): adds the golden gamma, then applies the
/// avalanche finalizer. A stateful splitmix64 generator at state s returns
/// splitmix64(s) and advances s by the gamma, so its k-th output (k >= 0) is
/// splitmix64(s + k * gamma). Not cryptographic; its fixed bit pattern is
/// part of the reproducible simulation contract (seeding, stream splits,
/// observability sampling).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitmix64Gamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  /// Seeds the generator. Distinct seeds produce independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x5EEDCAFEull);

  /// Returns the next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (lambda). Mean = 1/lambda.
  double exponential(double lambda);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation for large ones).
  std::int64_t poisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Weights need not be normalised; non-positive weights are treated as zero.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each simulated
  /// entity its own stream without coupling their draw sequences.
  [[nodiscard]] Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Stable (seed, stream) split: stream 0 is `seed` itself, so a one-stream
/// run is bit-identical to an unsplit run; stream k > 0 is the k-th output
/// of a splitmix64 sequence seeded at `seed`, i.e. the closed form
/// splitmix64(seed + (k - 1) * gamma). Every stream is a well-mixed seed
/// that depends only on (seed, stream) — never on thread or execution
/// order — and costs O(1) for any k.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                                  std::uint64_t stream) noexcept {
  return stream == 0 ? seed : splitmix64(seed + (stream - 1) * kSplitmix64Gamma);
}

}  // namespace swiftest::core

#pragma once
/// \file rng.hpp
/// Deterministic, splittable random number generation.
///
/// Every stochastic component in the library (workload generation, random
/// mappings, simulated annealing) draws from an explicit `Rng` seeded by the
/// caller, so every experiment is exactly reproducible. The engine is
/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"), which passes BigCrush for this output width and supports
/// cheap stream splitting: `split()` derives an independent child stream so
/// subsystems cannot perturb each other's sequences by consuming a different
/// number of draws.

#include <cstdint>
#include <limits>
#include <vector>

namespace nocmap::util {

/// SplitMix64's output finalizer: a bijective 64-bit mix with good
/// avalanche, the step Rng applies to its counter.
inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Fold `v` into the running hash `h` (a hash_combine step finished by
/// mix()), so hashing a sequence field by field behaves like a real hash.
/// The library's canonical hashes and results digests are chains of folds.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

/// SplitMix64 engine. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() { return mix(state_ += 0x9E3779B97F4A7C15ULL); }

  /// Derive an independent child stream. The child's seed is drawn from this
  /// stream, then whitened with a distinct constant so parent and child do
  /// not overlap even for adversarial seeds.
  Rng split() { return Rng((*this)() ^ 0xA3EC4E93D4D4A324ULL); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires 0 <= lo <= hi.
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform int in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  bool chance(double p) { return uniform01() < p; }

  /// Geometric-ish positive integer with mean approximately `mean` (>= 1).
  /// Used for packet-size and burst-length synthesis in workload generators.
  std::uint64_t positive_with_mean(double mean);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t state_;
};

}  // namespace nocmap::util

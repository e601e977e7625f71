// Deterministic random-number infrastructure.
//
// Every stochastic component in the library takes an explicit seed or an
// RngStream. Seeds fan out through SplitMix64 so that entities created from
// the same master seed (workers of a simulation, applications of a batch,
// repetitions of an experiment) receive statistically independent streams
// and the whole experiment is reproducible from a single 64-bit value.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>

namespace cdsf::util {

/// SplitMix64: tiny, high-quality 64-bit mixer (Steele, Lea, Flood 2014).
/// Used both as a stand-alone generator for seed fan-out and to whiten
/// user-provided seeds before they reach the Mersenne Twister.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// MT19937-64 that yields exactly std::mt19937_64's word sequence for the
/// same seed, but builds its first generation lazily. The standard engine
/// seeds all 312 state words and twists them all before the first draw;
/// most simulation streams draw only a few dozen words, so this engine
/// seeds and twists the first generation block by block as draws reach
/// it. From word 312 on it twists whole generations like the standard
/// engine. Same size as std::mt19937_64.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt19937_64(result_type seed) noexcept { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ >= ready_) refill();
    result_type z = x_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;     // state words
  static constexpr std::uint32_t kM = 156;     // twist offset
  static constexpr std::uint32_t kBlock = 16;  // lazy first-generation step

  /// Makes the next words of the current generation ready: the next block
  /// while the first generation is being built, else a whole generation.
  void refill() noexcept {
    if (ready_ == kN) {
      twist(0, kN);
      index_ = 0;
      return;
    }
    const std::uint32_t end = std::min(ready_ + kBlock, kN);
    // Twisting word k < kM reads the seed words k + 1 and k + kM; words
    // from kM on read seed words up to kN - 1.
    seed_through(std::min(end + kM, kN));
    twist(ready_, end);
    ready_ = static_cast<std::uint16_t>(end);
  }

  /// Runs the standard seeding recurrence up to (not including) word `end`.
  void seed_through(std::uint32_t end) noexcept {
    if (end <= seeded_) return;
    // The recurrence is one serial chain; carrying the previous word in a
    // register keeps a store-to-load round trip off it.
    result_type prev = x_[seeded_ - 1];
    for (std::uint32_t i = seeded_; i < end; ++i) {
      prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
      x_[i] = prev;
    }
    seeded_ = static_cast<std::uint16_t>(end);
  }

  /// Twists state words [begin, end) in place, in the standard order.
  void twist(std::uint32_t begin, std::uint32_t end) noexcept {
    constexpr result_type kUpper = ~result_type{0} << 31;
    constexpr result_type kLower = ~kUpper;
    auto mix = [](result_type cur, result_type next, result_type far) {
      const result_type y = (cur & kUpper) | (next & kLower);
      // Branch-free: the low bit is a coin flip, so a branch mispredicts.
      return far ^ (y >> 1) ^ ((0 - (y & 1U)) & 0xB5026F5AA96619E9ULL);
    };
    std::uint32_t k = begin;
    for (const std::uint32_t stop = std::min(end, kN - kM); k < stop; ++k) {
      x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
    }
    for (const std::uint32_t stop = std::min(end, kN - 1); k < stop; ++k) {
      x_[k] = mix(x_[k], x_[k + 1], x_[k - (kN - kM)]);
    }
    if (k < end) x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
  }

  std::array<result_type, kN> x_{};  // zeroed: copies never read unset words
  std::uint32_t index_ = 0;          // next word of the generation to temper
  std::uint16_t ready_ = 0;          // words of the current generation twisted
  std::uint16_t seeded_ = 1;         // first-generation seed words computed
};

static_assert(sizeof(LazyMt19937_64) == sizeof(std::mt19937_64));

/// The double in [0, 1) that std::generate_canonical<double, 53> makes from
/// one 64-bit engine word in libstdc++: the word rounded to double, times
/// 2^-64, clamped to nextafter(1, 0) when it rounds up to 1. Both 32-bit
/// halves convert exactly, so their sum's single rounding is the correctly
/// rounded conversion of the whole word; unlike a direct unsigned 64-bit
/// conversion, it needs no branch on the word's top bit.
constexpr double canonical_double(std::uint64_t word) noexcept {
  const double value = (static_cast<double>(word >> 32) * 0x1p32 +
                        static_cast<double>(static_cast<std::uint32_t>(word))) *
                       0x1p-64;
  return value < 1.0 ? value : 0x1.fffffffffffffp-1;
}

/// A seeded random stream: a LazyMt19937_64 (sequence-identical to
/// std::mt19937_64) exposing the UniformRandomBitGenerator interface plus
/// convenience draws. uniform01, uniform and normal are computed here, bit
/// for bit as libstdc++'s uniform_real_distribution and a fresh
/// normal_distribution compute them over the same engine, so their values
/// do not depend on the standard library's unspecified algorithms.
/// uniform_int, and the gamma, exponential and Weibull draws that go
/// through engine(), still use the std distributions.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(whiten(seed)) {}

  using result_type = LazyMt19937_64::result_type;
  static constexpr result_type min() { return LazyMt19937_64::min(); }
  static constexpr result_type max() { return LazyMt19937_64::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform double in [0, 1): one engine word.
  double uniform01() { return canonical_double(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return uniform01() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double normal() { return normal(0.0, 1.0); }

  /// Normal draw with the given mean and standard deviation: Marsaglia's
  /// polar method, keeping y of the accepted pair (x, y) and dropping x.
  double normal(double mean, double stddev) {
    for (;;) {
      const double x = 2.0 * uniform01() - 1.0;
      const double y = 2.0 * uniform01() - 1.0;
      const double r2 = x * x + y * y;
      if (r2 > 1.0 || r2 == 0.0) continue;
      return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
    }
  }

  LazyMt19937_64& engine() noexcept { return engine_; }

 private:
  static std::uint64_t whiten(std::uint64_t seed) {
    return SplitMix64(seed).next();
  }
  LazyMt19937_64 engine_;
};

/// Deterministic fan-out of one master seed into independent child seeds.
/// child(i) is stable: it does not depend on the order other children are
/// requested in.
class SeedSequence {
 public:
  explicit constexpr SeedSequence(std::uint64_t master) noexcept
      : master_(master) {}

  /// Seed for the i-th child entity.
  [[nodiscard]] constexpr std::uint64_t child(std::uint64_t index) const noexcept {
    SplitMix64 mixer(master_ ^ (0xA5A5A5A5A5A5A5A5ULL + index * 0x9E3779B97F4A7C15ULL));
    mixer.next();
    return mixer.next();
  }

  /// Convenience: a ready-made stream for the i-th child.
  [[nodiscard]] RngStream stream(std::uint64_t index) const {
    return RngStream(child(index));
  }

  [[nodiscard]] constexpr std::uint64_t master() const noexcept { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace cdsf::util

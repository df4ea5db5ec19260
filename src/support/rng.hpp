// Deterministic RNG shared by every backend.
//
// The interpreter, the distributed run-time library, and generated code all
// implement MATLAB's `rand` with this exact LCG so that a script computes
// bit-identical data no matter which backend runs it or how many ranks it
// runs on. Distribution-independence relies on O(log n) skip-ahead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace otter {

class Lcg {
 public:
  explicit Lcg(uint64_t seed = 1) : state_(seed) {}

  void seed(uint64_t s) { state_ = s; }

  /// Next uniform double in [0, 1).
  double next() {
    state_ = kMulA * state_ + kAddC;
    return to_unit(state_);
  }

  /// Writes exactly what n calls of next() would return and leaves the
  /// generator where those calls would. Eight interleaved streams: stream
  /// k starts k+1 steps ahead and jumps 8 steps at a time by the affine map
  /// raised to the 8th power, so eight independent multiply chains run
  /// instead of one latency-bound chain. The integer arithmetic is exact,
  /// so every value is bit-identical to the serial draw.
  void fill(double* out, size_t n) {
    constexpr size_t kStreams = 8;
    size_t i = 0;
    if (n >= kStreams) {
      uint64_t s[kStreams];
      uint64_t a = 1;
      uint64_t c = 0;
      for (size_t k = 0; k < kStreams; ++k) {
        a *= kMulA;
        c = c * kMulA + kAddC;
        s[k] = a * state_ + c;
      }
      // (a, c) is now the map raised to the 8th power.
      for (;;) {
        for (size_t k = 0; k < kStreams; ++k) out[i + k] = to_unit(s[k]);
        i += kStreams;
        if (i + kStreams > n) break;
        for (uint64_t& x : s) x = a * x + c;
      }
      state_ = s[kStreams - 1];
    }
    for (; i < n; ++i) out[i] = next();
  }

  /// Skips n steps in O(log n) by exponentiating the affine map x -> ax + c
  /// (arithmetic is naturally mod 2^64).
  void discard(uint64_t n) {
    uint64_t a = kMulA;
    uint64_t c = kAddC;
    uint64_t acc_a = 1;
    uint64_t acc_c = 0;
    while (n > 0) {
      if (n & 1) {
        acc_a = acc_a * a;
        acc_c = acc_c * a + c;
      }
      c = c * a + c;
      a = a * a;
      n >>= 1;
    }
    state_ = acc_a * state_ + acc_c;
  }

  /// The value the sequence produces at 0-based position `pos` after `seed`,
  /// i.e. what pos+1 calls to next() would return last.
  static double value_at(uint64_t seed, uint64_t pos) {
    Lcg g(seed);
    g.discard(pos);
    return g.next();
  }

 private:
  static double to_unit(uint64_t s) {
    return static_cast<double>((s >> 11) & ((1ULL << 53) - 1)) /
           static_cast<double>(1ULL << 53);
  }

  static constexpr uint64_t kMulA = 6364136223846793005ULL;
  static constexpr uint64_t kAddC = 1442695040888963407ULL;

  uint64_t state_;
};

}  // namespace otter

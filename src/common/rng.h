// Deterministic PRNG (xoshiro256**) used by the TPC-H generator, the
// benchmark workload generators and property tests. Determinism matters:
// every experiment in docs/BENCHMARKS.md must be re-runnable bit-for-bit.
#ifndef X100_COMMON_RNG_H_
#define X100_COMMON_RNG_H_

#include <cstdint>

namespace x100 {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    // splitmix64 seeding to fill the state from a single word.
    uint64_t z = seed;
    for (int i = 0; i < 4; i++) {
      z += 0x9e3779b97f4a7c15ULL;
      uint64_t s = z;
      s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
      s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
      state_[i] = s ^ (s >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [lo, hi] inclusive. Handles the full int64 range (where
  /// hi - lo + 1 wraps to zero).
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (range == 0) return static_cast<int64_t>(Next());
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + Next() % range);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t state_[4];
};

}  // namespace x100

#endif  // X100_COMMON_RNG_H_

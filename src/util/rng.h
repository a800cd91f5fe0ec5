// Deterministic random number generation for simulations.
//
// Every stochastic decision in the simulator and the topology generators is
// drawn from an explicitly seeded Rng instance so that experiments and tests
// are exactly reproducible across runs and platforms.  std::mt19937 is
// avoided because its distributions are not guaranteed to be identical across
// standard library implementations; all distribution code here is our own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tn::util {

// splitmix64: used to expand a single 64-bit seed into a full xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

// A stateless 64-bit finalizer (MurmurHash3's fmix64). The simulator keys
// its deterministic draws on it — ECMP picks, flakiness, churn membership,
// fault streams, jitter, wave reordering — so every pinned walk and chaos
// result depends on these exact bits.
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  value ^= value >> 33;
  value *= 0xFF51AFD7ED558CCDULL;
  value ^= value >> 33;
  value *= 0xC4CEB9FE1A85EC53ULL;
  value ^= value >> 33;
  return value;
}

// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
// re-implemented here. Fast, tiny state, excellent statistical quality.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  // Uniform over the full 64-bit range.
  std::uint64_t next() noexcept;

  // Uniform integer in [0, bound). Precondition: bound > 0.
  // Uses Lemire-style rejection to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform() noexcept;

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  // Picks one element index of a non-empty weight vector, proportionally.
  std::size_t weighted_pick(std::span<const double> weights) noexcept;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // Derives an independent child generator; used to give each ISP / vantage
  // point its own stream so adding one does not perturb the others.
  Rng fork() noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace tn::util

// Reproducible random sampling utilities: every statistical experiment in
// the benches is seeded, so tables regenerate bit-identically.
//
// One generator family lives here: SplitMix64 + sample_stream(), the
// counter-based streams of the parallel Monte-Carlo engine. Every sample
// index owns an independent stream derived from (seed, index), so a run
// partitioned across any number of threads draws bitwise-identical
// variates. This is the determinism contract documented in
// docs/monte_carlo.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lcsf::stats {

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function
/// (Steele et al., "Fast splittable pseudorandom number generators").
/// Used both as the stream generator and to hash (seed, counter) pairs
/// into stream states.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Minimal counter-based generator. Unlike mt19937_64 it is trivially
/// seedable per sample (one multiply-add + finalizer per draw) and its
/// output is fully defined by this header -- no library-dependent
/// std::distribution behaviour -- so parallel Monte-Carlo results are
/// reproducible across platforms as well as thread counts.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t state) : state_(state) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    return mix64(z);
  }

  /// Uniform double strictly inside (0, 1): the 53-bit mantissa is offset
  /// by half an ulp, so 0.0 and 1.0 are unreachable and the result can be
  /// fed to inverse_normal_cdf() without a domain check.
  double uniform_open() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }

  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform_open();
  }

  /// Unbiased integer in [0, bound) by rejection (no modulo bias).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// The per-sample stream of the parallel Monte-Carlo engine: a SplitMix64
/// whose state hashes (seed, index, tag) together. `tag` separates
/// independent uses of the same (seed, index) pair -- e.g. the
/// Latin-Hypercube permutation streams use one tag per dimension while the
/// jitters come from the plain per-sample stream.
inline SplitMix64 sample_stream(std::uint64_t seed, std::uint64_t index,
                                std::uint64_t tag = 0) {
  return SplitMix64(mix64(seed + 0x9e3779b97f4a7c15ULL * (index + 1)) ^
                    mix64(tag + 0x94d049bb133111ebULL));
}

/// Registry of the sample_stream() tags in use across the statistical
/// engines. Centralized so two engines can never collide on a
/// (seed, index) pair by accident, and so the values are visibly frozen:
/// changing any of them changes every recorded result downstream of that
/// engine (tag 0 is the plain per-sample Monte-Carlo stream).
namespace stream_tag {
/// Latin-Hypercube per-dimension permutation streams of the plain
/// Monte-Carlo engine (index = dimension). Frozen at the value the PR 1
/// engine shipped with.
inline constexpr std::uint64_t kLhsPerm = 0x1a71;
/// Importance-sampling pilot-phase per-sample streams (index = sample).
inline constexpr std::uint64_t kIsPilot = 0x15a1;
/// Importance-sampling main-phase per-sample streams (index = sample).
inline constexpr std::uint64_t kIsMain = 0x15a2;
/// LHS permutation streams of the IS pilot phase (index = dimension).
inline constexpr std::uint64_t kIsPilotPerm = 0x15a3;
/// LHS permutation streams of the IS main phase (index = dimension).
inline constexpr std::uint64_t kIsMainPerm = 0x15a4;
}  // namespace stream_tag

/// Deterministic Fisher-Yates permutation of 0..n-1 driven by a
/// counter-based stream.
std::vector<std::size_t> stream_permutation(std::size_t n,
                                            SplitMix64& stream);

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.15e-9). Needed to map Latin Hypercube strata onto normal
/// variates.
double inverse_normal_cdf(double p);

/// Map a U(0,1) value to uniform(lo, hi).
inline double to_uniform(double u, double lo, double hi) {
  return lo + (hi - lo) * u;
}
/// Map a U(0,1) value to N(mean, sigma).
inline double to_normal(double u, double mean, double sigma) {
  return mean + sigma * inverse_normal_cdf(u);
}

}  // namespace lcsf::stats

#include "timing/waveform.hpp"

#include <cmath>
#include <stdexcept>

#include "numeric/fp_compare.hpp"

namespace lcsf::timing {

circuit::SourceWaveform RampParams::to_source(double vdd) const {
  const double v0 = rising ? 0.0 : vdd;
  const double v1 = rising ? vdd : 0.0;
  const double start = m - 0.5 * s;
  return circuit::SourceWaveform::ramp(v0, v1, start, s);
}

std::optional<double> crossing_time(const Samples& w, double level,
                                    bool rising) {
  // First segment that carries the waveform through `level` in the given
  // direction. The predicates are inclusive: a sample landing exactly on
  // the threshold is a crossing, and a waveform whose first sample sits
  // exactly at the threshold crosses at that sample's time (the strict
  // < / > predicates this replaces registered neither).
  for (std::size_t k = 1; k < w.size(); ++k) {
    const auto [t0, v0] = w[k - 1];
    const auto [t1, v1] = w[k];
    const bool crossed = rising ? (v0 <= level && v1 >= level)
                                : (v0 >= level && v1 <= level);
    if (!crossed) continue;
    // Flat segment pinned to the level (v0 == v1 == level given the
    // inclusive predicate): the level is first reached at the segment
    // start. Otherwise the denominator is nonzero and a v1 landing
    // exactly on `level` interpolates to exactly t1.
    if (numeric::exact_eq(v1, v0)) return t0;
    return t0 + (level - v0) / (v1 - v0) * (t1 - t0);
  }
  return std::nullopt;
}

RampParams measure_ramp(const Samples& w, double vdd, bool rising) {
  RampParams p;
  p.rising = rising;
  const auto m = crossing_time(w, 0.5 * vdd, rising);
  const auto t20 = crossing_time(w, (rising ? 0.2 : 0.8) * vdd, rising);
  const auto t80 = crossing_time(w, (rising ? 0.8 : 0.2) * vdd, rising);
  if (!m || !t20 || !t80) {
    throw std::runtime_error(
        "measure_ramp: waveform does not complete the transition");
  }
  p.m = *m;
  p.s = (*t80 - *t20) / 0.6;
  return p;
}

}  // namespace lcsf::timing

// Waveform-function abstraction (paper Sec. 4.2): the saturated-ramp model
// with parameters (M, S) -- 50% arrival time and slew -- plus measurement
// utilities that extract those parameters from simulated waveforms.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "circuit/source_waveform.hpp"

namespace lcsf::timing {

/// Saturated-ramp waveform parameters P_w = (M, S) of paper Eq. 29.
struct RampParams {
  double m = 0.0;      ///< 50% crossing time [s]
  double s = 0.0;      ///< slew: 20%-80% transition time scaled to full
                       ///< swing [s]
  bool rising = true;  ///< transition direction

  /// Materialize as a stimulus: linear ramp centred on M with total
  /// transition time S between the rails 0 and vdd.
  circuit::SourceWaveform to_source(double vdd) const;
};

using Samples = std::vector<std::pair<double, double>>;

/// First time the waveform reaches `level` in the given direction
/// (linearly interpolated). A sample landing exactly on the threshold
/// counts as a crossing; a waveform whose first sample is already at (or
/// past) the threshold crosses at that sample's time. Returns
/// std::nullopt if the level is never reached -- crossing times
/// themselves may be legitimately negative (a ramp starting before t=0),
/// which is why the old -1.0 sentinel was retired.
std::optional<double> crossing_time(const Samples& w, double level,
                                    bool rising);

/// Extract (M, S) from a simulated transition between 0 and vdd.
/// S is measured 20%-80% and scaled by 1/0.6 to the full-swing equivalent.
/// Throws std::runtime_error if the waveform does not complete the
/// transition.
RampParams measure_ramp(const Samples& w, double vdd, bool rising);

}  // namespace lcsf::timing

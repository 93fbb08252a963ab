#pragma once

// Single-query shorthands over PeakTemperatureAnalyzer's slate API for the
// tests: one rotation interval or one static candidate, scalar result.

#include <cstddef>
#include <vector>

#include "core/peak_temperature.hpp"
#include "linalg/vector.hpp"

namespace hp::test {

/// The count-1 rotation_peaks slate at interval @p tau.
inline double rotation_peak(const core::PeakTemperatureAnalyzer& analyzer,
                            const std::vector<core::RotationRingSpec>& rings,
                            double tau, std::size_t samples_per_epoch,
                            core::PeakWorkspace& ws) {
    double peak;
    analyzer.rotation_peaks(rings, &tau, 1, samples_per_epoch, ws, &peak);
    return peak;
}

/// The nrhs-1 static_peaks slate for one core-power vector.
inline double static_peak(const core::PeakTemperatureAnalyzer& analyzer,
                          const linalg::Vector& core_power,
                          core::PeakWorkspace& ws) {
    double peak;
    analyzer.static_peaks(core_power.data(), 1, ws, &peak);
    return peak;
}

}  // namespace hp::test

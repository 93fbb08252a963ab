#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hp::arch {

/// DVFS operating-point table: evenly spaced frequency levels with a linear
/// voltage-frequency relation, matching the paper's setup of fine-grained
/// 100 MHz steps between 1 GHz and the 4 GHz peak.
struct DvfsParams {
    double f_min_hz = 1.0e9;
    double f_max_hz = 4.0e9;
    double step_hz = 0.1e9;   ///< paper: PCMig performs DVFS at 100 MHz steps
    double v_min = 0.60;      ///< supply voltage at f_min
    double v_max = 1.20;      ///< supply voltage at f_max

    /// Supply voltage for frequency @p f_hz (linear V-f; clamped to range).
    double voltage_for(double f_hz) const;

    /// All selectable frequency levels, ascending.
    std::vector<double> levels() const;

    /// Calls @p visit(f) for each of levels() in ascending order, without
    /// materialising them, until it returns false.
    template <typename Visit>
    void visit_levels(Visit&& visit) const {
        for (double f = f_min_hz; f <= f_max_hz + 0.5 * step_hz; f += step_hz)
            if (!visit(std::min(f, f_max_hz))) return;
    }

    /// Highest level that is <= @p f_hz, clamped into [f_min, f_max].
    double quantize_down(double f_hz) const;

    /// Number of levels.
    std::size_t level_count() const;
};

}  // namespace hp::arch

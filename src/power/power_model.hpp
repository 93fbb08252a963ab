#pragma once

#include "arch/dvfs.hpp"

namespace hp::power {

/// Parameters of the per-core power model.
struct PowerParams {
    /// Leakage-dominated power of an idle core at the reference temperature
    /// (paper §VI: idle core power 0.3 W).
    double idle_power_w = 0.3;
    /// Fractional leakage increase per Kelvin above the reference temperature
    /// (linearised exponential leakage; creates the usual positive
    /// temperature-power feedback every thermal manager must respect).
    double leakage_temp_coeff_per_k = 0.01;
    double leakage_ref_celsius = 45.0;
    /// Reference operating point at which benchmark nominal powers are given.
    double f_ref_hz = 4.0e9;
    double v_ref = 1.20;

    // --- power gating (C-states) ------------------------------------------
    /// Gate idle cores after they have been unoccupied for gate_after_idle_s
    /// (off by default; see the simulator's gating logic).
    bool power_gating = false;
    /// Residual power of a gated core (retention rails only).
    double gated_power_w = 0.02;
    /// Idle dwell time before the core is gated.
    double gate_after_idle_s = 1e-3;
    /// Stall a thread pays when scheduled onto a gated core (rail ramp +
    /// state restore). Makes rotating through gated holes a real cost.
    double wakeup_latency_s = 10e-6;
};

/// McPAT-analogue per-core power model.
///
/// An active core consumes
///   P = P_nom * (V/V_ref)^2 * activity  +  P_leak(T)
/// where P_nom is the benchmark phase's dynamic power at the reference
/// operating point, activity is the instruction throughput relative to that
/// reference point (perf::IntervalPerformanceModel::power_activity — dynamic
/// energy per instruction is constant at fixed voltage, so throughput times
/// V^2 gives dynamic power), and P_leak(T) is the temperature-dependent
/// leakage an idle core also pays.
class PowerModel {
public:
    PowerModel(PowerParams params, arch::DvfsParams dvfs)
        : params_(params), dvfs_(dvfs) {}

    const PowerParams& params() const { return params_; }

    /// Leakage power at die temperature @p temperature_c; this is the entire
    /// power of an idle core.
    double idle_power_w(double temperature_c) const {
        const double dt = temperature_c - params_.leakage_ref_celsius;
        const double scale = 1.0 + params_.leakage_temp_coeff_per_k * dt;
        return params_.idle_power_w * (scale > 0.1 ? scale : 0.1);
    }

    /// Total power of a core running a thread: V^2- and throughput-scaled
    /// dynamic power plus leakage. @p activity is the relative instruction
    /// throughput (1.0 at the reference operating point).
    double active_power_w(double nominal_power_w, double freq_hz,
                          double activity, double temperature_c) const {
        const double v = dvfs_.voltage_for(freq_hz);
        const double dynamic = nominal_power_w * (v / params_.v_ref) *
                               (v / params_.v_ref) * activity;
        return dynamic + idle_power_w(temperature_c);
    }

    /// The highest DVFS level whose total power stays within @p budget_w;
    /// @p activity_of maps a candidate frequency to the relative throughput
    /// at that frequency (activity depends on f via memory stalls). Returns
    /// f_min if even that exceeds the budget.
    template <typename ActivityOf>
    double max_frequency_within(double budget_w, double nominal_power_w,
                                ActivityOf&& activity_of,
                                double temperature_c) const {
        double best = dvfs_.f_min_hz;
        dvfs_.visit_levels([&](double f) {
            if (!(active_power_w(nominal_power_w, f, activity_of(f),
                                 temperature_c) <= budget_w))
                return false;
            best = f;
            return true;
        });
        return best;
    }

private:
    PowerParams params_;
    arch::DvfsParams dvfs_;
};

}  // namespace hp::power

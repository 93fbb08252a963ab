#pragma once

#include <vector>

#include "thermal/solver.hpp"

namespace hp::sched {

/// Thermal Safe Power (TSP) budgeting after Pagani et al. (ESWEEK'14).
///
/// For a concrete mapping (the set of currently active cores), TSP computes
/// the uniform per-active-core power budget such that the worst steady-state
/// core temperature exactly reaches the DTM threshold, with inactive cores
/// drawing idle power. DVFS-based schedulers (PCGov/PCMig) clamp each core's
/// frequency so its power stays within this budget.
class TspBudget {
public:
    /// Solves through @p solver's steady state (exact in every backend);
    /// @p solver must outlive this object.
    explicit TspBudget(const thermal::TransientSolver& solver)
        : solver_(&solver) {}

    /// Uniform total power budget per active core (W, including leakage) for
    /// the mapping @p active (size core_count; true = hosts a thread).
    /// @p idle_power_w is the power of an inactive core (leakage at the
    /// threshold temperature for a safe bound). Returns idle_power_w if no
    /// core is active. Throws std::invalid_argument on size mismatch.
    double per_core_budget(const std::vector<bool>& active,
                           double idle_power_w, double ambient_c,
                           double t_dtm_c) const;

    /// Steady-state core temperatures for @p active cores each drawing
    /// @p active_power_w and the rest drawing @p idle_power_w — the check
    /// used by tests to verify the budget is exact.
    double steady_peak(const std::vector<bool>& active, double active_power_w,
                       double idle_power_w, double ambient_c) const;

private:
    const thermal::TransientSolver* solver_;
};

}  // namespace hp::sched

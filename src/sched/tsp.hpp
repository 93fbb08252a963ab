#pragma once

#include <cstdint>
#include <vector>

#include "linalg/vector.hpp"
#include "sim/context.hpp"
#include "thermal/solver.hpp"
#include "thermal/workspace.hpp"

namespace hp::sched {

/// Thermal Safe Power (TSP) budgeting after Pagani et al. (ESWEEK'14).
///
/// For a concrete mapping (the set of currently active cores), TSP computes
/// the uniform per-active-core power budget such that the worst steady-state
/// core temperature exactly reaches the DTM threshold, with inactive cores
/// drawing idle power. DVFS-based schedulers (PCGov/PCMig) clamp each core's
/// frequency so its power stays within this budget (TspGovernor).
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
    /// One-shot: a fresh TspGovernor's budget(), so it carries no memo.
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

/// The TSP DVFS governor of PCGov, PCMig, tsp-dvfs and HotPotato+DVFS: the
/// per-core budget of the current mapping, memoised, and every active core
/// clamped to the highest DVFS level within it (DESIGN.md §15).
///
/// The budget is a pure function of the solver's backend, the idle power,
/// the ambient, T_DTM and the active-core mask, and the mask changes only on
/// arrival, finish or migration, so most 1 ms epochs repeat the previous
/// one's question. The governor keeps one budget memo keyed by all five
/// (doubles by their bits) and, separately, the all-idle steady state T_idle
/// keyed by backend, idle power and ambient, so a mapping change costs one
/// sensitivity solve. A hit returns the double the miss stored, which is the
/// double a fresh computation produces — memoisation never moves a bit.
/// Misses solve through steady_state_into / conductance_solve_into on a
/// governor-owned workspace, so after warm-up neither path allocates.
///
/// One governor per scheduler instance (mutable state; not thread-safe).
class TspGovernor {
public:
    /// Budgets the mapping of @p ctx (idle power at T_DTM, the configured
    /// ambient and T_DTM) and sets every occupied core's frequency to the
    /// highest DVFS level whose power fits. Returns the budget (W).
    double apply(sim::SimContext& ctx);

    /// The per-core TSP budget for @p active on @p solver — bit-identical
    /// to TspBudget::per_core_budget, answered from the memo when the key
    /// repeats. Throws std::invalid_argument on a mask size mismatch.
    double budget(const thermal::TransientSolver& solver,
                  const std::vector<bool>& active, double idle_power_w,
                  double ambient_c, double t_dtm_c);

    /// Memo statistics: budget() calls answered from the memo / solved.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /// The answer of the latest budget() call and the mask of the latest
    /// apply() (empty before the first).
    double last_budget() const { return memo_budget_; }
    const std::vector<bool>& mask() const { return mask_; }

private:
    /// Refreshes t_idle_ unless it already holds (backend, idle W, ambient).
    void refresh_idle(const thermal::TransientSolver& solver,
                      std::uint64_t backend, double idle_power_w,
                      double ambient_c);

    thermal::ThermalWorkspace ws_;
    linalg::Vector rhs_;          ///< padded idle power, then padded mask
    linalg::Vector t_idle_;       ///< steady state with every core idle
    linalg::Vector sensitivity_;  ///< B^{-1}·pad(mask)
    std::vector<bool> mask_;      ///< apply()'s active-core scratch

    bool idle_valid_ = false;
    std::uint64_t idle_backend_ = 0;
    std::uint64_t idle_w_bits_ = 0;
    std::uint64_t idle_ambient_bits_ = 0;

    bool memo_valid_ = false;
    std::uint64_t memo_backend_ = 0;
    std::uint64_t memo_idle_w_bits_ = 0;
    std::uint64_t memo_ambient_bits_ = 0;
    std::uint64_t memo_t_dtm_bits_ = 0;
    std::vector<bool> memo_mask_;
    double memo_budget_ = 0.0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace hp::sched

#include "sched/tsp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sched/placement.hpp"

namespace hp::sched {

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

double TspBudget::per_core_budget(const std::vector<bool>& active,
                                  double idle_power_w, double ambient_c,
                                  double t_dtm_c) const {
    TspGovernor fresh;
    return fresh.budget(*solver_, active, idle_power_w, ambient_c, t_dtm_c);
}

double TspBudget::steady_peak(const std::vector<bool>& active,
                              double active_power_w, double idle_power_w,
                              double ambient_c) const {
    const thermal::ThermalModel& model = solver_->model();
    const std::size_t n = model.core_count();
    if (active.size() != n)
        throw std::invalid_argument("TspBudget: mask size mismatch");
    linalg::Vector power(n);
    for (std::size_t i = 0; i < n; ++i)
        power[i] = active[i] ? active_power_w : idle_power_w;
    const linalg::Vector t =
        solver_->steady_state(model.pad_power(power), ambient_c);
    double peak = -1e300;
    for (std::size_t i = 0; i < n; ++i) peak = std::max(peak, t[i]);
    return peak;
}

double TspGovernor::apply(sim::SimContext& ctx) {
    const double t_dtm = ctx.config().t_dtm_c;
    const power::PowerModel& power = ctx.power_model();
    active_core_mask(ctx, mask_);
    const double budget_w =
        budget(ctx.solver(), mask_, power.idle_power_w(t_dtm),
               ctx.config().ambient_c, t_dtm);

    const double f_ref = power.params().f_ref_hz;
    for (std::size_t c = 0; c < mask_.size(); ++c) {
        if (!mask_[c]) continue;
        const perf::PhasePoint& point =
            ctx.thread_phase_point(ctx.thread_on(c));
        const double f = power.max_frequency_within(
            budget_w, point.nominal_power_w,
            [&](double fc) {
                return ctx.perf_model().power_activity(point, c, fc, f_ref);
            },
            t_dtm);
        ctx.set_frequency(c, f);
    }
    return budget_w;
}

double TspGovernor::budget(const thermal::TransientSolver& solver,
                           const std::vector<bool>& active,
                           double idle_power_w, double ambient_c,
                           double t_dtm_c) {
    const thermal::ThermalModel& model = solver.model();
    const std::size_t n = model.core_count();
    if (active.size() != n)
        throw std::invalid_argument("TspBudget: mask size mismatch");

    const std::uint64_t backend = solver.backend_signature();
    if (memo_valid_ && memo_backend_ == backend &&
        memo_idle_w_bits_ == bits(idle_power_w) &&
        memo_ambient_bits_ == bits(ambient_c) &&
        memo_t_dtm_bits_ == bits(t_dtm_c) && memo_mask_ == active) {
        ++hits_;
        return memo_budget_;
    }
    ++misses_;

    double result = idle_power_w;
    if (std::find(active.begin(), active.end(), true) != active.end()) {
        // Baseline: every core idling. T scales linearly in the extra power
        // x placed uniformly on active cores: T(x) = T_idle + x * S, with
        // S = B^{-1} * pad(mask).
        refresh_idle(solver, backend, idle_power_w, ambient_c);
        const std::size_t nodes = model.node_count();
        if (rhs_.size() != nodes) rhs_ = linalg::Vector(nodes);
        for (std::size_t i = 0; i < n; ++i) rhs_[i] = active[i] ? 1.0 : 0.0;
        for (std::size_t i = n; i < nodes; ++i) rhs_[i] = 0.0;
        solver.conductance_solve_into(rhs_, ws_, sensitivity_);

        double x = 1e300;
        for (std::size_t i = 0; i < n; ++i) {  // constrain core nodes only
            if (sensitivity_[i] <= 1e-12) continue;
            x = std::min(x, (t_dtm_c - t_idle_[i]) / sensitivity_[i]);
        }
        x = std::max(x, 0.0);
        result = idle_power_w + x;
    }

    memo_valid_ = true;
    memo_backend_ = backend;
    memo_idle_w_bits_ = bits(idle_power_w);
    memo_ambient_bits_ = bits(ambient_c);
    memo_t_dtm_bits_ = bits(t_dtm_c);
    memo_mask_ = active;
    memo_budget_ = result;
    return result;
}

void TspGovernor::refresh_idle(const thermal::TransientSolver& solver,
                               std::uint64_t backend, double idle_power_w,
                               double ambient_c) {
    if (idle_valid_ && idle_backend_ == backend &&
        idle_w_bits_ == bits(idle_power_w) &&
        idle_ambient_bits_ == bits(ambient_c))
        return;
    const thermal::ThermalModel& model = solver.model();
    const std::size_t n = model.core_count();
    const std::size_t nodes = model.node_count();
    if (!idle_valid_ || idle_backend_ != backend) {
        // Another model: its vectors may reuse a freed model's addresses,
        // which the workspace's ambient memo keys on — start afresh.
        ws_ = thermal::ThermalWorkspace(nodes);
    }
    if (rhs_.size() != nodes) rhs_ = linalg::Vector(nodes);
    for (std::size_t i = 0; i < n; ++i) rhs_[i] = idle_power_w;
    for (std::size_t i = n; i < nodes; ++i) rhs_[i] = 0.0;
    solver.steady_state_into(rhs_, ambient_c, ws_, t_idle_);
    idle_valid_ = true;
    idle_backend_ = backend;
    idle_w_bits_ = bits(idle_power_w);
    idle_ambient_bits_ = bits(ambient_c);
}

}  // namespace hp::sched

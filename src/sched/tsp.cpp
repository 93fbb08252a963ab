#include "sched/tsp.hpp"

#include <algorithm>
#include <stdexcept>

namespace hp::sched {

double TspBudget::per_core_budget(const std::vector<bool>& active,
                                  double idle_power_w, double ambient_c,
                                  double t_dtm_c) const {
    const thermal::ThermalModel& model = solver_->model();
    const std::size_t n = model.core_count();
    if (active.size() != n)
        throw std::invalid_argument("TspBudget: mask size mismatch");

    // Baseline: every core idling. T scales linearly in the extra power x
    // placed uniformly on active cores: T(x) = T_idle + x * S, with
    // S = B^{-1} * pad(mask).
    linalg::Vector idle_power(n, idle_power_w);
    const linalg::Vector t_idle =
        solver_->steady_state(model.pad_power(idle_power), ambient_c);

    linalg::Vector mask(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
            mask[i] = 1.0;
            any = true;
        }
    }
    if (!any) return idle_power_w;

    const linalg::Vector sensitivity =
        solver_->conductance_solve(model.pad_power(mask));

    double x = 1e300;
    for (std::size_t i = 0; i < n; ++i) {  // constrain core nodes only
        if (sensitivity[i] <= 1e-12) continue;
        x = std::min(x, (t_dtm_c - t_idle[i]) / sensitivity[i]);
    }
    x = std::max(x, 0.0);
    return idle_power_w + x;
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

}  // namespace hp::sched

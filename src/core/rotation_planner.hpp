#pragma once

#include <cstddef>
#include <vector>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "perf/interval_model.hpp"

namespace hp::core {

/// A thread as the design-time planner sees it: its power draw and its
/// performance characteristics (for ring-placement preferences).
struct ThreadEstimate {
    double power_w = 5.0;
    perf::PhasePoint perf;
};

/// One candidate rotation plan: which ring each thread lives in, the chosen
/// rotation interval (rotation_on == false means pinned execution), the
/// certified peak temperature and the throughput score used for comparison.
struct RotationPlan {
    std::vector<std::size_t> ring_of_thread;
    bool rotation_on = true;
    double tau_s = 0.5e-3;
    double predicted_peak_c = 0.0;
    bool thermally_safe = false;
    /// Aggregate instructions/s across threads, net of migration overhead.
    double throughput_score = 0.0;
};

/// Design-time rotation planning: the scheduling core of Algorithm 2,
/// separated from the run-time machinery so it can be used for offline
/// what-if exploration — and compared against exhaustive search to measure
/// the optimality gap of the paper's greedy heuristic (the assignment
/// problem is NP-hard; SSV).
class RotationPlanner {
public:
    /// All references must outlive the planner.
    RotationPlanner(const arch::ManyCore& chip,
                    const perf::IntervalPerformanceModel& perf_model,
                    const PeakTemperatureAnalyzer& analyzer,
                    std::vector<double> tau_ladder_s = {0.125e-3, 0.25e-3,
                                                        0.5e-3, 1e-3, 2e-3,
                                                        4e-3});

    /// Throughput score of a concrete assignment at a concrete rotation
    /// setting: each thread runs at the mean IPS over its ring's cores
    /// (under rotation it visits them all), minus the migration-stall
    /// fraction stall/tau.
    double throughput_score(const std::vector<ThreadEstimate>& threads,
                            const std::vector<std::size_t>& ring_of_thread,
                            bool rotation_on, double tau_s) const;

    /// Certified peak temperature of an assignment (Algorithm 1), using
    /// @p workspace as the query scratch. The plan_* calls each hold one
    /// workspace for all of their queries.
    double predicted_peak_c(const std::vector<ThreadEstimate>& threads,
                            const std::vector<std::size_t>& ring_of_thread,
                            bool rotation_on, double tau_s,
                            PeakWorkspace& workspace) const;

    /// Greedy plan following Algorithm 2's arrival logic: threads in input
    /// order, each into the lowest-AMD ring that stays safe; if none is
    /// safe, the highest-AMD ring with space and a faster rotation. After
    /// placement the rotation is relaxed (slowed/stopped) while safety holds
    /// — lines 23-27. Throws std::invalid_argument if the threads cannot
    /// physically fit.
    RotationPlan plan_greedy(const std::vector<ThreadEstimate>& threads,
                             double t_dtm_c, double headroom_delta_c = 1.0) const;

    /// Exhaustive plan: enumerates every thread-to-ring assignment and every
    /// rotation setting, returning the best-throughput thermally-safe plan
    /// (or, if nothing is safe, the lowest-peak plan). Exponential in thread
    /// count — intended for small validation instances only; throws
    /// std::invalid_argument beyond @p max_threads.
    RotationPlan plan_exhaustive(const std::vector<ThreadEstimate>& threads,
                                 double t_dtm_c,
                                 double headroom_delta_c = 1.0,
                                 std::size_t max_threads = 10) const;

private:
    std::vector<RotationRingSpec> build_specs(
        const std::vector<ThreadEstimate>& threads,
        const std::vector<std::size_t>& ring_of_thread) const;

    const arch::ManyCore* chip_;
    const perf::IntervalPerformanceModel* perf_;
    const PeakTemperatureAnalyzer* analyzer_;
    std::vector<double> tau_ladder_s_;
};

}  // namespace hp::core

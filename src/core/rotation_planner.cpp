#include "core/rotation_planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hp::core {

namespace {
/// Algorithm-1 samples per rotation epoch for every planner query.
constexpr std::size_t kSamplesPerEpoch = 2;
}  // namespace

RotationPlanner::RotationPlanner(
    const arch::ManyCore& chip,
    const perf::IntervalPerformanceModel& perf_model,
    const PeakTemperatureAnalyzer& analyzer, std::vector<double> tau_ladder_s)
    : chip_(&chip),
      perf_(&perf_model),
      analyzer_(&analyzer),
      tau_ladder_s_(std::move(tau_ladder_s)) {
    if (tau_ladder_s_.empty() ||
        !std::is_sorted(tau_ladder_s_.begin(), tau_ladder_s_.end()))
        throw std::invalid_argument(
            "RotationPlanner: tau ladder must be non-empty and ascending");
}

std::vector<RotationRingSpec> RotationPlanner::build_specs(
    const std::vector<ThreadEstimate>& threads,
    const std::vector<std::size_t>& ring_of_thread) const {
    const auto& rings = chip_->rings();
    std::vector<RotationRingSpec> specs(rings.size());
    for (std::size_t r = 0; r < rings.size(); ++r) {
        specs[r].cores = rings[r].cores;
        specs[r].slot_power_w.assign(rings[r].cores.size(),
                                     analyzer_->idle_power_w());
    }
    std::vector<std::size_t> next_slot(rings.size(), 0);
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const std::size_t r = ring_of_thread[i];
        if (r >= rings.size())
            throw std::invalid_argument("RotationPlanner: bad ring index");
        if (next_slot[r] >= specs[r].slot_power_w.size())
            throw std::invalid_argument(
                "RotationPlanner: ring over capacity");
        specs[r].slot_power_w[next_slot[r]++] = threads[i].power_w;
    }
    return specs;
}

double RotationPlanner::predicted_peak_c(
    const std::vector<ThreadEstimate>& threads,
    const std::vector<std::size_t>& ring_of_thread, bool rotation_on,
    double tau_s, PeakWorkspace& workspace) const {
    const auto specs = build_specs(threads, ring_of_thread);
    double peak;
    if (rotation_on) {
        analyzer_->rotation_peaks(specs, &tau_s, 1, kSamplesPerEpoch,
                                  workspace, &peak);
        return peak;
    }
    // Pinned execution: materialise the slot assignment as a static vector.
    linalg::Vector power(chip_->core_count(), analyzer_->idle_power_w());
    for (const RotationRingSpec& spec : specs)
        for (std::size_t j = 0; j < spec.cores.size(); ++j)
            power[spec.cores[j]] = spec.slot_power_w[j];
    analyzer_->static_peaks(power.data(), 1, workspace, &peak);
    return peak;
}

double RotationPlanner::throughput_score(
    const std::vector<ThreadEstimate>& threads,
    const std::vector<std::size_t>& ring_of_thread, bool rotation_on,
    double tau_s) const {
    const double f_max = chip_->dvfs().f_max_hz;
    double score = 0.0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const auto& ring = chip_->rings()[ring_of_thread[i]];
        // Under rotation the thread visits every core of the ring; cores of
        // a ring share one AMD, so any member is representative.
        const std::size_t core = ring.cores.front();
        double ips = perf_->instructions_per_second(threads[i].perf, core, f_max);
        if (rotation_on && ring.cores.size() > 1) {
            const double stall = perf_->migration_stall_s(core);
            ips *= std::max(0.0, 1.0 - stall / tau_s);
        }
        score += ips;
    }
    return score;
}

RotationPlan RotationPlanner::plan_greedy(
    const std::vector<ThreadEstimate>& threads, double t_dtm_c,
    double headroom_delta_c) const {
    const auto& rings = chip_->rings();
    std::size_t capacity = 0;
    for (const auto& r : rings) capacity += r.cores.size();
    if (threads.size() > capacity)
        throw std::invalid_argument("RotationPlanner: threads do not fit");

    const double limit = t_dtm_c - headroom_delta_c;
    PeakWorkspace ws;
    std::vector<std::size_t> counts(rings.size(), 0);
    std::vector<std::size_t> assignment;
    bool rotation_on = true;
    // Start at the rung closest to the paper's 0.5 ms default.
    std::size_t tau_idx = 0;
    for (std::size_t i = 0; i < tau_ladder_s_.size(); ++i)
        if (std::abs(tau_ladder_s_[i] - 0.5e-3) <
            std::abs(tau_ladder_s_[tau_idx] - 0.5e-3))
            tau_idx = i;

    for (std::size_t i = 0; i < threads.size(); ++i) {
        bool placed = false;
        for (std::size_t r = 0; r < rings.size() && !placed; ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            assignment.push_back(r);
            ++counts[r];
            const std::vector<ThreadEstimate> so_far(threads.begin(),
                                                     threads.begin() + i + 1);
            if (predicted_peak_c(so_far, assignment, rotation_on,
                                 tau_ladder_s_[tau_idx], ws) < limit) {
                placed = true;
            } else {
                assignment.pop_back();
                --counts[r];
            }
        }
        if (!placed) {
            // Lines 7-14: highest-AMD ring with space, then speed rotation.
            for (std::size_t r = rings.size(); r-- > 0;) {
                if (counts[r] >= rings[r].cores.size()) continue;
                assignment.push_back(r);
                ++counts[r];
                placed = true;
                break;
            }
            const std::vector<ThreadEstimate> so_far(threads.begin(),
                                                     threads.begin() + i + 1);
            while (tau_idx > 0 &&
                   predicted_peak_c(so_far, assignment, rotation_on,
                                    tau_ladder_s_[tau_idx], ws) >= limit)
                --tau_idx;
        }
    }

    // Lines 8-14 repair pass: if the final configuration is still unsafe,
    // demote the least memory-bound (lowest CPI, least placement-sensitive)
    // threads outward and speed the rotation until headroom appears.
    const double f_max = chip_->dvfs().f_max_hz;
    double peak = predicted_peak_c(threads, assignment, rotation_on,
                                   tau_ladder_s_[tau_idx], ws);
    std::size_t guard = threads.size() * rings.size();
    while (peak >= limit && guard-- > 0) {
        std::size_t victim = threads.size();
        double victim_cpi = 1e300;
        for (std::size_t i = 0; i < threads.size(); ++i) {
            bool outer_space = false;
            for (std::size_t r = assignment[i] + 1; r < rings.size(); ++r)
                if (counts[r] < rings[r].cores.size()) outer_space = true;
            if (!outer_space) continue;
            const double cpi = perf_->effective_cpi(
                threads[i].perf, rings[assignment[i]].cores.front(), f_max);
            if (cpi < victim_cpi) {
                victim_cpi = cpi;
                victim = i;
            }
        }
        if (victim == threads.size()) break;
        for (std::size_t r = assignment[victim] + 1; r < rings.size(); ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            --counts[assignment[victim]];
            assignment[victim] = r;
            ++counts[r];
            break;
        }
        peak = predicted_peak_c(threads, assignment, rotation_on,
                                tau_ladder_s_[tau_idx], ws);
    }
    while (peak >= limit && tau_idx > 0) {
        --tau_idx;
        peak = predicted_peak_c(threads, assignment, rotation_on,
                                tau_ladder_s_[tau_idx], ws);
    }

    // Lines 23-27: relax the rotation while safety holds.
    while (rotation_on) {
        const bool at_top = tau_idx + 1 >= tau_ladder_s_.size();
        const bool candidate_on = !at_top;
        const std::size_t candidate_idx = at_top ? tau_idx : tau_idx + 1;
        if (predicted_peak_c(threads, assignment, candidate_on,
                             tau_ladder_s_[candidate_idx], ws) < limit) {
            rotation_on = candidate_on;
            tau_idx = candidate_idx;
        } else {
            break;
        }
    }

    RotationPlan plan;
    plan.ring_of_thread = std::move(assignment);
    plan.rotation_on = rotation_on;
    plan.tau_s = tau_ladder_s_[tau_idx];
    plan.predicted_peak_c = predicted_peak_c(threads, plan.ring_of_thread,
                                             plan.rotation_on, plan.tau_s, ws);
    plan.thermally_safe = plan.predicted_peak_c < limit;
    plan.throughput_score = throughput_score(threads, plan.ring_of_thread,
                                             plan.rotation_on, plan.tau_s);
    return plan;
}

RotationPlan RotationPlanner::plan_exhaustive(
    const std::vector<ThreadEstimate>& threads, double t_dtm_c,
    double headroom_delta_c, std::size_t max_threads) const {
    if (threads.size() > max_threads)
        throw std::invalid_argument(
            "RotationPlanner: exhaustive search limited to small instances");
    const auto& rings = chip_->rings();
    const double limit = t_dtm_c - headroom_delta_c;
    PeakWorkspace ws;

    RotationPlan best_safe;      // highest throughput among safe plans
    RotationPlan best_fallback;  // lowest peak overall
    best_fallback.predicted_peak_c = 1e300;
    bool have_safe = false, have_any = false;

    std::vector<std::size_t> assignment(threads.size(), 0);
    std::vector<std::size_t> counts(rings.size(), 0);

    const auto evaluate = [&]() {
        // Rotation settings: pinned, or each ladder rung.
        for (std::size_t setting = 0; setting <= tau_ladder_s_.size();
             ++setting) {
            const bool rotation_on = setting > 0;
            const double tau =
                rotation_on ? tau_ladder_s_[setting - 1] : tau_ladder_s_[0];
            RotationPlan plan;
            plan.ring_of_thread = assignment;
            plan.rotation_on = rotation_on;
            plan.tau_s = tau;
            plan.predicted_peak_c =
                predicted_peak_c(threads, assignment, rotation_on, tau, ws);
            plan.thermally_safe = plan.predicted_peak_c < limit;
            plan.throughput_score =
                throughput_score(threads, assignment, rotation_on, tau);
            if (plan.thermally_safe &&
                (!have_safe ||
                 plan.throughput_score > best_safe.throughput_score)) {
                best_safe = plan;
                have_safe = true;
            }
            if (!have_any ||
                plan.predicted_peak_c < best_fallback.predicted_peak_c) {
                best_fallback = plan;
                have_any = true;
            }
        }
    };

    const auto recurse = [&](auto&& self, std::size_t i) -> void {
        if (i == threads.size()) {
            evaluate();
            return;
        }
        for (std::size_t r = 0; r < rings.size(); ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            assignment[i] = r;
            ++counts[r];
            self(self, i + 1);
            --counts[r];
        }
    };
    recurse(recurse, 0);

    if (!have_any)
        throw std::invalid_argument("RotationPlanner: threads do not fit");
    return have_safe ? best_safe : best_fallback;
}

}  // namespace hp::core

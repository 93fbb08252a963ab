// Analytical what-if exploration with the paper's peak-temperature method
// (Algorithm 1) — no simulation involved. Given a set of threads with known
// power draws assigned to an AMD ring, compute the exact periodic
// steady-state peak temperature for a sweep of rotation intervals and thread
// counts, and find the slowest thermally-safe rotation.
//
// This is the design-space exploration a system integrator would run before
// committing to a rotation policy.

#include <cstdio>
#include <vector>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "core/rotation_planner.hpp"
#include "perf/interval_model.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"

int main() {
    using namespace hp;

    arch::ManyCore chip = arch::ManyCore::paper_16core();
    thermal::ThermalModel model(chip.plan(), thermal::RcNetworkConfig{});
    thermal::MatExSolver solver(model);

    constexpr double kAmbient = 45.0;
    constexpr double kIdle = 0.3;
    constexpr double kDtm = 70.0;
    const core::PeakTemperatureAnalyzer analyzer(solver, kAmbient, kIdle);
    core::PeakWorkspace ws;  // query scratch, reused by every call below

    // The centre ring of the 16-core chip (cores 5-6-10-9 in cycle order).
    const arch::AmdRing& ring = chip.rings().front();
    std::printf("rotation ring: %zu cores, AMD %.2f\n", ring.cores.size(),
                ring.amd);

    std::printf("\npeak temperature [C] by thread count and rotation interval"
                " (threads at 6 W):\n");
    std::printf("  %-8s", "threads");
    const std::vector<double> taus = {0.125e-3, 0.5e-3, 2e-3, 8e-3};
    for (double tau : taus) std::printf(" | tau=%5.3fms", tau * 1e3);
    std::printf(" | static\n  ---------+-------------+-------------+------------"
                "-+-------------+-------\n");

    for (std::size_t threads = 1; threads <= ring.cores.size(); ++threads) {
        core::RotationRingSpec spec;
        spec.cores = ring.cores;
        spec.slot_power_w.assign(ring.cores.size(), kIdle);
        for (std::size_t t = 0; t < threads; ++t) spec.slot_power_w[t] = 6.0;

        std::printf("  %-8zu", threads);
        // One slate query evaluates the ring at every interval of the row.
        std::vector<double> peaks(taus.size());
        analyzer.rotation_peaks({spec}, taus.data(), taus.size(), 4, ws,
                                peaks.data());
        for (double peak : peaks)
            std::printf(" | %8.2f %s", peak, peak < kDtm ? "ok " : "HOT");
        // Static placement (no rotation) for comparison.
        std::vector<double> power(chip.core_count(), kIdle);
        for (std::size_t t = 0; t < threads; ++t)
            power[ring.cores[t]] = 6.0;
        double st;
        analyzer.static_peaks(power.data(), 1, ws, &st);
        std::printf(" | %.2f %s\n", st, st < kDtm ? "ok" : "HOT");
    }

    // The scheduler question: slowest safe rotation for 2 hot threads.
    core::RotationRingSpec two;
    two.cores = ring.cores;
    two.slot_power_w = {6.0, 6.0, kIdle, kIdle};
    std::printf("\nslowest thermally-safe rotation for 2x6W threads: ");
    double chosen = -1.0;
    for (double tau = 8e-3; tau >= 0.1e-3; tau *= 0.5) {
        double peak;
        analyzer.rotation_peaks({two}, &tau, 1, 4, ws, &peak);
        if (peak < kDtm - 1.0) {
            chosen = tau;
            break;
        }
    }
    if (chosen > 0)
        std::printf("tau = %.3f ms\n", chosen * 1e3);
    else
        std::printf("none - needs a bigger ring or DVFS\n");

    // Per-ring rotation intervals (extension beyond the paper's single tau):
    // the hot inner ring must rotate fast, but a warm middle ring can rotate
    // an order of magnitude slower at almost no thermal cost.
    core::RotationRingSpec middle;
    middle.cores = chip.rings()[1].cores;
    middle.slot_power_w.assign(middle.cores.size(), kIdle);
    middle.slot_power_w[0] = 5.0;
    std::printf("\nper-ring tau (inner 2x6W + middle 1x5W):\n");
    for (double mid_tau : {0.5e-3, 4e-3, 8e-3})
        std::printf("  inner 0.5 ms, middle %5.1f ms -> peak %.2f C\n",
                    mid_tau * 1e3,
                    analyzer.rotation_peak({two, middle},
                                           std::vector<double>{0.5e-3, mid_tau},
                                           4, ws));

    // Design-time planning (Algorithm 2 offline): where should a mixed
    // thread set live, and how fast should it rotate?
    perf::IntervalPerformanceModel perf_model(chip);
    const core::RotationPlanner planner(chip, perf_model, analyzer);
    std::vector<core::ThreadEstimate> threads = {
        {6.0, {.base_cpi = 0.5, .llc_apki = 0.5, .nominal_power_w = 6.0}},
        {6.0, {.base_cpi = 0.5, .llc_apki = 0.5, .nominal_power_w = 6.0}},
        {1.8, {.base_cpi = 1.0, .llc_apki = 12.0, .nominal_power_w = 1.6}},
    };
    const core::RotationPlan plan = planner.plan_greedy(threads, kDtm);
    std::printf("\ngreedy plan for {hot, hot, memory-bound}:\n");
    for (std::size_t i = 0; i < threads.size(); ++i)
        std::printf("  thread %zu (%.1f W) -> ring %zu (AMD %.2f)\n", i,
                    threads[i].power_w, plan.ring_of_thread[i],
                    chip.rings()[plan.ring_of_thread[i]].amd);
    std::printf("  rotation: %s, tau = %.3f ms, predicted peak %.2f C (%s)\n",
                plan.rotation_on ? "on" : "off", plan.tau_s * 1e3,
                plan.predicted_peak_c,
                plan.thermally_safe ? "safe" : "UNSAFE");
    return 0;
}

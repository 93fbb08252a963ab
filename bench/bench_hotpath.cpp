// Allocation-instrumented microbenchmark of the thermal hot path.
//
// Times the per-query / per-step cost of every operation the simulator and
// the schedulers sit in all day — steady-state solve, MatEx transient, exact
// analytic peak, the Algorithm-1 rotation peak, and a whole Simulator
// micro-step — and counts heap allocations per call with an instrumented
// global operator new. Each numeric query is measured twice: through the
// legacy value-returning API (which allocates temporaries per call) and
// through the in-place workspace kernels the hot path actually uses.
//
// Emits BENCH_hotpath.json (override with --out PATH) so the perf trajectory
// is tracked across PRs; --smoke cuts repetitions for the tier-1 ctest
// invocation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "core/hotpotato.hpp"
#include "core/peak_temperature.hpp"
#include "exec/arena.hpp"
#include "sched/static_schedulers.hpp"
#include "sim/simulator.hpp"
#include "thermal/modal_solver.hpp"
#include "thermal/solver.hpp"
#include "workload/benchmark.hpp"
#include "workload/generator.hpp"

// --- instrumented allocator --------------------------------------------------
// Counts every path into the global heap. Counting is the only intervention:
// allocation itself is forwarded to malloc, so timings stay representative.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
    return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
        return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

struct Case {
    std::string name;
    double ns_per_op = 0.0;
    double allocs_per_op = 0.0;
    double ops = 0.0;
};

std::vector<Case> g_cases;
double g_sink = 0.0;  // defeats dead-code elimination of measured results

/// Runs @p op @p reps times (after one untimed warm-up call) and records
/// wall time and allocation count per call.
template <typename Op>
void measure(const std::string& name, std::size_t reps, Op&& op) {
    g_sink += op();  // warm-up: sizes caches/workspaces, faults pages in
    const std::uint64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) g_sink += op();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    Case c;
    c.name = name;
    c.ns_per_op = ns / static_cast<double>(reps);
    c.allocs_per_op =
        static_cast<double>(allocs) / static_cast<double>(reps);
    c.ops = static_cast<double>(reps);
    std::printf("  %-40s %12.0f ns/op %10.2f allocs/op\n", c.name.c_str(),
                c.ns_per_op, c.allocs_per_op);
    g_cases.push_back(std::move(c));
}

/// One Algorithm-1 rotation query at τ = 0.5 ms, 2 samples per epoch — the
/// count-1 slate HotPotato's candidate loop runs.
double rotation_peak(const hp::core::PeakTemperatureAnalyzer& analyzer,
                     const std::vector<hp::core::RotationRingSpec>& rings,
                     hp::core::PeakWorkspace& ws) {
    const double tau = 0.5e-3;
    double peak;
    analyzer.rotation_peaks(rings, &tau, 1, 2, ws, &peak);
    return peak;
}

/// Whole-simulation measurement: ns and allocations per micro-step, averaged
/// over the entire run (setup + epochs included — the strict per-step zero
/// is asserted by tests/alloc_guard_test).
void measure_sim(const std::string& name,
                 const hp::campaign::StudySetup& setup,
                 hp::sim::Scheduler& sched,
                 std::vector<hp::workload::TaskSpec> tasks,
                 double max_time_s) {
    hp::sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.max_sim_time_s = max_time_s;
    hp::sim::Simulator sim = setup.make_simulator(cfg);
    sim.add_tasks(tasks);
    const std::uint64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    const hp::sim::SimResult r = sim.run(sched);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const double steps = r.simulated_time_s / cfg.micro_step_s;
    Case c;
    c.name = name;
    c.ns_per_op = ns / steps;
    c.allocs_per_op = static_cast<double>(allocs) / steps;
    c.ops = steps;
    std::printf("  %-40s %12.0f ns/step %9.2f allocs/step (%.0f steps)\n",
                c.name.c_str(), c.ns_per_op, c.allocs_per_op, steps);
    g_cases.push_back(std::move(c));
}

/// Whole-campaign measurement: wall time and allocations per run with the
/// pool saturated (one worker per hardware thread). Unlike measure(), the
/// campaign is executed once — per-run setup (scheduler, simulator, faults)
/// is part of what the throughput number is supposed to include.
void measure_campaign(const std::string& name,
                      const hp::campaign::CampaignSpec& spec,
                      std::size_t jobs) {
    hp::campaign::CampaignOptions options;
    options.jobs = jobs;
    const std::uint64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    const hp::campaign::CampaignResult result =
        hp::campaign::run_campaign(spec, options);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const double runs = static_cast<double>(result.records.size());
    Case c;
    c.name = name;
    c.ns_per_op = ns / runs;
    c.allocs_per_op = static_cast<double>(allocs) / runs;
    c.ops = runs;
    std::printf("  %-40s %12.0f ns/run %9.2f runs/s (%zu jobs, %.0f runs)\n",
                c.name.c_str(), c.ns_per_op, 1e9 * runs / ns, jobs, runs);
    g_sink += static_cast<double>(result.summary.total_runs);
    g_cases.push_back(std::move(c));
}

void write_json(const std::string& path, bool smoke) {
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"bench_hotpath\",\n  \"mode\": \""
        << (smoke ? "smoke" : "full") << "\",\n";
    hp::bench::write_provenance(out);
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < g_cases.size(); ++i) {
        const Case& c = g_cases[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                      "\"allocs_per_op\": %.3f, \"ops\": %.0f}%s\n",
                      c.name.c_str(), c.ns_per_op, c.allocs_per_op, c.ops,
                      i + 1 < g_cases.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("\n  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }
    const std::size_t reps = smoke ? 20 : 2000;

    hp::bench::print_header(
        "Hot-path microbenchmark: thermal kernels and simulator steps",
        "zero-allocation refactor tracking (BENCH_hotpath.json)");

    using namespace hp;
    const campaign::StudySetup& t64 = bench::testbed_64core();
    const thermal::ThermalModel& model = t64.model();
    const thermal::TransientSolver& matex = t64.solver();
    const std::size_t n = model.core_count();

    linalg::Vector core_power(n, 2.0);
    core_power[27] = 6.0;
    core_power[36] = 5.0;
    const linalg::Vector node_power = model.pad_power(core_power);
    const linalg::Vector t_init =
        matex.steady_state(linalg::Vector(model.node_count()), 45.0);

    std::printf("\n-- value-returning (legacy) APIs, 64-core --\n");
    measure("steady_state/legacy", reps, [&] {
        return matex.steady_state(node_power, 45.0)[0];
    });
    measure("transient/legacy", reps, [&] {
        return matex.transient(t_init, node_power, 45.0, 1e-4)[0];
    });
    measure("apply_exponential/legacy", reps, [&] {
        return matex.apply_exponential(t_init, 1e-4)[0];
    });
    measure("peak_exact/legacy", smoke ? 5 : 200, [&] {
        return matex.peak_core_temperature_exact(t_init, node_power, 45.0,
                                                 0.05)
            .temperature_c;
    });

    // Algorithm 1: one realistic 8-slot ring on the 64-core chip.
    core::PeakTemperatureAnalyzer analyzer(matex, 45.0, 0.3);
    core::RotationRingSpec ring;
    ring.cores = {27, 28, 36, 35, 34, 26, 18, 19};
    ring.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
    const std::vector<core::RotationRingSpec> rings = {ring};

    std::printf("\n-- in-place workspace kernels (same queries) --\n");
    thermal::ThermalWorkspace ws;
    linalg::Vector out(model.node_count());
    measure("steady_state/workspace", reps, [&] {
        matex.steady_state_into(node_power, 45.0, ws, out);
        return out[0];
    });
    measure("transient/workspace", reps, [&] {
        matex.transient_into(t_init, node_power, 45.0, 1e-4, ws, out);
        return out[0];
    });
    measure("apply_exponential/workspace", reps, [&] {
        matex.apply_exponential_into(t_init, 1e-4, ws, out);
        return out[0];
    });
    core::PeakWorkspace peak_ws;
    measure("rotation_peak/workspace", smoke ? 5 : 200, [&] {
        return rotation_peak(analyzer, rings, peak_ws);
    });

    std::printf("\n-- whole-simulator micro-steps --\n");
    {
        core::HotPotatoScheduler sched;
        measure_sim("sim_step/hotpotato_16core", bench::testbed_16core(),
                    sched,
                    {workload::TaskSpec{
                        &workload::profile_by_name("blackscholes"), 2, 0.0}},
                    smoke ? 0.02 : 0.25);
    }
    {
        core::HotPotatoScheduler sched;
        measure_sim(
            "sim_step/hotpotato_64core_full", t64, sched,
            workload::homogeneous_fill(workload::profile_by_name("bodytrack"),
                                       64, 1),
            smoke ? 0.01 : 0.1);
    }
    {
        sched::StaticScheduler sched({27, 36});
        measure_sim("sim_step/static_64core", t64, sched,
                    {workload::TaskSpec{
                        &workload::profile_by_name("swaptions"), 2, 0.0}},
                    smoke ? 0.02 : 0.25);
    }

    std::printf("\n-- 256-core scale-up (truncated-modal backend) --\n");
    const campaign::StudySetup& t256 = bench::testbed_256core();
    const thermal::ThermalModel& model256 = t256.model();
    const thermal::TransientSolver& modal256 = t256.solver();
    std::printf("  backend=%s modes=%zu/%zu error_bound=%.3f K\n",
                modal256.backend_name(), modal256.mode_count(),
                modal256.node_count(), modal256.error_bound_c());

    // One-time backend setup at 513 nodes: eigendecomposition, mode cut,
    // banded factorisation, error-bound probes.
    measure("solver_setup_256", smoke ? 1 : 3, [&] {
        return thermal::TruncatedModalSolver(model256,
                                             thermal::SolverConfig::modal())
            .error_bound_c();
    });

    // Algorithm 1 on a 16x16 ring (same 8-slot shape as the 64-core case,
    // centred on the die).
    {
        core::PeakTemperatureAnalyzer analyzer256(modal256, 45.0, 0.3);
        core::RotationRingSpec ring256;
        ring256.cores = {119, 120, 136, 135, 134, 118, 102, 103};
        ring256.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
        const std::vector<core::RotationRingSpec> rings256 = {ring256};
        core::PeakWorkspace peak_ws256;
        measure("rotation_peak_256", smoke ? 3 : 50, [&] {
            return rotation_peak(analyzer256, rings256, peak_ws256);
        });
    }

    // Whole-simulator micro-steps on the 256-core chip (sparse Taylor path).
    {
        core::HotPotatoScheduler sched;
        measure_sim(
            "sim_step_256core", t256, sched,
            workload::homogeneous_fill(workload::profile_by_name("bodytrack"),
                                       16, 1),
            smoke ? 0.01 : 0.1);
    }

    // 1024-core scale-up: full mode only — the one-time 2049-node
    // eigendecomposition behind testbed_1024core() is far too heavy for the
    // tier-1 smoke invocation (smoke coverage stops at 256).
    if (!smoke) {
        std::printf("\n-- 1024-core scale-up (truncated-modal backend) --\n");
        const campaign::StudySetup& t1024 = bench::testbed_1024core();
        const thermal::TransientSolver& modal1024 = t1024.solver();
        std::printf("  backend=%s modes=%zu/%zu error_bound=%.3f K\n",
                    modal1024.backend_name(), modal1024.mode_count(),
                    modal1024.node_count(), modal1024.error_bound_c());

        // Algorithm 1 on a 32x32 ring (the same centred 8-slot shape as the
        // 64/256-core cases).
        {
            core::PeakTemperatureAnalyzer analyzer1024(modal1024, 45.0, 0.3);
            core::RotationRingSpec ring1024;
            ring1024.cores = {495, 496, 528, 527, 526, 494, 462, 463};
            ring1024.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
            const std::vector<core::RotationRingSpec> rings1024 = {ring1024};
            core::PeakWorkspace peak_ws1024;
            measure("rotation_peak_1024", 20, [&] {
                return rotation_peak(analyzer1024, rings1024, peak_ws1024);
            });
        }

        // Whole-simulator micro-steps on the 1024-core chip.
        {
            core::HotPotatoScheduler sched;
            measure_sim("sim_step_1024core", t1024, sched,
                        workload::homogeneous_fill(
                            workload::profile_by_name("bodytrack"), 16, 1),
                        0.02);
        }
    }

    std::printf("\n-- execution layer: workspace setup, campaign throughput --\n");

    // Per-run workspace setup cost, heap vs node-local arena (DESIGN.md §12).
    // Each op builds a fresh ThermalWorkspace and warms it with one transient
    // query — exactly what a campaign worker used to pay per run before
    // workspaces moved to per-worker arena-backed scratch. The arena variant
    // resets (keeping its reservation) instead of freeing, so after the first
    // op it touches the heap zero times.
    {
        const std::size_t setup_reps = smoke ? 20 : 500;
        measure("workspace_setup_heap", setup_reps, [&] {
            thermal::ThermalWorkspace fresh;
            matex.transient_into(t_init, node_power, 45.0, 1e-4, fresh, out);
            return out[0];
        });
        exec::Arena arena;
        exec::ArenaResource arena_mr(arena);
        measure("workspace_setup_arena", setup_reps, [&] {
            arena.reset();
            thermal::ThermalWorkspace fresh(&arena_mr);
            matex.transient_into(t_init, node_power, 45.0, 1e-4, fresh, out);
            return out[0];
        });
    }

    // Campaign throughput at saturation: one worker per hardware thread, a
    // seed sweep deep enough to keep every worker busy. Runs/sec includes
    // per-run scheduler/simulator construction and the engine's bookkeeping;
    // ns_per_op (= ns per run) is what the JSON gate tracks.
    {
        const std::size_t jobs =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        const std::size_t sweep = std::max<std::size_t>(4, 2 * jobs);

        sim::SimConfig cfg64;
        cfg64.micro_step_s = 1e-4;
        cfg64.max_sim_time_s = smoke ? 0.005 : 0.02;
        campaign::CampaignSpec spec64(t64, cfg64);
        spec64.add_scheduler("hotpotato", [] {
            return std::make_unique<core::HotPotatoScheduler>();
        });
        spec64.add_workload(
            "fill16", workload::homogeneous_fill(
                          workload::profile_by_name("bodytrack"), 16, 1));
        for (std::size_t s = 1; s <= sweep; ++s) spec64.add_seed(s);
        measure_campaign("campaign_run_64core", spec64, jobs);

        sim::SimConfig cfg256;
        cfg256.micro_step_s = 1e-4;
        cfg256.max_sim_time_s = smoke ? 0.001 : 0.005;
        campaign::CampaignSpec spec256(t256, cfg256);
        spec256.add_scheduler("hotpotato", [] {
            return std::make_unique<core::HotPotatoScheduler>();
        });
        spec256.add_workload(
            "fill16", workload::homogeneous_fill(
                          workload::profile_by_name("bodytrack"), 16, 1));
        for (std::size_t s = 1; s <= sweep; ++s) spec256.add_seed(s);
        measure_campaign("campaign_run_256core", spec256, jobs);
    }

    write_json(out_path, smoke);
    return g_sink == 12345.6789 ? 1 : 0;  // g_sink use keeps work alive
}

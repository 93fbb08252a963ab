// Heap-allocation guard for the thermal hot path.
//
// Replaces the global operator new with a counting forwarder and asserts the
// zero-allocation contract the refactor promises: once workspaces are warm,
//
//  * a Simulator micro-step (power → pad → MatEx transient → DTM, including
//    HotPotato's synchronous slot rotation in on_step) performs no heap
//    allocations on steps without scheduler events;
//  * a HotPotato candidate evaluation (predict_peak: ring specs + Algorithm 1
//    rotation_peaks / static_peaks) performs no heap allocations;
//  * the thermal _into kernels and the analyzer queries perform no heap
//    allocations;
//  * a PCGov/PCMig epoch (TSP governor: memo hit or miss, DVFS clamp,
//    PCMig's prediction) performs no heap allocations.
//
// Event steps (epochs, task arrival/finish, the first sizing pass) are
// exempt: schedulers may allocate while making decisions; the per-step
// thermal path may not. This test is skipped under sanitized builds
// (tests/CMakeLists.txt) — sanitizer runtimes own the allocator there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "exec/arena.hpp"
#include "exec/scratch.hpp"
#include "core/peak_temperature.hpp"
#include "obs/recorder.hpp"
#include "sched/pcgov.hpp"
#include "sched/pcmig.hpp"
#include "sched/placement.hpp"
#include "sched/tsp.hpp"
#include "sim/simulator.hpp"
#include "thermal/workspace.hpp"
#include "peak_queries.hpp"
#include "thermal_oracle.hpp"
#include "workload/benchmark.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::uint64_t alloc_count() {
    return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

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
// noinline: inlined into a caller, a free() of memory the counting
// operator new malloc'd trips gcc's -Wmismatched-new-delete at -O3.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using namespace hp;

/// HotPotato with per-step allocation recording. The counter is sampled at
/// the top of every on_step into preallocated arrays, so the delta between
/// consecutive samples is exactly the heap traffic of one full micro-step
/// (thermal update, DTM, the previous step's rotation). Samples preceded by
/// a scheduler event since the last sample are flagged and exempt.
class RecordingHotPotato : public core::HotPotatoScheduler {
public:
    explicit RecordingHotPotato(std::size_t max_samples) {
        counts_.reserve(max_samples);
        flagged_.reserve(max_samples);
    }

    void initialize(sim::SimContext& ctx) override {
        event_ = true;
        core::HotPotatoScheduler::initialize(ctx);
    }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override {
        event_ = true;
        return core::HotPotatoScheduler::on_task_arrival(ctx, task);
    }
    void on_task_finish(sim::SimContext& ctx, sim::TaskId task) override {
        event_ = true;
        core::HotPotatoScheduler::on_task_finish(ctx, task);
    }
    void on_epoch(sim::SimContext& ctx) override {
        event_ = true;
        core::HotPotatoScheduler::on_epoch(ctx);
    }
    void on_step(sim::SimContext& ctx) override {
        if (counts_.size() < counts_.capacity()) {  // never reallocates
            counts_.push_back(alloc_count());
            flagged_.push_back(event_ ? 1 : 0);
        }
        event_ = false;
        core::HotPotatoScheduler::on_step(ctx);  // rotation: must stay clean
    }

    const std::vector<std::uint64_t>& counts() const { return counts_; }
    const std::vector<char>& flagged() const { return flagged_; }

private:
    std::vector<std::uint64_t> counts_;
    std::vector<char> flagged_;
    bool event_ = false;
};

/// Runs HotPotato on @p setup for 500 micro-steps and asserts that every
/// warmed step without a scheduler event allocates nothing.
void expect_warmed_micro_steps_allocation_free(
    const campaign::StudySetup& setup) {
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.05;  // 500 micro-steps, task alive throughout

    RecordingHotPotato sched(600);
    sim::Simulator sim = setup.make_simulator(cfg);
    sim.add_tasks(
        {workload::TaskSpec{&workload::profile_by_name("blackscholes"), 2,
                            0.0}});
    sim.run(sched);

    const std::vector<std::uint64_t>& counts = sched.counts();
    const std::vector<char>& flagged = sched.flagged();
    ASSERT_GT(counts.size(), 200u) << "simulation ended prematurely";

    // Skip the sizing warm-up, then demand bitwise zero on event-free steps.
    const std::size_t warmup = 50;
    std::size_t asserted = 0;
    for (std::size_t i = warmup + 1; i < counts.size(); ++i) {
        if (flagged[i]) continue;  // epoch/arrival/finish inside the interval
        EXPECT_EQ(counts[i] - counts[i - 1], 0u)
            << "heap allocation in micro-step " << i;
        ++asserted;
    }
    EXPECT_GT(asserted, 100u) << "too few event-free steps measured";
}

TEST(AllocGuard, WarmedSimulatorMicroStepIsAllocationFree) {
    expect_warmed_micro_steps_allocation_free(
        campaign::StudySetup::paper_16core());
}

TEST(AllocGuard, WarmedSimulatorMicroStepIsAllocationFreeOn1024Core) {
#ifndef NDEBUG
    GTEST_SKIP() << "2049-node setup runs in optimised builds only";
#else
    expect_warmed_micro_steps_allocation_free(
        campaign::StudySetup::paper_1024core());
#endif
}

TEST(AllocGuard, WarmedMicroStepWithRecorderAttachedIsAllocationFree) {
    // Same contract as above, with the observability layer live: the trace
    // ring is preallocated and the instruments are registered up front, so
    // recording events/counters/histograms inside the micro-step (rotations
    // fire in on_step, which is not an exempt event) must stay heap-free.
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.05;

    obs::Recorder recorder;
    RecordingHotPotato sched(600);
    sim::Simulator sim =
        setup.make_simulator(cfg, {}, {}, nullptr, &recorder);
    sim.add_tasks(
        {workload::TaskSpec{&workload::profile_by_name("blackscholes"), 2,
                            0.0}});
    sim.run(sched);

    const std::vector<std::uint64_t>& counts = sched.counts();
    const std::vector<char>& flagged = sched.flagged();
    ASSERT_GT(counts.size(), 200u) << "simulation ended prematurely";

    const std::size_t warmup = 50;
    std::size_t asserted = 0;
    for (std::size_t i = warmup + 1; i < counts.size(); ++i) {
        if (flagged[i]) continue;
        EXPECT_EQ(counts[i] - counts[i - 1], 0u)
            << "heap allocation in observed micro-step " << i;
        ++asserted;
    }
    EXPECT_GT(asserted, 100u) << "too few event-free steps measured";

    // The recorder actually observed the run (it wasn't compiled away).
    EXPECT_GT(recorder.trace().recorded(), 0u);
    bool saw_rotation = false;
    for (const obs::Event& e : recorder.events())
        if (e.kind == obs::EventKind::kRotation) saw_rotation = true;
    EXPECT_TRUE(saw_rotation);
}

TEST(AllocGuard, WarmedCampaignStepsAreAllocationFreeUnderTheArena) {
    // The campaign-worker context (DESIGN.md §12): thermal workspace, the
    // scheduler's borrowed workspaces and every other long-lived scratch
    // carved from the worker's arena. The first run warms the worker; from
    // the second run on — the steady state of a long sweep — event-free
    // micro-steps must be bitwise heap-free, with the arena (not the heap)
    // backing the workspaces.
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.05;
    const std::vector<workload::TaskSpec> tasks{workload::TaskSpec{
        &workload::profile_by_name("blackscholes"), 2, 0.0}};

    exec::Arena arena;
    exec::ArenaResource arena_mr(arena);
    exec::WorkerScratch scratch(&arena_mr);
    thermal::ThermalWorkspace workspace(&arena_mr);

    {   // Run 1: the warm-up run every campaign worker pays once.
        RecordingHotPotato sched(600);
        sim::Simulator sim = setup.make_simulator(cfg, {}, {}, &workspace,
                                                  nullptr, nullptr, &scratch);
        sim.add_tasks(tasks);
        sim.run(sched);
    }
    // The workspaces really live in the arena, not on the heap.
    EXPECT_GT(arena.bytes_used(), 0u);
    const std::size_t used_after_warmup = arena.bytes_used();

    // Run 2: same worker context, fresh scheduler/simulator (per-run state).
    RecordingHotPotato sched(600);
    sim::Simulator sim = setup.make_simulator(cfg, {}, {}, &workspace,
                                              nullptr, nullptr, &scratch);
    sim.add_tasks(tasks);
    sim.run(sched);

    const std::vector<std::uint64_t>& counts = sched.counts();
    const std::vector<char>& flagged = sched.flagged();
    ASSERT_GT(counts.size(), 200u) << "simulation ended prematurely";
    const std::size_t warmup = 50;
    std::size_t asserted = 0;
    for (std::size_t i = warmup + 1; i < counts.size(); ++i) {
        if (flagged[i]) continue;
        EXPECT_EQ(counts[i] - counts[i - 1], 0u)
            << "heap allocation in arena-backed micro-step " << i;
        ++asserted;
    }
    EXPECT_GT(asserted, 100u) << "too few event-free steps measured";
    // A warmed worker's steady state: the second run grew the arena by
    // nothing (capacity reached on run 1) — workspace churn is gone.
    EXPECT_EQ(arena.bytes_used(), used_after_warmup);
}

/// HotPotato probe: after each epoch's normal work, times an extra candidate
/// evaluation (predict_peak = ring specs + Algorithm 1) with a warm
/// workspace and records its allocation count. With the peak cache enabled
/// (the default) the repeat query exercises key staging + a cache hit; with
/// it disabled, the full uncached evaluation — both must stay heap-free.
class PredictProbeHotPotato : public core::HotPotatoScheduler {
public:
    PredictProbeHotPotato(std::size_t max_samples,
                          core::HotPotatoParams params = {})
        : core::HotPotatoScheduler(params) {
        deltas_.reserve(max_samples);
    }

    void on_epoch(sim::SimContext& ctx) override {
        core::HotPotatoScheduler::on_epoch(ctx);
        (void)predict_peak(ctx);  // warm the per-instance scratch
        const std::uint64_t before = alloc_count();
        (void)predict_peak(ctx);
        if (deltas_.size() < deltas_.capacity())
            deltas_.push_back(alloc_count() - before);
    }

    const std::vector<std::uint64_t>& deltas() const { return deltas_; }

private:
    std::vector<std::uint64_t> deltas_;
};

TEST(AllocGuard, WarmedHotPotatoCandidateEvaluationIsAllocationFree) {
    for (const bool use_cache : {true, false}) {
        const campaign::StudySetup setup =
            campaign::StudySetup::paper_16core();
        sim::SimConfig cfg;
        cfg.micro_step_s = 1e-4;
        cfg.scheduler_epoch_s = 1e-3;
        cfg.max_sim_time_s = 0.03;

        core::HotPotatoParams params;
        params.use_peak_cache = use_cache;
        PredictProbeHotPotato sched(64, params);
        sim::Simulator sim = setup.make_simulator(cfg);
        sim.add_tasks(
            {workload::TaskSpec{&workload::profile_by_name("blackscholes"), 2,
                                0.0}});
        sim.run(sched);

        ASSERT_GT(sched.deltas().size(), 5u);
        for (std::size_t i = 1; i < sched.deltas().size(); ++i)
            EXPECT_EQ(sched.deltas()[i], 0u)
                << "allocation in epoch probe " << i
                << (use_cache ? " (cache on)" : " (cache off)");
    }
}

TEST(AllocGuard, WarmedThermalKernelsAreAllocationFree) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core(
        thermal::SolverConfig::dense());
    const thermal::ThermalModel& model = setup.model();
    const thermal::TransientSolver& matex = setup.solver();
    ASSERT_STREQ(matex.backend_name(), "dense");

    linalg::Vector core_power(model.core_count(), 2.0);
    core_power[3] = 6.0;
    linalg::Vector node_power(model.node_count());
    linalg::Vector temps = test::oracle_ambient_equilibrium(model, 45.0);
    linalg::Vector out(model.node_count());
    thermal::ThermalWorkspace ws;

    // Warm every buffer and memo once.
    model.pad_power_into(core_power, node_power);
    matex.steady_state_into(node_power, 45.0, ws, out);
    matex.apply_exponential_into(temps, 1e-4, ws, out);
    matex.transient_into(temps, node_power, 45.0, 1e-4, ws, temps);

    const std::uint64_t before = alloc_count();
    for (int step = 0; step < 100; ++step) {
        model.pad_power_into(core_power, node_power);
        matex.transient_into(temps, node_power, 45.0, 1e-4, ws, temps);
    }
    matex.steady_state_into(node_power, 45.0, ws, out);
    matex.apply_exponential_into(temps, 1e-4, ws, out);
    EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(AllocGuard, WarmedModalThermalKernelsAreAllocationFree) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core(
        thermal::SolverConfig::modal());
    const thermal::ThermalModel& model = setup.model();
    const thermal::TransientSolver& modal = setup.solver();
    ASSERT_STREQ(modal.backend_name(), "modal");

    linalg::Vector core_power(model.core_count(), 2.0);
    core_power[3] = 6.0;
    linalg::Vector node_power(model.node_count());
    linalg::Vector temps = test::oracle_ambient_equilibrium(model, 45.0);
    linalg::Vector out(model.node_count());
    thermal::ThermalWorkspace ws;

    // Warm both propagation regimes: the micro-step Taylor path (1e-4 s)
    // and the retained-mode closed form (1.0 s, past tau_switch).
    model.pad_power_into(core_power, node_power);
    modal.steady_state_into(node_power, 45.0, ws, out);
    modal.apply_exponential_into(temps, 1.0, ws, out);
    modal.transient_into(temps, node_power, 45.0, 1e-4, ws, temps);
    modal.transient_into(temps, node_power, 45.0, 1.0, ws, out);

    const std::uint64_t before = alloc_count();
    for (int step = 0; step < 100; ++step) {
        model.pad_power_into(core_power, node_power);
        modal.transient_into(temps, node_power, 45.0, 1e-4, ws, temps);
    }
    modal.transient_into(temps, node_power, 45.0, 1.0, ws, out);
    modal.steady_state_into(node_power, 45.0, ws, out);
    modal.apply_exponential_into(temps, 1.0, ws, out);
    EXPECT_EQ(alloc_count() - before, 0u);
}

/// Warms every batch staging buffer and the exp memo at both horizons (the
/// micro-step and 1 s, which is the retained-mode closed form on the modal
/// backend; alternating them refills the one-entry memo in place), then
/// asserts that 50 rounds of every batched solver call allocate nothing.
/// The batched exponential and transient are the TransientSolver base's
/// loops, so this pins them on each backend.
void expect_warmed_batch_kernels_allocation_free(
    const campaign::StudySetup& setup, const char* backend) {
    const thermal::ThermalModel& model = setup.model();
    const thermal::TransientSolver& solver = setup.solver();
    ASSERT_STREQ(solver.backend_name(), backend);

    const std::size_t n = model.node_count();
    const std::size_t nrhs = 8;
    linalg::Vector temps = test::oracle_ambient_equilibrium(model, 45.0);
    std::vector<double> powers(nrhs * n), batch(nrhs * n);
    for (std::size_t i = 0; i < powers.size(); ++i)
        powers[i] = 0.25 + 0.125 * static_cast<double>(i % 17);
    thermal::ThermalWorkspace ws;

    const auto round = [&] {
        solver.steady_state_batch_into(powers.data(), nrhs, 45.0, ws,
                                       batch.data());
        solver.conductance_solve_batch_into(powers.data(), nrhs, ws,
                                            batch.data());
        solver.apply_exponential_batch_into(powers.data(), nrhs, 1e-4, ws,
                                            batch.data());
        solver.apply_exponential_batch_into(powers.data(), nrhs, 1.0, ws,
                                            batch.data());
        solver.transient_batch_into(temps, powers.data(), nrhs, 45.0, 1e-4,
                                    ws, batch.data());
    };
    round();

    const std::uint64_t before = alloc_count();
    for (int step = 0; step < 50; ++step) round();
    EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(AllocGuard, WarmedModalBatchKernelsAreAllocationFree) {
    expect_warmed_batch_kernels_allocation_free(
        campaign::StudySetup::paper_64core(thermal::SolverConfig::modal()),
        "modal");
}

TEST(AllocGuard, WarmedDenseBatchKernelsAreAllocationFree) {
    expect_warmed_batch_kernels_allocation_free(
        campaign::StudySetup::paper_64core(thermal::SolverConfig::dense()),
        "dense");
}

TEST(AllocGuard, WarmedModalBatchPeakAnalysisIsAllocationFree) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core(
        thermal::SolverConfig::modal());
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace ws;

    core::RotationRingSpec ring;
    ring.cores = {27, 28, 36, 35, 34, 26, 18, 19};
    ring.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
    const std::vector<core::RotationRingSpec> rings = {ring};
    const std::vector<double> taus = {0.25e-3, 0.5e-3, 1e-3, 2e-3};
    const std::size_t cores = setup.model().core_count();
    const std::size_t nrhs = 4;
    std::vector<double> cands(nrhs * cores, 0.3), peaks(taus.size(), 0.0);
    for (std::size_t r = 0; r < nrhs; ++r) cands[r * cores + 11 + r] = 6.0;

    analyzer.rotation_peaks(rings, taus.data(), taus.size(), 2, ws,
                            peaks.data());  // warm
    analyzer.static_peaks(cands.data(), nrhs, ws, peaks.data());

    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 20; ++i) {
        analyzer.rotation_peaks(rings, taus.data(), taus.size(), 2, ws,
                                peaks.data());
        analyzer.static_peaks(cands.data(), nrhs, ws, peaks.data());
    }
    EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(AllocGuard, WarmedPrunedRotationPeaksAreAllocationFree) {
    // The 256-core chip is modal, so map-free rotation queries take the
    // pruned path. Alternating two occupancies changes the survivor and
    // hint counts on every query; the row lists are sized per rung up front
    // and the ring memos on their first fill, so that must never
    // re-allocate.
    const campaign::StudySetup setup = campaign::StudySetup::paper_256core();
    ASSERT_TRUE(setup.solver().truncated());
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace ws;

    std::vector<core::RotationRingSpec> sparse, dense;
    for (const arch::AmdRing& ring : setup.chip().rings()) {
        core::RotationRingSpec a{ring.cores,
                                 std::vector<double>(ring.cores.size(), 0.3)};
        core::RotationRingSpec b = a;
        if (sparse.empty()) a.slot_power_w[0] = 6.0;  // innermost ring only
        for (std::size_t j = 0; j < b.slot_power_w.size(); j += 2)
            b.slot_power_w[j] = 2.0 + 0.5 * static_cast<double>(j % 7);
        sparse.push_back(std::move(a));
        dense.push_back(std::move(b));
    }
    const std::vector<double> taus = {0.5e-3, 2e-3};
    std::vector<double> peaks(taus.size(), 0.0);
    const auto query = [&](const std::vector<core::RotationRingSpec>& rings,
                           core::PeakWorkspace& w) {
        analyzer.rotation_peaks(rings, taus.data(), taus.size(), 2, w,
                                peaks.data());
        return w.last_exact_rows();
    };
    // On a hintless workspace every exact row is a survivor.
    core::PeakWorkspace cold_sparse, cold_dense;
    EXPECT_NE(query(sparse, cold_sparse), query(dense, cold_dense));

    // HotPotato's whole τ ladder in one call (the prefetch), and an
    // explicit schedule: the per-rung τ tables, the sorted ring positions
    // and the hint lists must all be sized by the warm-up.
    const std::vector<double> ladder = core::HotPotatoParams{}.tau_ladder_s;
    std::vector<double> ladder_peaks(ladder.size());
    const std::size_t n = setup.model().core_count();
    std::vector<linalg::Vector> schedule(3, linalg::Vector(n, 0.3));
    for (std::size_t f = 0; f < schedule.size(); ++f)
        schedule[f][sparse[0].cores[f % sparse[0].cores.size()]] = 6.0;
    const auto rest = [&] {
        analyzer.rotation_peaks(dense, ladder.data(), ladder.size(), 2, ws,
                                ladder_peaks.data());
        (void)analyzer.schedule_peak(schedule, 0.5e-3, 2, ws);
    };

    // Algorithm 2's placement walk at one τ: a one-thread candidate per
    // ring against the dense state. Each query re-stages the one or two
    // rings that changed and takes the rest from their memos (the sparse
    // and ladder queries in between evict them), projecting hinted rows a
    // memo has not stored yet lazily.
    std::vector<std::vector<core::RotationRingSpec>> candidates;
    for (std::size_t r = 0; r < dense.size(); ++r) {
        candidates.push_back(dense);
        candidates.back()[r].slot_power_w[1] = 7.5;
    }
    std::size_t reused = 0, evals = 0;
    const auto walk = [&] {
        for (const auto& rings : candidates) {
            analyzer.rotation_peaks(rings, taus.data(), 1, 2, ws, peaks.data());
            reused += ws.last_reused_rings();
            evals += ws.last_ring_evals();
        }
    };

    (void)query(sparse, ws);  // warm
    (void)query(dense, ws);
    rest();
    walk();
    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 10; ++i) {
        (void)query(sparse, ws);
        (void)query(dense, ws);
        rest();
        walk();
    }
    EXPECT_EQ(alloc_count() - before, 0u);
    EXPECT_GT(reused, 0u);
    EXPECT_LT(reused, evals);
}

TEST(AllocGuard, WarmedRotationPeakIsAllocationFree) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core();
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace ws;

    core::RotationRingSpec ring;
    ring.cores = {27, 28, 36, 35, 34, 26, 18, 19};
    ring.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
    const std::vector<core::RotationRingSpec> rings = {ring};
    linalg::Vector static_power(setup.model().core_count(), 0.3);
    static_power[27] = 6.0;

    // The full τ ladder with and without a per-core map, and an explicit
    // schedule of the ring's first three epochs.
    const std::vector<double> ladder = core::HotPotatoParams{}.tau_ladder_s;
    std::vector<double> ladder_peaks(ladder.size());
    std::vector<double> map(ladder.size() * setup.model().core_count());
    std::vector<linalg::Vector> schedule(3, static_power);
    for (std::size_t f = 0; f < schedule.size(); ++f)
        schedule[f][ring.cores[f + 1]] = 5.0;
    const auto query = [&] {
        (void)test::rotation_peak(analyzer, rings, 0.5e-3, 2, ws);
        (void)test::static_peak(analyzer, static_power, ws);
        analyzer.rotation_peaks(rings, ladder.data(), ladder.size(), 2, ws,
                                ladder_peaks.data());
        analyzer.rotation_peaks(rings, ladder.data(), ladder.size(), 2, ws,
                                ladder_peaks.data(), map.data());
        (void)analyzer.schedule_peak(schedule, 0.5e-3, 2, ws);
    };

    query();  // warm
    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 20; ++i) query();
    EXPECT_EQ(alloc_count() - before, 0u);
}

/// Wraps PCGov or PCMig and records the heap traffic of every epoch into
/// preallocated arrays, with whether the epoch changed the mapping (a PCMig
/// migration).
template <class Sched>
class EpochProbe : public Sched {
public:
    explicit EpochProbe(std::size_t max_epochs) {
        deltas_.reserve(max_epochs);
        moved_.reserve(max_epochs);
    }

    void on_epoch(sim::SimContext& ctx) override {
        sched::active_core_mask(ctx, before_);
        const std::uint64_t start = alloc_count();
        Sched::on_epoch(ctx);
        const std::uint64_t delta = alloc_count() - start;
        sched::active_core_mask(ctx, after_);
        if (deltas_.size() < deltas_.capacity()) {  // never reallocates
            deltas_.push_back(delta);
            moved_.push_back(before_ != after_ ? 1 : 0);
        }
    }

    const std::vector<std::uint64_t>& deltas() const { return deltas_; }
    const std::vector<char>& moved() const { return moved_; }

private:
    std::vector<std::uint64_t> deltas_;
    std::vector<char> moved_;
    std::vector<bool> before_;
    std::vector<bool> after_;
};

/// Runs @p Sched on @p setup for 60 epochs (a hot task, then a second task
/// that changes the mapping) and asserts that every warmed epoch allocates
/// nothing. Returns how many of the asserted epochs migrated a thread.
template <class Sched>
std::size_t expect_warmed_epochs_allocation_free(
    const campaign::StudySetup& setup, double ambient_c) {
    sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.06;
    cfg.ambient_c = ambient_c;
    const std::size_t t = setup.chip().core_count() / 8;
    EpochProbe<Sched> sched(100);
    sim::Simulator sim = setup.make_simulator(cfg);
    sim.add_tasks(
        {workload::TaskSpec{&workload::profile_by_name("swaptions"), t, 0.0},
         workload::TaskSpec{&workload::profile_by_name("blackscholes"), t,
                            0.02}});
    sim.run(sched);

    const std::vector<std::uint64_t>& deltas = sched.deltas();
    EXPECT_GT(deltas.size(), 50u) << "simulation ended prematurely";
    // The first epoch sizes the governor's and PCMig's workspaces.
    const std::size_t warmup = 2;
    std::size_t moved = 0;
    for (std::size_t i = warmup; i < deltas.size(); ++i) {
        EXPECT_EQ(deltas[i], 0u)
            << "heap allocation in epoch " << i
            << (sched.moved()[i] ? " (migration)" : "");
        moved += sched.moved()[i];
    }
    return moved;
}

TEST(AllocGuard, WarmedTspGovernedEpochsAreAllocationFree) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core();
    expect_warmed_epochs_allocation_free<sched::PcGovScheduler>(setup, 45.0);
    expect_warmed_epochs_allocation_free<sched::PcMigScheduler>(setup, 45.0);
    // Hot enough that PCMig migrates: a migration re-budgets the new mask.
    EXPECT_GT(expect_warmed_epochs_allocation_free<sched::PcMigScheduler>(
                  setup, 67.0),
              0u);
}

TEST(AllocGuard, WarmedTspGovernedEpochsAreAllocationFreeOn256Core) {
#ifndef NDEBUG
    GTEST_SKIP() << "513-node modal runs in optimised builds only";
#else
    const campaign::StudySetup setup = campaign::StudySetup::paper_256core(
        thermal::SolverConfig::modal());
    expect_warmed_epochs_allocation_free<sched::PcGovScheduler>(setup, 45.0);
    expect_warmed_epochs_allocation_free<sched::PcMigScheduler>(setup, 45.0);
    EXPECT_GT(expect_warmed_epochs_allocation_free<sched::PcMigScheduler>(
                  setup, 67.0),
              0u);
#endif
}

TEST(AllocGuard, WarmedTspMaskChangeIsAllocationFree) {
    // The governor's miss path: once warm, alternating mappings re-solve
    // the sensitivity every call without touching the heap.
    for (const thermal::SolverConfig& config :
         {thermal::SolverConfig::dense(), thermal::SolverConfig::modal()}) {
        const campaign::StudySetup setup =
            campaign::StudySetup::paper_64core(config);
        std::vector<bool> a(64, false), b(64, false);
        for (std::size_t c : {0, 9, 18, 27}) a[c] = b[c] = true;
        b[36] = true;
        sched::TspGovernor gov;
        (void)gov.budget(setup.solver(), a, 0.3, 45.0, 70.0);  // warm
        const std::uint64_t misses = gov.misses();
        const std::uint64_t before = alloc_count();
        for (int i = 0; i < 10; ++i) {
            (void)gov.budget(setup.solver(), b, 0.3, 45.0, 70.0);
            (void)gov.budget(setup.solver(), a, 0.3, 45.0, 70.0);
        }
        EXPECT_EQ(alloc_count() - before, 0u) << setup.solver().backend_name();
        EXPECT_EQ(gov.misses() - misses, 20u);
    }
}

}  // namespace

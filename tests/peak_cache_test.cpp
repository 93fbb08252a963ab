// HotPotato's peak-prediction cache: the quantisation grid, the
// bit-identity contract (cache on ≡ cache off for every simulated output),
// invalidation under fault-driven ring re-formation, the --no-peak-cache CLI
// escape hatch and the metrics surface. The cache's own unit semantics live
// in concurrent_cache_test.cpp.
//
// The contract under test (DESIGN.md §9): HotPotato quantises prediction
// inputs whether or not its cache is enabled, and a hit returns exactly
// what a fresh evaluation of the same quantised inputs would produce — so
// flipping the cache changes only *when* Algorithm 1 runs, never a
// scheduling decision, a migration, or a simulated temperature. The fault
// runs double as the stale-hit regression: a core failure re-forms the rings
// (changing what a cached key means), and only because rebuild_rings
// invalidates the memo do the cached and uncached runs stay identical.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "cli/options.hpp"
#include "core/hotpotato.hpp"
#include "core/hotpotato_dvfs.hpp"
#include "fault/fault_injector.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark.hpp"
#include "workload/generator.hpp"

namespace {

using namespace hp;

// --- quantisation ------------------------------------------------------------

TEST(QuantisePower, ExactBinaryGridAndIdempotence) {
    // 2^-10 W grid: grid points round-trip exactly.
    EXPECT_EQ(core::quantise_power_w(0.0), 0.0);
    EXPECT_EQ(core::quantise_power_w(1.0), 1.0);
    EXPECT_EQ(core::quantise_power_w(3.0 / 1024.0), 3.0 / 1024.0);
    // Off-grid values land on the nearest grid point…
    const double q = core::quantise_power_w(2.3456789);
    EXPECT_NEAR(q, 2.3456789, 0.5 / 1024.0);
    // …and quantisation is idempotent (the property the cache key relies on).
    EXPECT_EQ(core::quantise_power_w(q), q);
    // llround never produces -0.0, so keys of "zero watts" are unambiguous.
    EXPECT_FALSE(std::signbit(core::quantise_power_w(-1e-12)));
}

// --- simulation-level bit-identity (cache on ≡ cache off) --------------------

/// Poisson workload with several multi-thread tasks: placement slates,
/// promotions and the τ ladder all get exercised on the 16-core testbed.
std::vector<workload::TaskSpec> mixed_tasks() {
    return workload::poisson_mix(/*tasks=*/8, /*arrivals_per_s=*/200.0,
                                 /*min_threads=*/2, /*max_threads=*/5,
                                 /*seed=*/7);
}

sim::SimConfig traced_config(double max_time_s) {
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = max_time_s;
    cfg.trace_interval_s = 1e-3;  // compare full thermal trajectories
    return cfg;
}

void expect_identical_results(const sim::SimResult& a,
                              const sim::SimResult& b) {
    EXPECT_EQ(a.all_finished, b.all_finished);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.simulated_time_s, b.simulated_time_s);
    EXPECT_EQ(a.peak_temperature_c, b.peak_temperature_c);
    EXPECT_EQ(a.dtm_triggers, b.dtm_triggers);
    EXPECT_EQ(a.dtm_throttled_s, b.dtm_throttled_s);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.idle_energy_j, b.idle_energy_j);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].start_s, b.tasks[i].start_s) << i;
        EXPECT_EQ(a.tasks[i].finish_s, b.tasks[i].finish_s) << i;
        EXPECT_EQ(a.tasks[i].energy_j, b.tasks[i].energy_j) << i;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t s = 0; s < a.trace.size(); ++s) {
        EXPECT_EQ(a.trace[s].max_core_temperature_c,
                  b.trace[s].max_core_temperature_c)
            << "trace sample " << s;
        ASSERT_EQ(a.trace[s].core_temperature_c.size(),
                  b.trace[s].core_temperature_c.size());
        for (std::size_t c = 0; c < a.trace[s].core_temperature_c.size(); ++c)
            EXPECT_EQ(a.trace[s].core_temperature_c[c],
                      b.trace[s].core_temperature_c[c])
                << "sample " << s << " core " << c;
    }
    EXPECT_EQ(a.resilience.core_failures, b.resilience.core_failures);
    EXPECT_EQ(a.resilience.threads_replaced, b.resilience.threads_replaced);
}

template <typename Scheduler, typename Params>
sim::SimResult run_with(const campaign::StudySetup& setup,
                        const sim::SimConfig& cfg, Params params,
                        bool use_cache) {
    params.use_peak_cache = use_cache;
    Scheduler sched(params);
    sim::Simulator sim = setup.make_simulator(cfg);
    sim.add_tasks(mixed_tasks());
    return sim.run(sched);
}

TEST(PeakCacheEquivalence, HotPotatoCacheSwitchIsInvisibleInOutputs) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    const sim::SimConfig cfg = traced_config(0.15);
    const sim::SimResult on = run_with<core::HotPotatoScheduler>(
        setup, cfg, core::HotPotatoParams{}, true);
    const sim::SimResult off = run_with<core::HotPotatoScheduler>(
        setup, cfg, core::HotPotatoParams{}, false);
    expect_identical_results(on, off);
}

TEST(PeakCacheEquivalence, HotPotatoDvfsCacheSwitchIsInvisibleInOutputs) {
    // Low DTM threshold pushes the run into the DVFS engage/relax regime, so
    // the frequency-change invalidation points are actually exercised.
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg = traced_config(0.15);
    cfg.t_dtm_c = 58.0;
    const sim::SimResult on = run_with<core::HotPotatoDvfsScheduler>(
        setup, cfg, core::HotPotatoParams{}, true);
    const sim::SimResult off = run_with<core::HotPotatoDvfsScheduler>(
        setup, cfg, core::HotPotatoParams{}, false);
    expect_identical_results(on, off);
}

TEST(PeakCacheEquivalence, StaleHitCannotSurviveRingReFormation) {
    // Regression for the invalidation contract: a permanent core failure
    // mid-run re-forms the AMD rings, so every cached peak keyed on the old
    // ring geometry is stale. rebuild_rings() flushes the memo; were it not
    // to, the cached run would reuse pre-failure predictions and diverge
    // from the uncached run in placements and temperatures.
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg = traced_config(0.3);
    fault::FaultEvent failure;
    failure.time_s = 0.05;  // after the cache is warm
    failure.kind = fault::FaultKind::kCorePermanent;
    failure.target = 5;
    cfg.fault_schedule.events.push_back(failure);
    fault::FaultEvent transient;
    transient.time_s = 0.12;  // recovery re-forms the rings a second time
    transient.kind = fault::FaultKind::kCoreTransient;
    transient.target = 2;
    transient.duration_s = 0.05;
    cfg.fault_schedule.events.push_back(transient);

    const sim::SimResult on = run_with<core::HotPotatoScheduler>(
        setup, cfg, core::HotPotatoParams{}, true);
    const sim::SimResult off = run_with<core::HotPotatoScheduler>(
        setup, cfg, core::HotPotatoParams{}, false);
    EXPECT_EQ(on.resilience.core_failures, 2u);
    expect_identical_results(on, off);
}

// --- metrics surface ---------------------------------------------------------

TEST(PeakCacheMetrics, CountersAndBatchHistogramAreVisible) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.1;

    obs::Recorder recorder;
    core::HotPotatoScheduler sched;
    sim::Simulator sim =
        setup.make_simulator(cfg, {}, {}, nullptr, &recorder);
    sim.add_tasks(mixed_tasks());
    sim.run(sched);

    const obs::MetricsSnapshot snap = recorder.snapshot();
    std::uint64_t hits = 0, misses = 0;
    bool saw_hits = false, saw_misses = false, saw_histogram = false;
    for (const auto& c : snap.counters) {
        if (c.name == "hotpotato.peak_cache_hits") {
            saw_hits = true;
            hits = c.value;
        }
        if (c.name == "hotpotato.peak_cache_misses") {
            saw_misses = true;
            misses = c.value;
        }
    }
    for (const auto& h : snap.histograms)
        if (h.name == "hotpotato.batch_size") saw_histogram = true;
    EXPECT_TRUE(saw_hits);
    EXPECT_TRUE(saw_misses);
    EXPECT_TRUE(saw_histogram);
    EXPECT_GT(misses, 0u) << "first evaluation of each key must miss";
    EXPECT_GT(hits, 0u) << "repeated epochs on a stable assignment must hit";
}

TEST(PeakCacheMetrics, DisabledCacheReportsOnlyMisses) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.05;

    obs::Recorder recorder;
    core::HotPotatoParams params;
    params.use_peak_cache = false;
    core::HotPotatoScheduler sched(params);
    sim::Simulator sim =
        setup.make_simulator(cfg, {}, {}, nullptr, &recorder);
    sim.add_tasks(mixed_tasks());
    sim.run(sched);

    for (const auto& c : recorder.snapshot().counters) {
        if (c.name == "hotpotato.peak_cache_hits") {
            EXPECT_EQ(c.value, 0u) << "disabled cache must never hit";
        }
    }
}

// --- CLI escape hatch --------------------------------------------------------

TEST(PeakCacheCli, NoPeakCacheFlagParsesAndIsDocumented) {
    const cli::CliOptions defaults = cli::parse({});
    EXPECT_FALSE(defaults.no_peak_cache);
    const cli::CliOptions off = cli::parse({"--no-peak-cache"});
    EXPECT_TRUE(off.no_peak_cache);
    EXPECT_NE(cli::usage().find("--no-peak-cache"), std::string::npos);
}

TEST(PeakCacheCli, MakeSchedulerForwardsTheSwitch) {
    // Both polarities construct for every scheduler that honours the flag
    // (and for ones that ignore it), with the single-arg overload intact.
    for (const char* name : {"hotpotato", "hotpotato-dvfs", "pcmig", "pcgov"}) {
        EXPECT_NE(cli::make_scheduler(name), nullptr) << name;
        EXPECT_NE(cli::make_scheduler(name, false), nullptr) << name;
    }
}

}  // namespace

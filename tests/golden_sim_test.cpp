// Golden digests of whole HotPotato simulations.
//
// golden_peak_test pins Algorithm 1's answers to single queries; this suite
// pins what the scheduler does with them over a run. Each case hashes every
// field of the SimResult — the task records, the full thermal, power and
// frequency trace, the migration and DTM counts, the energy and the
// resilience stats with their fault log — into one 64-bit FNV-1a digest
// and compares it, per SIMD dispatch tier, with a recorded value.
//
// The digests were recorded with HotPotato's former per-run prediction
// cache switched on, and the same runs with it switched off gave the same
// digests: the cache never changed a decision, and removing it must not
// either. The cases cover plain HotPotato on the 16-core testbed, the DVFS
// extension at a low DTM threshold (so it engages and relaxes), a permanent
// and a transient core failure (two ring re-formations) and a short modal
// 256-core run.
//
// A change that alters any bit fails here and prints the new table row.
// Replace a row only for a change that is meant to move decisions, and say
// why in its description.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "core/hotpotato_dvfs.hpp"
#include "fault/fault.hpp"
#include "linalg/simd.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace hp;
using linalg::simd::Tier;

/// Forces a dispatch tier for the lifetime of one scope.
class ForcedTier {
public:
    explicit ForcedTier(Tier tier) {
        linalg::simd::force_tier_for_testing(tier);
    }
    ~ForcedTier() { linalg::simd::clear_forced_tier_for_testing(); }
};

class Digest {
public:
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }
    void add(double value) { bytes(&value, sizeof value); }
    void add(std::uint64_t value) { bytes(&value, sizeof value); }
    void add(const std::string& text) {
        add(static_cast<std::uint64_t>(text.size()));
        bytes(text.data(), text.size());
    }
    void add(const std::vector<double>& values) {
        add(static_cast<std::uint64_t>(values.size()));
        bytes(values.data(), values.size() * sizeof(double));
    }
    std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const sim::SimResult& r) {
    Digest d;
    d.add(static_cast<std::uint64_t>(r.all_finished));
    d.add(r.makespan_s);
    d.add(r.simulated_time_s);
    d.add(r.peak_temperature_c);
    d.add(r.dtm_throttled_s);
    d.add(static_cast<std::uint64_t>(r.dtm_triggers));
    d.add(static_cast<std::uint64_t>(r.migrations));
    d.add(r.total_energy_j);
    d.add(r.idle_energy_j);
    d.add(static_cast<std::uint64_t>(r.tasks.size()));
    for (const sim::TaskResult& t : r.tasks) {
        d.add(static_cast<std::uint64_t>(t.id));
        d.add(t.benchmark);
        d.add(static_cast<std::uint64_t>(t.threads));
        d.add(t.arrival_s);
        d.add(t.start_s);
        d.add(t.finish_s);
        d.add(t.energy_j);
    }
    d.add(static_cast<std::uint64_t>(r.trace.size()));
    for (const sim::TraceSample& s : r.trace) {
        d.add(s.time_s);
        d.add(s.core_temperature_c);
        d.add(s.core_power_w);
        d.add(s.core_frequency_hz);
        d.add(s.max_core_temperature_c);
    }
    const sim::ResilienceStats& res = r.resilience;
    for (std::size_t count :
         {res.faults_injected, res.core_failures, res.sensor_faults,
          res.rotation_aborts, res.threads_replaced, res.threads_stranded,
          res.watchdog_triggers, res.untrusted_sensor_samples})
        d.add(static_cast<std::uint64_t>(count));
    for (double value : {res.watchdog_throttled_s, res.worst_recovery_s,
                         res.thermal_violation_s, res.peak_during_fault_c})
        d.add(value);
    d.add(static_cast<std::uint64_t>(res.fault_log.size()));
    for (const fault::FaultLogEntry& e : res.fault_log) {
        d.add(e.time_s);
        d.add(static_cast<std::uint64_t>(e.kind));
        d.add(static_cast<std::uint64_t>(e.target));
        d.add(e.note);
    }
    return d.value();
}

sim::SimConfig traced_config(double max_time_s) {
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = max_time_s;
    cfg.trace_interval_s = 1e-3;
    return cfg;
}

/// Poisson workload with several multi-thread tasks: placement slates,
/// promotions and the τ ladder all get exercised on the 16-core testbed.
std::vector<workload::TaskSpec> mixed_tasks() {
    return workload::poisson_mix(/*tasks=*/8, /*arrivals_per_s=*/200.0,
                                 /*min_threads=*/2, /*max_threads=*/5,
                                 /*seed=*/7);
}

template <typename Scheduler>
sim::SimResult run(const campaign::StudySetup& setup,
                   const sim::SimConfig& cfg,
                   const std::vector<workload::TaskSpec>& tasks) {
    Scheduler sched;
    sim::Simulator sim = setup.make_simulator(cfg);
    sim.add_tasks(tasks);
    return sim.run(sched);
}

struct Golden {
    Tier tier;
    std::uint64_t digest;
};

/// Runs @p simulate under each dispatch tier and compares its digest with
/// the tier's row of @p table. A host without AVX2 runs the scalar tier for
/// both, so the scalar row applies to both passes. The chip is built inside
/// @p simulate: its design-time tables come from the dispatched kernels too.
template <typename Simulate>
void expect_digests(const char* name, const Golden (&table)[2],
                    Simulate simulate) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "digests recorded on x86-64";
#endif
    for (const Tier forced : {Tier::kScalar, Tier::kAvx2}) {
        const ForcedTier scope(forced);
        const Tier tier = linalg::simd::active_tier();
        const sim::SimResult result = simulate();
        const std::uint64_t got = digest(result);
        const auto* golden =
            std::find_if(std::begin(table), std::end(table),
                         [&](const Golden& g) { return g.tier == tier; });
        ASSERT_NE(golden, std::end(table));
        char row[96];
        std::snprintf(row, sizeof row, "{Tier::%s, 0x%016llxull},",
                      tier == Tier::kAvx2 ? "kAvx2" : "kScalar",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, golden->digest) << name << " got\n    " << row;
    }
}

const Golden kHotPotato16[2] = {
    {Tier::kScalar, 0xd45e968028f387e4ull},
    {Tier::kAvx2, 0x020259b4437b76e2ull},
};

TEST(GoldenSimDigest, HotPotatoOnPaper16Core) {
    expect_digests("HotPotato/paper_16core", kHotPotato16, [] {
        const campaign::StudySetup setup = campaign::StudySetup::paper_16core(
            thermal::SolverConfig::dense());
        const sim::SimResult r = run<core::HotPotatoScheduler>(
            setup, traced_config(0.15), mixed_tasks());
        EXPECT_GT(r.migrations, 0u);
        return r;
    });
}

const Golden kHotPotatoDvfs16[2] = {
    {Tier::kScalar, 0xf8e5acd884f4dd06ull},
    {Tier::kAvx2, 0x81a838b1c731e91dull},
};

TEST(GoldenSimDigest, HotPotatoDvfsEngagesAndRelaxesOnPaper16Core) {
    expect_digests("HotPotato+DVFS/paper_16core", kHotPotatoDvfs16, [] {
        const campaign::StudySetup setup = campaign::StudySetup::paper_16core(
            thermal::SolverConfig::dense());
        sim::SimConfig cfg = traced_config(0.15);
        cfg.t_dtm_c = 58.0;
        const sim::SimResult r =
            run<core::HotPotatoDvfsScheduler>(setup, cfg, mixed_tasks());
        // The DVFS fallback engaged (some core below f_max) and relaxed (a
        // core's frequency rose between samples; no DTM event intervenes).
        const double f_max = setup.chip().dvfs().f_max_hz;
        bool engaged = false, relaxed = false;
        for (std::size_t i = 0; i < r.trace.size(); ++i) {
            const std::vector<double>& f = r.trace[i].core_frequency_hz;
            for (std::size_t c = 0; c < f.size(); ++c) {
                if (f[c] < f_max) engaged = true;
                if (i > 0 && f[c] > r.trace[i - 1].core_frequency_hz[c])
                    relaxed = true;
            }
        }
        EXPECT_EQ(r.dtm_triggers, 0u);
        EXPECT_TRUE(engaged);
        EXPECT_TRUE(relaxed);
        return r;
    });
}

const Golden kRingReFormation16[2] = {
    {Tier::kScalar, 0x52612709a8db68dcull},
    {Tier::kAvx2, 0x414fd084fe10e709ull},
};

TEST(GoldenSimDigest, RingReFormationAfterCoreFailureAndRecovery) {
    expect_digests("HotPotato/faults", kRingReFormation16, [] {
        const campaign::StudySetup setup = campaign::StudySetup::paper_16core(
            thermal::SolverConfig::dense());
        sim::SimConfig cfg = traced_config(0.3);
        fault::FaultEvent failure;
        failure.time_s = 0.05;
        failure.kind = fault::FaultKind::kCorePermanent;
        failure.target = 5;
        cfg.fault_schedule.events.push_back(failure);
        fault::FaultEvent transient;
        transient.time_s = 0.12;  // recovery re-forms the rings again
        transient.kind = fault::FaultKind::kCoreTransient;
        transient.target = 2;
        transient.duration_s = 0.05;
        cfg.fault_schedule.events.push_back(transient);
        const sim::SimResult r =
            run<core::HotPotatoScheduler>(setup, cfg, mixed_tasks());
        EXPECT_EQ(r.resilience.core_failures, 2u);
        return r;
    });
}

const Golden kHotPotato256[2] = {
    {Tier::kScalar, 0x7f250ffda1231232ull},
    {Tier::kAvx2, 0x7f250ffda1231232ull},
};

TEST(GoldenSimDigest, HotPotatoOnModalPaper256Core) {
    expect_digests("HotPotato/paper_256core", kHotPotato256, [] {
        const campaign::StudySetup setup = campaign::StudySetup::paper_256core(
            thermal::SolverConfig::modal());
        const sim::SimResult r = run<core::HotPotatoScheduler>(
            setup, traced_config(0.03),
            workload::poisson_mix(/*tasks=*/8, /*arrivals_per_s=*/200.0,
                                  /*min_threads=*/2, /*max_threads=*/8,
                                  /*seed=*/1));
        EXPECT_GT(r.migrations, 0u);
        return r;
    });
}

}  // namespace

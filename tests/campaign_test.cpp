// Tests for the parallel campaign engine: grid enumeration, the value-
// semantic spec, bit-identical results at any worker count (including
// fault-injection runs), per-run error capture, and the rendered outputs.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "fault/fault.hpp"
#include "sched/static_schedulers.hpp"
#include "workload/benchmark.hpp"

namespace {

using hp::campaign::CampaignOptions;
using hp::campaign::CampaignResult;
using hp::campaign::CampaignSpec;
using hp::campaign::RunKey;
using hp::campaign::RunRecord;
using hp::campaign::RunSetup;
using hp::campaign::StudySetup;

const StudySetup& testbed() {
    static const StudySetup setup = StudySetup::paper_16core();
    return setup;
}

std::vector<hp::workload::TaskSpec> tiny_workload() {
    return {hp::workload::TaskSpec{
        &hp::workload::profile_by_name("blackscholes"), 2, 0.0}};
}

CampaignSpec tiny_spec(double max_sim_time_s = 0.01) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = max_sim_time_s;
    CampaignSpec spec(testbed(), cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_workload("blackscholes-2", tiny_workload());
    return spec;
}

void expect_bit_identical(const std::vector<RunRecord>& a,
                          const std::vector<RunRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i) + ": " +
                     hp::campaign::to_string(a[i].key));
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].failed, b[i].failed);
        EXPECT_EQ(a[i].error, b[i].error);
        EXPECT_EQ(a[i].result.all_finished, b[i].result.all_finished);
        EXPECT_EQ(a[i].result.makespan_s, b[i].result.makespan_s);
        EXPECT_EQ(a[i].result.simulated_time_s, b[i].result.simulated_time_s);
        EXPECT_EQ(a[i].result.peak_temperature_c,
                  b[i].result.peak_temperature_c);
        EXPECT_EQ(a[i].result.dtm_throttled_s, b[i].result.dtm_throttled_s);
        EXPECT_EQ(a[i].result.migrations, b[i].result.migrations);
        EXPECT_EQ(a[i].result.total_energy_j, b[i].result.total_energy_j);
        EXPECT_EQ(a[i].result.resilience.faults_injected,
                  b[i].result.resilience.faults_injected);
        ASSERT_EQ(a[i].result.tasks.size(), b[i].result.tasks.size());
        for (std::size_t t = 0; t < a[i].result.tasks.size(); ++t)
            EXPECT_EQ(a[i].result.tasks[t].finish_s,
                      b[i].result.tasks[t].finish_s);
    }
}

TEST(CampaignSpecTest, KeysEnumerateWorkloadMajor) {
    CampaignSpec spec = tiny_spec();
    spec.add_scheduler("Static", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    spec.add_workload("second", tiny_workload());

    const std::vector<RunKey> keys = spec.keys();
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_EQ(spec.run_count(), 4u);
    // Workload-major, then scheduler (registration order), config, seed.
    EXPECT_EQ(keys[0].workload, "blackscholes-2");
    EXPECT_EQ(keys[0].scheduler, "HotPotato");
    EXPECT_EQ(keys[1].workload, "blackscholes-2");
    EXPECT_EQ(keys[1].scheduler, "Static");
    EXPECT_EQ(keys[2].workload, "second");
    EXPECT_EQ(keys[3].workload, "second");
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i].index, i);
        EXPECT_EQ(keys[i].config, "base");
        // Without add_seed() the base config's fault_seed is the one seed.
        EXPECT_EQ(keys[i].seed, spec.base().sim.fault_seed);
    }
}

TEST(CampaignSpecTest, ConfigAndSeedAxesExpandTheGrid) {
    CampaignSpec spec = tiny_spec();
    spec.add_config("clean", nullptr);
    spec.add_config("slow", [](RunSetup& setup) {
        setup.sim.max_sim_time_s = 0.002;
    });
    spec.add_seed(7).add_seed(9);

    const std::vector<RunKey> keys = spec.keys();
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_EQ(keys[0].config, "clean");
    EXPECT_EQ(keys[0].seed, 7u);
    EXPECT_EQ(keys[1].config, "clean");
    EXPECT_EQ(keys[1].seed, 9u);
    EXPECT_EQ(keys[2].config, "slow");
    EXPECT_EQ(keys[3].seed, 9u);

    // The override mutates a copy of the base; the seed lands in fault_seed.
    const RunSetup base_setup = spec.setup_for(keys[0]);
    EXPECT_EQ(base_setup.sim.max_sim_time_s, spec.base().sim.max_sim_time_s);
    EXPECT_EQ(base_setup.sim.fault_seed, 7u);
    const RunSetup slow_setup = spec.setup_for(keys[2]);
    EXPECT_EQ(slow_setup.sim.max_sim_time_s, 0.002);
    EXPECT_EQ(spec.base().sim.max_sim_time_s, 0.01);
}

TEST(CampaignSpecTest, WorkloadFactoryReceivesTheRunSeed) {
    CampaignSpec spec = tiny_spec();
    spec.add_workload("seeded", [](std::uint64_t seed) {
        std::vector<hp::workload::TaskSpec> tasks = tiny_workload();
        tasks[0].arrival_s = 1e-6 * static_cast<double>(seed);
        return tasks;
    });
    spec.add_seed(3).add_seed(5);

    for (const RunKey& key : spec.keys()) {
        if (key.workload != "seeded") continue;
        const auto tasks = spec.tasks_for(key);
        ASSERT_EQ(tasks.size(), 1u);
        EXPECT_EQ(tasks[0].arrival_s, 1e-6 * static_cast<double>(key.seed));
    }
}

TEST(CampaignSpecTest, NullFactoriesAndEmptySpecsThrow) {
    CampaignSpec spec = tiny_spec();
    EXPECT_THROW(spec.add_scheduler("null", nullptr), std::invalid_argument);
    EXPECT_THROW(spec.add_workload("null", hp::campaign::WorkloadFactory{}),
                 std::invalid_argument);

    CampaignSpec no_sched(testbed(), hp::sim::SimConfig{});
    no_sched.add_workload("w", tiny_workload());
    EXPECT_THROW(hp::campaign::run_campaign(no_sched), std::invalid_argument);
    CampaignSpec no_work(testbed(), hp::sim::SimConfig{});
    no_work.add_scheduler("s", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    EXPECT_THROW(hp::campaign::run_campaign(no_work), std::invalid_argument);
}

// Keeps its original suite name; a null scheduler factory is a campaign
// spec error.
TEST(Report, NullFactoryRejected) {
    hp::campaign::CampaignSpec spec(testbed(), hp::sim::SimConfig{});
    EXPECT_THROW(spec.add_scheduler("bad", nullptr), std::invalid_argument);
}

// The headline engine guarantee: a 4-worker campaign produces bit-identical
// records — and byte-identical CSV — to the same campaign run serially,
// including fault-injection runs (per-run FaultInjector isolation) and a
// seed sweep.
TEST(CampaignEngineTest, ParallelRunIsBitIdenticalToSerial) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.02;
    CampaignSpec spec(testbed(), cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_scheduler("Static", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    spec.add_workload("blackscholes-2", tiny_workload());
    spec.add_config("clean", nullptr);
    spec.add_config("faulty", [](RunSetup& setup) {
        hp::fault::FaultSchedule schedule;
        schedule.events.push_back({0.002, hp::fault::FaultKind::kSensorStuck,
                                   2, 0.0, 30.0});
        schedule.events.push_back(
            {0.004, hp::fault::FaultKind::kCorePermanent, 5, 0.0, 0.0});
        setup.sim.fault_schedule = schedule;
    });
    spec.add_seed(1).add_seed(2);

    CampaignOptions serial;
    serial.jobs = 1;
    const CampaignResult one = hp::campaign::run_campaign(spec, serial);
    CampaignOptions parallel;
    parallel.jobs = 4;
    const CampaignResult four = hp::campaign::run_campaign(spec, parallel);

    ASSERT_EQ(one.records.size(), 8u);
    expect_bit_identical(one.records, four.records);

    // Fault runs really injected; clean runs really did not.
    const std::uint64_t seed = 1;
    const RunRecord* faulty = hp::campaign::find(
        one.records, "blackscholes-2", "HotPotato", "faulty", &seed);
    ASSERT_NE(faulty, nullptr);
    EXPECT_FALSE(faulty->failed);
    EXPECT_GT(faulty->result.resilience.faults_injected, 0u);
    const RunRecord* clean = hp::campaign::find(
        one.records, "blackscholes-2", "HotPotato", "clean", &seed);
    ASSERT_NE(clean, nullptr);
    EXPECT_EQ(clean->result.resilience.faults_injected, 0u);

    std::ostringstream csv_one, csv_four;
    hp::campaign::write_csv(csv_one, one.records);
    hp::campaign::write_csv(csv_four, four.records);
    EXPECT_EQ(csv_one.str(), csv_four.str());

    EXPECT_EQ(one.summary.jobs, 1u);
    EXPECT_EQ(four.summary.jobs, 4u);
    EXPECT_EQ(four.summary.failed_runs, 0u);
}

// A throwing scheduler factory must fail only its own runs; the campaign
// completes with every other record intact and ordering preserved.
TEST(CampaignEngineTest, ThrowingRunIsCapturedAndCampaignContinues) {
    CampaignSpec spec = tiny_spec();
    spec.add_scheduler("boom", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw std::runtime_error("factory exploded");
    });
    spec.add_workload("second", tiny_workload());

    CampaignOptions options;
    options.jobs = 4;
    const CampaignResult out = hp::campaign::run_campaign(spec, options);

    ASSERT_EQ(out.records.size(), 4u);
    EXPECT_EQ(out.summary.failed_runs, 2u);
    const std::vector<RunKey> keys = spec.keys();
    for (std::size_t i = 0; i < out.records.size(); ++i) {
        EXPECT_EQ(out.records[i].key, keys[i]);
        if (out.records[i].key.scheduler == "boom") {
            EXPECT_TRUE(out.records[i].failed);
            EXPECT_EQ(out.records[i].error, "factory exploded");
        } else {
            EXPECT_FALSE(out.records[i].failed);
            EXPECT_GT(out.records[i].result.simulated_time_s, 0.0);
        }
    }

    // Failed rows render in both formats without breaking the table/CSV.
    const std::string md = hp::campaign::to_markdown(out.records);
    EXPECT_NE(md.find("FAILED: factory exploded"), std::string::npos);
    std::ostringstream csv;
    hp::campaign::write_csv(csv, out.records);
    EXPECT_NE(csv.str().find(",1,factory exploded"), std::string::npos);
}

TEST(CampaignEngineTest, ProgressCallbackSeesEveryRunSerialized) {
    CampaignSpec spec = tiny_spec(0.005);
    spec.add_seed(1).add_seed(2).add_seed(3);

    std::atomic<std::size_t> calls{0};
    std::size_t max_done = 0;
    CampaignOptions options;
    options.jobs = 3;
    options.progress = [&](const RunRecord& record, std::size_t done,
                           std::size_t total) {
        // Serialized by the engine: plain writes are race-free here (the
        // TSan build of this test enforces that).
        ++calls;
        if (done > max_done) max_done = done;
        EXPECT_EQ(total, 3u);
        EXPECT_FALSE(record.key.workload.empty());
    };
    const CampaignResult out = hp::campaign::run_campaign(spec, options);
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(max_done, 3u);
    EXPECT_EQ(out.summary.total_runs, 3u);
    EXPECT_GT(out.summary.wall_time_s, 0.0);
    EXPECT_GT(out.summary.runs_per_second, 0.0);
}

TEST(CampaignRenderTest, CsvAndJsonCarryTheGridAxes) {
    CampaignSpec spec = tiny_spec(0.002);
    const CampaignResult out = hp::campaign::run_campaign(spec);

    std::ostringstream csv;
    hp::campaign::write_csv(csv, out.records);
    EXPECT_EQ(csv.str().rfind("workload,scheduler,config,seed,", 0), 0u);
    EXPECT_NE(csv.str().find("blackscholes-2,HotPotato,base,1,"),
              std::string::npos);

    std::ostringstream json;
    hp::campaign::write_json(json, out.records, out.summary);
    EXPECT_NE(json.str().find("\"total_runs\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"wall_time_s\""), std::string::npos);

    const std::string summary =
        hp::campaign::summary_markdown(out.summary);
    EXPECT_NE(summary.find("1 run"), std::string::npos);

    // jobs=0 resolves to the hardware thread count (capped by run count).
    CampaignOptions options;
    options.jobs = 0;
    const CampaignResult auto_jobs = hp::campaign::run_campaign(spec, options);
    EXPECT_EQ(auto_jobs.summary.jobs, 1u);  // one run => one worker
}

TEST(StudySetupTest, CopiesShareOneBundle) {
    const StudySetup a = testbed();       // copy of the shared setup
    const StudySetup b = a;               // and another
    EXPECT_EQ(&a.chip(), &b.chip());      // same immutable bundle
    EXPECT_EQ(&a.model(), &b.model());
    EXPECT_EQ(&a.solver(), &b.solver());
    EXPECT_EQ(a.chip().core_count(), 16u);
}

TEST(StudySetupTest, ReplicateSharesNothingButAnswersIdentically) {
    const StudySetup original = testbed();
    const StudySetup replica = original.replicate();
    EXPECT_NE(&original.chip(), &replica.chip());
    EXPECT_NE(&original.model(), &replica.model());
    EXPECT_NE(&original.solver(), &replica.solver());
    // Bit-for-bit copy, nothing recomputed: same signatures, same answers.
    EXPECT_EQ(original.solver().model_signature(),
              replica.solver().model_signature());
    EXPECT_EQ(original.solver().backend_signature(),
              replica.solver().backend_signature());
    hp::linalg::Vector power(original.model().node_count(), 0.0);
    for (std::size_t i = 0; i < power.size(); ++i)
        power[i] = 0.5 + 0.01 * static_cast<double>(i % 16);
    const hp::linalg::Vector a = original.solver().steady_state(power, 45.0);
    const hp::linalg::Vector b = replica.solver().steady_state(power, 45.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// --- execution placement (DESIGN.md §12) -----------------------------------

/// A fake two-node host: CPUs 0-1 on node 0, 2-3 on node 1. Injected via
/// ExecPolicy::topology so multi-node planning, node-bound arenas and
/// per-node bundle replication run even on single-node machines (and in
/// cpuset-restricted CI sandboxes, where the actual pin calls may fail —
/// pinning is best-effort and must not affect results either way).
hp::exec::Topology fake_two_node() {
    hp::exec::Topology topo;
    topo.nodes = {{0, {0, 1}}, {1, {2, 3}}};
    return topo;
}

/// The placement acceptance gate: records (and their CSV rendering) are
/// byte-identical across every pinning policy, with and without NUMA
/// placement, at jobs 1 and 4. Placement may move work and memory, never
/// values.
TEST(ExecPlacementTest, RecordsBitIdenticalAcrossPinPoliciesAndJobs) {
    CampaignSpec spec = tiny_spec(0.004);
    spec.add_seed(1).add_seed(2).add_seed(3);

    CampaignOptions baseline_options;
    baseline_options.jobs = 1;
    baseline_options.exec.pin = hp::exec::PinPolicy::kNone;
    baseline_options.exec.numa = false;
    const CampaignResult baseline =
        hp::campaign::run_campaign(spec, baseline_options);
    std::ostringstream baseline_csv;
    hp::campaign::write_csv(baseline_csv, baseline.records);

    for (const hp::exec::PinPolicy pin :
         {hp::exec::PinPolicy::kNone, hp::exec::PinPolicy::kCompact,
          hp::exec::PinPolicy::kSpread}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string("pin=") + hp::exec::to_string(pin) +
                         " jobs=" + std::to_string(jobs));
            CampaignOptions options;
            options.jobs = jobs;
            options.exec.pin = pin;
            options.exec.numa = true;
            options.exec.topology = fake_two_node();
            const CampaignResult result =
                hp::campaign::run_campaign(spec, options);
            expect_bit_identical(baseline.records, result.records);
            std::ostringstream csv;
            hp::campaign::write_csv(csv, result.records);
            EXPECT_EQ(baseline_csv.str(), csv.str());
        }
    }
}

TEST(ExecPlacementTest, PlacementGaugesReachTheSummaryRollUp) {
    CampaignSpec spec = tiny_spec(0.002);
    spec.add_seed(1).add_seed(2).add_seed(3).add_seed(4);
    CampaignOptions options;
    options.jobs = 4;
    options.exec.pin = hp::exec::PinPolicy::kCompact;
    options.exec.topology = fake_two_node();
    const CampaignResult result = hp::campaign::run_campaign(spec, options);

    const auto gauge = [&](const std::string& name) -> const double* {
        for (const auto& g : result.summary.metrics.gauges)
            if (g.name == name) return &g.value;
        return nullptr;
    };
    // Workers per node must account for every worker. (Values depend on the
    // pin policy actually in effect — HOTPOTATO_PIN may override — so only
    // the sum is asserted.)
    double workers = 0.0;
    for (const auto& g : result.summary.metrics.gauges)
        if (g.name.rfind("campaign.workers_per_node.", 0) == 0)
            workers += g.value;
    EXPECT_EQ(workers, 4.0);
    ASSERT_NE(gauge("campaign.pinned_workers"), nullptr);
    // Every worker carves its workspaces from its arena, so the campaign
    // must have reserved arena memory and left a high-water mark.
    ASSERT_NE(gauge("arena.bytes_reserved"), nullptr);
    ASSERT_NE(gauge("arena.high_water"), nullptr);
    EXPECT_GT(*gauge("arena.bytes_reserved"), 0.0);
    EXPECT_GT(*gauge("arena.high_water"), 0.0);

    // And the roll-up reaches the JSON export.
    std::ostringstream json;
    hp::campaign::write_json(json, result.records, result.summary);
    EXPECT_NE(json.str().find("campaign.workers_per_node.0"),
              std::string::npos);
    EXPECT_NE(json.str().find("arena.bytes_reserved"), std::string::npos);
}

}  // namespace

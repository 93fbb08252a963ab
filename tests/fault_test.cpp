#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/manycore.hpp"
#include "decode_error.hpp"
#include "core/hotpotato.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_io.hpp"
#include "report/resilience.hpp"
#include "sched/global_rotation.hpp"
#include "sched/static_schedulers.hpp"
#include "sim/simulator.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "workload/benchmark.hpp"

namespace {

using hp::arch::ManyCore;
using hp::core::HotPotatoScheduler;
using hp::fault::FaultEvent;
using hp::fault::FaultInjector;
using hp::fault::FaultKind;
using hp::fault::FaultSchedule;
using hp::sched::GlobalRotationScheduler;
using hp::sched::StaticScheduler;
using hp::sim::SimConfig;
using hp::sim::SimResult;
using hp::sim::Simulator;
using hp::thermal::MatExSolver;
using hp::thermal::RcNetworkConfig;
using hp::thermal::ThermalModel;
using hp::workload::BenchmarkProfile;
using hp::workload::PhaseSpec;
using hp::workload::profile_by_name;
using hp::workload::TaskSpec;

struct Bench {
    ManyCore chip = ManyCore::paper_16core();
    ThermalModel model{chip.plan(), RcNetworkConfig{}};
    MatExSolver solver{model};

    Simulator make(SimConfig config = {}) const {
        return Simulator(chip, model, solver, config);
    }
};

const Bench& bench() {
    static const Bench b;
    return b;
}

SimConfig fast_config() {
    SimConfig c;
    c.micro_step_s = 1e-4;
    c.max_sim_time_s = 5.0;
    return c;
}

FaultEvent event(double t, FaultKind kind, std::size_t target,
                 double duration = 0.0, double magnitude = 0.0) {
    FaultEvent e;
    e.time_s = t;
    e.kind = kind;
    e.target = target;
    e.duration_s = duration;
    e.magnitude = magnitude;
    return e;
}

// ---------------------------------------------------------------- schedule ---

TEST(FaultSchedule, ValidateReportsAllViolationsAtOnce) {
    FaultSchedule s;
    s.events.push_back(event(-1.0, FaultKind::kSensorStuck, 0));   // bad time
    s.events.push_back(event(0.0, FaultKind::kCorePermanent, 99)); // bad target
    s.events.push_back(event(0.0, FaultKind::kCoreTransient, 1));  // no window
    const std::vector<std::string> v = s.validate(16);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_NE(v[0].find("negative onset"), std::string::npos);
    EXPECT_NE(v[1].find("out of range"), std::string::npos);
    EXPECT_NE(v[2].find("duration > 0"), std::string::npos);
}

TEST(FaultSchedule, InjectorRejectsInvalidScheduleWithFullList) {
    FaultSchedule s;
    s.events.push_back(event(-1.0, FaultKind::kSensorStuck, 0));
    s.events.push_back(event(0.0, FaultKind::kCoreTransient, 1));
    try {
        FaultInjector injector(s, 16);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("negative onset"), std::string::npos) << what;
        EXPECT_NE(what.find("duration > 0"), std::string::npos) << what;
    }
}

TEST(FaultSchedule, KindNamesRoundTrip) {
    for (FaultKind k :
         {FaultKind::kSensorStuck, FaultKind::kSensorDrift,
          FaultKind::kSensorSpike, FaultKind::kSensorDropout,
          FaultKind::kCoreTransient, FaultKind::kCorePermanent,
          FaultKind::kRotationAbort}) {
        const auto back = hp::fault::kind_from_string(hp::fault::to_string(k));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(hp::fault::kind_from_string("meteor_strike").has_value());
}

// ---------------------------------------------------------------- injector ---

TEST(FaultInjector, TransientWindowActivatesAndExpires) {
    FaultSchedule s;
    s.events.push_back(event(1.0, FaultKind::kCoreTransient, 3, 0.5));
    FaultInjector injector(s, 16);

    injector.advance(0.5);
    EXPECT_FALSE(injector.core_failed(3));
    EXPECT_EQ(injector.injected_count(), 0u);

    std::vector<FaultEvent> started;
    injector.advance(1.0, &started);
    ASSERT_EQ(started.size(), 1u);
    EXPECT_TRUE(injector.core_failed(3));
    EXPECT_EQ(injector.failed_core_count(), 1u);
    EXPECT_EQ(injector.active_fault_count(), 1u);

    std::vector<FaultEvent> ended;
    injector.advance(1.6, nullptr, &ended);
    ASSERT_EQ(ended.size(), 1u);
    EXPECT_FALSE(injector.core_failed(3));
    EXPECT_EQ(injector.active_fault_count(), 0u);
    ASSERT_EQ(injector.log().size(), 2u);  // onset + recovery
    EXPECT_EQ(injector.log()[1].note, "core recovered");
}

TEST(FaultInjector, PermanentFailureNeverRecovers) {
    FaultSchedule s;
    s.events.push_back(event(0.0, FaultKind::kCorePermanent, 7));
    FaultInjector injector(s, 16);
    injector.advance(0.0);
    injector.advance(1e6);
    EXPECT_TRUE(injector.core_failed(7));
    EXPECT_FALSE(injector.core_failed(6));
}

TEST(FaultInjector, SensorCorruptionKinds) {
    FaultSchedule s;
    s.events.push_back(event(1.0, FaultKind::kSensorStuck, 0, 0.0, 45.0));
    s.events.push_back(event(1.0, FaultKind::kSensorDrift, 1, 0.0, 2.0));
    s.events.push_back(event(1.0, FaultKind::kSensorDropout, 2));
    FaultInjector injector(s, 16);
    injector.advance(1.0);
    EXPECT_DOUBLE_EQ(injector.corrupt_reading(0, 60.0, 2.0), 45.0);
    // 1 s after onset at 2 C/s drift.
    EXPECT_DOUBLE_EQ(injector.corrupt_reading(1, 60.0, 2.0), 62.0);
    EXPECT_TRUE(std::isnan(injector.corrupt_reading(2, 60.0, 2.0)));
    // Healthy sensors pass through untouched.
    EXPECT_DOUBLE_EQ(injector.corrupt_reading(5, 60.0, 2.0), 60.0);
    EXPECT_TRUE(injector.sensor_faulty(0));
    EXPECT_FALSE(injector.sensor_faulty(5));
}

TEST(FaultInjector, SpikesAreSeededDeterministic) {
    FaultSchedule s;
    s.events.push_back(event(0.0, FaultKind::kSensorSpike, 4, 0.0, 10.0));
    FaultInjector a(s, 16, 42), b(s, 16, 42), c(s, 16, 7);
    a.advance(0.0);
    b.advance(0.0);
    c.advance(0.0);
    bool differs_from_c = false;
    for (int i = 0; i < 10; ++i) {
        const double t = 0.1 * i;
        const double ra = a.corrupt_reading(4, 50.0, t);
        const double rb = b.corrupt_reading(4, 50.0, t);
        const double rc = c.corrupt_reading(4, 50.0, t);
        EXPECT_DOUBLE_EQ(ra, rb);           // same seed: bit-identical
        EXPECT_GT(ra, 50.0 + 10.0 * 0.85);  // spike magnitude +/-10%
        EXPECT_LT(ra, 50.0 + 10.0 * 1.15);
        if (ra != rc) differs_from_c = true;
    }
    EXPECT_TRUE(differs_from_c);  // different seed: different jitter
}

TEST(FaultInjector, RotationAbortOneShotAndWindowed) {
    FaultSchedule s;
    s.events.push_back(event(1.0, FaultKind::kRotationAbort, 0));       // one-shot
    s.events.push_back(event(2.0, FaultKind::kRotationAbort, 0, 0.5));  // window
    FaultInjector injector(s, 16);

    injector.advance(1.0);
    EXPECT_TRUE(injector.consume_rotation_abort(1.0));
    EXPECT_FALSE(injector.consume_rotation_abort(1.1));  // spent

    injector.advance(2.1);
    EXPECT_TRUE(injector.consume_rotation_abort(2.1));
    EXPECT_TRUE(injector.consume_rotation_abort(2.4));   // windowed: repeats
    injector.advance(2.6);                               // window closed
    EXPECT_FALSE(injector.consume_rotation_abort(2.7));
}

// ---------------------------------------------------------------------- io ---

TEST(FaultIo, RoundTrips) {
    FaultSchedule s;
    s.events.push_back(event(0.01, FaultKind::kSensorStuck, 3, 0.0, 45.0));
    s.events.push_back(event(0.015, FaultKind::kCorePermanent, 5));
    s.events.push_back(event(0.02, FaultKind::kRotationAbort, 0, 0.002));
    std::stringstream buffer;
    hp::fault::write_fault_schedule(buffer, s);
    const FaultSchedule back = hp::fault::read_fault_schedule(buffer);
    ASSERT_EQ(back.events.size(), s.events.size());
    for (std::size_t i = 0; i < s.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.events[i].time_s, s.events[i].time_s);
        EXPECT_EQ(back.events[i].kind, s.events[i].kind);
        EXPECT_EQ(back.events[i].target, s.events[i].target);
        EXPECT_DOUBLE_EQ(back.events[i].duration_s, s.events[i].duration_s);
        EXPECT_DOUBLE_EQ(back.events[i].magnitude, s.events[i].magnitude);
    }
}

TEST(FaultIo, SkipsCommentsAndHeader) {
    std::istringstream in(
        "time_s,kind,target,duration_s,magnitude\n"
        "# a comment\n"
        "\n"
        "0.5,core_transient,2,0.1,0  # trailing comment\n");
    const FaultSchedule s = hp::fault::read_fault_schedule(in);
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kCoreTransient);
    EXPECT_EQ(s.events[0].target, 2u);
}

TEST(FaultIo, MalformedRowsCarrySourceAndLine) {
    const auto expect_error = [](const char* text, const char* fragment) {
        std::istringstream in(text);
        try {
            (void)hp::fault::read_fault_schedule(in, "faults.csv");
            FAIL() << "expected parse error for: " << text;
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("faults.csv:2:"), std::string::npos) << what;
            EXPECT_NE(what.find(fragment), std::string::npos) << what;
        }
    };
    // Line 1 is valid; the malformed row is always line 2.
    const std::string ok = "0,sensor_stuck,1,0,45\n";
    expect_error((ok + "0.5,sensor_stuck,1\n").c_str(), "expected 5 fields");
    expect_error((ok + "oops,sensor_stuck,1,0,45\n").c_str(), "bad time_s");
    expect_error((ok + "0.5,gremlin,1,0,45\n").c_str(), "unknown fault kind");
    expect_error((ok + "0.5,sensor_stuck,-1,0,45\n").c_str(), "bad target");
    expect_error((ok + "0.5,sensor_stuck,1,zzz,45\n").c_str(),
                 "bad duration_s");
    expect_error((ok + "-0.5,sensor_stuck,1,0,45\n").c_str(),
                 "negative time_s");
}

TEST(FaultIo, NegativeTargetAfterBlankIsRejected) {
    // " -2" once slipped past the sign check and wrapped to 2^64 - 2.
    expect_decode_error(
        [] {
            std::istringstream in("0.5,core_transient, -2,0.1,0\n");
            (void)hp::fault::read_fault_schedule(in, "faults.csv");
        },
        "fault_io: faults.csv:1:");
}

TEST(FaultIo, CrlfDecodesLikeLf) {
    const std::string lf =
        "time_s,kind,target,duration_s,magnitude\n0.5,sensor_spike,3,0.1,30\n"
        "0.75,rotation_abort,0,0.002,0\n";
    std::string crlf;
    for (char c : lf) {
        if (c == '\n') crlf += '\r';
        crlf += c;
    }
    std::istringstream lf_in(lf), crlf_in(crlf);
    std::ostringstream lf_out, crlf_out;
    hp::fault::write_fault_schedule(lf_out,
                                    hp::fault::read_fault_schedule(lf_in));
    hp::fault::write_fault_schedule(crlf_out,
                                    hp::fault::read_fault_schedule(crlf_in));
    EXPECT_EQ(crlf_out.str(), lf_out.str());
}

TEST(FaultIo, SeededRandomScheduleRoundTripsExactly) {
    std::mt19937_64 rng(2024);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    FaultSchedule s;
    s.events.push_back(event(0.0123456789, FaultKind::kSensorDrift, 1, 0.0,
                             0.1));
    for (int i = 0; i < 64; ++i) {
        FaultEvent e;
        e.time_s = 0.05 * unit(rng);
        e.kind = static_cast<FaultKind>(rng() % 7);
        e.target = rng() % 64;
        e.duration_s = 0.01 * unit(rng);
        e.magnitude = 40.0 * unit(rng) - 20.0;
        s.events.push_back(e);
    }
    std::stringstream buffer;
    hp::fault::write_fault_schedule(buffer, s);
    const FaultSchedule back = hp::fault::read_fault_schedule(buffer);
    ASSERT_EQ(back.events.size(), s.events.size());
    for (std::size_t i = 0; i < s.events.size(); ++i) {
        EXPECT_EQ(back.events[i].time_s, s.events[i].time_s) << i;
        EXPECT_EQ(back.events[i].kind, s.events[i].kind) << i;
        EXPECT_EQ(back.events[i].target, s.events[i].target) << i;
        EXPECT_EQ(back.events[i].duration_s, s.events[i].duration_s) << i;
        EXPECT_EQ(back.events[i].magnitude, s.events[i].magnitude) << i;
    }
}

TEST(FaultIo, MissingFileThrows) {
    EXPECT_THROW(hp::fault::read_fault_schedule_file("/nonexistent/f.csv"),
                 std::runtime_error);
}

// ------------------------------------------------------------------ config ---

TEST(SimConfigValidate, ReportsAllViolationsAtOnce) {
    SimConfig c;
    c.micro_step_s = 0.0;
    c.scheduler_epoch_s = -1.0;
    c.t_dtm_c = 40.0;  // below the 45 C ambient
    c.max_sim_time_s = 0.0;
    const std::vector<std::string> v = c.validate();
    EXPECT_GE(v.size(), 4u);
    try {
        Simulator sim = bench().make(c);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("micro_step_s"), std::string::npos) << what;
        EXPECT_NE(what.find("scheduler_epoch_s"), std::string::npos) << what;
        EXPECT_NE(what.find("t_dtm_c"), std::string::npos) << what;
        EXPECT_NE(what.find("max_sim_time_s"), std::string::npos) << what;
    }
}

// -------------------------------------------------------- degraded running ---

TEST(Resilience, PermanentCoreLossSurvivedByHotPotato) {
    SimConfig cfg = fast_config();
    cfg.fault_schedule.events.push_back(
        event(0.02, FaultKind::kCorePermanent, 5));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("swaptions"), 6, 0.0});
    HotPotatoScheduler hp;
    const SimResult r = sim.run(hp);

    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.resilience.faults_injected, 1u);
    EXPECT_EQ(r.resilience.core_failures, 1u);
    EXPECT_FALSE(sim.core_available(5));
    ASSERT_EQ(sim.failed_cores().size(), 1u);
    EXPECT_EQ(sim.failed_cores()[0], 5u);
    // Any thread evicted from core 5 was re-homed, not lost.
    EXPECT_EQ(r.resilience.threads_stranded, 0u);
    EXPECT_FALSE(r.resilience.fault_log.empty());
}

TEST(Resilience, TransientCoreLossRecovers) {
    SimConfig cfg = fast_config();
    cfg.fault_schedule.events.push_back(
        event(0.01, FaultKind::kCoreTransient, 2, 0.02));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("swaptions"), 4, 0.0});
    HotPotatoScheduler hp;
    const SimResult r = sim.run(hp);
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.resilience.core_failures, 1u);
    EXPECT_TRUE(sim.core_available(2));  // recovered by the end
    EXPECT_TRUE(sim.failed_cores().empty());
}

TEST(Resilience, FullChipEvictionStrandsThreadGracefully) {
    // Every core is occupied, so the evicted thread has nowhere to go: it
    // must be counted stranded — and the run must not crash or finish.
    SimConfig cfg = fast_config();
    cfg.max_sim_time_s = 1.0;
    cfg.fault_schedule.events.push_back(
        event(0.01, FaultKind::kCorePermanent, 5));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("swaptions"), 16, 0.0});
    HotPotatoScheduler hp;
    const SimResult r = sim.run(hp);
    EXPECT_FALSE(r.all_finished);
    EXPECT_EQ(r.resilience.threads_stranded, 1u);
    EXPECT_EQ(hp.displaced_threads().size(), 1u);
}

TEST(Resilience, GlobalRotationCycleExcludesDeadCore) {
    SimConfig cfg = fast_config();
    cfg.fault_schedule.events.push_back(
        event(0.01, FaultKind::kCorePermanent, 7));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("swaptions"), 4, 0.0});
    GlobalRotationScheduler sched;
    const SimResult r = sim.run(sched);
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(sched.cycle().size(), 15u);
    for (std::size_t core : sched.cycle()) EXPECT_NE(core, 7u);
}

TEST(Resilience, RotationAbortWindowDropsRotations) {
    SimConfig cfg = fast_config();
    cfg.fault_schedule.events.push_back(
        event(0.005, FaultKind::kRotationAbort, 0, 0.05));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("blackscholes"), 2, 0.0});
    HotPotatoScheduler hp;
    const SimResult r = sim.run(hp);
    EXPECT_GE(r.resilience.rotation_aborts, 1u);
}

// ----------------------------------------------------- watchdog / sensors ---

TEST(Resilience, WatchdogCatchesBlindedDtm) {
    // Every sensor lies cold, so sensor-driven DTM never fires; the
    // ground-truth watchdog must contain the excursion on its own.
    SimConfig cfg = fast_config();
    cfg.dtm_uses_sensors = true;
    for (std::size_t c = 0; c < 16; ++c)
        cfg.fault_schedule.events.push_back(
            event(0.0, FaultKind::kSensorStuck, c, 0.0, 45.0));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("blackscholes"), 2, 0.0});
    StaticScheduler sched({5, 10});
    const SimResult r = sim.run(sched);

    EXPECT_GE(r.resilience.watchdog_triggers, 1u);
    EXPECT_GT(r.resilience.watchdog_throttled_s, 0.0);
    EXPECT_GT(r.resilience.worst_recovery_s, 0.0);
    // Acceptance bound: watchdog keeps the peak below T_DTM + 1 C even with
    // all sensors lying (blackscholes unmanaged exceeds 70 C by several C).
    EXPECT_LE(r.peak_temperature_c, cfg.t_dtm_c + 1.0);
}

TEST(Resilience, CampaignSurvivesCoreLossAndLyingSensors) {
    // The acceptance scenario: one permanent core failure plus two faulty
    // sensors mid-run, under the full HotPotato policy.
    SimConfig cfg = fast_config();
    cfg.fault_schedule.events.push_back(
        event(0.01, FaultKind::kSensorStuck, 2, 0.0, 30.0));
    cfg.fault_schedule.events.push_back(
        event(0.015, FaultKind::kSensorSpike, 9, 0.03, 30.0));
    cfg.fault_schedule.events.push_back(
        event(0.02, FaultKind::kCorePermanent, 5));
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&profile_by_name("blackscholes"), 2, 0.0});
    sim.add_task(TaskSpec{&profile_by_name("swaptions"), 4, 0.005});
    HotPotatoScheduler hp;
    const SimResult r = sim.run(hp);

    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.resilience.faults_injected, 3u);
    EXPECT_EQ(r.resilience.core_failures, 1u);
    EXPECT_EQ(r.resilience.sensor_faults, 2u);
    EXPECT_LE(r.peak_temperature_c, cfg.t_dtm_c + 1.0);
    EXPECT_FALSE(sim.core_available(5));
    // The voting filter flagged the lying sensors.
    EXPECT_GT(r.resilience.untrusted_sensor_samples, 0u);
    // The resilience report renders (and mentions the failure).
    const std::string report =
        hp::report::render_resilience(r.resilience);
    EXPECT_NE(report.find("faults injected"), std::string::npos);
    std::ostringstream log;
    hp::report::write_fault_log(log, r.resilience);
    EXPECT_NE(log.str().find("core_permanent"), std::string::npos);
}

// ------------------------------------------------------------- determinism ---

TEST(Resilience, EmptyScheduleMatchesFaultFreeRunBitForBit) {
    const auto run_once = [](bool arm_watchdog) {
        SimConfig cfg = fast_config();
        cfg.thermal_watchdog = arm_watchdog;
        Simulator sim = bench().make(cfg);
        sim.add_task(TaskSpec{&profile_by_name("blackscholes"), 2, 0.0});
        sim.add_task(TaskSpec{&profile_by_name("swaptions"), 4, 0.005});
        HotPotatoScheduler hp;
        return sim.run(hp);
    };
    // HotPotato holds the chip below the watchdog margin, so arming the
    // watchdog on a fault-free run must not perturb a single bit.
    const SimResult a = run_once(false);
    const SimResult b = run_once(true);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.peak_temperature_c, b.peak_temperature_c);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.dtm_triggers, b.dtm_triggers);
    EXPECT_EQ(b.resilience.watchdog_triggers, 0u);
    EXPECT_EQ(b.resilience.faults_injected, 0u);
}

TEST(Resilience, VoteFilterIsTransparentWithoutFaults) {
    const auto run_once = [](bool vote) {
        SimConfig cfg = fast_config();
        cfg.dtm_uses_sensors = true;
        cfg.sensor_params.vote_filter = vote;
        Simulator sim = bench().make(cfg);
        sim.add_task(TaskSpec{&profile_by_name("blackscholes"), 2, 0.0});
        StaticScheduler sched({5, 10});
        return sim.run(sched);
    };
    const SimResult a = run_once(false);
    const SimResult b = run_once(true);
    // Honest sensors never disagree with their neighbours by the vote
    // threshold, so masking is the identity transform.
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.peak_temperature_c, b.peak_temperature_c);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.dtm_triggers, b.dtm_triggers);
}

TEST(Resilience, FaultCampaignsAreDeterministic) {
    const auto run_once = [] {
        SimConfig cfg = fast_config();
        cfg.fault_schedule.events.push_back(
            event(0.01, FaultKind::kSensorSpike, 9, 0.03, 30.0));
        cfg.fault_schedule.events.push_back(
            event(0.02, FaultKind::kCorePermanent, 5));
        cfg.fault_seed = 99;
        Simulator sim = bench().make(cfg);
        sim.add_task(TaskSpec{&profile_by_name("swaptions"), 4, 0.0});
        HotPotatoScheduler hp;
        return sim.run(hp);
    };
    const SimResult a = run_once();
    const SimResult b = run_once();
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.peak_temperature_c, b.peak_temperature_c);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.resilience.untrusted_sensor_samples,
              b.resilience.untrusted_sensor_samples);
    ASSERT_EQ(a.resilience.fault_log.size(), b.resilience.fault_log.size());
}

// -------------------------------------------------------- divergence guard ---

TEST(DivergenceGuard, AbortsWithDiagnosticNamingTimeAndNode) {
    // A megawatt "benchmark" drives the RC network far past any physical
    // temperature; the guard must abort with a useful diagnostic instead of
    // silently producing garbage metrics.
    BenchmarkProfile furnace;
    furnace.name = "furnace";
    furnace.default_threads = 2;
    PhaseSpec phase;
    phase.label = "burn";
    phase.master_instructions = 1e12;
    phase.worker_instructions = 1e12;
    phase.perf.nominal_power_w = 1e6;
    furnace.phases.push_back(phase);

    SimConfig cfg = fast_config();
    cfg.max_sim_time_s = 1.0;
    Simulator sim = bench().make(cfg);
    sim.add_task(TaskSpec{&furnace, 2, 0.0});
    StaticScheduler sched({5, 10});
    try {
        (void)sim.run(sched);
        FAIL() << "expected thermal divergence abort";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("thermal divergence"), std::string::npos) << what;
        EXPECT_NE(what.find("at t="), std::string::npos) << what;
        // Names the offending node (a core, given core-heavy power).
        EXPECT_NE(what.find("core"), std::string::npos) << what;
    }
}

}  // namespace

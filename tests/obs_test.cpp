// Tests for the observability layer (src/obs): the trace ring, the metrics
// registry, the export/parse round-trips, the campaign merge semantics, and
// the determinism contract — an observed campaign produces the same events
// and (deterministic) metrics at any worker count, matching a serial run.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "decode_error.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark.hpp"
#include "workload/generator.hpp"

namespace {

using hp::obs::Event;
using hp::obs::EventKind;
using hp::obs::MetricsRegistry;
using hp::obs::MetricsSnapshot;
using hp::obs::Recorder;
using hp::obs::RecorderConfig;
using hp::obs::TraceBuffer;

Event make_event(double t, EventKind kind, std::uint32_t a0 = 0,
                 std::uint32_t a1 = 0, double value = 0.0) {
    return Event{t, kind, a0, a1, value};
}

// ---------------------------------------------------------------------------
// TraceBuffer

TEST(TraceBufferTest, RecordsInOrderUntilCapacity) {
    TraceBuffer buf(4);
    EXPECT_EQ(buf.capacity(), 4u);
    for (int i = 0; i < 3; ++i)
        buf.record(make_event(i, EventKind::kMigration, i));
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.recorded(), 3u);
    EXPECT_EQ(buf.dropped(), 0u);
    const std::vector<Event> events = buf.snapshot();
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].arg0, i);
}

TEST(TraceBufferTest, OverflowDropsOldestAndCountsDrops) {
    TraceBuffer buf(3);
    for (int i = 0; i < 7; ++i)
        buf.record(make_event(i, EventKind::kRotation, i));
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.recorded(), 7u);
    EXPECT_EQ(buf.dropped(), 4u);
    const std::vector<Event> events = buf.snapshot();
    ASSERT_EQ(events.size(), 3u);
    // Flight-recorder policy: the newest three survive, oldest first.
    EXPECT_EQ(events[0].arg0, 4u);
    EXPECT_EQ(events[1].arg0, 5u);
    EXPECT_EQ(events[2].arg0, 6u);
}

TEST(TraceBufferTest, ZeroCapacityDisablesTracing) {
    TraceBuffer buf(0);
    buf.record(make_event(1.0, EventKind::kDvfsChange));
    EXPECT_EQ(buf.capacity(), 0u);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBufferTest, ClearResetsEverything) {
    TraceBuffer buf(2);
    for (int i = 0; i < 5; ++i)
        buf.record(make_event(i, EventKind::kFaultStart));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    buf.record(make_event(9.0, EventKind::kFaultEnd));
    ASSERT_EQ(buf.snapshot().size(), 1u);
    EXPECT_EQ(buf.snapshot()[0].kind, EventKind::kFaultEnd);
}

TEST(EventKindTest, NamesRoundTripThroughCsv) {
    // Every kind must survive the CSV round-trip (catches a kind added to
    // the enum but not to to_string / kind_from_string).
    std::vector<Event> events;
    for (int k = 0; k <= static_cast<int>(EventKind::kDivergence); ++k)
        events.push_back(
            make_event(0.5 * k, static_cast<EventKind>(k), k, k + 1, -1.25 * k));
    std::ostringstream out;
    hp::obs::write_events_csv(out, events);
    std::istringstream in(out.str());
    const std::vector<Event> parsed = hp::obs::read_events_csv(in, "mem");
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(parsed[i], events[i]) << "event " << i;
    }
}

TEST(TraceCsvTest, MalformedRowsNameSourceAndLine) {
    std::istringstream bad_kind(
        "time_s,kind,arg0,arg1,value\n0.5,not_a_kind,0,0,1.0\n");
    try {
        hp::obs::read_events_csv(bad_kind, "events.csv");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("events.csv"), std::string::npos) << what;
        EXPECT_NE(what.find("2"), std::string::npos) << what;
    }

    std::istringstream short_row("time_s,kind,arg0,arg1,value\n0.5,rotation\n");
    EXPECT_THROW(hp::obs::read_events_csv(short_row), std::runtime_error);
}

TEST(TraceCsvTest, OutOfRangeArgsAreRejected) {
    // -1 and 1e20 once went through an out-of-range double -> uint32 cast.
    expect_decode_error(
        [] {
            std::istringstream in(
                "time_s,kind,arg0,arg1,value\n0.1,migration,-1,1e20,nan\n");
            (void)hp::obs::read_events_csv(in, "events.csv");
        },
        "events.csv:2:");
    expect_decode_error(
        [] {
            std::istringstream in(
                "time_s,kind,arg0,arg1,value\n0.1,migration,4294967296,0,1\n");
            (void)hp::obs::read_events_csv(in, "events.csv");
        },
        "events.csv:2:");
}

TEST(TraceCsvTest, CrlfDecodesLikeLf) {
    std::vector<Event> events = {
        make_event(0.25, EventKind::kMigration, 3, 4294967295u, 1.5),
        make_event(0.5, EventKind::kDtmEngage, 1, 0, 71.0)};
    std::ostringstream out;
    hp::obs::write_events_csv(out, events);
    std::string crlf;
    for (char c : out.str()) {
        if (c == '\n') crlf += '\r';
        crlf += c;
    }
    std::istringstream in(crlf);
    EXPECT_EQ(hp::obs::read_events_csv(in, "crlf.csv"), events);
}

TEST(TraceChromeTest, EmitsValidInstantEvents) {
    std::vector<Event> events = {
        make_event(0.25, EventKind::kMigration, 3, 7, 1.5),
        make_event(0.5, EventKind::kDtmEngage, 1, 0, 71.0),
    };
    std::ostringstream out;
    hp::obs::write_chrome_trace(out, events, "unit-test");
    const std::string json = out.str();
    // Structural spot checks: document shape, metadata row, µs timestamps.
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("unit-test"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"migration\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":250000.000"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
    MetricsRegistry reg;
    hp::obs::Counter& a = reg.counter("alpha");
    a.add(2);
    // Registering more instruments must not move the earlier ones.
    for (int i = 0; i < 64; ++i)
        reg.counter("filler_" + std::to_string(i));
    hp::obs::Counter& a2 = reg.counter("alpha");
    EXPECT_EQ(&a, &a2);
    EXPECT_EQ(a2.value, 2u);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
    MetricsRegistry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.gauge("mid").set(3.5);
    reg.gauge("aaa").set(-1.0);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "alpha");
    EXPECT_EQ(snap.counters[1].name, "zeta");
    ASSERT_EQ(snap.gauges.size(), 2u);
    EXPECT_EQ(snap.gauges[0].name, "aaa");
    EXPECT_EQ(snap.gauges[1].name, "mid");
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
    hp::obs::Histogram h({1.0, 2.0, 4.0});
    h.observe(0.5);   // <= 1.0
    h.observe(1.0);   // <= 1.0 (edge is inclusive)
    h.observe(1.5);   // <= 2.0
    h.observe(4.0);   // <= 4.0
    h.observe(100.0); // overflow
    ASSERT_EQ(h.counts().size(), 4u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 1u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, RejectsUnsortedBounds) {
    EXPECT_THROW(hp::obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, RegistryKeepsOriginalBounds) {
    MetricsRegistry reg;
    hp::obs::Histogram& h = reg.histogram("h", {1.0, 2.0});
    hp::obs::Histogram& h2 = reg.histogram("h", {99.0});
    EXPECT_EQ(&h, &h2);
    EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

MetricsSnapshot sample_snapshot() {
    Recorder rec;
    rec.counter("migrations").add(42);
    rec.gauge("peak_c").set(71.0625);
    rec.gauge("headroom_c").set(-1.0 / 3.0);  // needs %.17g to round-trip
    rec.histogram("step_peak", {50.0, 60.0, 70.0}).observe(55.0);
    rec.histogram("step_peak", {}).observe(65.0);
    rec.add_phase_time(hp::obs::Phase::kMatexSolve, 0.25);
    rec.add_phase_time(hp::obs::Phase::kMatexSolve, 0.5);
    rec.add_phase_time(hp::obs::Phase::kSchedulerEpoch, 0.125);
    rec.record(make_event(0.1, EventKind::kMigration, 1, 2, 3.0));
    rec.record(make_event(0.2, EventKind::kDvfsChange, 4, 0, 2.0e9));
    return rec.snapshot();
}

TEST(MetricsJsonTest, WriteParseRoundTripsExactly) {
    const MetricsSnapshot snap = sample_snapshot();
    std::ostringstream out;
    hp::obs::write_metrics_json(out, snap);
    const MetricsSnapshot parsed = hp::obs::parse_metrics_json(out.str());
    EXPECT_EQ(parsed, snap);  // %.17g doubles: bit-exact
}

TEST(MetricsJsonTest, EmptySnapshotRoundTrips) {
    const MetricsSnapshot snap;
    std::ostringstream out;
    hp::obs::write_metrics_json(out, snap);
    EXPECT_EQ(hp::obs::parse_metrics_json(out.str()), snap);
}

TEST(MetricsJsonTest, ParseRejectsMalformedInputWithOffset) {
    EXPECT_THROW(hp::obs::parse_metrics_json(""), std::runtime_error);
    EXPECT_THROW(hp::obs::parse_metrics_json("[]"), std::runtime_error);
    EXPECT_THROW(hp::obs::parse_metrics_json("{\"counters\": {"),
                 std::runtime_error);
    try {
        hp::obs::parse_metrics_json("{\"counters\": nope}");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
            << e.what();
    }
    // Numbers read through the shared textio grammar: a sign on a count, a
    // count past 2^64 and a hex-float gauge are rejected at the token's
    // offset instead of wrapping, saturating or reading as 8.
    const std::pair<std::string, std::string> bad_numbers[] = {
        {"{\"counters\": {\"a\": -1}}", "-1"},
        {"{\"counters\": {\"a\": 12345678901234567890123}}",
         "12345678901234567890123"},
        {"{\"gauges\": {\"g\": 0x1p3}}", "0x1p3"},
        {"{\"histograms\": {\"h\": {\"counts\": [1, +2]}}}", "+2"},
        {"{\"phases\": {\"p\": {\"calls\": 3, \"total_s\": 1.5s}}}",
         "1.5s"},
    };
    for (const auto& [text, token] : bad_numbers) {
        const std::string want = "parse_metrics_json at offset " +
                                 std::to_string(text.find(token)) + ": ";
        try {
            hp::obs::parse_metrics_json(text);
            ADD_FAILURE() << "accepted " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u)
                << text << " -> " << e.what();
        }
    }
}

TEST(MetricsMarkdownTest, RendersInstrumentsAndEvents) {
    const std::string md = hp::obs::metrics_markdown(sample_snapshot());
    EXPECT_NE(md.find("migrations"), std::string::npos);
    EXPECT_NE(md.find("42"), std::string::npos);
    EXPECT_NE(md.find("peak_c"), std::string::npos);
    EXPECT_NE(md.find("step_peak"), std::string::npos);
    EXPECT_NE(md.find("matex_solve"), std::string::npos);
    EXPECT_NE(md.find("2 recorded"), std::string::npos);
}

TEST(MetricsMergeTest, SumsCountersKeepsMaxGauges) {
    MetricsSnapshot a;
    a.counters = {{"shared", 3}, {"only_a", 1}};
    a.gauges = {{"peak", 70.0}};
    MetricsSnapshot b;
    b.counters = {{"only_b", 5}, {"shared", 4}};
    b.gauges = {{"peak", 72.5}};

    const MetricsSnapshot merged = hp::obs::merge({a, b});
    ASSERT_EQ(merged.counters.size(), 3u);
    EXPECT_EQ(merged.counters[0].name, "only_a");
    EXPECT_EQ(merged.counters[1].name, "only_b");
    EXPECT_EQ(merged.counters[2].name, "shared");
    EXPECT_EQ(merged.counters[2].value, 7u);
    ASSERT_EQ(merged.gauges.size(), 1u);
    EXPECT_EQ(merged.gauges[0].value, 72.5);
}

TEST(MetricsMergeTest, HistogramsSumWithMatchingBounds) {
    MetricsSnapshot a;
    a.histograms = {{"h", {1.0, 2.0}, {1, 2, 3}}};
    a.phases = {{"matex_solve", 10, 1.0}};
    a.events_recorded = 5;
    a.events_dropped = 1;
    MetricsSnapshot b;
    b.histograms = {{"h", {1.0, 2.0}, {10, 20, 30}},
                    {"mismatched", {9.0}, {0, 1}}};
    b.phases = {{"matex_solve", 4, 0.5}, {"peak_analysis", 2, 0.25}};
    b.events_recorded = 7;
    b.events_dropped = 0;
    MetricsSnapshot c;
    c.histograms = {{"mismatched", {8.0}, {1, 0}}};  // bounds differ: kept as-is

    const MetricsSnapshot merged = hp::obs::merge({a, b, c});
    ASSERT_EQ(merged.histograms.size(), 2u);
    EXPECT_EQ(merged.histograms[0].name, "h");
    EXPECT_EQ(merged.histograms[0].counts, (std::vector<std::uint64_t>{11, 22, 33}));
    EXPECT_EQ(merged.histograms[1].name, "mismatched");
    EXPECT_EQ(merged.histograms[1].counts, (std::vector<std::uint64_t>{0, 1}));
    ASSERT_EQ(merged.phases.size(), 2u);
    EXPECT_EQ(merged.phases[0].name, "matex_solve");
    EXPECT_EQ(merged.phases[0].calls, 14u);
    EXPECT_DOUBLE_EQ(merged.phases[0].total_s, 1.5);
    EXPECT_EQ(merged.phases[1].calls, 2u);
    EXPECT_EQ(merged.events_recorded, 12u);
    EXPECT_EQ(merged.events_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Recorder

TEST(RecorderTest, SnapshotReportsOnlyUsedPhasesInEnumOrder) {
    Recorder rec;
    rec.add_phase_time(hp::obs::Phase::kSchedulerEpoch, 0.5);
    rec.add_phase_time(hp::obs::Phase::kMatexSolve, 0.25);
    const MetricsSnapshot snap = rec.snapshot();
    ASSERT_EQ(snap.phases.size(), 2u);
    EXPECT_EQ(snap.phases[0].name, "matex_solve");
    EXPECT_EQ(snap.phases[1].name, "scheduler_epoch");
}

TEST(RecorderTest, SnapshotCarriesTraceAccounting) {
    Recorder rec(RecorderConfig{2});
    for (int i = 0; i < 5; ++i)
        rec.record(make_event(i, EventKind::kRotation));
    const MetricsSnapshot snap = rec.snapshot();
    EXPECT_EQ(snap.events_recorded, 5u);
    EXPECT_EQ(snap.events_dropped, 3u);
}

TEST(RecorderTest, ScopedPhaseIsNullSafeAndRecordsCalls) {
    { hp::obs::ScopedPhase nop(nullptr, hp::obs::Phase::kMatexSolve); }
    Recorder rec;
    { hp::obs::ScopedPhase timer(&rec, hp::obs::Phase::kPeakAnalysis); }
    { hp::obs::ScopedPhase timer(&rec, hp::obs::Phase::kPeakAnalysis); }
    const MetricsSnapshot snap = rec.snapshot();
    ASSERT_EQ(snap.phases.size(), 1u);
    EXPECT_EQ(snap.phases[0].name, "peak_analysis");
    EXPECT_EQ(snap.phases[0].calls, 2u);
    EXPECT_GE(snap.phases[0].total_s, 0.0);
}

// ---------------------------------------------------------------------------
// Simulator integration

const hp::campaign::StudySetup& testbed() {
    static const hp::campaign::StudySetup setup =
        hp::campaign::StudySetup::paper_16core();
    return setup;
}

std::vector<hp::workload::TaskSpec> tiny_workload() {
    return {hp::workload::TaskSpec{
        &hp::workload::profile_by_name("blackscholes"), 2, 0.0}};
}

hp::sim::SimConfig tiny_config(double max_sim_time_s = 0.02) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = max_sim_time_s;
    return cfg;
}

TEST(ObsSimulatorTest, AttachedRecorderSeesTheRun) {
    Recorder rec;
    // Long enough for the task to complete (kTaskFinish must appear).
    hp::sim::Simulator sim =
        testbed().make_simulator(tiny_config(5.0), {}, {}, nullptr, &rec);
    sim.add_tasks(tiny_workload());
    hp::core::HotPotatoScheduler sched;
    const hp::sim::SimResult result = sim.run(sched);
    ASSERT_TRUE(result.all_finished);

    const MetricsSnapshot snap = rec.snapshot();

    // Core counters and gauges are populated.
    auto counter = [&](const std::string& name) -> std::uint64_t {
        for (const auto& c : snap.counters)
            if (c.name == name) return c.value;
        ADD_FAILURE() << "missing counter " << name;
        return 0;
    };
    auto gauge = [&](const std::string& name) -> double {
        for (const auto& g : snap.gauges)
            if (g.name == name) return g.value;
        ADD_FAILURE() << "missing gauge " << name;
        return 0.0;
    };
    EXPECT_GT(counter("sim.steps"), 0u);
    EXPECT_GT(counter("hotpotato.alg1_evals"), 0u);
    EXPECT_EQ(gauge("sim.peak_temperature_c"), result.peak_temperature_c);
    EXPECT_EQ(gauge("sim.energy_j"), result.total_energy_j);

    // The step-peak histogram saw every micro-step.
    bool found_hist = false;
    for (const auto& h : snap.histograms)
        if (h.name == "sim.step_peak_c") {
            found_hist = true;
            std::uint64_t total = 0;
            for (std::uint64_t c : h.counts) total += c;
            EXPECT_EQ(total, counter("sim.steps"));
        }
    EXPECT_TRUE(found_hist);

    // Phase timers ran: MatEx solve once per step, scheduler epochs, and
    // HotPotato's peak analysis.
    ASSERT_EQ(snap.phases.size(), 3u);
    EXPECT_EQ(snap.phases[0].name, "matex_solve");
    EXPECT_EQ(snap.phases[0].calls, counter("sim.steps"));
    EXPECT_EQ(snap.phases[1].name, "peak_analysis");
    EXPECT_EQ(snap.phases[1].calls, counter("hotpotato.alg1_evals"));
    EXPECT_EQ(snap.phases[2].name, "scheduler_epoch");
    EXPECT_GT(snap.phases[2].calls, 0u);

    // The event trace captured the task lifecycle and thread rotations.
    const std::vector<Event> events = rec.events();
    EXPECT_EQ(snap.events_recorded, rec.trace().recorded());
    bool saw_start = false, saw_finish = false, saw_rotation = false;
    double last_t = 0.0;
    for (const Event& e : events) {
        EXPECT_GE(e.time_s, last_t) << "events out of order";
        last_t = e.time_s;
        if (e.kind == EventKind::kTaskStart) saw_start = true;
        if (e.kind == EventKind::kTaskFinish) saw_finish = true;
        if (e.kind == EventKind::kRotation) saw_rotation = true;
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(saw_finish);
    EXPECT_TRUE(saw_rotation);
}

TEST(ObsSimulatorTest, HotPotatoBatchHistogramCountsEveryAlgorithm1Query) {
    // A Poisson mix exercises every query site: rotation queries, the
    // rotation-off placement slates and the τ walks. Each Algorithm-1 query
    // ticks alg1_evals once and records its candidate count once; the
    // workspace's ring memo is the only memo, so no cache counters exist.
    Recorder rec;
    hp::sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.scheduler_epoch_s = 1e-3;
    cfg.max_sim_time_s = 0.3;
    hp::sim::Simulator sim =
        testbed().make_simulator(cfg, {}, {}, nullptr, &rec);
    sim.add_tasks(hp::workload::poisson_mix(8, 50.0, 2, 3, 7));
    hp::core::HotPotatoScheduler sched;
    sim.run(sched);

    const MetricsSnapshot snap = rec.snapshot();
    std::uint64_t evals = 0;
    for (const auto& c : snap.counters) {
        if (c.name == "hotpotato.alg1_evals") evals = c.value;
        EXPECT_EQ(c.name.find("cache"), std::string::npos) << c.name;
    }
    EXPECT_GT(evals, 0u);
    std::uint64_t observed = 0;
    bool saw_slate = false;
    for (const auto& h : snap.histograms) {
        if (h.name != "hotpotato.batch_size") continue;
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
            observed += h.counts[b];
            if (b > 0 && h.counts[b] > 0) saw_slate = true;
        }
    }
    EXPECT_EQ(observed, evals);
    EXPECT_TRUE(saw_slate) << "no multi-candidate placement slate ran";
}

TEST(ObsSimulatorTest, RecorderDoesNotPerturbTheSimulation) {
    auto run_once = [&](Recorder* rec) {
        hp::sim::Simulator sim =
            testbed().make_simulator(tiny_config(), {}, {}, nullptr, rec);
        sim.add_tasks(tiny_workload());
        hp::core::HotPotatoScheduler sched;
        return sim.run(sched);
    };
    const hp::sim::SimResult plain = run_once(nullptr);
    Recorder rec;
    const hp::sim::SimResult observed = run_once(&rec);
    EXPECT_EQ(plain.makespan_s, observed.makespan_s);
    EXPECT_EQ(plain.peak_temperature_c, observed.peak_temperature_c);
    EXPECT_EQ(plain.total_energy_j, observed.total_energy_j);
    EXPECT_EQ(plain.migrations, observed.migrations);
    EXPECT_EQ(plain.dtm_throttled_s, observed.dtm_throttled_s);
}

// ---------------------------------------------------------------------------
// Campaign integration

hp::campaign::CampaignSpec obs_spec() {
    hp::campaign::CampaignSpec spec(testbed(), tiny_config());
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_workload("blackscholes-2", tiny_workload());
    spec.add_seed(1).add_seed(2);
    return spec;
}

/// The deterministic slice of a snapshot: everything except phase total_s
/// (host wall time).
void expect_deterministic_fields_equal(const MetricsSnapshot& a,
                                       const MetricsSnapshot& b) {
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    EXPECT_EQ(a.histograms, b.histograms);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].name, b.phases[i].name);
        EXPECT_EQ(a.phases[i].calls, b.phases[i].calls);
    }
    EXPECT_EQ(a.events_recorded, b.events_recorded);
    EXPECT_EQ(a.events_dropped, b.events_dropped);
}

TEST(ObsCampaignTest, ObservedCampaignIsDeterministicAcrossWorkerCounts) {
    const hp::campaign::CampaignSpec spec = obs_spec();
    hp::campaign::CampaignOptions serial;
    serial.jobs = 1;
    serial.observe = true;
    hp::campaign::CampaignOptions parallel = serial;
    parallel.jobs = 4;

    const hp::campaign::CampaignResult a = run_campaign(spec, serial);
    const hp::campaign::CampaignResult b = run_campaign(spec, parallel);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        SCOPED_TRACE(hp::campaign::to_string(a.records[i].key));
        expect_deterministic_fields_equal(a.records[i].metrics,
                                          b.records[i].metrics);
        EXPECT_EQ(a.records[i].events, b.records[i].events);

        // The exported trace is byte-identical across worker counts.
        std::ostringstream csv_a, csv_b;
        hp::obs::write_events_csv(csv_a, a.records[i].events);
        hp::obs::write_events_csv(csv_b, b.records[i].events);
        EXPECT_EQ(csv_a.str(), csv_b.str());
    }
}

TEST(ObsCampaignTest, Modal256RunMetricsIgnoreAWarmedWorkerScratch) {
    // A campaign worker lends one PeakWorkspace to every HotPotato run it
    // executes. On the modal 256-core chip Algorithm 1 takes the pruned
    // path, whose survivor hint and ring memos persist in that workspace;
    // initialize() drops both, so a run's metrics do not depend on what the
    // worker ran before it.
    const hp::campaign::StudySetup setup =
        hp::campaign::StudySetup::paper_256core();
    ASSERT_TRUE(setup.solver().truncated());
    const auto tasks = [](const char* profile, std::size_t count,
                          std::size_t threads) {
        std::vector<hp::workload::TaskSpec> specs;
        for (std::size_t i = 0; i < count; ++i)
            specs.push_back({&hp::workload::profile_by_name(profile), threads,
                             1e-3 * static_cast<double>(i)});
        return specs;
    };
    const auto spec = [&](bool warm_up) {
        hp::campaign::CampaignSpec s(setup, tiny_config());
        s.add_scheduler("HotPotato", [] {
            return std::make_unique<hp::core::HotPotatoScheduler>();
        });
        if (warm_up) s.add_workload("a-warm-up", tasks("bodytrack", 4, 8));
        s.add_workload("b-probe", tasks("blackscholes", 6, 6));
        return s;
    };
    hp::campaign::CampaignOptions options;
    options.jobs = 1;  // one worker, one scratch bag: the probe runs second
    options.observe = true;
    const hp::campaign::CampaignResult warmed = run_campaign(spec(true), options);
    const hp::campaign::CampaignResult fresh = run_campaign(spec(false), options);
    ASSERT_EQ(warmed.records.size(), 2u);
    ASSERT_EQ(fresh.records.size(), 1u);
    const hp::campaign::RunRecord& probe = warmed.records[1];
    ASSERT_EQ(probe.key.workload, "b-probe");
    expect_deterministic_fields_equal(probe.metrics, fresh.records[0].metrics);

    // The run exercised the memo: it reused some ring evaluations.
    std::uint64_t reused = 0, total = 0;
    for (const auto& c : probe.metrics.counters) {
        if (c.name == "hotpotato.alg1_rings_reused") reused = c.value;
        if (c.name == "hotpotato.alg1_rings_total") total = c.value;
    }
    EXPECT_GT(reused, 0u);
    EXPECT_LT(reused, total);
}

TEST(ObsCampaignTest, CampaignRunReplaysSameEventsAsDirectSerialRun) {
    const hp::campaign::CampaignSpec spec = obs_spec();
    hp::campaign::CampaignOptions options;
    options.jobs = 3;
    options.observe = true;
    const hp::campaign::CampaignResult result = run_campaign(spec, options);
    ASSERT_FALSE(result.records.empty());

    // Reproduce the first run by hand with the engine's own materialisation.
    const hp::campaign::RunKey& key = result.records[0].key;
    const hp::campaign::RunSetup setup = spec.setup_for(key);
    Recorder rec;
    hp::sim::Simulator sim = spec.setup().make_simulator(
        setup.sim, setup.power, setup.perf, nullptr, &rec);
    sim.add_tasks(spec.tasks_for(key));
    std::unique_ptr<hp::sim::Scheduler> sched = spec.make_scheduler(key);
    sim.run(*sched);

    EXPECT_EQ(result.records[0].events, rec.events());
    expect_deterministic_fields_equal(result.records[0].metrics,
                                      rec.snapshot());
}

TEST(ObsCampaignTest, UnobservedCampaignLeavesMetricsEmpty) {
    const hp::campaign::CampaignSpec spec = obs_spec();
    const hp::campaign::CampaignResult result = run_campaign(spec, {});
    for (const auto& r : result.records) {
        EXPECT_TRUE(r.metrics.empty());
        EXPECT_TRUE(r.events.empty());
    }
    EXPECT_EQ(hp::campaign::metrics_markdown(result.records), "");
}

TEST(ObsCampaignTest, MetricsRoundTripThroughCampaignJson) {
    const hp::campaign::CampaignSpec spec = obs_spec();
    hp::campaign::CampaignOptions options;
    options.observe = true;
    const hp::campaign::CampaignResult result = run_campaign(spec, options);

    std::ostringstream out;
    hp::campaign::write_json(out, result.records, result.summary);
    const std::vector<MetricsSnapshot> parsed =
        hp::campaign::metrics_from_json(out.str());
    ASSERT_EQ(parsed.size(), result.records.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed[i], result.records[i].metrics) << "record " << i;
}

TEST(ObsCampaignTest, MetricsMarkdownRollsUpAllRuns) {
    const hp::campaign::CampaignSpec spec = obs_spec();
    hp::campaign::CampaignOptions options;
    options.observe = true;
    const hp::campaign::CampaignResult result = run_campaign(spec, options);
    const std::string md = hp::campaign::metrics_markdown(result.records);
    EXPECT_NE(md.find("sim.steps"), std::string::npos);
    EXPECT_NE(md.find("hotpotato.alg1_evals"), std::string::npos);
    EXPECT_NE(md.find("matex_solve"), std::string::npos);
}

}  // namespace

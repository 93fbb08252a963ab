// Tests for the campaign resilience layer (DESIGN.md §10): failure
// classification, bounded retry with deterministic backoff, the per-run
// deadline watchdog, the crash-safe run journal (round-trip, torn tails,
// corruption, grid binding), resume determinism at any worker count, and
// the atomic export wrappers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/atomic_file.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "obs/recorder.hpp"
#include "sched/static_schedulers.hpp"
#include "sim/cancellation.hpp"
#include "workload/benchmark.hpp"

namespace {

using hp::campaign::CampaignOptions;
using hp::campaign::CampaignResult;
using hp::campaign::CampaignSpec;
using hp::campaign::FailureClass;
using hp::campaign::JournalContents;
using hp::campaign::JournalError;
using hp::campaign::RunJournal;
using hp::campaign::RunKey;
using hp::campaign::RunRecord;
using hp::campaign::StudySetup;
using hp::campaign::TransientError;

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

std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string csv_of(const std::vector<RunRecord>& records) {
    std::ostringstream out;
    hp::campaign::write_csv(out, records);
    return out.str();
}

/// A scheduler that never places anything: the simulation idles until its
/// (huge) time budget runs out — the synthetic hung run the watchdog reaps.
class StallScheduler : public hp::sim::Scheduler {
public:
    std::string name() const override { return "stall"; }
    bool on_task_arrival(hp::sim::SimContext&, hp::sim::TaskId) override {
        return false;
    }
};

// --- failure classification ------------------------------------------------

TEST(FailureClassification, TaxonomyCoversTheThrowSites) {
    struct Boom {};  // not derived from std::exception
    CampaignSpec spec = tiny_spec();
    spec.add_scheduler("transient", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw TransientError("flaky dependency");
    });
    spec.add_scheduler("invalid", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw std::invalid_argument("bad grid cell");
    });
    spec.add_scheduler("diverging", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw hp::sim::ThermalDivergenceError("thermal divergence (NaN)");
    });
    spec.add_scheduler("generic", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw std::runtime_error("factory exploded");
    });
    spec.add_scheduler("exotic", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw Boom{};
    });

    const CampaignResult result = hp::campaign::run_campaign(spec, {});
    ASSERT_EQ(result.records.size(), 6u);
    EXPECT_EQ(result.records[0].failure_class, FailureClass::kNone);
    EXPECT_FALSE(result.records[0].failed);

    const auto* transient =
        hp::campaign::find(result.records, "blackscholes-2", "transient");
    ASSERT_NE(transient, nullptr);
    EXPECT_EQ(transient->failure_class, FailureClass::kTransient);
    EXPECT_EQ(transient->error, "flaky dependency");

    const auto* invalid =
        hp::campaign::find(result.records, "blackscholes-2", "invalid");
    ASSERT_NE(invalid, nullptr);
    EXPECT_EQ(invalid->failure_class, FailureClass::kInvalidConfig);

    const auto* diverging =
        hp::campaign::find(result.records, "blackscholes-2", "diverging");
    ASSERT_NE(diverging, nullptr);
    EXPECT_EQ(diverging->failure_class, FailureClass::kNumericalDivergence);

    const auto* generic =
        hp::campaign::find(result.records, "blackscholes-2", "generic");
    ASSERT_NE(generic, nullptr);
    EXPECT_EQ(generic->failure_class, FailureClass::kUnknown);
    EXPECT_EQ(generic->error, "factory exploded");

    // The former `catch (...)` path now names the exception's type.
    const auto* exotic =
        hp::campaign::find(result.records, "blackscholes-2", "exotic");
    ASSERT_NE(exotic, nullptr);
    EXPECT_EQ(exotic->failure_class, FailureClass::kUnknown);
    EXPECT_NE(exotic->error.find("Boom"), std::string::npos) << exotic->error;

    // All five failures are quarantined, none retried (max_retries = 0).
    EXPECT_EQ(result.summary.failed_runs, 5u);
    ASSERT_EQ(result.summary.quarantine.size(), 5u);
    for (const auto& q : result.summary.quarantine)
        EXPECT_EQ(q.attempts, 1u);
    EXPECT_EQ(result.summary.total_retries, 0u);
}

TEST(FailureClassification, ToStringIsStable) {
    EXPECT_STREQ(to_string(FailureClass::kNone), "none");
    EXPECT_STREQ(to_string(FailureClass::kTransient), "transient");
    EXPECT_STREQ(to_string(FailureClass::kTimeout), "timeout");
    EXPECT_STREQ(to_string(FailureClass::kNumericalDivergence),
                 "numerical_divergence");
    EXPECT_STREQ(to_string(FailureClass::kInvalidConfig), "invalid_config");
    EXPECT_STREQ(to_string(FailureClass::kUnknown), "unknown");
}

// --- bounded retry ---------------------------------------------------------

CampaignSpec flaky_spec(std::shared_ptr<std::atomic<int>> failures_left) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.01;
    CampaignSpec spec(testbed(), cfg);
    spec.add_scheduler(
        "flaky", [failures_left]() -> std::unique_ptr<hp::sim::Scheduler> {
            if (failures_left->fetch_add(-1) > 0)
                throw TransientError("intermittent factory failure");
            return std::make_unique<hp::core::HotPotatoScheduler>();
        });
    spec.add_workload("blackscholes-2", tiny_workload());
    return spec;
}

CampaignOptions fast_retry(std::size_t max_retries) {
    CampaignOptions options;
    options.retry.max_retries = max_retries;
    options.retry.backoff_base_s = 1e-4;  // keep the test fast
    options.retry.backoff_cap_s = 1e-3;
    return options;
}

TEST(RetryPolicy, TransientFailureSucceedsAfterRetryWithHistory) {
    const auto failures = std::make_shared<std::atomic<int>>(2);
    const CampaignResult result = hp::campaign::run_campaign(
        flaky_spec(failures), fast_retry(3));
    ASSERT_EQ(result.records.size(), 1u);
    const RunRecord& r = result.records[0];
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.failure_class, FailureClass::kNone);
    EXPECT_EQ(r.attempts, 3u);
    ASSERT_EQ(r.backoff_s.size(), 2u);
    for (double b : r.backoff_s) EXPECT_GT(b, 0.0);
    // Exponential: the second backoff exceeds the first (same jitter band,
    // doubled base, far from the cap).
    EXPECT_GT(r.backoff_s[1], r.backoff_s[0]);
    EXPECT_EQ(result.summary.retried_runs, 1u);
    EXPECT_EQ(result.summary.total_retries, 2u);
    EXPECT_TRUE(result.summary.quarantine.empty());

    // The attempt history reaches the JSON export.
    std::ostringstream json;
    hp::campaign::write_json(json, result.records, result.summary);
    EXPECT_NE(json.str().find("\"attempts\": 3"), std::string::npos);
    EXPECT_NE(json.str().find("\"backoff_s\": ["), std::string::npos);
    EXPECT_NE(json.str().find("\"retried_runs\": 1"), std::string::npos);
}

TEST(RetryPolicy, BackoffHistoryIsDeterministic) {
    const auto first = std::make_shared<std::atomic<int>>(2);
    const auto second = std::make_shared<std::atomic<int>>(2);
    const CampaignResult a =
        hp::campaign::run_campaign(flaky_spec(first), fast_retry(3));
    const CampaignResult b =
        hp::campaign::run_campaign(flaky_spec(second), fast_retry(3));
    ASSERT_EQ(a.records[0].backoff_s.size(), b.records[0].backoff_s.size());
    for (std::size_t i = 0; i < a.records[0].backoff_s.size(); ++i)
        EXPECT_EQ(a.records[0].backoff_s[i], b.records[0].backoff_s[i]);
}

TEST(RetryPolicy, ExhaustedRetriesQuarantineAsTransient) {
    const auto failures = std::make_shared<std::atomic<int>>(1000);
    const CampaignResult result = hp::campaign::run_campaign(
        flaky_spec(failures), fast_retry(2));
    ASSERT_EQ(result.records.size(), 1u);
    const RunRecord& r = result.records[0];
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.failure_class, FailureClass::kTransient);
    EXPECT_EQ(r.attempts, 3u);  // 1 initial + 2 retries
    EXPECT_EQ(r.backoff_s.size(), 2u);
    ASSERT_EQ(result.summary.quarantine.size(), 1u);
    EXPECT_EQ(result.summary.quarantine[0].failure_class,
              FailureClass::kTransient);
    EXPECT_EQ(result.summary.quarantine[0].attempts, 3u);
    // Non-transient failures are never retried (checked in
    // FailureClassification above: every quarantined run had attempts == 1
    // despite no retry budget being the only difference).
}

// --- deadline watchdog -----------------------------------------------------

TEST(DeadlineWatchdog, HungRunIsReapedAndPoolKeepsDraining) {
    // One scheduler that never places anything, crossed with two time
    // budgets: "hung" idles toward an effectively unreachable horizon (only
    // the watchdog can end it); "quick" hits its tiny budget and returns
    // normally, proving the pool keeps draining around the reaped run.
    CampaignSpec spec(testbed(), hp::sim::SimConfig{});
    spec.add_scheduler("stall", [] {
        return std::make_unique<StallScheduler>();
    });
    spec.add_config("hung", [](hp::campaign::RunSetup& setup) {
        setup.sim.max_sim_time_s = 1e6;
    });
    spec.add_config("quick", [](hp::campaign::RunSetup& setup) {
        setup.sim.max_sim_time_s = 0.005;
    });
    spec.add_workload("blackscholes-2", tiny_workload());

    CampaignOptions options;
    options.jobs = 2;
    options.run_timeout_s = 0.25;
    options.observe = true;
    const CampaignResult result = hp::campaign::run_campaign(spec, options);
    ASSERT_EQ(result.records.size(), 2u);

    const RunRecord* hung = hp::campaign::find(result.records,
                                               "blackscholes-2", "stall",
                                               "hung");
    ASSERT_NE(hung, nullptr);
    EXPECT_TRUE(hung->failed);
    EXPECT_EQ(hung->failure_class, FailureClass::kTimeout);
    EXPECT_NE(hung->error.find("cancelled"), std::string::npos)
        << hung->error;
    EXPECT_EQ(hung->attempts, 1u);  // timeouts are not transient: no retry
    // The cancellation left a structured event in the run's trace.
    bool saw_cancelled = false;
    for (const auto& e : hung->events)
        saw_cancelled |= e.kind == hp::obs::EventKind::kCancelled;
    EXPECT_TRUE(saw_cancelled);

    // The short-budget run on the other worker completed untouched.
    const RunRecord* healthy = hp::campaign::find(result.records,
                                                  "blackscholes-2", "stall",
                                                  "quick");
    ASSERT_NE(healthy, nullptr);
    EXPECT_FALSE(healthy->failed);

    EXPECT_EQ(result.summary.timeout_runs, 1u);
    ASSERT_EQ(result.summary.quarantine.size(), 1u);
    EXPECT_EQ(result.summary.quarantine[0].failure_class,
              FailureClass::kTimeout);
}

TEST(DeadlineWatchdog, DisabledByDefaultAndHarmlessForFastRuns) {
    CampaignOptions options;
    options.run_timeout_s = 30.0;  // far above any tiny run's wall time
    const CampaignResult result =
        hp::campaign::run_campaign(tiny_spec(), options);
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_FALSE(result.records[0].failed);
    EXPECT_EQ(result.summary.timeout_runs, 0u);
}

// --- journal format --------------------------------------------------------

RunRecord synthetic_record() {
    RunRecord r;
    r.key = {3, "wl,with|separators", "sched\nnewline", "base", 42};
    r.failed = true;
    r.failure_class = FailureClass::kTransient;
    r.attempts = 3;
    r.backoff_s = {0.1, 1e-300};
    r.error = "line one\nline two\x1f with separator";
    r.wall_time_s = 1.25;
    r.result.all_finished = false;
    r.result.makespan_s = 0.1 + 0.2;  // not exactly 0.3 — %.17g must hold it
    r.result.simulated_time_s = 1e-9;
    r.result.peak_temperature_c = 83.456789012345678;
    r.result.dtm_throttled_s = 0.25;
    r.result.dtm_triggers = 7;
    r.result.migrations = 11;
    r.result.total_energy_j = 123.5;
    r.result.idle_energy_j = 2.5;
    r.result.tasks.push_back({1, "blackscholes", 2, 0.0, 0.5, 1.5, 9.25});
    r.result.resilience.faults_injected = 2;
    r.result.resilience.worst_recovery_s = 0.125;
    r.result.resilience.fault_log.push_back(
        {0.5, hp::fault::FaultKind::kCoreTransient, 3, "note, with comma"});
    hp::sim::TraceSample sample;
    sample.time_s = 0.25;
    sample.max_core_temperature_c = 80.5;
    sample.core_temperature_c = {80.5, 79.25};
    sample.core_power_w = {1.5, 0.75};
    sample.core_frequency_hz = {4e9, 2e9};
    r.result.trace.push_back(sample);
    hp::obs::Recorder recorder;
    recorder.counter("test.counter").add(5);
    recorder.gauge("test.gauge").set(0.1);
    recorder.record({0.5, hp::obs::EventKind::kMigration, 1, 2, 3.5});
    r.metrics = recorder.snapshot();
    r.events = recorder.events();
    return r;
}

void expect_records_equal(const RunRecord& a, const RunRecord& b) {
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.failure_class, b.failure_class);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.backoff_s, b.backoff_s);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.wall_time_s, b.wall_time_s);
    EXPECT_EQ(a.result.all_finished, b.result.all_finished);
    EXPECT_EQ(a.result.makespan_s, b.result.makespan_s);
    EXPECT_EQ(a.result.simulated_time_s, b.result.simulated_time_s);
    EXPECT_EQ(a.result.peak_temperature_c, b.result.peak_temperature_c);
    EXPECT_EQ(a.result.dtm_throttled_s, b.result.dtm_throttled_s);
    EXPECT_EQ(a.result.dtm_triggers, b.result.dtm_triggers);
    EXPECT_EQ(a.result.migrations, b.result.migrations);
    EXPECT_EQ(a.result.total_energy_j, b.result.total_energy_j);
    EXPECT_EQ(a.result.idle_energy_j, b.result.idle_energy_j);
    ASSERT_EQ(a.result.tasks.size(), b.result.tasks.size());
    for (std::size_t t = 0; t < a.result.tasks.size(); ++t) {
        EXPECT_EQ(a.result.tasks[t].id, b.result.tasks[t].id);
        EXPECT_EQ(a.result.tasks[t].benchmark, b.result.tasks[t].benchmark);
        EXPECT_EQ(a.result.tasks[t].threads, b.result.tasks[t].threads);
        EXPECT_EQ(a.result.tasks[t].arrival_s, b.result.tasks[t].arrival_s);
        EXPECT_EQ(a.result.tasks[t].start_s, b.result.tasks[t].start_s);
        EXPECT_EQ(a.result.tasks[t].finish_s, b.result.tasks[t].finish_s);
        EXPECT_EQ(a.result.tasks[t].energy_j, b.result.tasks[t].energy_j);
    }
    EXPECT_EQ(a.result.resilience.faults_injected,
              b.result.resilience.faults_injected);
    EXPECT_EQ(a.result.resilience.worst_recovery_s,
              b.result.resilience.worst_recovery_s);
    ASSERT_EQ(a.result.resilience.fault_log.size(),
              b.result.resilience.fault_log.size());
    for (std::size_t i = 0; i < a.result.resilience.fault_log.size(); ++i) {
        EXPECT_EQ(a.result.resilience.fault_log[i].time_s,
                  b.result.resilience.fault_log[i].time_s);
        EXPECT_EQ(a.result.resilience.fault_log[i].kind,
                  b.result.resilience.fault_log[i].kind);
        EXPECT_EQ(a.result.resilience.fault_log[i].target,
                  b.result.resilience.fault_log[i].target);
        EXPECT_EQ(a.result.resilience.fault_log[i].note,
                  b.result.resilience.fault_log[i].note);
    }
    ASSERT_EQ(a.result.trace.size(), b.result.trace.size());
    for (std::size_t i = 0; i < a.result.trace.size(); ++i) {
        EXPECT_EQ(a.result.trace[i].time_s, b.result.trace[i].time_s);
        EXPECT_EQ(a.result.trace[i].max_core_temperature_c,
                  b.result.trace[i].max_core_temperature_c);
        EXPECT_EQ(a.result.trace[i].core_temperature_c,
                  b.result.trace[i].core_temperature_c);
        EXPECT_EQ(a.result.trace[i].core_power_w,
                  b.result.trace[i].core_power_w);
        EXPECT_EQ(a.result.trace[i].core_frequency_hz,
                  b.result.trace[i].core_frequency_hz);
    }
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.events, b.events);
}

TEST(Journal, RecordPayloadRoundTripsBitExactly) {
    const RunRecord original = synthetic_record();
    const std::string payload = hp::campaign::serialize_record(original);
    // One line: a crash can only ever tear the final line of the file.
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    const RunRecord parsed = hp::campaign::parse_record(payload);
    expect_records_equal(original, parsed);
}

TEST(Journal, ParseRejectsMalformedPayloads) {
    const std::string good =
        hp::campaign::serialize_record(synthetic_record());
    EXPECT_THROW((void)hp::campaign::parse_record(""), JournalError);
    EXPECT_THROW((void)hp::campaign::parse_record("R9"), JournalError);
    EXPECT_THROW(
        (void)hp::campaign::parse_record(good.substr(0, good.size() / 2)),
        JournalError);
    EXPECT_THROW((void)hp::campaign::parse_record(good + "\x1f" "extra"),
                 JournalError);
}

/// synthetic_record()'s payload with field @p index replaced by @p value.
std::string with_field(std::size_t index, const std::string& value) {
    const std::string good =
        hp::campaign::serialize_record(synthetic_record());
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t sep; (sep = good.find('\x1f', start)) != std::string::npos;
         start = sep + 1)
        fields.push_back(good.substr(start, sep - start));
    fields.push_back(good.substr(start));
    EXPECT_EQ(fields.size(), 65u) << "synthetic_record's layout changed";
    fields.at(index) = value;
    std::string out = fields[0];
    for (std::size_t i = 1; i < fields.size(); ++i) out += '\x1f' + fields[i];
    return out;
}

TEST(Journal, ParseRejectsCountsBeyondThePayload) {
    // Field index of each list count in synthetic_record's payload (backoff,
    // tasks, fault log, trace, the trace sample's core count, events), with
    // the count it holds.
    const std::vector<std::pair<std::size_t, const char*>> counts = {
        {9, "2"}, {23, "1"}, {43, "1"}, {48, "1"}, {51, "2"}, {59, "1"}};
    for (const auto& [index, held] : counts) {
        // The payload as written parses with the count it holds...
        EXPECT_NO_THROW(
            (void)hp::campaign::parse_record(with_field(index, held)))
            << "field " << index;
        // ...and a count the remaining fields cannot hold is a JournalError
        // before it sizes anything, not a length_error or bad_alloc.
        for (const std::string& bad :
             {std::string("18446744073709551615"), std::to_string(65 - index)})
            EXPECT_THROW(
                (void)hp::campaign::parse_record(with_field(index, bad)),
                JournalError)
                << "field " << index << " = " << bad;
    }
}

TEST(Journal, ParseRangeChecksKindsAndEventArgs) {
    // Fault kind (field 45), event kind (61), event args (62, 63): the
    // largest valid value parses, one more is rejected.
    const std::string last_fault = std::to_string(
        static_cast<int>(hp::fault::FaultKind::kRotationAbort));
    const std::string last_event = std::to_string(
        static_cast<int>(hp::obs::EventKind::kDivergence));
    const auto parse = [](std::size_t index, const std::string& value) {
        (void)hp::campaign::parse_record(with_field(index, value));
    };
    EXPECT_NO_THROW(parse(45, last_fault));
    EXPECT_NO_THROW(parse(61, last_event));
    EXPECT_NO_THROW(parse(62, "4294967295"));
    EXPECT_NO_THROW(parse(63, "4294967295"));
    EXPECT_THROW(parse(45, last_fault + "0"), JournalError);
    EXPECT_THROW(parse(45, std::to_string(std::stoi(last_fault) + 1)),
                 JournalError);
    EXPECT_THROW(parse(61, std::to_string(std::stoi(last_event) + 1)),
                 JournalError);
    EXPECT_THROW(parse(62, "4294967296"), JournalError);
    EXPECT_THROW(parse(63, "4294967296"), JournalError);
}

TEST(Journal, ParseFailuresNameThePathAndLine) {
    const std::string path = temp_path("journal_path_line.hpj");
    const CampaignSpec spec = tiny_spec();
    RunRecord record = synthetic_record();
    record.key = spec.keys()[0];
    { RunJournal::create(path, spec).append(record); }
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        data.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::string header = data.substr(0, data.find('\n') + 1);
    const auto expect_error_at = [&](const std::string& text,
                                     const std::string& where) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }
        try {
            (void)hp::campaign::read_journal(path);
            ADD_FAILURE() << "expected a JournalError at " << where;
        } catch (const JournalError& e) {
            EXPECT_NE(std::string(e.what()).find(path + ":" + where),
                      std::string::npos)
                << e.what();
        }
    };
    // A checksum-valid record line whose payload lies about a count: the
    // parse failure names the line it is on, not just the file.
    const std::string lying = with_field(23, "18446744073709551615");
    const std::string line = [&] {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          hp::campaign::fnv1a64(lying)));
        return std::string(hex) + " " + lying + "\n";
    }();
    expect_error_at(header + line, "2: count");
    expect_error_at(header + "0000000000000000 x\n" + line, "2: checksum");
    expect_error_at("hpjournal1 nonsense\n", "1: bad header");
    expect_error_at("", "1: empty file");
}

TEST(Journal, GridSignatureBindsTheSpec) {
    CampaignSpec a = tiny_spec();
    CampaignSpec b = tiny_spec();
    EXPECT_EQ(hp::campaign::grid_signature(a),
              hp::campaign::grid_signature(b));
    b.add_scheduler("Static", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    EXPECT_NE(hp::campaign::grid_signature(a),
              hp::campaign::grid_signature(b));
}

TEST(Journal, FileRoundTripTornTailAndCorruption) {
    const std::string path = temp_path("journal_roundtrip.hpj");
    std::filesystem::remove(path);
    const CampaignSpec spec = tiny_spec();

    RunRecord record = synthetic_record();
    record.key = spec.keys()[0];
    {
        RunJournal journal = RunJournal::create(path, spec);
        journal.append(record);
    }
    JournalContents contents = hp::campaign::read_journal(path);
    EXPECT_EQ(contents.grid_hash, hp::campaign::grid_signature(spec));
    EXPECT_EQ(contents.total_runs, spec.run_count());
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.records.size(), 1u);
    expect_records_equal(record, contents.records[0]);

    // A torn final line (crash mid-append) is detected and dropped...
    {
        std::ofstream tear(path, std::ios::app | std::ios::binary);
        tear << "0123456789abcdef torn-partial-record-without-newline";
    }
    contents = hp::campaign::read_journal(path);
    EXPECT_TRUE(contents.torn_tail);
    ASSERT_EQ(contents.records.size(), 1u);

    // ...and append_to() truncates it so the journal keeps growing cleanly.
    {
        RunJournal journal = RunJournal::append_to(path, spec);
        journal.append(record);
    }
    contents = hp::campaign::read_journal(path);
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.records.size(), 2u);

    // Interior corruption (a flipped byte before the final line) is an
    // error, not a crash artifact.
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::size_t second_line = data.find('\n') + 1;
    data[second_line + 20] ^= 0x01;
    {
        std::ofstream corrupt(path, std::ios::binary | std::ios::trunc);
        corrupt << data;
    }
    EXPECT_THROW((void)hp::campaign::read_journal(path), JournalError);
    EXPECT_THROW((void)RunJournal::append_to(path, spec), JournalError);
}

TEST(Journal, MismatchedSpecIsRejectedOnResume) {
    const std::string path = temp_path("journal_mismatch.hpj");
    std::filesystem::remove(path);
    { (void)RunJournal::create(path, tiny_spec()); }

    CampaignSpec other = tiny_spec();
    other.add_scheduler("Static", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    CampaignOptions options;
    options.resume_path = path;
    EXPECT_THROW((void)hp::campaign::run_campaign(other, options),
                 JournalError);
}

// --- checkpoint / resume ---------------------------------------------------

CampaignSpec grid_spec() {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.01;
    CampaignSpec spec(testbed(), cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_scheduler("Static", [] {
        return std::make_unique<hp::sched::StaticScheduler>();
    });
    spec.add_workload("blackscholes-2", tiny_workload());
    spec.add_seed(1).add_seed(2).add_seed(3);
    return spec;
}

/// First @p keep journaled records of @p full_journal, as a fresh journal
/// file at @p partial — the state a campaign killed mid-grid leaves behind.
void write_partial_journal(const std::string& full_journal,
                           const std::string& partial, std::size_t keep) {
    std::ifstream in(full_journal, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    std::ofstream out(partial, std::ios::binary | std::ios::trunc);
    std::string line;
    for (std::size_t n = 0; n <= keep && std::getline(in, line); ++n)
        out << line << '\n';
}

TEST(Resume, MergedRecordsAreBitIdenticalAtAnyJobsValue) {
    const std::string full = temp_path("resume_full.hpj");
    std::filesystem::remove(full);
    CampaignOptions journal_options;
    journal_options.journal_path = full;
    const CampaignResult baseline =
        hp::campaign::run_campaign(grid_spec(), journal_options);
    ASSERT_EQ(baseline.records.size(), 6u);
    const std::string baseline_csv = csv_of(baseline.records);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const std::string partial =
            temp_path("resume_partial_" + std::to_string(jobs) + ".hpj");
        write_partial_journal(full, partial, 2);

        CampaignOptions options;
        options.resume_path = partial;
        options.jobs = jobs;
        const CampaignResult resumed =
            hp::campaign::run_campaign(grid_spec(), options);
        EXPECT_EQ(resumed.summary.resumed_runs, 2u);
        EXPECT_EQ(csv_of(resumed.records), baseline_csv);

        // The resumed execution kept journaling: its journal now replays to
        // the complete, identical record set as well.
        CampaignOptions replay;
        replay.resume_path = partial;
        const CampaignResult replayed =
            hp::campaign::run_campaign(grid_spec(), replay);
        EXPECT_EQ(replayed.summary.resumed_runs, 6u);
        EXPECT_EQ(csv_of(replayed.records), baseline_csv);
    }
}

TEST(Resume, RestoredRecordsCarryTheirObservability) {
    const std::string full = temp_path("resume_obs.hpj");
    std::filesystem::remove(full);
    CampaignOptions journal_options;
    journal_options.journal_path = full;
    journal_options.observe = true;
    const CampaignResult baseline =
        hp::campaign::run_campaign(grid_spec(), journal_options);

    const std::string partial = temp_path("resume_obs_partial.hpj");
    write_partial_journal(full, partial, 3);
    CampaignOptions options;
    options.resume_path = partial;
    options.observe = true;
    const CampaignResult resumed =
        hp::campaign::run_campaign(grid_spec(), options);

    // Restored records replay the journaled snapshots bit-exactly — the
    // full MetricsSnapshot including phase wall times survives the
    // round-trip. (Re-executed records are deterministic in everything but
    // phase wall time, which lives only in this observability surface.)
    std::size_t restored = 0;
    for (std::size_t i = 0; i < baseline.records.size(); ++i) {
        if (resumed.records[i].wall_time_s ==
                baseline.records[i].wall_time_s &&
            resumed.records[i].metrics == baseline.records[i].metrics)
            ++restored;
        EXPECT_EQ(resumed.records[i].events, baseline.records[i].events);
    }
    EXPECT_GE(restored, 3u);

    // The campaign-level roll-up counts the restoration.
    bool found = false;
    for (const auto& c : resumed.summary.metrics.counters)
        if (c.name == "campaign.resumed_runs") {
            EXPECT_EQ(c.value, 3u);
            found = true;
        }
    EXPECT_TRUE(found);
}

// --- atomic exports & JSON surface -----------------------------------------

TEST(AtomicExports, FilesMatchTheStreamWritersAndLeaveNoTemp) {
    const CampaignResult result =
        hp::campaign::run_campaign(tiny_spec(), {});
    const std::string base = temp_path("campaign_export");
    hp::campaign::write_csv_file(base + ".csv", result.records);
    hp::campaign::write_markdown_file(base + ".md", result.records);
    hp::campaign::write_json_file(base + ".json", result.records,
                                  result.summary);

    for (const char* ext : {".csv", ".md", ".json"}) {
        EXPECT_TRUE(std::filesystem::exists(base + ext)) << ext;
        EXPECT_FALSE(std::filesystem::exists(base + ext + ".tmp")) << ext;
    }
    std::ifstream csv(base + ".csv", std::ios::binary);
    const std::string on_disk((std::istreambuf_iterator<char>(csv)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(on_disk, csv_of(result.records));
}

TEST(AtomicExports, WriteFileAtomicReplacesExistingContent) {
    const std::string path = temp_path("atomic_replace.txt");
    hp::campaign::write_file_atomic(path, "first");
    hp::campaign::write_file_atomic(path, "second");
    std::ifstream in(path, std::ios::binary);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(JsonExport, CampaignMetricsDoNotCorruptPerRunExtraction) {
    CampaignOptions options;
    options.observe = true;
    const CampaignResult result =
        hp::campaign::run_campaign(grid_spec(), options);
    std::ostringstream json;
    hp::campaign::write_json(json, result.records, result.summary);
    EXPECT_NE(json.str().find("\"campaign_metrics\""), std::string::npos);
    EXPECT_NE(json.str().find("\"quarantine\""), std::string::npos);

    // metrics_from_json must return exactly the per-run snapshots, not the
    // summary-level campaign_metrics object.
    const std::vector<hp::obs::MetricsSnapshot> parsed =
        hp::campaign::metrics_from_json(json.str());
    ASSERT_EQ(parsed.size(), result.records.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed[i], result.records[i].metrics);
}

TEST(JsonExport, FailureSurfaceInCsvMarkdownAndJson) {
    CampaignSpec spec = tiny_spec();
    spec.add_scheduler("broken", []() -> std::unique_ptr<hp::sim::Scheduler> {
        throw std::invalid_argument("unusable cell");
    });
    const CampaignResult result = hp::campaign::run_campaign(spec, {});

    const std::string csv = csv_of(result.records);
    EXPECT_NE(csv.find("failure_class,attempts"), std::string::npos);
    EXPECT_NE(csv.find(",invalid_config,1"), std::string::npos);

    const std::string md = hp::campaign::to_markdown(result.records);
    EXPECT_NE(md.find("[invalid_config, attempts=1]"), std::string::npos);

    std::ostringstream json;
    hp::campaign::write_json(json, result.records, result.summary);
    EXPECT_NE(json.str().find("\"failure_class\": \"invalid_config\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"timeout_runs\": 0"), std::string::npos);
}

}  // namespace

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/options.hpp"

namespace {

using hp::cli::CliOptions;
using hp::cli::make_scheduler;
using hp::cli::parse;

std::string cli_temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CliParse, Defaults) {
    const CliOptions o = parse({});
    EXPECT_EQ(o.rows, 8u);
    EXPECT_EQ(o.cols, 8u);
    EXPECT_EQ(o.layers, 1u);
    EXPECT_EQ(o.scheduler, "hotpotato");
    EXPECT_FALSE(o.help);
}

TEST(CliParse, AllFlags) {
    const CliOptions o = parse({
        "--rows", "4", "--cols", "6", "--layers", "2",
        "--scheduler", "pcmig", "--tasks", "5", "--rate", "12.5",
        "--min-threads", "3", "--max-threads", "4", "--seed", "99",
        "--t-dtm", "75", "--ambient", "40", "--max-time", "2.5",
        "--trace", "out.csv", "--trace-interval", "0.002",
    });
    EXPECT_EQ(o.rows, 4u);
    EXPECT_EQ(o.cols, 6u);
    EXPECT_EQ(o.layers, 2u);
    EXPECT_EQ(o.scheduler, "pcmig");
    EXPECT_EQ(o.tasks, 5u);
    EXPECT_DOUBLE_EQ(o.arrivals_per_s, 12.5);
    EXPECT_EQ(o.min_threads, 3u);
    EXPECT_EQ(o.max_threads, 4u);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_DOUBLE_EQ(o.t_dtm_c, 75.0);
    EXPECT_DOUBLE_EQ(o.ambient_c, 40.0);
    EXPECT_DOUBLE_EQ(o.max_time_s, 2.5);
    EXPECT_EQ(o.trace_file, "out.csv");
    EXPECT_DOUBLE_EQ(o.trace_interval_s, 0.002);
}

TEST(CliParse, FaultFlags) {
    const CliOptions o = parse({
        "--faults", "faults.csv", "--fault-seed", "17", "--watchdog",
    });
    EXPECT_EQ(o.faults_file, "faults.csv");
    EXPECT_EQ(o.fault_seed, 17u);
    EXPECT_TRUE(o.watchdog);
    EXPECT_FALSE(parse({}).watchdog);
}

TEST(CliParse, AggregatesAllViolationsInOneError) {
    try {
        (void)parse({"--rows", "0", "--min-threads", "1", "--t-dtm", "40",
                     "--max-time", "0", "--rate", "-1"});
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("dimensions"), std::string::npos) << what;
        EXPECT_NE(what.find("thread-count"), std::string::npos) << what;
        EXPECT_NE(what.find("--t-dtm"), std::string::npos) << what;
        EXPECT_NE(what.find("--max-time"), std::string::npos) << what;
        EXPECT_NE(what.find("--rate"), std::string::npos) << what;
    }
}

TEST(CliParse, HelpFlag) {
    EXPECT_TRUE(parse({"--help"}).help);
    EXPECT_TRUE(parse({"-h"}).help);
    EXPECT_FALSE(hp::cli::usage().empty());
}

TEST(CliParse, Errors) {
    EXPECT_THROW((void)parse({"--bogus"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--rows"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--rows", "abc"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--rows", "0"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--rate", "1x"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--rows", "-1"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--jobs", "-1"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--seed", "99999999999999999999"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--min-threads", "1"}), std::invalid_argument);
    EXPECT_THROW(
        (void)parse({"--tasks-file", "a", "--benchmark", "blackscholes"}),
        std::invalid_argument);
}

TEST(CliParse, FidelityFlags) {
    const CliOptions o =
        parse({"--noc-contention", "--sensors", "--power-gating"});
    EXPECT_TRUE(o.noc_contention);
    EXPECT_TRUE(o.sensors);
    EXPECT_TRUE(o.power_gating);
    const CliOptions d = parse({});
    EXPECT_FALSE(d.noc_contention);
    EXPECT_FALSE(d.sensors);
    EXPECT_FALSE(d.power_gating);
}

TEST(CliScheduler, AllNamesResolve) {
    for (const char* name : {"hotpotato", "hotpotato-dvfs", "pcmig", "pcgov",
                             "tsp-dvfs", "static", "reactive",
                             "global-rotation"}) {
        auto sched = make_scheduler(name);
        ASSERT_NE(sched, nullptr) << name;
        EXPECT_FALSE(sched->name().empty());
    }
    EXPECT_THROW((void)make_scheduler("nope"), std::invalid_argument);
}

TEST(CliRun, SmallEndToEnd) {
    CliOptions o = parse({"--rows", "4", "--cols", "4", "--tasks", "3",
                          "--rate", "100", "--max-time", "5",
                          "--max-threads", "4"});
    std::ostringstream out;
    const int rc = hp::cli::run(o, out);
    EXPECT_EQ(rc, 0);
    const std::string report = out.str();
    EXPECT_NE(report.find("makespan"), std::string::npos);
    EXPECT_NE(report.find("HotPotato"), std::string::npos);
    EXPECT_NE(report.find("peak temperature"), std::string::npos);
}

TEST(CliRun, HomogeneousFillAndStackedMachine) {
    CliOptions o = parse({"--rows", "4", "--cols", "4", "--layers", "2",
                          "--benchmark", "canneal", "--scheduler", "pcgov",
                          "--max-time", "10"});
    std::ostringstream out;
    const int rc = hp::cli::run(o, out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("x2 layers"), std::string::npos);
    EXPECT_NE(out.str().find("32 cores"), std::string::npos);
}

TEST(CliRun, UnknownBenchmarkThrows) {
    CliOptions o = parse({"--benchmark", "doesnotexist"});
    std::ostringstream out;
    EXPECT_THROW((void)hp::cli::run(o, out), std::invalid_argument);
}

TEST(CliParse, ResilienceFlags) {
    const CliOptions o = parse({
        "--compare", "hotpotato,static", "--jobs", "2",
        "--journal", "runs.hpj", "--run-timeout", "12.5",
        "--max-retries", "3", "--retry-backoff", "0.01",
        "--csv", "out.csv", "--json", "out.json",
    });
    EXPECT_EQ(o.journal_file, "runs.hpj");
    EXPECT_DOUBLE_EQ(o.run_timeout_s, 12.5);
    EXPECT_EQ(o.max_retries, 3u);
    EXPECT_DOUBLE_EQ(o.retry_backoff_s, 0.01);
    EXPECT_EQ(o.csv_file, "out.csv");
    EXPECT_EQ(o.json_file, "out.json");
    EXPECT_EQ(parse({"--compare", "static", "--resume", "runs.hpj"})
                  .resume_file,
              "runs.hpj");
    // Defaults: no journal, no watchdog, no retry.
    const CliOptions d = parse({});
    EXPECT_TRUE(d.journal_file.empty());
    EXPECT_TRUE(d.resume_file.empty());
    EXPECT_DOUBLE_EQ(d.run_timeout_s, 0.0);
    EXPECT_EQ(d.max_retries, 0u);
}

TEST(CliParse, ResilienceFlagsRequireCampaignMode) {
    // Each resilience/export flag is meaningless without --compare, and the
    // aggregated error says so for every offender at once.
    try {
        (void)parse({"--journal", "a", "--run-timeout", "1", "--max-retries",
                     "2", "--csv", "b", "--json", "c"});
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        for (const char* flag :
             {"--journal", "--run-timeout", "--max-retries", "--csv",
              "--json"})
            EXPECT_NE(what.find(std::string(flag) +
                                " requires --compare (campaign mode)"),
                      std::string::npos)
                << flag << " missing in: " << what;
    }
    EXPECT_THROW((void)parse({"--resume", "a"}), std::invalid_argument);
}

TEST(CliParse, ResilienceFlagValidation) {
    EXPECT_THROW((void)parse({"--compare", "static", "--journal", "a",
                              "--resume", "b"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--compare", "static", "--run-timeout", "-1"}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)parse({"--compare", "static", "--retry-backoff", "0"}),
        std::invalid_argument);
    // Usage documents the whole resilience surface and the exit codes.
    const std::string usage = hp::cli::usage();
    for (const char* needle :
         {"--journal", "--resume", "--run-timeout", "--max-retries",
          "--retry-backoff", "--csv", "--json", "exit codes"})
        EXPECT_NE(usage.find(needle), std::string::npos) << needle;
}

// The exit-code contract (ExitCode in options.hpp): scripts rely on these
// exact values, so each is pinned through the real entry point run_cli().

TEST(CliExitCodes, HelpAndSuccessReturnOk) {
    std::ostringstream out, err;
    EXPECT_EQ(hp::cli::run_cli({"--help"}, out, err), hp::cli::kExitOk);
    EXPECT_NE(out.str().find("--journal"), std::string::npos);
    EXPECT_TRUE(err.str().empty());

    std::ostringstream out2, err2;
    EXPECT_EQ(hp::cli::run_cli({"--rows", "4", "--cols", "4", "--tasks", "3",
                                "--rate", "100", "--max-time", "5",
                                "--max-threads", "4"},
                               out2, err2),
              hp::cli::kExitOk);
}

TEST(CliExitCodes, ConfigErrorsReturnTwo) {
    std::ostringstream out, err;
    EXPECT_EQ(hp::cli::run_cli({"--bogus"}, out, err),
              hp::cli::kExitConfigError);
    EXPECT_NE(err.str().find("--bogus"), std::string::npos);
    EXPECT_NE(err.str().find("hotpotato_sim"), std::string::npos)
        << "usage text should follow a flag error";

    std::ostringstream out2, err2;
    EXPECT_EQ(hp::cli::run_cli({"--benchmark", "doesnotexist"}, out2, err2),
              hp::cli::kExitConfigError);
}

TEST(CliExitCodes, NegativeCountsReturnTwo) {
    // "-1" once wrapped to 2^64 - 1: --rows died later in vector::reserve,
    // --jobs silently asked for 2^64 - 1 workers.
    for (const std::string flag : {"--rows", "--jobs"}) {
        std::ostringstream out, err;
        EXPECT_EQ(hp::cli::run_cli({flag, "-1"}, out, err),
                  hp::cli::kExitConfigError);
        EXPECT_NE(err.str().find("bad value for " + flag + ": -1"),
                  std::string::npos)
            << err.str();
    }
}

TEST(CliExitCodes, UnfinishedRunReturnsOne) {
    // A time budget far too small for the workload: the run completes but
    // tasks do not finish — a partial result, distinct from a config error.
    std::ostringstream out, err;
    EXPECT_EQ(hp::cli::run_cli({"--rows", "4", "--cols", "4", "--tasks", "3",
                                "--rate", "100", "--max-time", "0.002",
                                "--max-threads", "4"},
                               out, err),
              hp::cli::kExitRunFailure);
}

TEST(CliExitCodes, CorruptResumeJournalReturnsThree) {
    const std::string path = cli_temp_path("cli_corrupt.hpj");
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "this is not a journal\n";
    }
    std::ostringstream out, err;
    EXPECT_EQ(hp::cli::run_cli({"--rows", "4", "--cols", "4", "--compare",
                                "hotpotato", "--resume", path},
                               out, err),
              hp::cli::kExitJournalError);
    EXPECT_FALSE(err.str().empty());
}

TEST(CliRun, CampaignJournalResumeAndAtomicExports) {
    const std::string journal = cli_temp_path("cli_campaign.hpj");
    const std::string csv = cli_temp_path("cli_campaign.csv");
    const std::string json = cli_temp_path("cli_campaign.json");
    std::filesystem::remove(journal);
    const std::vector<std::string> base = {
        "--rows", "4", "--cols", "4", "--tasks", "3", "--rate", "100",
        "--max-time", "5", "--max-threads", "4",
        "--compare", "hotpotato,static", "--jobs", "2",
        "--csv", csv, "--json", json,
    };

    std::vector<std::string> first = base;
    first.insert(first.end(), {"--journal", journal});
    std::ostringstream out, err;
    ASSERT_EQ(hp::cli::run_cli(first, out, err), hp::cli::kExitOk)
        << err.str();
    EXPECT_NE(out.str().find("hotpotato"), std::string::npos);
    for (const std::string& f : {csv, json}) {
        EXPECT_TRUE(std::filesystem::exists(f)) << f;
        EXPECT_FALSE(std::filesystem::exists(f + ".tmp")) << f;
    }
    std::ifstream csv_in(csv, std::ios::binary);
    const std::string first_csv((std::istreambuf_iterator<char>(csv_in)),
                                std::istreambuf_iterator<char>());
    EXPECT_NE(first_csv.find("failure_class,attempts"), std::string::npos);

    // Resuming from the completed journal re-runs nothing and reproduces
    // the exact CSV.
    std::vector<std::string> second = base;
    second.insert(second.end(), {"--resume", journal});
    std::ostringstream out2, err2;
    ASSERT_EQ(hp::cli::run_cli(second, out2, err2), hp::cli::kExitOk)
        << err2.str();
    EXPECT_NE(out2.str().find("resume: 2 runs restored from journal"),
              std::string::npos)
        << out2.str();
    std::ifstream csv_in2(csv, std::ios::binary);
    const std::string second_csv((std::istreambuf_iterator<char>(csv_in2)),
                                 std::istreambuf_iterator<char>());
    EXPECT_EQ(first_csv, second_csv);
}

}  // namespace

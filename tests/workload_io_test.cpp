#include <sstream>

#include <gtest/gtest.h>

#include "decode_error.hpp"
#include "workload/workload_io.hpp"

namespace {

using hp::workload::BenchmarkProfile;
using hp::workload::read_profiles;
using hp::workload::read_tasks;
using hp::workload::TaskSpec;
using hp::workload::write_profiles;
using hp::workload::write_tasks;

constexpr const char* kProfileText = R"(
# a synthetic hot loop
benchmark hotloop
threads 4
phase warmup 10 0 0.6 1.5 4.0
phase loop 200 200 0.5 0.3 6.0
end

benchmark cooldown
threads 2
phase drain 50 50 1.2 10 1.8
end
)";

TEST(WorkloadIo, ParsesProfiles) {
    std::istringstream in(kProfileText);
    const auto profiles = read_profiles(in);
    ASSERT_EQ(profiles.size(), 2u);
    EXPECT_EQ(profiles[0].name, "hotloop");
    EXPECT_EQ(profiles[0].default_threads, 4u);
    ASSERT_EQ(profiles[0].phases.size(), 2u);
    EXPECT_DOUBLE_EQ(profiles[0].phases[0].master_instructions, 10e6);
    EXPECT_DOUBLE_EQ(profiles[0].phases[1].worker_instructions, 200e6);
    EXPECT_DOUBLE_EQ(profiles[0].phases[1].perf.nominal_power_w, 6.0);
    EXPECT_EQ(profiles[1].name, "cooldown");
    EXPECT_DOUBLE_EQ(profiles[1].phases[0].perf.llc_apki, 10.0);
}

TEST(WorkloadIo, ProfilesRoundTrip) {
    std::istringstream in(kProfileText);
    const auto profiles = read_profiles(in);
    std::ostringstream out;
    write_profiles(out, profiles);
    std::istringstream back(out.str());
    const auto again = read_profiles(back);
    ASSERT_EQ(again.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        EXPECT_EQ(again[i].name, profiles[i].name);
        ASSERT_EQ(again[i].phases.size(), profiles[i].phases.size());
        for (std::size_t p = 0; p < profiles[i].phases.size(); ++p) {
            EXPECT_DOUBLE_EQ(again[i].phases[p].master_instructions,
                             profiles[i].phases[p].master_instructions);
            EXPECT_DOUBLE_EQ(again[i].phases[p].perf.base_cpi,
                             profiles[i].phases[p].perf.base_cpi);
        }
    }
}

TEST(WorkloadIo, ProfileErrorsCarryLineNumbers) {
    const auto expect_error = [](const char* text, const char* fragment) {
        std::istringstream in(text);
        try {
            (void)read_profiles(in);
            FAIL() << "expected parse error for: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
                << e.what();
        }
    };
    expect_error("phase x 1 1 1 1 1\n", "outside benchmark");
    expect_error("benchmark a\nbenchmark b\n", "nested");
    expect_error("benchmark a\nend\n", "no phases");
    expect_error("benchmark a\nphase p 1 1 1 1 1\n", "unterminated");
    expect_error("bogus\n", "unknown directive");
    expect_error("benchmark a\nphase p 1 1 0 1 1\nend\n", "out of range");
    expect_error("benchmark a\nphase p 1 1\nend\n", "'phase' needs");
}

TEST(WorkloadIo, ErrorsNameSourceAndLine) {
    // The diagnostic carries the caller-supplied source label and the
    // 1-based line number of the offending row.
    std::istringstream pin("benchmark a\nphase p 1 1 zzz 1 1\nend\n");
    try {
        (void)read_profiles(pin, "profiles.txt");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("workload_io: profiles.txt:2:"),
                  std::string::npos)
            << e.what();
    }
    std::istringstream tin("task blackscholes 2 0\ntask blackscholes 2 oops\n");
    try {
        (void)read_tasks(tin, {}, "tasks.txt");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("workload_io: tasks.txt:2:"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkloadIo, ParsesTasksAgainstCustomAndBuiltins) {
    std::istringstream pin(kProfileText);
    const auto profiles = read_profiles(pin);
    std::istringstream in(
        "task hotloop 4 0.0\n"
        "task blackscholes 2 0.5  # built-in PARSEC profile\n");
    const auto tasks = read_tasks(in, profiles);
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[0].profile, &profiles[0]);
    EXPECT_EQ(tasks[1].profile->name, "blackscholes");
    EXPECT_DOUBLE_EQ(tasks[1].arrival_s, 0.5);
}

TEST(WorkloadIo, TaskErrors) {
    const auto expect_error = [](const char* text, const char* fragment) {
        std::istringstream in(text);
        try {
            (void)read_tasks(in, {});
            FAIL() << "expected parse error for: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
                << e.what();
        }
    };
    expect_error("task nosuchthing 2 0\n", "unknown benchmark");
    expect_error("job blackscholes 2 0\n", "expected 'task");
    expect_error("task blackscholes 0 0\n", "out of range");
    expect_error("task blackscholes 2 -1\n", "out of range");
    expect_error("task blackscholes\n", "'task' needs");
}

TEST(WorkloadIo, TasksRoundTrip) {
    std::istringstream in(
        "task blackscholes 2 0\ntask canneal 4 0.125\ntask dedup 8 1.5\n");
    const auto tasks = read_tasks(in, {});
    std::ostringstream out;
    write_tasks(out, tasks);
    std::istringstream back(out.str());
    const auto again = read_tasks(back, {});
    ASSERT_EQ(again.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(again[i].profile, tasks[i].profile);
        EXPECT_EQ(again[i].thread_count, tasks[i].thread_count);
        EXPECT_DOUBLE_EQ(again[i].arrival_s, tasks[i].arrival_s);
    }
}

// Malformed counts and numbers: each once decoded silently (a wrapped
// negative, a prefix parse, a defaulted field, an ignored trailing field).
std::vector<BenchmarkProfile> profiles_of(const std::string& text) {
    std::istringstream in(text);
    return read_profiles(in, "profiles.txt");
}

std::vector<TaskSpec> tasks_of(const std::string& text) {
    std::istringstream in(text);
    return read_tasks(in, {}, "tasks.txt");
}

TEST(WorkloadIo, NegativeTaskThreadsAreRejected) {
    expect_decode_error([] { tasks_of("task blackscholes -3 0.5\n"); },
                        "workload_io: tasks.txt:1:");
}

TEST(WorkloadIo, ThreadsWithTrailingTextAreRejected) {
    expect_decode_error(
        [] {
            profiles_of("benchmark a\nthreads 4x\nphase p 1 1 1 1 1\nend\n");
        },
        "workload_io: profiles.txt:2:");
}

TEST(WorkloadIo, NonNumericMissRatioIsRejected) {
    expect_decode_error(
        [] { profiles_of("benchmark a\nphase p 1 1 1 1 1 abc\nend\n"); },
        "workload_io: profiles.txt:2:");
}

TEST(WorkloadIo, TrailingTaskFieldIsRejected) {
    expect_decode_error([] { tasks_of("task blackscholes 4 0.5 junk\n"); },
                        "workload_io: tasks.txt:1:");
}

TEST(WorkloadIo, CrlfProfilesDecodeLikeLf) {
    std::string crlf;
    for (const char* c = kProfileText; *c; ++c) {
        if (*c == '\n') crlf += '\r';
        crlf += *c;
    }
    std::ostringstream lf_out, crlf_out;
    write_profiles(lf_out, profiles_of(kProfileText));
    write_profiles(crlf_out, profiles_of(crlf));
    EXPECT_EQ(crlf_out.str(), lf_out.str());
}

TEST(WorkloadIo, CrlfTasksDecodeLikeLf) {
    const auto tasks =
        tasks_of("task blackscholes 2 0.25\r\n\r\ntask canneal 4 1e-3\r\n");
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[1].profile->name, "canneal");
    EXPECT_EQ(tasks[1].thread_count, 4u);
    EXPECT_EQ(tasks[1].arrival_s, 1e-3);
}

TEST(WorkloadIo, PoissonMixRoundTripsExactly) {
    const auto tasks = hp::workload::poisson_mix(20, 200.0, 2, 8, 7);
    std::ostringstream out;
    write_tasks(out, tasks);
    const auto again = tasks_of(out.str());
    ASSERT_EQ(again.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(again[i].profile, tasks[i].profile);
        EXPECT_EQ(again[i].thread_count, tasks[i].thread_count);
        EXPECT_EQ(again[i].arrival_s, tasks[i].arrival_s) << "task " << i;
    }
}

TEST(WorkloadIo, MissingFileThrows) {
    EXPECT_THROW((void)hp::workload::read_profiles_file("/nonexistent/x"),
                 std::runtime_error);
    EXPECT_THROW((void)hp::workload::read_tasks_file("/nonexistent/x", {}),
                 std::runtime_error);
}

}  // namespace

// Edge-case coverage across modules that the focused suites do not reach:
// trace file I/O, file-driven CLI workflows, odd chip shapes, boundary
// behaviour of small utilities.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "cli/options.hpp"
#include "core/hotpotato.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "workload/benchmark.hpp"

namespace {

TEST(TraceIo, EmptyTraceWritesNothing) {
    std::ostringstream out;
    hp::sim::write_trace_csv(out, {});
    EXPECT_TRUE(out.str().empty());
}

TEST(TraceIo, UnwritablePathThrows) {
    hp::sim::TraceSample s;
    s.core_temperature_c = {45.0};
    s.core_power_w = {0.3};
    s.core_frequency_hz = {4e9};
    EXPECT_THROW(
        hp::sim::write_trace_csv("/nonexistent-dir/trace.csv", {s}),
        std::runtime_error);
}

TEST(TraceIo, RoundTrips) {
    hp::sim::TraceSample a;
    a.time_s = 0.25;
    a.max_core_temperature_c = 61.5;
    a.core_temperature_c = {60.0, 61.5};
    a.core_power_w = {1.25, 0.5};
    a.core_frequency_hz = {4e9, 1e9};
    hp::sim::TraceSample b = a;
    b.time_s = 0.5;
    std::stringstream buffer;
    hp::sim::write_trace_csv(buffer, {a, b});
    const auto back = hp::sim::read_trace_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_DOUBLE_EQ(back[0].time_s, 0.25);
    EXPECT_DOUBLE_EQ(back[1].time_s, 0.5);
    ASSERT_EQ(back[0].core_temperature_c.size(), 2u);
    EXPECT_DOUBLE_EQ(back[0].core_temperature_c[1], 61.5);
    EXPECT_DOUBLE_EQ(back[0].core_power_w[0], 1.25);
    EXPECT_DOUBLE_EQ(back[1].core_frequency_hz[1], 1e9);
}

TEST(TraceIo, MalformedRowsCarrySourceAndLine) {
    const auto expect_error = [](const std::string& text,
                                 const char* fragment) {
        std::istringstream in(text);
        try {
            (void)hp::sim::read_trace_csv(in, "trace.csv");
            FAIL() << "expected parse error for: " << text;
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("trace.csv:"), std::string::npos) << what;
            EXPECT_NE(what.find(fragment), std::string::npos) << what;
        }
    };
    const std::string header = "time_s,max_temp_c,temp_c0,power_c0,freq_c0\n";
    expect_error("bogus,header\n", "expected header");
    expect_error("time_s,max_temp_c\n", "header must be");
    expect_error(header + "0,61.5,60\n", "expected 5 fields");
    expect_error(header + "0,oops,60,1,4e9\n", "bad number");
}

TEST(TraceIo, CrlfDecodesLikeLf) {
    const std::string lf =
        "time_s,max_temp_c,temp_c0,power_c0,freq_c0\n"
        "0.25,61.5,61.5,1.25,4000000000\n0.5,60,60,0.5,1e9\n";
    std::string crlf;
    for (char c : lf) {
        if (c == '\n') crlf += '\r';
        crlf += c;
    }
    std::istringstream lf_in(lf), crlf_in(crlf);
    const auto from_crlf = hp::sim::read_trace_csv(crlf_in, "crlf.csv");
    ASSERT_EQ(from_crlf.size(), 2u);
    std::ostringstream lf_out, crlf_out;
    hp::sim::write_trace_csv(lf_out, hp::sim::read_trace_csv(lf_in));
    hp::sim::write_trace_csv(crlf_out, from_crlf);
    EXPECT_EQ(crlf_out.str(), lf_out.str());
}

TEST(TraceIo, EmptyStreamReadsAsEmptyTrace) {
    std::istringstream in("");
    EXPECT_TRUE(hp::sim::read_trace_csv(in).empty());
    EXPECT_THROW(hp::sim::read_trace_csv_file("/nonexistent/trace.csv"),
                 std::runtime_error);
}

TEST(CliFiles, ProfilesAndTasksFilesDriveARun) {
    const std::string profiles_path = "/tmp/hp_test_profiles.txt";
    const std::string tasks_path = "/tmp/hp_test_tasks.txt";
    {
        std::ofstream p(profiles_path);
        p << "benchmark warmloop\nthreads 2\n"
             "phase loop 60 60 0.6 1.0 3.0 0.02\nend\n";
        std::ofstream t(tasks_path);
        t << "task warmloop 2 0.0\n"
             "task blackscholes 2 0.01\n";
    }
    hp::cli::CliOptions o = hp::cli::parse(
        {"--rows", "4", "--cols", "4", "--profiles-file", profiles_path,
         "--tasks-file", tasks_path, "--max-time", "5"});
    std::ostringstream out;
    const int rc = hp::cli::run(o, out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("tasks finished     : 2/2"), std::string::npos);
    std::remove(profiles_path.c_str());
    std::remove(tasks_path.c_str());
}

TEST(ThreeLayers, MiddleLayerHasDistinctAmd) {
    hp::arch::SnucaParams params;
    params.layers = 3;
    const hp::arch::ManyCore chip(3, 3, params);
    EXPECT_EQ(chip.core_count(), 27u);
    // Middle-layer centre has lower average layer distance than outer-layer
    // centre, hence strictly lower AMD.
    const std::size_t mid = chip.plan().index_of(1, 1, 1);
    const std::size_t top = chip.plan().index_of(1, 1, 2);
    EXPECT_LT(chip.amd(mid), chip.amd(top));
    EXPECT_NE(chip.ring_of(mid), chip.ring_of(top));
}

TEST(ThreeLayers, ThermalModelAndHotPotatoWork) {
    hp::arch::SnucaParams params;
    params.layers = 3;
    const hp::arch::ManyCore chip(2, 2, params);  // 12 cores
    hp::thermal::ThermalModel model(chip.plan(), hp::thermal::RcNetworkConfig{});
    hp::thermal::MatExSolver solver(model);
    EXPECT_EQ(model.node_count(), 12u + 4u + 1u);

    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 5.0;
    hp::sim::Simulator sim(chip, model, solver, cfg);
    // The 2x2x3 stack crams 12 cores onto a 4-tile cooling footprint, so
    // only a cool workload is sustainable at peak frequency at all.
    sim.add_task({&hp::workload::profile_by_name("canneal"), 4, 0.0});
    hp::core::HotPotatoScheduler sched;
    const auto r = sim.run(sched);
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.dtm_triggers, 0u);
}

TEST(Dvfs, VoltageInterpolatesMidRange) {
    hp::arch::DvfsParams d;  // 0.6 V @ 1 GHz ... 1.2 V @ 4 GHz
    EXPECT_NEAR(d.voltage_for(2.5e9), 0.9, 1e-12);
}

TEST(SimResultUtils, ZeroTimeAveragePower) {
    hp::sim::SimResult r;
    r.total_energy_j = 5.0;
    r.simulated_time_s = 0.0;
    EXPECT_DOUBLE_EQ(r.average_power_w(), 0.0);
}

TEST(NonSquareChips, RingsAndSimulationWork) {
    const hp::arch::ManyCore chip(2, 8);  // 16 cores, elongated
    std::size_t total = 0;
    for (const auto& ring : chip.rings()) total += ring.cores.size();
    EXPECT_EQ(total, 16u);

    hp::thermal::ThermalModel model(chip.plan(), hp::thermal::RcNetworkConfig{});
    hp::thermal::MatExSolver solver(model);
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 5.0;
    hp::sim::Simulator sim(chip, model, solver, cfg);
    sim.add_task({&hp::workload::profile_by_name("x264"), 4, 0.0});
    hp::core::HotPotatoScheduler sched;
    const auto r = sim.run(sched);
    EXPECT_TRUE(r.all_finished);
}

TEST(ThermalModelApi, AmbientEquilibriumIsUniform) {
    // The unpowered steady state — the simulator's initial temperatures —
    // puts every node at ambient, in both backends.
    const hp::arch::ManyCore chip = hp::arch::ManyCore::paper_16core();
    hp::thermal::ThermalModel model(chip.plan(), hp::thermal::RcNetworkConfig{});
    for (const auto& config : {hp::thermal::SolverConfig::dense(),
                               hp::thermal::SolverConfig::modal()}) {
        const auto solver = hp::thermal::make_solver(model, config);
        const auto t =
            solver->steady_state(hp::linalg::Vector(model.node_count()), 52.5);
        for (std::size_t i = 0; i < model.node_count(); ++i)
            EXPECT_NEAR(t[i], 52.5, 1e-8) << solver->backend_name();
    }
}

}  // namespace

// Tests for post-reproduction extensions: per-ring rotation intervals and
// response-time percentile statistics.

#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "sim/types.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "peak_queries.hpp"

namespace {

using hp::arch::ManyCore;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::RotationRingSpec;

constexpr double kIdle = 0.3;

struct Fixture {
    ManyCore chip = ManyCore::paper_16core();
    hp::thermal::ThermalModel model{chip.plan(), hp::thermal::RcNetworkConfig{}};
    hp::thermal::MatExSolver solver{model};
    PeakTemperatureAnalyzer analyzer{solver, 45.0, kIdle};
    hp::core::PeakWorkspace ws;

    std::vector<RotationRingSpec> two_rings() const {
        RotationRingSpec inner{chip.rings()[0].cores, {}};
        inner.slot_power_w.assign(4, kIdle);
        inner.slot_power_w[0] = 6.0;
        inner.slot_power_w[1] = 6.0;
        RotationRingSpec middle{chip.rings()[1].cores, {}};
        middle.slot_power_w.assign(chip.rings()[1].cores.size(), kIdle);
        middle.slot_power_w[0] = 5.0;
        return {inner, middle};
    }
};

TEST(PerRingTau, UniformOverloadMatchesScalarOverload) {
    Fixture f;
    const auto rings = f.two_rings();
    const double scalar =
        hp::test::rotation_peak(f.analyzer, rings, 0.5e-3, 4, f.ws);
    const double vectored =
        f.analyzer.rotation_peak(rings, {0.5e-3, 0.5e-3}, 4, f.ws);
    EXPECT_EQ(scalar, vectored);  // one ring loop serves both forms
}

TEST(PerRingTau, SlowOuterRingBarelyHurts) {
    // Slowing only the (thermally unconstrained) middle ring costs far less
    // peak temperature than slowing the hot inner ring.
    Fixture f;
    const auto rings = f.two_rings();
    const double base =
        f.analyzer.rotation_peak(rings, {0.5e-3, 0.5e-3}, 4, f.ws);
    const double slow_outer =
        f.analyzer.rotation_peak(rings, {0.5e-3, 8e-3}, 4, f.ws);
    const double slow_inner =
        f.analyzer.rotation_peak(rings, {8e-3, 0.5e-3}, 4, f.ws);
    EXPECT_GT(slow_inner - base, 4.0 * (slow_outer - base));
    EXPECT_GE(slow_outer, base - 1e-9);
}

TEST(PerRingTau, SizeMismatchThrows) {
    Fixture f;
    EXPECT_THROW((void)f.analyzer.rotation_peak(
                     f.two_rings(), std::vector<double>{0.5e-3}, 4, f.ws),
                 std::invalid_argument);
}

// ---------------------------------------------------------- percentiles ---

hp::sim::SimResult fake_result(std::initializer_list<double> responses) {
    hp::sim::SimResult r;
    std::size_t id = 0;
    for (double resp : responses) {
        hp::sim::TaskResult t;
        t.id = id++;
        t.arrival_s = 0.0;
        t.finish_s = resp;
        r.tasks.push_back(t);
    }
    return r;
}

TEST(Percentiles, NearestRankSemantics) {
    const auto r = fake_result({0.1, 0.2, 0.3, 0.4, 0.5});
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(0.0), 0.1);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(20.0), 0.1);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(50.0), 0.3);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(90.0), 0.5);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(100.0), 0.5);
}

TEST(Percentiles, UnsortedInputHandled) {
    const auto r = fake_result({0.5, 0.1, 0.3});
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(50.0), 0.3);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(100.0), 0.5);
}

TEST(Percentiles, EdgeCases) {
    const hp::sim::SimResult empty;
    EXPECT_DOUBLE_EQ(empty.response_time_percentile_s(50.0), 0.0);
    const auto r = fake_result({0.2});
    EXPECT_THROW((void)r.response_time_percentile_s(-1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)r.response_time_percentile_s(101.0),
                 std::invalid_argument);
}

}  // namespace

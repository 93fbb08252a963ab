#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "core/rotation_planner.hpp"
#include "perf/interval_model.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"

namespace {

using hp::arch::ManyCore;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::RotationPlan;
using hp::core::RotationPlanner;
using hp::core::ThreadEstimate;

constexpr double kDtm = 70.0;

struct Fixture {
    ManyCore chip = ManyCore::paper_16core();
    hp::thermal::ThermalModel model{chip.plan(), hp::thermal::RcNetworkConfig{}};
    hp::thermal::MatExSolver solver{model};
    hp::perf::IntervalPerformanceModel perf{chip};
    PeakTemperatureAnalyzer analyzer{solver, 45.0, 0.3};
    RotationPlanner planner{chip, perf, analyzer};
};

ThreadEstimate hot(double watts = 6.0) {
    return ThreadEstimate{watts, {.base_cpi = 0.5, .llc_apki = 0.5,
                                  .nominal_power_w = watts}};
}

ThreadEstimate cool() {
    return ThreadEstimate{1.8, {.base_cpi = 1.0, .llc_apki = 12.0,
                                .nominal_power_w = 1.6,
                                .llc_miss_ratio = 0.08}};
}

TEST(Planner, CoolThreadsLandInInnerRingWithoutRotation) {
    Fixture f;
    const RotationPlan plan = f.planner.plan_greedy({cool(), cool()}, kDtm);
    EXPECT_TRUE(plan.thermally_safe);
    EXPECT_FALSE(plan.rotation_on);  // no heat, no rotations (lines 23-27)
    EXPECT_EQ(plan.ring_of_thread[0], 0u);
    EXPECT_EQ(plan.ring_of_thread[1], 0u);
}

TEST(Planner, HotThreadsKeepRotationOn) {
    Fixture f;
    const RotationPlan plan = f.planner.plan_greedy({hot(), hot()}, kDtm);
    EXPECT_TRUE(plan.thermally_safe);
    EXPECT_TRUE(plan.rotation_on);
    EXPECT_LT(plan.predicted_peak_c, kDtm);
}

TEST(Planner, OverCapacityThrows) {
    Fixture f;
    std::vector<ThreadEstimate> too_many(17, cool());
    EXPECT_THROW((void)f.planner.plan_greedy(too_many, kDtm),
                 std::invalid_argument);
}

TEST(Planner, ExhaustiveGuardsInstanceSize) {
    Fixture f;
    std::vector<ThreadEstimate> many(11, cool());
    EXPECT_THROW((void)f.planner.plan_exhaustive(many, kDtm),
                 std::invalid_argument);
}

TEST(Planner, ExhaustiveNeverWorseThanGreedy) {
    Fixture f;
    for (const auto& threads :
         {std::vector<ThreadEstimate>{hot(), hot()},
          std::vector<ThreadEstimate>{hot(), cool(), cool()},
          std::vector<ThreadEstimate>{hot(6.5), hot(5.0), cool(), cool()}}) {
        const RotationPlan greedy = f.planner.plan_greedy(threads, kDtm);
        const RotationPlan optimal = f.planner.plan_exhaustive(threads, kDtm);
        ASSERT_TRUE(optimal.thermally_safe);
        EXPECT_TRUE(greedy.thermally_safe);
        EXPECT_GE(optimal.throughput_score,
                  greedy.throughput_score * (1.0 - 1e-9));
    }
}

TEST(Planner, GreedyNearOptimalOnSmallInstances) {
    // The paper's claim: the heuristic finds a near-optimal solution.
    Fixture f;
    const std::vector<ThreadEstimate> threads = {hot(6.2), hot(5.5), cool(),
                                                 cool(), hot(4.5)};
    const RotationPlan greedy = f.planner.plan_greedy(threads, kDtm);
    const RotationPlan optimal = f.planner.plan_exhaustive(threads, kDtm);
    ASSERT_TRUE(greedy.thermally_safe);
    // Within 15% of the exhaustive optimum (bench_ablation_optimality
    // reports the exact gap distribution).
    EXPECT_GE(greedy.throughput_score, 0.85 * optimal.throughput_score);
}

TEST(Planner, ScoresPreferInnerRings) {
    Fixture f;
    const std::vector<ThreadEstimate> one = {cool()};
    const double inner = f.planner.throughput_score(one, {0}, false, 0.5e-3);
    const double outer = f.planner.throughput_score(one, {2}, false, 0.5e-3);
    EXPECT_GT(inner, outer);  // memory-bound thread is faster at low AMD
}

TEST(Planner, FasterRotationCostsThroughput) {
    Fixture f;
    const std::vector<ThreadEstimate> one = {hot()};
    const double slow = f.planner.throughput_score(one, {0}, true, 4e-3);
    const double fast = f.planner.throughput_score(one, {0}, true, 0.125e-3);
    EXPECT_GT(slow, fast);
}

TEST(Planner, PredictedPeakMonotoneInPower) {
    Fixture f;
    hp::core::PeakWorkspace ws;
    const double low =
        f.planner.predicted_peak_c({hot(3.0)}, {0}, true, 0.5e-3, ws);
    const double high =
        f.planner.predicted_peak_c({hot(6.0)}, {0}, true, 0.5e-3, ws);
    EXPECT_GT(high, low);
}

}  // namespace

#include <algorithm>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "sched/tsp.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace {

using hp::arch::ManyCore;
using hp::sched::TspBudget;
using hp::thermal::RcNetworkConfig;
using hp::thermal::SolverConfig;
using hp::thermal::ThermalModel;
using hp::thermal::TransientSolver;

constexpr double kAmbient = 45.0;
constexpr double kDtm = 70.0;
constexpr double kIdle = 0.3;

struct Fixture {
    explicit Fixture(const SolverConfig& config = {})
        : solver(hp::thermal::make_solver(model, config)), tsp(*solver) {}

    ManyCore chip = ManyCore::paper_16core();
    ThermalModel model{chip.plan(), RcNetworkConfig{}};
    std::unique_ptr<const TransientSolver> solver;
    TspBudget tsp;
};

std::vector<bool> mask16(std::initializer_list<std::size_t> cores) {
    std::vector<bool> m(16, false);
    for (std::size_t c : cores) m[c] = true;
    return m;
}

TEST(Tsp, BudgetIsExactAtThreshold) {
    // Defining property: active cores at exactly the budget put the hottest
    // steady-state core exactly at T_DTM — through either backend's solve.
    for (const SolverConfig& config :
         {SolverConfig::dense(), SolverConfig::modal()}) {
        const Fixture f(config);
        for (auto mask : {mask16({5, 10}), mask16({0, 3, 12, 15}),
                          mask16({5, 6, 9, 10}), mask16({1})}) {
            const double budget =
                f.tsp.per_core_budget(mask, kIdle, kAmbient, kDtm);
            const double peak =
                f.tsp.steady_peak(mask, budget, kIdle, kAmbient);
            EXPECT_NEAR(peak, kDtm, 1e-6) << f.solver->backend_name();
        }
    }
}

TEST(Tsp, BudgetAboveIdle) {
    Fixture f;
    const double budget =
        f.tsp.per_core_budget(mask16({5}), kIdle, kAmbient, kDtm);
    EXPECT_GT(budget, kIdle);
}

TEST(Tsp, MoreActiveCoresMeansLowerBudget) {
    Fixture f;
    const double two = f.tsp.per_core_budget(mask16({5, 10}), kIdle, kAmbient, kDtm);
    const double four =
        f.tsp.per_core_budget(mask16({5, 6, 9, 10}), kIdle, kAmbient, kDtm);
    std::vector<bool> all(16, true);
    const double sixteen = f.tsp.per_core_budget(all, kIdle, kAmbient, kDtm);
    EXPECT_GT(two, four);
    EXPECT_GT(four, sixteen);
}

TEST(Tsp, CornerMappingGetsBiggerBudgetThanCentre) {
    // Corner cores couple to fewer neighbours and sit at higher AMD — the
    // thermally "unconstrained" positions of the paper's ring picture.
    Fixture f;
    const double centre =
        f.tsp.per_core_budget(mask16({5, 6, 9, 10}), kIdle, kAmbient, kDtm);
    const double corners =
        f.tsp.per_core_budget(mask16({0, 3, 12, 15}), kIdle, kAmbient, kDtm);
    EXPECT_GT(corners, centre);
}

TEST(Tsp, NoActiveCoresReturnsIdle) {
    Fixture f;
    EXPECT_DOUBLE_EQ(
        f.tsp.per_core_budget(std::vector<bool>(16, false), kIdle, kAmbient, kDtm),
        kIdle);
}

TEST(Tsp, HigherThresholdMeansBiggerBudget) {
    Fixture f;
    const auto mask = mask16({5, 10});
    EXPECT_GT(f.tsp.per_core_budget(mask, kIdle, kAmbient, 80.0),
              f.tsp.per_core_budget(mask, kIdle, kAmbient, 70.0));
}

TEST(Tsp, MaskSizeMismatchThrows) {
    Fixture f;
    EXPECT_THROW((void)f.tsp.per_core_budget(std::vector<bool>(8, true), kIdle,
                                             kAmbient, kDtm),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)f.tsp.steady_peak(std::vector<bool>(8, true), 1.0, kIdle, kAmbient),
        std::invalid_argument);
}

TEST(Tsp, BudgetScalesWithAmbient) {
    Fixture f;
    const auto mask = mask16({5, 10});
    EXPECT_GT(f.tsp.per_core_budget(mask, kIdle, 35.0, kDtm),
              f.tsp.per_core_budget(mask, kIdle, 45.0, kDtm));
}

/// The budget as it was computed before the governor: allocating steady
/// and conductance solves of pad_power'ed vectors.
double allocating_budget(const TransientSolver& solver,
                         const std::vector<bool>& active) {
    const ThermalModel& model = solver.model();
    const std::size_t n = model.core_count();
    const hp::linalg::Vector t_idle = solver.steady_state(
        model.pad_power(hp::linalg::Vector(n, kIdle)), kAmbient);
    hp::linalg::Vector mask(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
            mask[i] = 1.0;
            any = true;
        }
    }
    if (!any) return kIdle;
    const hp::linalg::Vector s =
        solver.conductance_solve(model.pad_power(mask));
    double x = 1e300;
    for (std::size_t i = 0; i < n; ++i) {
        if (s[i] <= 1e-12) continue;
        x = std::min(x, (kDtm - t_idle[i]) / s[i]);
    }
    return kIdle + std::max(x, 0.0);
}

TEST(Tsp, BudgetKeepsTheAllocatingFormulasBits) {
    for (const SolverConfig& config :
         {SolverConfig::dense(), SolverConfig::modal()}) {
        const Fixture f(config);
        for (auto mask : {mask16({5, 10}), mask16({0, 3, 12, 15}),
                          mask16({1}), std::vector<bool>(16, true),
                          std::vector<bool>(16, false)}) {
            const double want = allocating_budget(*f.solver, mask);
            const double got =
                f.tsp.per_core_budget(mask, kIdle, kAmbient, kDtm);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << f.solver->backend_name() << ": " << got << " vs " << want;
        }
    }
}

}  // namespace

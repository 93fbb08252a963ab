#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "floorplan/floorplan.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "linalg/expm.hpp"
#include "thermal/reference_integrator.hpp"
#include "thermal/solver.hpp"
#include "thermal_oracle.hpp"

namespace {

using hp::floorplan::GridFloorplan;
using hp::linalg::Matrix;
using hp::linalg::Vector;
using hp::thermal::MatExSolver;
using hp::thermal::RcNetworkConfig;
using hp::thermal::ReferenceIntegrator;
using hp::thermal::SolverConfig;
using hp::thermal::ThermalModel;
using hp::thermal::TransientSolver;
using hp::test::oracle_ambient_equilibrium;
using hp::test::oracle_steady_state;

constexpr double kAmbient = 45.0;

/// Both TransientSolver backends for @p m — the steady-state properties
/// below hold for each backend's own factorisation of B.
std::vector<std::unique_ptr<const TransientSolver>> backends(
    const ThermalModel& m) {
    std::vector<std::unique_ptr<const TransientSolver>> out;
    out.push_back(hp::thermal::make_solver(m, SolverConfig::dense()));
    out.push_back(hp::thermal::make_solver(m, SolverConfig::modal()));
    return out;
}

ThermalModel make_model(std::size_t rows, std::size_t cols) {
    return ThermalModel(GridFloorplan(rows, cols, 0.81), RcNetworkConfig{});
}

/// A hand-built single-node RC network: C dT/dt = P + g (T_amb - T).
ThermalModel single_node(double capacitance, double g_amb) {
    Matrix b(1, 1);
    b(0, 0) = g_amb;
    return ThermalModel(Vector{capacitance}, b, Vector{g_amb}, 1);
}

// ------------------------------------------------------------- structure ---

TEST(RcNetwork, NodeLayout) {
    const ThermalModel m = make_model(4, 4);
    EXPECT_EQ(m.core_count(), 16u);
    EXPECT_EQ(m.node_count(), 2u * 16u + 1u);  // silicon + spreader + sink
}

TEST(RcNetwork, ConductanceMatrixIsSymmetric) {
    const ThermalModel m = make_model(4, 4);
    EXPECT_TRUE(m.conductance().is_symmetric(1e-9));
}

TEST(RcNetwork, RowSumsEqualAmbientCoupling) {
    // B = Laplacian + diag(G): each row of B sums to the node's ambient
    // conductance (Laplacian rows sum to zero).
    const ThermalModel m = make_model(3, 3);
    const auto& b = m.conductance();
    for (std::size_t i = 0; i < m.node_count(); ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < m.node_count(); ++j) row_sum += b(i, j);
        EXPECT_NEAR(row_sum, m.ambient_conductance()[i], 1e-9);
    }
}

TEST(RcNetwork, InvalidDirectConstructionThrows) {
    Matrix asym{{1.0, 0.5}, {0.0, 1.0}};
    EXPECT_THROW(ThermalModel(Vector{1.0, 1.0}, asym, Vector{1.0, 1.0}, 1),
                 std::invalid_argument);
    Matrix ok{{1.0, 0.0}, {0.0, 1.0}};
    EXPECT_THROW(ThermalModel(Vector{1.0, -1.0}, ok, Vector{1.0, 1.0}, 1),
                 std::invalid_argument);  // non-positive capacitance
    EXPECT_THROW(ThermalModel(Vector{1.0, 1.0}, ok, Vector{1.0}, 1),
                 std::invalid_argument);  // G size mismatch
}

TEST(RcNetwork, PadPowerPlacesCorePowerFirst) {
    const ThermalModel m = make_model(2, 2);
    const Vector padded = m.pad_power(Vector{1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(padded.size(), m.node_count());
    EXPECT_DOUBLE_EQ(padded[2], 3.0);
    EXPECT_DOUBLE_EQ(padded[4], 0.0);  // spreader node
    EXPECT_THROW((void)m.pad_power(Vector{1.0}), std::invalid_argument);
}

// ----------------------------------------------------------- steady state ---

TEST(SteadyState, ZeroPowerMeansAmbientEverywhere) {
    const ThermalModel m = make_model(4, 4);
    for (const auto& solver : backends(m)) {
        const Vector t =
            solver->steady_state(Vector(m.node_count()), kAmbient);
        for (std::size_t i = 0; i < m.node_count(); ++i)
            EXPECT_NEAR(t[i], kAmbient, 1e-8);
    }
}

TEST(SteadyState, PowerRaisesTemperatureAboveAmbient) {
    const ThermalModel m = make_model(4, 4);
    for (const auto& solver : backends(m)) {
        Vector core_power(16, 0.0);
        core_power[5] = 5.0;
        const Vector t =
            solver->steady_state(m.pad_power(core_power), kAmbient);
        for (std::size_t i = 0; i < m.node_count(); ++i)
            EXPECT_GT(t[i], kAmbient - 1e-9);
        // The powered core is the hottest node.
        for (std::size_t i = 0; i < m.node_count(); ++i)
            EXPECT_LE(t[i], t[5] + 1e-9);
    }
}

TEST(SteadyState, SuperpositionOfPower) {
    // The model is linear: response(P1 + P2) = response(P1) + response(P2)
    // after removing the ambient offset.
    const ThermalModel m = make_model(3, 3);
    for (const auto& solver : backends(m)) {
        Vector p1(m.node_count()), p2(m.node_count());
        p1[0] = 3.0;
        p2[4] = 2.0;
        const Vector t1 = solver->steady_state(p1, 0.0);
        const Vector t2 = solver->steady_state(p2, 0.0);
        const Vector t12 = solver->steady_state(p1 + p2, 0.0);
        EXPECT_LT((t12 - (t1 + t2)).max_abs(), 1e-9);
    }
}

TEST(SteadyState, MonotoneInPower) {
    const ThermalModel m = make_model(4, 4);
    for (const auto& solver : backends(m)) {
        Vector low(16, 1.0), high(16, 2.0);
        const Vector t_low =
            solver->steady_state(m.pad_power(low), kAmbient);
        const Vector t_high =
            solver->steady_state(m.pad_power(high), kAmbient);
        for (std::size_t i = 0; i < m.node_count(); ++i)
            EXPECT_GT(t_high[i], t_low[i]);
    }
}

TEST(SteadyState, EnergyBalance) {
    // In steady state all injected power must flow to ambient:
    // sum(P) = sum_i G_i (T_i - T_amb).
    const ThermalModel m = make_model(4, 4);
    for (const auto& solver : backends(m)) {
        Vector core_power(16, 1.7);
        const Vector t =
            solver->steady_state(m.pad_power(core_power), kAmbient);
        double to_ambient = 0.0;
        for (std::size_t i = 0; i < m.node_count(); ++i)
            to_ambient += m.ambient_conductance()[i] * (t[i] - kAmbient);
        EXPECT_NEAR(to_ambient, 16 * 1.7, 1e-6);
    }
}

// ----------------------------------------------------------------- MatEx ---

TEST(MatEx, EigenvaluesAllNegative) {
    const ThermalModel m = make_model(4, 4);
    const MatExSolver solver(m);
    for (std::size_t k = 0; k < m.node_count(); ++k)
        EXPECT_LT(solver.eigenvalues()[k], 0.0);
}

TEST(MatEx, ExponentialAtZeroIsIdentity) {
    const ThermalModel m = make_model(2, 2);
    const MatExSolver solver(m);
    const Matrix e = solver.exponential(0.0);
    EXPECT_LT((e - Matrix::identity(m.node_count())).max_abs(), 1e-9);
}

TEST(MatEx, SingleNodeMatchesClosedForm) {
    const double cap = 0.01, g = 0.5, p = 2.0, t0 = 60.0;
    const ThermalModel m = single_node(cap, g);
    const MatExSolver solver(m);
    const double t_ss = kAmbient + p / g;
    for (double dt : {1e-4, 1e-3, 1e-2, 0.1, 1.0}) {
        const Vector t =
            solver.transient(Vector{t0}, Vector{p}, kAmbient, dt);
        const double expected = t_ss + (t0 - t_ss) * std::exp(-g / cap * dt);
        EXPECT_NEAR(t[0], expected, 1e-9) << "dt=" << dt;
    }
}

TEST(MatEx, TransientConvergesToSteadyState) {
    const ThermalModel m = make_model(4, 4);
    const MatExSolver solver(m);
    Vector core_power(16, 2.0);
    const Vector p = m.pad_power(core_power);
    const Vector t_inf = solver.transient(
        oracle_ambient_equilibrium(m, kAmbient), p, kAmbient, 1e4);
    const Vector t_ss = oracle_steady_state(m, p, kAmbient);
    EXPECT_LT((t_inf - t_ss).max_abs(), 1e-6);
}

TEST(MatEx, SemigroupProperty) {
    // e^{C(t1+t2)} x == e^{C t2} e^{C t1} x.
    const ThermalModel m = make_model(3, 3);
    const MatExSolver solver(m);
    Vector x(m.node_count());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(i % 5) - 2.0;
    const Vector once = solver.apply_exponential(x, 0.03);
    const Vector twice =
        solver.apply_exponential(solver.apply_exponential(x, 0.01), 0.02);
    EXPECT_LT((once - twice).max_abs(), 1e-9);
}

TEST(MatEx, MatchesPadeExponential) {
    const ThermalModel m = make_model(2, 2);
    const MatExSolver solver(m);
    // Build C = -A^{-1} B explicitly and compare exponentials.
    const std::size_t n = m.node_count();
    Matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c(i, j) = -m.conductance()(i, j) / m.capacitance()[i];
    const double dt = 2e-3;
    const Matrix via_pade = hp::linalg::expm_pade(c * dt);
    const Matrix via_eigen = solver.exponential(dt);
    EXPECT_LT((via_pade - via_eigen).max_abs(), 1e-7);
}

class MatExVsRk4 : public ::testing::TestWithParam<double> {};

TEST_P(MatExVsRk4, TransientAgreesWithReferenceIntegrator) {
    const double duration = GetParam();
    const ThermalModel m = make_model(3, 3);
    const MatExSolver solver(m);
    const ReferenceIntegrator rk4(m);
    Vector core_power(9, 0.0);
    core_power[4] = 6.0;
    core_power[0] = 2.0;
    const Vector p = m.pad_power(core_power);
    const Vector t0 = oracle_ambient_equilibrium(m, kAmbient);
    const Vector exact = solver.transient(t0, p, kAmbient, duration);
    const Vector numeric = rk4.integrate(t0, p, kAmbient, duration, 1e-5);
    EXPECT_LT((exact - numeric).max_abs(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Durations, MatExVsRk4,
                         ::testing::Values(1e-4, 1e-3, 5e-3, 0.05, 0.4));

TEST(MatEx, PeakCoreTemperatureDominatesEndpoint) {
    // Start hot, power off: the peak over the interval must exceed the
    // endpoint (monotone cooling) and equal the start sample region.
    const ThermalModel m = make_model(3, 3);
    const MatExSolver solver(m);
    Vector hot = oracle_ambient_equilibrium(m, kAmbient);
    hot[4] += 20.0;
    const Vector p(m.node_count(), 0.0);
    const double dt = 0.05;
    const Vector end = solver.transient(hot, p, kAmbient, dt);
    double end_core_max = -1e300;
    for (std::size_t i = 0; i < m.core_count(); ++i)
        end_core_max = std::max(end_core_max, end[i]);
    const double peak =
        solver.peak_core_temperature(hot, p, kAmbient, dt, 16);
    EXPECT_GE(peak, end_core_max - 1e-9);
}

TEST(ReferenceIntegrator, InvalidArgsThrow) {
    const ThermalModel m = make_model(2, 2);
    const ReferenceIntegrator rk4(m);
    const Vector t0 = oracle_ambient_equilibrium(m, kAmbient);
    const Vector p(m.node_count(), 0.0);
    EXPECT_THROW((void)rk4.integrate(t0, p, kAmbient, -1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)rk4.integrate(t0, p, kAmbient, 1.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)rk4.integrate(Vector{1.0}, p, kAmbient, 1.0),
                 std::invalid_argument);
}

}  // namespace

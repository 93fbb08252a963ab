// Bit-identity of the in-place workspace kernels against the legacy
// value-returning APIs.
//
// The zero-allocation refactor promises more than numerical closeness: every
// _into kernel performs the same products, sums and substitutions in the same
// order as the value-returning path, so results must be *bit-identical*
// (EXPECT_EQ on doubles, no tolerance). The legacy thermal methods were kept
// as independent implementations — not wrappers — precisely so this suite
// compares two genuinely distinct code paths.
//
// Coverage: matvec_into, LU solve_into, pad_power_into,
// the dense steady_state_into, apply_exponential_into (including the
// memoised exp-table reuse), transient_into (including out aliasing t_init),
// and workspace reuse across every PeakTemperatureAnalyzer query — on the
// planar 16- and 64-core models and on the stacked 3D model, with workspaces
// reused across queries and models.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/workspace.hpp"
#include "peak_queries.hpp"
#include "thermal_oracle.hpp"

namespace {

using namespace hp;

void expect_bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

/// Deterministic, irregular core power pattern (no special symmetry that
/// could mask an indexing bug).
linalg::Vector test_core_power(std::size_t cores) {
    linalg::Vector p(cores);
    for (std::size_t i = 0; i < cores; ++i)
        p[i] = 0.3 + 0.37 * static_cast<double>((i * 7 + 3) % 11);
    return p;
}

// --- linalg layer -----------------------------------------------------------

TEST(HotpathKernels, MatvecMatchesOperator) {
    const std::size_t rows = 7, cols = 5;
    linalg::Matrix a(rows, cols);
    linalg::Vector x(cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            a(i, j) = std::sin(1.0 + static_cast<double>(i * cols + j));
    for (std::size_t j = 0; j < cols; ++j)
        x[j] = std::cos(static_cast<double>(j) * 0.7);

    const linalg::Vector legacy = a * x;
    linalg::Vector out(rows);
    linalg::matvec_into(a, x, out);
    expect_bitwise_equal(legacy, out);
}

TEST(HotpathKernels, LuSolveIntoMatchesSolve) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    const linalg::LuDecomposition lu(setup.model().conductance());
    linalg::Vector b(setup.model().node_count());
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = 0.1 * static_cast<double>((i * 13 + 1) % 17);

    const linalg::Vector legacy = lu.solve(b);
    linalg::Vector out(b.size());
    lu.solve_into(b, out);
    expect_bitwise_equal(legacy, out);
}

// --- thermal layer, all three models ----------------------------------------

class HotpathThermalEquivalence
    : public ::testing::TestWithParam<const char*> {
protected:
    static campaign::StudySetup make_setup(const std::string& name) {
        if (name == "paper_16core") return campaign::StudySetup::paper_16core();
        if (name == "paper_64core") return campaign::StudySetup::paper_64core();
        return campaign::StudySetup::stacked_32core();
    }
};

TEST_P(HotpathThermalEquivalence, PadAndSteadyState) {
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::ThermalModel& model = setup.model();
    const linalg::Vector core_power = test_core_power(model.core_count());

    const linalg::Vector node_legacy = model.pad_power(core_power);
    linalg::Vector node_into(model.node_count());
    model.pad_power_into(core_power, node_into);
    expect_bitwise_equal(node_legacy, node_into);

    const thermal::MatExSolver dense(model);
    thermal::ThermalWorkspace ws;
    linalg::Vector steady_into;
    const linalg::Vector steady_legacy = dense.steady_state(node_legacy, 45.0);
    dense.steady_state_into(node_into, 45.0, ws, steady_into);
    expect_bitwise_equal(steady_legacy, steady_into);

    // Warm workspace (memoised ambient rhs active) must give the same bits.
    dense.steady_state_into(node_into, 45.0, ws, steady_into);
    expect_bitwise_equal(steady_legacy, steady_into);

    // Changing the ambient invalidates the memo, not the identity.
    const linalg::Vector steady50 = dense.steady_state(node_legacy, 50.0);
    dense.steady_state_into(node_into, 50.0, ws, steady_into);
    expect_bitwise_equal(steady50, steady_into);
}

TEST_P(HotpathThermalEquivalence, ApplyExponentialAndTransient) {
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::ThermalModel& model = setup.model();
    const thermal::TransientSolver& matex = setup.solver();
    const linalg::Vector node_power =
        model.pad_power(test_core_power(model.core_count()));
    const linalg::Vector t_init =
        test::oracle_ambient_equilibrium(model, 45.0);

    thermal::ThermalWorkspace ws;
    linalg::Vector out;

    // Same dt twice: second call hits the memoised e^{λ·dt} table.
    for (int rep = 0; rep < 2; ++rep) {
        const linalg::Vector legacy = matex.apply_exponential(t_init, 1e-4);
        matex.apply_exponential_into(t_init, 1e-4, ws, out);
        expect_bitwise_equal(legacy, out);
    }
    // New dt: table recomputed, identity preserved.
    const linalg::Vector legacy_dt = matex.apply_exponential(t_init, 2.5e-3);
    matex.apply_exponential_into(t_init, 2.5e-3, ws, out);
    expect_bitwise_equal(legacy_dt, out);

    const linalg::Vector trans_legacy =
        matex.transient(t_init, node_power, 45.0, 1e-4);
    matex.transient_into(t_init, node_power, 45.0, 1e-4, ws, out);
    expect_bitwise_equal(trans_legacy, out);

    // The simulator's in-place update: out aliases t_init.
    linalg::Vector temps = t_init;
    matex.transient_into(temps, node_power, 45.0, 1e-4, ws, temps);
    expect_bitwise_equal(trans_legacy, temps);

    // Multi-step walk with a warm workspace stays on the legacy trajectory.
    linalg::Vector walk_legacy = t_init;
    linalg::Vector walk_into = t_init;
    for (int step = 0; step < 5; ++step) {
        walk_legacy = matex.transient(walk_legacy, node_power, 45.0, 1e-4);
        matex.transient_into(walk_into, node_power, 45.0, 1e-4, ws, walk_into);
    }
    expect_bitwise_equal(walk_legacy, walk_into);
}

TEST_P(HotpathThermalEquivalence, PeakAnalyzerWorkspaceOverloads) {
    // Every analyzer query takes a caller-owned workspace. A warm workspace
    // that has served other queries — other ring sizes, schedules, static
    // candidates — must give bit-identical answers to a fresh one.
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::ThermalModel& model = setup.model();
    const std::size_t cores = model.core_count();
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace warm;

    const linalg::Vector core_power = test_core_power(cores);
    const auto static_peak = [&](core::PeakWorkspace& ws) {
        double peak;
        analyzer.static_peaks(core_power.data(), 1, ws, &peak);
        return peak;
    };

    // schedule_peak: three-epoch rotating pattern.
    std::vector<linalg::Vector> epochs(3, linalg::Vector(cores, 0.3));
    epochs[0][0] = 6.0;
    epochs[1][cores / 2] = 6.0;
    epochs[2][cores - 1] = 6.0;

    // Two rings of coprime sizes, one of them idle, for the uniform-τ and
    // per-ring-τ rotation forms; then a single wider ring.
    core::RotationRingSpec busy;
    busy.cores = {0, 1, 2, 3};
    busy.slot_power_w = {6.0, 5.0, 0.3, 4.0};
    core::RotationRingSpec idle;
    idle.cores = {cores - 1, cores - 2, cores - 3};
    idle.slot_power_w = {0.3, 0.3, 0.3};
    const std::vector<core::RotationRingSpec> rings = {busy, idle};
    const std::vector<double> taus = {0.5e-3, 2e-3};
    core::RotationRingSpec wide;
    wide.cores.assign(busy.cores.begin(), busy.cores.end());
    wide.cores.push_back(4 % cores);
    wide.slot_power_w = {5.5, 0.3, 0.3, 4.5, 3.0};
    const std::vector<core::RotationRingSpec> rings2 = {wide};

    // Alternate ring sizes and query kinds through the warm workspace, and
    // repeat every query so each one also runs on buffers another left.
    for (int round = 0; round < 2; ++round) {
        core::PeakWorkspace fresh[5];
        EXPECT_EQ(static_peak(warm), static_peak(fresh[0]));
        EXPECT_EQ(analyzer.schedule_peak(epochs, 1e-3, 3, warm),
                  analyzer.schedule_peak(epochs, 1e-3, 3, fresh[1]));
        EXPECT_EQ(test::rotation_peak(analyzer, rings, 0.5e-3, 2, warm),
                  test::rotation_peak(analyzer, rings, 0.5e-3, 2, fresh[2]));
        EXPECT_EQ(analyzer.rotation_peak(rings, taus, 2, warm),
                  analyzer.rotation_peak(rings, taus, 2, fresh[3]));
        EXPECT_EQ(test::rotation_peak(analyzer, rings2, 1e-3, 3, warm),
                  test::rotation_peak(analyzer, rings2, 1e-3, 3, fresh[4]));
    }
}

INSTANTIATE_TEST_SUITE_P(Models, HotpathThermalEquivalence,
                         ::testing::Values("paper_16core", "paper_64core",
                                           "stacked_32core"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// --- cross-model workspace reuse --------------------------------------------

TEST(HotpathWorkspaceReuse, OneWorkspaceAcrossModelsStaysBitIdentical) {
    const campaign::StudySetup small = campaign::StudySetup::paper_16core();
    const campaign::StudySetup big = campaign::StudySetup::paper_64core();
    thermal::ThermalWorkspace ws;  // shared: must resize and re-memoise
    linalg::Vector out;

    for (int round = 0; round < 2; ++round) {
        for (const campaign::StudySetup* setup : {&small, &big}) {
            const thermal::ThermalModel& model = setup->model();
            const linalg::Vector node_power =
                model.pad_power(test_core_power(model.core_count()));
            const linalg::Vector t_init =
        test::oracle_ambient_equilibrium(model, 45.0);
            const linalg::Vector legacy =
                setup->solver().transient(t_init, node_power, 45.0, 1e-4);
            setup->solver().transient_into(t_init, node_power, 45.0, 1e-4, ws,
                                           out);
            expect_bitwise_equal(legacy, out);
        }
    }
}

}  // namespace

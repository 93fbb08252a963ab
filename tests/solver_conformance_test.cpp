// Conformance suite for the TransientSolver backend seam (DESIGN.md §11).
// Every backend must honour the same contract: `_into` calls bit-identical
// to their allocating twins, batches bit-identical to looped singles, exact
// steady states, and — for the truncated-modal backend — transient/peak
// errors within the a-priori bound it reports. The dense backend is
// additionally pinned bit-identical to MatExSolver, the pre-seam numerics.

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "core/peak_cache.hpp"
#include "sim/simulator.hpp"
#include "thermal/matex.hpp"
#include "thermal/modal_solver.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "thermal_oracle.hpp"
#include "workload/benchmark.hpp"

#if defined(__linux__) && defined(__GLIBC__)
#include <malloc.h>
#include <unistd.h>
#endif

namespace {

using hp::campaign::StudySetup;
using hp::test::oracle_ambient_equilibrium;
using hp::test::oracle_steady_state;
using hp::linalg::Vector;
using hp::thermal::MatExSolver;
using hp::thermal::SolverBackend;
using hp::thermal::SolverConfig;
using hp::thermal::ThermalModel;
using hp::thermal::ThermalWorkspace;
using hp::thermal::TransientSolver;

/// Unsets HOTPOTATO_SOLVER for the test body (auto-selection assertions must
/// not depend on the CI leg that forces one backend), restoring it on exit.
class EnvGuard {
public:
    EnvGuard() {
        if (const char* v = std::getenv(kVar)) {
            saved_ = v;
            had_ = true;
        }
        ::unsetenv(kVar);
    }
    ~EnvGuard() {
        if (had_)
            ::setenv(kVar, saved_.c_str(), 1);
        else
            ::unsetenv(kVar);
    }
    void set(const char* value) { ::setenv(kVar, value, 1); }

private:
    static constexpr const char* kVar = "HOTPOTATO_SOLVER";
    std::string saved_;
    bool had_ = false;
};

struct Rig {
    hp::arch::ManyCore chip;
    ThermalModel model;
    explicit Rig(hp::arch::ManyCore c) : chip(std::move(c)), model(chip.plan(), {}) {}
};

const Rig& rig16() {
    static const Rig r(hp::arch::ManyCore::paper_16core());
    return r;
}

const Rig& rig64() {
    static const Rig r(hp::arch::ManyCore::paper_64core());
    return r;
}

Vector test_power(const ThermalModel& model) {
    Vector core(model.core_count(), 0.5);
    core[0] = 6.0;
    core[model.core_count() / 2] = 4.5;
    core[model.core_count() - 1] = 3.0;
    return model.pad_power(core);
}

double max_core_delta(const ThermalModel& model, const Vector& a,
                      const Vector& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < model.core_count(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

// ---- Backend selection --------------------------------------------------

TEST(SolverSelection, ParseRoundTripAndRejection) {
    EXPECT_EQ(hp::thermal::parse_solver_backend("auto"), SolverBackend::kAuto);
    EXPECT_EQ(hp::thermal::parse_solver_backend("dense"),
              SolverBackend::kDense);
    EXPECT_EQ(hp::thermal::parse_solver_backend("modal"),
              SolverBackend::kModal);
    EXPECT_EQ(hp::thermal::to_string(SolverBackend::kModal), "modal");
    EXPECT_THROW(hp::thermal::parse_solver_backend("sparse"),
                 std::invalid_argument);
    EXPECT_THROW(hp::thermal::parse_solver_backend(""), std::invalid_argument);
}

TEST(SolverSelection, AutoPicksDenseAtOrBelowThreshold) {
    EnvGuard env;
    const auto solver = hp::thermal::make_solver(rig16().model, {});
    EXPECT_STREQ(solver->backend_name(), "dense");
    EXPECT_FALSE(solver->truncated());
    EXPECT_EQ(solver->error_bound_c(), 0.0);
    EXPECT_EQ(solver->mode_count(), solver->node_count());
}

TEST(SolverSelection, AutoPicksModalAboveThreshold) {
    EnvGuard env;
    SolverConfig config;
    config.dense_node_threshold = 16;  // force "large" without a large model
    const auto solver = hp::thermal::make_solver(rig16().model, config);
    EXPECT_STREQ(solver->backend_name(), "modal");
}

TEST(SolverSelection, EnvironmentOverridesAuto) {
    EnvGuard env;
    env.set("modal");
    const auto modal = hp::thermal::make_solver(rig16().model, {});
    EXPECT_STREQ(modal->backend_name(), "modal");
    env.set("dense");
    SolverConfig config;
    config.dense_node_threshold = 0;  // auto would say modal
    const auto dense = hp::thermal::make_solver(rig16().model, config);
    EXPECT_STREQ(dense->backend_name(), "dense");
}

TEST(SolverSelection, NonPositiveToleranceRejected) {
    EXPECT_THROW(
        hp::thermal::make_solver(rig16().model, SolverConfig::modal(0.0)),
        std::invalid_argument);
    EXPECT_THROW(
        hp::thermal::make_solver(rig16().model, SolverConfig::modal(-1.0)),
        std::invalid_argument);
}

// The model is plain data, so rejecting a singular B is each backend's job:
// a network with no heat path to ambient must not yield a solver.
TEST(SolverSelection, SingularConductanceRejectedByBothBackends) {
    // Three nodes in a chain with no ambient coupling: B is a symmetric
    // graph Laplacian whose kernel holds the uniform vector.
    hp::linalg::Matrix b(3, 3);
    for (std::size_t i = 0; i + 1 < 3; ++i) {
        b(i, i) += 1.0;
        b(i + 1, i + 1) += 1.0;
        b(i, i + 1) -= 1.0;
        b(i + 1, i) -= 1.0;
    }
    const ThermalModel model(Vector(3, 1e-3), b, Vector(3), 1);
    for (const SolverConfig& config :
         {SolverConfig::dense(), SolverConfig::modal()}) {
        const std::string name = hp::thermal::to_string(config.backend);
        try {
            (void)hp::thermal::make_solver(model, config);
            ADD_FAILURE() << name << " accepted a singular B";
        } catch (const std::domain_error&) {
        } catch (const std::invalid_argument&) {
        }
    }
}

// ---- Dense backend: bit-identical to the pre-seam MatExSolver -----------

TEST(DenseBackend, BitIdenticalToMatExSolver) {
    const ThermalModel& model = rig16().model;
    const MatExSolver reference(model);
    const auto dense = hp::thermal::make_solver(model, SolverConfig::dense());
    const Vector power = test_power(model);
    const Vector t_init = oracle_ambient_equilibrium(model, 45.0);

    const Vector steady_ref = reference.steady_state(power, 45.0);
    const Vector steady = dense->steady_state(power, 45.0);
    for (std::size_t i = 0; i < model.node_count(); ++i)
        EXPECT_EQ(steady[i], steady_ref[i]) << i;

    for (double dt : {1e-4, 1e-3, 5e-2}) {
        const Vector trans_ref = reference.transient(t_init, power, 45.0, dt);
        const Vector trans = dense->transient(t_init, power, 45.0, dt);
        for (std::size_t i = 0; i < model.node_count(); ++i)
            EXPECT_EQ(trans[i], trans_ref[i]) << "dt=" << dt << " i=" << i;
    }

    const auto peak_ref =
        reference.peak_core_temperature_exact(t_init, power, 45.0, 0.05);
    const auto peak = dense->peak_core_temperature_exact(t_init, power, 45.0,
                                                         0.05);
    EXPECT_EQ(peak.temperature_c, peak_ref.temperature_c);
    EXPECT_EQ(peak.time_s, peak_ref.time_s);
    EXPECT_EQ(peak.core, peak_ref.core);
}

// ---- Per-backend contract conformance -----------------------------------

class SolverConformance : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<const TransientSolver> make() const {
        const bool modal = std::string(GetParam()) == "modal";
        return hp::thermal::make_solver(
            rig16().model,
            modal ? SolverConfig::modal() : SolverConfig::dense());
    }
};

TEST_P(SolverConformance, IntoCallsMatchAllocatingCalls) {
    const ThermalModel& model = rig16().model;
    const auto solver = make();
    const Vector power = test_power(model);
    const Vector t_init = oracle_ambient_equilibrium(model, 45.0);
    ThermalWorkspace ws;
    Vector out;

    const Vector steady = solver->steady_state(power, 45.0);
    solver->steady_state_into(power, 45.0, ws, out);
    for (std::size_t i = 0; i < model.node_count(); ++i)
        EXPECT_EQ(out[i], steady[i]) << i;

    for (double dt : {1e-4, 1.0}) {  // both modal regimes (Taylor / kept-K)
        const Vector applied = solver->apply_exponential(t_init, dt);
        solver->apply_exponential_into(t_init, dt, ws, out);
        for (std::size_t i = 0; i < model.node_count(); ++i)
            EXPECT_EQ(out[i], applied[i]) << "dt=" << dt << " i=" << i;

        const Vector trans = solver->transient(t_init, power, 45.0, dt);
        solver->transient_into(t_init, power, 45.0, dt, ws, out);
        for (std::size_t i = 0; i < model.node_count(); ++i)
            EXPECT_EQ(out[i], trans[i]) << "dt=" << dt << " i=" << i;

        // The simulator's aliasing pattern: out is the t_init buffer.
        Vector temps = t_init;
        solver->transient_into(temps, power, 45.0, dt, ws, temps);
        for (std::size_t i = 0; i < model.node_count(); ++i)
            EXPECT_EQ(temps[i], trans[i]) << "dt=" << dt << " i=" << i;
    }

    // A fresh empty out is sized by the call, as every other _into does.
    const Vector solved = solver->conductance_solve(power);
    Vector fresh;
    solver->conductance_solve_into(power, ws, fresh);
    ASSERT_EQ(fresh.size(), model.node_count());
    for (std::size_t i = 0; i < model.node_count(); ++i)
        EXPECT_EQ(fresh[i], solved[i]) << i;
}

TEST_P(SolverConformance, ExactPeakRejectsMisSizedInputs) {
    const ThermalModel& model = rig64().model;
    const bool modal = std::string(GetParam()) == "modal";
    const auto solver = hp::thermal::make_solver(
        model, modal ? SolverConfig::modal() : SolverConfig::dense());
    const std::size_t n = model.node_count();
    const Vector power = test_power(model);
    const Vector t_init = oracle_ambient_equilibrium(model, 45.0);
    for (std::size_t size : {n - 1, n + 1}) {
        SCOPED_TRACE(size);
        EXPECT_THROW(solver->peak_core_temperature_exact(Vector(size, 50.0),
                                                         power, 45.0, 0.05),
                     std::invalid_argument);
        EXPECT_THROW(solver->peak_core_temperature_exact(
                         t_init, Vector(size, 0.5), 45.0, 0.05),
                     std::invalid_argument);
    }
    EXPECT_THROW(solver->peak_core_temperature_exact(t_init, power, 45.0, 0.0),
                 std::invalid_argument);
}

TEST_P(SolverConformance, BatchesMatchLoopedSingles) {
    const ThermalModel& model = rig16().model;
    const auto solver = make();
    const std::size_t n = model.node_count();
    const Vector t_init = oracle_ambient_equilibrium(model, 45.0);
    ThermalWorkspace ws;
    const std::size_t nrhs = 5;

    std::vector<double> powers(nrhs * n);
    for (std::size_t i = 0; i < powers.size(); ++i)
        powers[i] = 0.25 + 0.125 * static_cast<double>(i % 17);

    std::vector<double> steady_batch(nrhs * n, -1.0);
    solver->steady_state_batch_into(powers.data(), nrhs, 45.0, ws,
                                    steady_batch.data());
    std::vector<double> trans_batch(nrhs * n, -1.0);
    solver->transient_batch_into(t_init, powers.data(), nrhs, 45.0, 1e-3, ws,
                                 trans_batch.data());
    std::vector<double> exp_batch(powers);
    solver->apply_exponential_batch_into(exp_batch.data(), nrhs, 1e-3, ws,
                                         exp_batch.data());  // aliased

    Vector rhs(n), out(n);
    for (std::size_t r = 0; r < nrhs; ++r) {
        for (std::size_t i = 0; i < n; ++i) rhs[i] = powers[r * n + i];
        solver->steady_state_into(rhs, 45.0, ws, out);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(steady_batch[r * n + i], out[i]) << r << "," << i;
        solver->transient_into(t_init, rhs, 45.0, 1e-3, ws, out);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(trans_batch[r * n + i], out[i]) << r << "," << i;
        solver->apply_exponential_into(rhs, 1e-3, ws, out);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(exp_batch[r * n + i], out[i]) << r << "," << i;
    }
}

TEST_P(SolverConformance, SteadyStateIsExact) {
    const ThermalModel& model = rig16().model;
    const auto solver = make();
    const Vector power = test_power(model);
    const Vector reference = oracle_steady_state(model, power, 45.0);
    const Vector steady = solver->steady_state(power, 45.0);
    for (std::size_t i = 0; i < model.node_count(); ++i)
        EXPECT_NEAR(steady[i], reference[i], 1e-9) << i;
}

TEST_P(SolverConformance, ModelSignatureMatchesModel) {
    const auto solver = make();
    EXPECT_EQ(solver->model_signature(), rig16().model.signature());
    EXPECT_GT(solver->mode_count(), 0u);
    EXPECT_EQ(solver->eigenvalues().size(), solver->mode_count());
    for (std::size_t k = 0; k < solver->mode_count(); ++k)
        EXPECT_LT(solver->eigenvalues()[k], 0.0) << k;
}

INSTANTIATE_TEST_SUITE_P(Backends, SolverConformance,
                         ::testing::Values("dense", "modal"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// ---- Modal backend: error within the reported a-priori bound ------------

TEST(ModalBackend, TransientErrorWithinToleranceAndBound) {
    for (const Rig* rig : {&rig16(), &rig64()}) {
        const ThermalModel& model = rig->model;
        const MatExSolver dense(model);
        const hp::thermal::TruncatedModalSolver modal(model,
                                                      SolverConfig::modal());
        ASSERT_GT(modal.error_bound_c(), 0.0);
        const Vector power = test_power(model);
        const Vector t_init = oracle_steady_state(model, power, 45.0);
        const Vector hot = oracle_ambient_equilibrium(model, 60.0);

        for (double dt : {1e-4, 1e-3, 1e-2, 0.1, 1.0}) {
            const Vector exact = dense.transient(hot, power, 45.0, dt);
            const Vector approx = modal.transient(hot, power, 45.0, dt);
            const double err = max_core_delta(model, exact, approx);
            EXPECT_LE(err, modal.tolerance_c())
                << "nodes=" << model.node_count() << " dt=" << dt;
            EXPECT_LE(err, modal.error_bound_c());
        }
        (void)t_init;
    }
}

TEST(ModalBackend, RepeatedMicroStepsStayOnDenseTrajectory) {
    const ThermalModel& model = rig16().model;
    const MatExSolver dense(model);
    const hp::thermal::TruncatedModalSolver modal(model,
                                                  SolverConfig::modal());
    const Vector power = test_power(model);
    ThermalWorkspace wsd, wsm;
    Vector td = oracle_ambient_equilibrium(model, 45.0);
    Vector tm = td;
    for (int step = 0; step < 500; ++step) {
        dense.transient_into(td, power, 45.0, 1e-4, wsd, td);
        modal.transient_into(tm, power, 45.0, 1e-4, wsm, tm);
    }
    EXPECT_LE(max_core_delta(model, td, tm), modal.tolerance_c());
}

TEST(ModalBackend, ExactPeakAgreesWithDenseWithinBound) {
    const ThermalModel& model = rig64().model;
    const MatExSolver dense(model);
    const hp::thermal::TruncatedModalSolver modal(model,
                                                  SolverConfig::modal());
    const Vector power = test_power(model);
    const Vector hot = oracle_ambient_equilibrium(model, 55.0);
    const auto exact = dense.peak_core_temperature_exact(hot, power, 45.0, 0.5);
    const auto approx = modal.peak_core_temperature_exact(hot, power, 45.0,
                                                          0.5);
    EXPECT_LE(std::abs(exact.temperature_c - approx.temperature_c),
              modal.error_bound_c());
    EXPECT_GE(approx.temperature_c, 45.0);
}

// Batched modal propagation must be bit-identical (not merely close) to the
// single-RHS path on every right-hand side, in BOTH horizon regimes: the
// substepped sparse Taylor ladder below tau_switch and the retained-mode
// closed form above it. rig64 has real truncation (kept < total), so both
// code paths and the truncated-tail handling are exercised; rig16 keeps all
// modes and would silently skip the Taylor branch.
TEST(ModalBackend, BatchPropagationBitIdenticalBothHorizons) {
    const ThermalModel& model = rig64().model;
    const hp::thermal::TruncatedModalSolver modal(model,
                                                  SolverConfig::modal());
    ASSERT_TRUE(modal.truncated());
    const std::size_t n = model.node_count();
    const double taus[] = {1e-4,                          // Taylor horizon
                           0.5 * modal.tau_switch_s(),    // Taylor, near edge
                           modal.tau_switch_s(),          // modal (boundary)
                           1.0};                          // modal closed form
    const Vector t_init = oracle_ambient_equilibrium(model, 52.0);

    for (std::size_t nrhs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        std::vector<double> xs(nrhs * n);
        for (std::size_t i = 0; i < xs.size(); ++i)
            xs[i] = 0.4 + 1.13 * static_cast<double>((i * 5 + 2) % 11) +
                    std::sin(static_cast<double>(i) * 0.37);

        for (double dt : taus) {
            ThermalWorkspace wsb, wss;
            std::vector<double> batch(nrhs * n, -1.0);
            modal.apply_exponential_batch_into(xs.data(), nrhs, dt, wsb,
                                               batch.data());
            Vector x(n), single(n);
            for (std::size_t r = 0; r < nrhs; ++r) {
                for (std::size_t i = 0; i < n; ++i) x[i] = xs[r * n + i];
                modal.apply_exponential_into(x, dt, wss, single);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(batch[r * n + i], single[i])
                        << "apply_exponential nrhs=" << nrhs << " r=" << r
                        << " dt=" << dt << " i=" << i;
            }

            // transient_batch_into composes steady solve + offset +
            // exponential + restore; the whole chain must stay exact.
            std::vector<double> tb(nrhs * n, -1.0);
            modal.transient_batch_into(t_init, xs.data(), nrhs, 45.0, dt, wsb,
                                       tb.data());
            Vector out(n);
            for (std::size_t r = 0; r < nrhs; ++r) {
                for (std::size_t i = 0; i < n; ++i) x[i] = xs[r * n + i];
                modal.transient_into(t_init, x, 45.0, dt, wss, out);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(tb[r * n + i], out[i])
                        << "transient nrhs=" << nrhs << " r=" << r
                        << " dt=" << dt << " i=" << i;
            }
        }

        // Batched conductance solve rides the same banded-Cholesky
        // lane-parallel sweep; it must replay solve_into exactly.
        ThermalWorkspace wsb, wss;
        std::vector<double> cb(nrhs * n, -1.0);
        modal.conductance_solve_batch_into(xs.data(), nrhs, wsb, cb.data());
        Vector x(n), single(n);
        for (std::size_t r = 0; r < nrhs; ++r) {
            for (std::size_t i = 0; i < n; ++i) x[i] = xs[r * n + i];
            modal.conductance_solve_into(x, wss, single);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(cb[r * n + i], single[i])
                    << "conductance nrhs=" << nrhs << " r=" << r << " i=" << i;
        }
    }
}

// ---- Misuse guard: solver/model pairing by content signature ------------

TEST(SignatureGuard, EqualContentModelsInteroperate) {
    const Rig& r = rig16();
    const ThermalModel clone(r.chip.plan(), hp::thermal::RcNetworkConfig{});
    EXPECT_EQ(clone.signature(), r.model.signature());
    const MatExSolver solver(r.model);  // built against the *other* instance
    EXPECT_NO_THROW(hp::sim::Simulator(r.chip, clone, solver));
}

TEST(SignatureGuard, DifferentModelsRejected) {
    const Rig& r = rig16();
    hp::thermal::RcNetworkConfig cooling;
    cooling.spreader_capacitance *= 2.0;
    const ThermalModel other(r.chip.plan(), cooling);
    EXPECT_NE(other.signature(), r.model.signature());
    const MatExSolver solver(other);
    EXPECT_THROW(hp::sim::Simulator(r.chip, r.model, solver),
                 std::invalid_argument);
}

// ---- Prediction-cache keys: backend/tolerance tagged (regression) -------

TEST(PeakCacheKeys, BackendSignaturesNeverAlias) {
    const ThermalModel& model = rig16().model;
    const auto dense = hp::thermal::make_solver(model, SolverConfig::dense());
    const auto modal = hp::thermal::make_solver(model, SolverConfig::modal());
    const auto modal_loose =
        hp::thermal::make_solver(model, SolverConfig::modal(0.1));
    EXPECT_NE(dense->backend_signature(), modal->backend_signature());
    EXPECT_NE(modal->backend_signature(), modal_loose->backend_signature());
    // Deterministic: rebuilding the same backend yields the same tag, so
    // caches stay warm across equal solvers.
    const auto dense2 = hp::thermal::make_solver(model, SolverConfig::dense());
    EXPECT_EQ(dense->backend_signature(), dense2->backend_signature());
    // A different model changes every backend's tag.
    const ThermalModel& big = rig64().model;
    const auto dense_big =
        hp::thermal::make_solver(big, SolverConfig::dense());
    EXPECT_NE(dense->backend_signature(), dense_big->backend_signature());
}

TEST(PeakCacheKeys, TaggedKeysMissAcrossBackends) {
    // Regression: every prediction-cache key starts with the solver's
    // backend signature. Without the tag, a prediction cached under one
    // backend could be returned verbatim for another backend or tolerance
    // with identical scheduler inputs.
    const ThermalModel& model = rig16().model;
    const auto dense = hp::thermal::make_solver(model, SolverConfig::dense());
    const auto modal = hp::thermal::make_solver(model, SolverConfig::modal());

    hp::core::ConcurrentPeakCache cache;
    cache.configure(32, 4, /*shards=*/1);
    const double power = hp::core::quantise_power_w(4.2);
    hp::core::CacheKey key;

    key.push(dense->backend_signature());
    key.push(power);
    cache.insert(key.data(), key.size(), 71.5);

    key.clear();
    key.push(modal->backend_signature());
    key.push(power);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value))
        << "modal key hit a dense entry";

    key.clear();
    key.push(dense->backend_signature());
    key.push(power);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 71.5);
}

// ---- HotPotato fidelity: modal peak within the reported bound -----------

TEST(ModalFidelity, HotPotatoPeakDeltaWithinBoundOn64Core) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 1.0;
    const std::vector<hp::workload::TaskSpec> tasks = {
        {&hp::workload::profile_by_name("blackscholes"), 4, 0.0},
        {&hp::workload::profile_by_name("x264"), 4, 0.0}};

    double peaks[2] = {0.0, 0.0};
    double bound = 0.0;
    int i = 0;
    for (const SolverConfig& config :
         {SolverConfig::dense(), SolverConfig::modal()}) {
        const StudySetup setup = StudySetup::paper_64core(config);
        if (setup.solver().truncated()) bound = setup.solver().error_bound_c();
        hp::sim::Simulator sim = setup.make_simulator(cfg);
        sim.add_tasks(tasks);
        hp::core::HotPotatoScheduler scheduler;
        const hp::sim::SimResult result = sim.run(scheduler);
        EXPECT_GT(result.simulated_time_s, 0.0);
        peaks[i++] = result.peak_temperature_c;
    }
    ASSERT_GT(bound, 0.0);
    EXPECT_GT(peaks[0], 45.0);
    EXPECT_GT(peaks[1], 45.0);
    EXPECT_LE(std::abs(peaks[0] - peaks[1]), bound);
}

// ---- 256-core factories run end-to-end through the campaign engine ------

TEST(ScaleUp, Paper256CoreCampaignRunsEndToEnd) {
    EnvGuard env;  // auto selection must pick modal on its own at 513 nodes
    const StudySetup setup = StudySetup::paper_256core();
    EXPECT_EQ(setup.chip().core_count(), 256u);
    EXPECT_EQ(setup.model().node_count(), 513u);
    EXPECT_STREQ(setup.solver().backend_name(), "modal");
    EXPECT_TRUE(setup.solver().truncated());
    EXPECT_LT(setup.solver().mode_count(), setup.model().node_count());

    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.01;
    hp::campaign::CampaignSpec spec(setup, cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_workload("bs8", {{&hp::workload::profile_by_name("blackscholes"),
                               8, 0.0}});
    hp::campaign::CampaignOptions options;
    options.jobs = 2;
    const hp::campaign::CampaignResult out =
        hp::campaign::run_campaign(spec, options);
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(out.summary.failed_runs, 0u);
    EXPECT_GT(out.records[0].result.simulated_time_s, 0.0);
    EXPECT_GT(out.records[0].result.peak_temperature_c, 45.0);
}

TEST(ScaleUp, Stacked256CoreCampaignRunsEndToEnd) {
    EnvGuard env;
    const StudySetup setup = StudySetup::stacked_256core();
    EXPECT_EQ(setup.chip().core_count(), 256u);
    EXPECT_EQ(setup.model().node_count(), 321u);
    EXPECT_STREQ(setup.solver().backend_name(), "modal");

    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 0.01;
    hp::campaign::CampaignSpec spec(setup, cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_workload("bs8", {{&hp::workload::profile_by_name("blackscholes"),
                               8, 0.0}});
    const hp::campaign::CampaignResult out =
        hp::campaign::run_campaign(spec, {});
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(out.summary.failed_runs, 0u);
    EXPECT_GT(out.records[0].result.simulated_time_s, 0.0);
}

// ---- Modal setup returns its scratch to the OS ---------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedHeap = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedHeap = true;
#else
constexpr bool kSanitizedHeap = false;
#endif
#else
constexpr bool kSanitizedHeap = false;
#endif

// A rebuilt 513-node modal solver frees its three N x N decomposition
// temporaries into the heap (glibc's mmap threshold has risen past their
// size by then); make_solver hands those pages back, so a trim after the
// rebuilds finds almost nothing left to release.
TEST(ScaleUp, ModalRebuildLeavesNoFreeHeapResident) {
#if defined(__linux__) && defined(__GLIBC__)
    if (kSanitizedHeap) GTEST_SKIP() << "sanitizer allocators keep frees";
    const auto resident_kb = [] {
        long pages = 0, resident = 0;
        if (FILE* f = std::fopen("/proc/self/statm", "r")) {
            if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
                resident = 0;
            std::fclose(f);
        }
        return resident * (::sysconf(_SC_PAGESIZE) / 1024);
    };
    const StudySetup setup = StudySetup::paper_256core(SolverConfig::modal());
    ::malloc_trim(0);
    std::unique_ptr<const TransientSolver> solver;
    for (int build = 0; build < 2; ++build) {
        solver.reset();
        solver = hp::thermal::make_solver(setup.model(), SolverConfig::modal());
    }
    const long before_kb = resident_kb();
    ASSERT_GT(before_kb, 0);
    ::malloc_trim(0);
    EXPECT_LT(before_kb - resident_kb(), 1024)
        << "free heap left resident by two modal rebuilds";
#else
    GTEST_SKIP() << "needs glibc on Linux";
#endif
}

}  // namespace

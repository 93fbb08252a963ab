// The TSP governor's memo (sched::TspGovernor, DESIGN.md §15).
//
// Every budget the governor hands a scheduler must be the very double a
// fresh TspBudget::per_core_budget computes for the same mapping, and the
// memo must save the solves it promises: at most one all-idle steady solve
// per run and at most one sensitivity solve per mask change. A counting
// TransientSolver decorator sits between the simulator and the real backend
// and classifies each solve by its right-hand side: an idle solve has every
// core at the run's idle power, a sensitivity solve a 0/1 core mask.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/hotpotato_dvfs.hpp"
#include "power/power_model.hpp"
#include "sched/pcgov.hpp"
#include "sched/pcmig.hpp"
#include "sched/placement.hpp"
#include "sched/static_schedulers.hpp"
#include "sched/tsp.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmark.hpp"

namespace {

using namespace hp;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Forwards every call to @p inner (so answers keep their bits) and counts
/// the TSP-shaped solves.
class CountingSolver : public thermal::TransientSolver {
public:
    CountingSolver(const thermal::TransientSolver& inner, double idle_w)
        : inner_(&inner), idle_w_(idle_w) {}

    mutable std::size_t idle_solves = 0;
    mutable std::size_t sensitivity_solves = 0;

    const thermal::ThermalModel& model() const override {
        return inner_->model();
    }
    const char* backend_name() const override {
        return inner_->backend_name();
    }
    std::uint64_t backend_signature() const override {
        return inner_->backend_signature();
    }
    bool truncated() const override { return inner_->truncated(); }
    double error_bound_c() const override { return inner_->error_bound_c(); }
    double tolerance_c() const override { return inner_->tolerance_c(); }
    std::size_t mode_count() const override { return inner_->mode_count(); }
    const linalg::Vector& eigenvalues() const override {
        return inner_->eigenvalues();
    }
    const linalg::Matrix& mode_shapes() const override {
        return inner_->mode_shapes();
    }
    linalg::Matrix modal_steady_map() const override {
        return inner_->modal_steady_map();
    }
    double cluster_pole() const override { return inner_->cluster_pole(); }

    linalg::Vector steady_state(const linalg::Vector& p,
                                double ambient) const override {
        return inner_->steady_state(p, ambient);
    }
    void steady_state_into(const linalg::Vector& p, double ambient,
                           thermal::ThermalWorkspace& ws,
                           linalg::Vector& out) const override {
        if (is_idle(p)) ++idle_solves;
        inner_->steady_state_into(p, ambient, ws, out);
    }
    void steady_state_batch_into(const double* p, std::size_t nrhs,
                                 double ambient, thermal::ThermalWorkspace& ws,
                                 double* out) const override {
        inner_->steady_state_batch_into(p, nrhs, ambient, ws, out);
    }
    linalg::Vector conductance_solve(const linalg::Vector& rhs) const override {
        return inner_->conductance_solve(rhs);
    }
    void conductance_solve_into(const linalg::Vector& rhs,
                                thermal::ThermalWorkspace& ws,
                                linalg::Vector& out) const override {
        if (is_mask(rhs)) ++sensitivity_solves;
        inner_->conductance_solve_into(rhs, ws, out);
    }
    void conductance_solve_batch_into(const double* rhs, std::size_t nrhs,
                                      thermal::ThermalWorkspace& ws,
                                      double* out) const override {
        inner_->conductance_solve_batch_into(rhs, nrhs, ws, out);
    }
    linalg::Vector apply_exponential(const linalg::Vector& x,
                                     double dt) const override {
        return inner_->apply_exponential(x, dt);
    }
    void apply_exponential_into(const linalg::Vector& x, double dt,
                                thermal::ThermalWorkspace& ws,
                                linalg::Vector& out) const override {
        inner_->apply_exponential_into(x, dt, ws, out);
    }
    void apply_exponential_batch_into(const double* xs, std::size_t nrhs,
                                      double dt,
                                      thermal::ThermalWorkspace& ws,
                                      double* outs) const override {
        inner_->apply_exponential_batch_into(xs, nrhs, dt, ws, outs);
    }
    linalg::Matrix exponential(double dt) const override {
        return inner_->exponential(dt);
    }
    linalg::Vector transient(const linalg::Vector& t0, const linalg::Vector& p,
                             double ambient, double dt) const override {
        return inner_->transient(t0, p, ambient, dt);
    }
    void transient_into(const linalg::Vector& t0, const linalg::Vector& p,
                        double ambient, double dt,
                        thermal::ThermalWorkspace& ws,
                        linalg::Vector& out) const override {
        inner_->transient_into(t0, p, ambient, dt, ws, out);
    }
    void transient_batch_into(const linalg::Vector& t0, const double* ps,
                              std::size_t nrhs, double ambient, double dt,
                              thermal::ThermalWorkspace& ws,
                              double* outs) const override {
        inner_->transient_batch_into(t0, ps, nrhs, ambient, dt, ws, outs);
    }
    double peak_core_temperature(const linalg::Vector& t0,
                                 const linalg::Vector& p, double ambient,
                                 double dt,
                                 std::size_t samples) const override {
        return inner_->peak_core_temperature(t0, p, ambient, dt, samples);
    }
    thermal::Peak peak_core_temperature_exact(const linalg::Vector& t0,
                                              const linalg::Vector& p,
                                              double ambient,
                                              double dt) const override {
        return inner_->peak_core_temperature_exact(t0, p, ambient, dt);
    }
    std::unique_ptr<const thermal::TransientSolver> clone_rebound(
        const thermal::ThermalModel& model) const override {
        return inner_->clone_rebound(model);
    }

private:
    bool is_idle(const linalg::Vector& p) const {
        const std::size_t n = model().core_count();
        for (std::size_t i = 0; i < n; ++i)
            if (bits(p[i]) != bits(idle_w_)) return false;
        return true;
    }
    bool is_mask(const linalg::Vector& rhs) const {
        const std::size_t n = model().core_count();
        bool any = false;
        for (std::size_t i = 0; i < rhs.size(); ++i) {
            if (rhs[i] == 1.0 && i < n) any = true;
            else if (rhs[i] != 0.0) return false;
        }
        return any;
    }

    const thermal::TransientSolver* inner_;
    double idle_w_;
};

/// Wraps a TSP-governed scheduler and, after every hook that consulted the
/// governor, checks its latest budget against a fresh per_core_budget of
/// the mapping it budgeted, bit for bit. It also counts the mask changes
/// the governor saw (PCMig's epoch budgets twice around a migration: the
/// mapping it started from, then the new one).
template <class Sched>
class Checked : public Sched {
public:
    Checked(const thermal::TransientSolver& fresh, double idle_w)
        : fresh_(&fresh), idle_w_(idle_w) {}

    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override {
        before(ctx);
        const bool placed = Sched::on_task_arrival(ctx, task);
        after(ctx);
        return placed;
    }
    void on_task_finish(sim::SimContext& ctx, sim::TaskId task) override {
        before(ctx);
        Sched::on_task_finish(ctx, task);
        after(ctx);
    }
    void on_epoch(sim::SimContext& ctx) override {
        before(ctx);
        Sched::on_epoch(ctx);
        after(ctx);
    }

    std::size_t checked = 0;
    std::size_t mask_changes = 0;

private:
    void before(const sim::SimContext& ctx) {
        sched::active_core_mask(ctx, start_mask_);
        calls_ = calls();
    }
    void after(const sim::SimContext& ctx) {
        const std::uint64_t d = calls() - calls_;
        if (d == 0) return;
        ASSERT_LE(d, 2u);
        const sched::TspGovernor& gov = this->tsp_governor();
        if (d == 2) note(start_mask_);
        note(gov.mask());
        std::vector<bool> now;
        sched::active_core_mask(ctx, now);
        EXPECT_EQ(gov.mask(), now);
        const double fresh =
            sched::TspBudget(*fresh_).per_core_budget(
                gov.mask(), idle_w_, ctx.config().ambient_c,
                ctx.config().t_dtm_c);
        EXPECT_EQ(bits(gov.last_budget()), bits(fresh))
            << "t = " << ctx.now();
        ++checked;
    }
    void note(const std::vector<bool>& mask) {
        if (!seen_any_ || mask != last_) ++mask_changes;
        seen_any_ = true;
        last_ = mask;
    }
    std::uint64_t calls() const {
        return this->tsp_governor().hits() + this->tsp_governor().misses();
    }

    const thermal::TransientSolver* fresh_;
    double idle_w_;
    std::vector<bool> start_mask_;
    std::vector<bool> last_;
    bool seen_any_ = false;
    std::uint64_t calls_ = 0;
};

/// Always-active 6.2 W compute loop: hot enough that PCMig migrates and
/// HotPotato+DVFS engages its fallback.
const workload::BenchmarkProfile& hot_loop() {
    static const workload::BenchmarkProfile profile{
        .name = "hotloop",
        .phases = {workload::PhaseSpec{
            .label = "loop",
            .master_instructions = 1e9,
            .worker_instructions = 1e9,
            .perf = {.base_cpi = 0.5, .llc_apki = 0.3,
                     .nominal_power_w = 6.2}}},
        .default_threads = 4,
    };
    return profile;
}

struct RunStats {
    std::size_t checked = 0;
    std::size_t mask_changes = 0;
    std::size_t idle_solves = 0;
    std::size_t sensitivity_solves = 0;
    std::uint64_t hits = 0;
    std::size_t migrations = 0;
};

/// Runs a Checked<Sched> on @p setup through a counting decorator: tasks
/// arrive in waves and finish, so the mapping changes several times.
template <class Sched>
RunStats run_checked(const campaign::StudySetup& setup, bool fill_chip,
                     double ambient_c) {
    sim::SimConfig cfg;
    // 200 epochs on 64 cores; 80 on the 256-core modal chip, whose runs
    // dominate this test's time in sanitized builds.
    cfg.max_sim_time_s = setup.chip().core_count() > 64 ? 0.08 : 0.2;
    cfg.ambient_c = ambient_c;
    const double idle_w = power::PowerModel(power::PowerParams{},
                                            setup.chip().dvfs())
                              .idle_power_w(cfg.t_dtm_c);
    CountingSolver counting(setup.solver(), idle_w);
    sim::Simulator sim(setup.chip(), setup.model(), counting, cfg);
    const std::size_t cores = setup.chip().core_count();
    if (fill_chip) {
        sim.add_task(workload::TaskSpec{&hot_loop(), cores, 0.0});
    } else {
        const std::size_t t = cores / 8;
        sim.add_task(workload::TaskSpec{&hot_loop(), t, 0.0});
        sim.add_task(workload::TaskSpec{
            &workload::profile_by_name("blackscholes"), t, 0.004});
        sim.add_task(workload::TaskSpec{&hot_loop(), t, 0.011});
        sim.add_task(workload::TaskSpec{
            &workload::profile_by_name("swaptions"), t / 2, 0.017});
    }
    Checked<Sched> sched(setup.solver(), idle_w);
    const sim::SimResult result = sim.run(sched);

    RunStats s;
    s.checked = sched.checked;
    s.mask_changes = sched.mask_changes;
    s.idle_solves = counting.idle_solves;
    s.sensitivity_solves = counting.sensitivity_solves;
    s.hits = sched.tsp_governor().hits();
    s.migrations = result.migrations;
    return s;
}

/// Ambient at which PCMig's DVFS alone no longer keeps the prediction
/// below T_DTM - 1 K on these workloads, so it migrates (and re-budgets).
constexpr double kMigratingAmbient = 67.0;

template <class Sched>
RunStats expect_memo_holds(const campaign::StudySetup& setup, bool fill_chip,
                           double ambient_c = 45.0) {
    const RunStats s = run_checked<Sched>(setup, fill_chip, ambient_c);
    SCOPED_TRACE(setup.solver().backend_name());
    EXPECT_GT(s.checked, 5u) << "the governor was barely consulted";
    EXPECT_GT(s.hits, 0u) << "no epoch repeated a mapping";
    EXPECT_LE(s.idle_solves, 1u);
    EXPECT_LE(s.sensitivity_solves, s.mask_changes);
    EXPECT_GT(s.sensitivity_solves, 0u);
    return s;
}

const campaign::StudySetup& setup64() {
    static const campaign::StudySetup s = campaign::StudySetup::paper_64core();
    return s;
}

const campaign::StudySetup& setup256() {
    static const campaign::StudySetup s = campaign::StudySetup::paper_256core(
        thermal::SolverConfig::modal());
    return s;
}

TEST(TspGovernor, PcGovBudgetsMatchFreshComputation) {
    expect_memo_holds<sched::PcGovScheduler>(setup64(), false);
}

TEST(TspGovernor, PcMigBudgetsMatchFreshComputation) {
    expect_memo_holds<sched::PcMigScheduler>(setup64(), false);
    const RunStats hot = expect_memo_holds<sched::PcMigScheduler>(
        setup64(), false, kMigratingAmbient);
    EXPECT_GT(hot.migrations, 0u) << "PCMig never re-budgeted a migration";
}

TEST(TspGovernor, TspDvfsBudgetsMatchFreshComputation) {
    expect_memo_holds<sched::TspDvfsScheduler>(setup64(), false);
}

TEST(TspGovernor, HotPotatoDvfsBudgetsMatchFreshComputation) {
    expect_memo_holds<core::HotPotatoDvfsScheduler>(setup64(), true);
}

TEST(TspGovernor, ModalPaper256CoreBudgetsMatchFreshComputation) {
    expect_memo_holds<sched::PcGovScheduler>(setup256(), false);
    const RunStats hot = expect_memo_holds<sched::PcMigScheduler>(
        setup256(), false, kMigratingAmbient);
    EXPECT_GT(hot.migrations, 0u) << "PCMig never re-budgeted a migration";
    expect_memo_holds<sched::TspDvfsScheduler>(setup256(), false);
    expect_memo_holds<core::HotPotatoDvfsScheduler>(setup256(), true);
}

std::vector<bool> mask_of(std::size_t n,
                          std::initializer_list<std::size_t> on) {
    std::vector<bool> m(n, false);
    for (std::size_t c : on) m[c] = true;
    return m;
}

constexpr double kIdle = 0.3;
constexpr double kAmbient = 45.0;
constexpr double kDtm = 70.0;

double fresh_budget(const thermal::TransientSolver& solver,
                    const std::vector<bool>& mask, double ambient = kAmbient,
                    double t_dtm = kDtm) {
    return sched::TspBudget(solver).per_core_budget(mask, kIdle, ambient,
                                                    t_dtm);
}

TEST(TspGovernor, MaskRevisitGivesTheSameAnswer) {
    const thermal::TransientSolver& solver = setup64().solver();
    CountingSolver counting(solver, kIdle);
    const std::vector<bool> a = mask_of(64, {0, 9, 18, 27});
    const std::vector<bool> b = mask_of(64, {0, 9, 18, 27, 36});
    sched::TspGovernor gov;
    const double first = gov.budget(counting, a, kIdle, kAmbient, kDtm);
    const double again = gov.budget(counting, a, kIdle, kAmbient, kDtm);
    const double other = gov.budget(counting, b, kIdle, kAmbient, kDtm);
    const double back = gov.budget(counting, a, kIdle, kAmbient, kDtm);
    EXPECT_EQ(bits(first), bits(fresh_budget(solver, a)));
    EXPECT_EQ(bits(again), bits(first));
    EXPECT_EQ(bits(other), bits(fresh_budget(solver, b)));
    EXPECT_EQ(bits(back), bits(first));
    EXPECT_NE(bits(other), bits(first));
    EXPECT_EQ(gov.hits(), 1u);
    EXPECT_EQ(gov.misses(), 3u);
    EXPECT_EQ(counting.idle_solves, 1u);  // T_idle survives mask changes
    EXPECT_EQ(counting.sensitivity_solves, 3u);
}

TEST(TspGovernor, ChangedAmbientOrThresholdMissesTheMemo) {
    const thermal::TransientSolver& solver = setup64().solver();
    CountingSolver counting(solver, kIdle);
    const std::vector<bool> a = mask_of(64, {3, 4, 11, 12});
    sched::TspGovernor gov;
    const double base = gov.budget(counting, a, kIdle, kAmbient, kDtm);
    const double warmer = gov.budget(counting, a, kIdle, kAmbient + 1, kDtm);
    EXPECT_EQ(counting.idle_solves, 2u);  // T_idle is keyed on ambient
    const double hotter = gov.budget(counting, a, kIdle, kAmbient, kDtm + 2);
    EXPECT_EQ(counting.idle_solves, 3u);
    EXPECT_EQ(gov.hits(), 0u);
    EXPECT_EQ(counting.sensitivity_solves, 3u);
    EXPECT_EQ(bits(base), bits(fresh_budget(solver, a)));
    EXPECT_EQ(bits(warmer), bits(fresh_budget(solver, a, kAmbient + 1)));
    EXPECT_EQ(bits(hotter), bits(fresh_budget(solver, a, kAmbient, kDtm + 2)));
    EXPECT_LT(warmer, base);
    EXPECT_GT(hotter, base);
    // The idle power is part of the key too.
    const double leakier = gov.budget(counting, a, kIdle + 0.1, kAmbient, kDtm);
    EXPECT_EQ(gov.hits(), 0u);
    EXPECT_NE(bits(leakier), bits(base));
}

TEST(TspGovernor, AnotherChipOrBackendMissesTheMemo) {
    const campaign::StudySetup dense16 =
        campaign::StudySetup::paper_16core(thermal::SolverConfig::dense());
    const campaign::StudySetup modal16 =
        campaign::StudySetup::paper_16core(thermal::SolverConfig::modal());
    const std::vector<bool> a16 = mask_of(16, {5, 6, 9, 10});
    const std::vector<bool> a64 = mask_of(64, {5, 6, 9, 10});
    sched::TspGovernor gov;
    const double d16 = gov.budget(dense16.solver(), a16, kIdle, kAmbient, kDtm);
    const double m16 = gov.budget(modal16.solver(), a16, kIdle, kAmbient, kDtm);
    const double d64 =
        gov.budget(setup64().solver(), a64, kIdle, kAmbient, kDtm);
    const double d16_again =
        gov.budget(dense16.solver(), a16, kIdle, kAmbient, kDtm);
    EXPECT_EQ(gov.hits(), 0u);
    EXPECT_EQ(bits(d16), bits(fresh_budget(dense16.solver(), a16)));
    EXPECT_EQ(bits(m16), bits(fresh_budget(modal16.solver(), a16)));
    EXPECT_EQ(bits(d64), bits(fresh_budget(setup64().solver(), a64)));
    EXPECT_EQ(bits(d16_again), bits(d16));
    EXPECT_NE(bits(d16), bits(d64));
    EXPECT_THROW(gov.budget(dense16.solver(), a64, kIdle, kAmbient, kDtm),
                 std::invalid_argument);
}

TEST(TspGovernor, NoActiveCoreBudgetsIdlePowerWithoutSolving) {
    CountingSolver counting(setup64().solver(), kIdle);
    sched::TspGovernor gov;
    EXPECT_EQ(gov.budget(counting, std::vector<bool>(64, false), kIdle,
                         kAmbient, kDtm),
              kIdle);
    EXPECT_EQ(counting.idle_solves, 0u);
    EXPECT_EQ(counting.sensitivity_solves, 0u);
}

}  // namespace

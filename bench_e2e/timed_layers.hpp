#pragma once

// Outside-in timing of two layers the simulator calls through virtual
// seams: the scheduler hooks (sim::Scheduler) and the thermal backend
// (thermal::TransientSolver). Each wrapper forwards every virtual to the
// wrapped object unchanged, so results are bit-identical with or without it;
// the benchmark checks that on every traced run.

#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "span_trace.hpp"
#include "thermal/solver.hpp"

namespace hp::bench_e2e {

/// Scheduler wrapper. @p log (may be null) gets one span per hook call;
/// @p decisions (may be null) gets the host seconds of every decision hook
/// (task arrival, task finish, epoch) — the scheduling-decision latency.
class TimedScheduler final : public sim::Scheduler {
public:
    TimedScheduler(std::unique_ptr<sim::Scheduler> inner, SpanLog* log,
                   std::vector<double>* decisions)
        : inner_(std::move(inner)), log_(log), decisions_(decisions) {}

    std::string name() const override { return inner_->name(); }

    void initialize(sim::SimContext& ctx) override {
        SpanScope span(log_, "sched.initialize");
        inner_->initialize(ctx);
    }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override {
        const Decision timer(*this, "sched.on_task_arrival");
        return inner_->on_task_arrival(ctx, task);
    }
    void on_task_finish(sim::SimContext& ctx, sim::TaskId task) override {
        const Decision timer(*this, "sched.on_task_finish");
        inner_->on_task_finish(ctx, task);
    }
    void on_core_failure(sim::SimContext& ctx, std::size_t core,
                         const std::vector<sim::ThreadId>& evicted) override {
        SpanScope span(log_, "sched.on_core_failure");
        inner_->on_core_failure(ctx, core, evicted);
    }
    void on_core_recovery(sim::SimContext& ctx, std::size_t core) override {
        SpanScope span(log_, "sched.on_core_recovery");
        inner_->on_core_recovery(ctx, core);
    }
    void on_epoch(sim::SimContext& ctx) override {
        const Decision timer(*this, "sched.on_epoch");
        inner_->on_epoch(ctx);
    }
    void on_step(sim::SimContext& ctx) override {
        SpanScope span(log_, "sched.on_step");
        inner_->on_step(ctx);
    }

private:
    class Decision {
    public:
        Decision(TimedScheduler& owner, const char* name)
            : owner_(owner), span_(owner.log_, name) {
            if (owner_.decisions_) start_ = Clock::now();
        }
        ~Decision() {
            if (owner_.decisions_)
                owner_.decisions_->push_back(seconds_since(start_));
        }
        Decision(const Decision&) = delete;
        Decision& operator=(const Decision&) = delete;

    private:
        TimedScheduler& owner_;
        SpanScope span_;
        Clock::time_point start_{};
    };

    std::unique_ptr<sim::Scheduler> inner_;
    SpanLog* log_;
    std::vector<double>* decisions_;
};

/// Thermal-backend wrapper: a span per compute call (metadata accessors are
/// forwarded untimed). One instance per thread — the log is not shared.
class TimedSolver final : public thermal::TransientSolver {
public:
    TimedSolver(const thermal::TransientSolver& inner, SpanLog& log)
        : inner_(inner), log_(log) {}

    const thermal::ThermalModel& model() const override {
        return inner_.model();
    }
    const char* backend_name() const override {
        return inner_.backend_name();
    }
    std::uint64_t backend_signature() const override {
        return inner_.backend_signature();
    }
    bool truncated() const override { return inner_.truncated(); }
    double error_bound_c() const override { return inner_.error_bound_c(); }
    double tolerance_c() const override { return inner_.tolerance_c(); }
    std::size_t mode_count() const override { return inner_.mode_count(); }
    const linalg::Vector& eigenvalues() const override {
        return inner_.eigenvalues();
    }
    const linalg::Matrix& mode_shapes() const override {
        return inner_.mode_shapes();
    }
    linalg::Matrix modal_steady_map() const override {
        SpanScope span(&log_, "thermal.setup");
        return inner_.modal_steady_map();
    }
    double cluster_pole() const override { return inner_.cluster_pole(); }

    linalg::Vector steady_state(const linalg::Vector& node_power,
                                double ambient_celsius) const override {
        SpanScope span(&log_, "thermal.steady");
        return inner_.steady_state(node_power, ambient_celsius);
    }
    void steady_state_into(const linalg::Vector& node_power,
                           double ambient_celsius,
                           thermal::ThermalWorkspace& workspace,
                           linalg::Vector& out) const override {
        SpanScope span(&log_, "thermal.steady");
        inner_.steady_state_into(node_power, ambient_celsius, workspace, out);
    }
    void steady_state_batch_into(const double* node_powers, std::size_t nrhs,
                                 double ambient_celsius,
                                 thermal::ThermalWorkspace& workspace,
                                 double* out) const override {
        SpanScope span(&log_, "thermal.steady");
        inner_.steady_state_batch_into(node_powers, nrhs, ambient_celsius,
                                       workspace, out);
    }
    linalg::Vector conductance_solve(
        const linalg::Vector& rhs) const override {
        SpanScope span(&log_, "thermal.solve");
        return inner_.conductance_solve(rhs);
    }
    void conductance_solve_into(const linalg::Vector& rhs,
                                thermal::ThermalWorkspace& workspace,
                                linalg::Vector& out) const override {
        SpanScope span(&log_, "thermal.solve");
        inner_.conductance_solve_into(rhs, workspace, out);
    }
    void conductance_solve_batch_into(const double* rhs, std::size_t nrhs,
                                      thermal::ThermalWorkspace& workspace,
                                      double* out) const override {
        SpanScope span(&log_, "thermal.solve");
        inner_.conductance_solve_batch_into(rhs, nrhs, workspace, out);
    }

    linalg::Vector apply_exponential(const linalg::Vector& x,
                                     double dt) const override {
        SpanScope span(&log_, "thermal.expo");
        return inner_.apply_exponential(x, dt);
    }
    void apply_exponential_into(const linalg::Vector& x, double dt,
                                thermal::ThermalWorkspace& workspace,
                                linalg::Vector& out) const override {
        SpanScope span(&log_, "thermal.expo");
        inner_.apply_exponential_into(x, dt, workspace, out);
    }
    void apply_exponential_batch_into(const double* xs, std::size_t nrhs,
                                      double dt,
                                      thermal::ThermalWorkspace& workspace,
                                      double* outs) const override {
        SpanScope span(&log_, "thermal.expo");
        inner_.apply_exponential_batch_into(xs, nrhs, dt, workspace, outs);
    }
    linalg::Matrix exponential(double dt) const override {
        SpanScope span(&log_, "thermal.setup");
        return inner_.exponential(dt);
    }

    linalg::Vector transient(const linalg::Vector& t_init,
                             const linalg::Vector& node_power,
                             double ambient_celsius,
                             double dt) const override {
        SpanScope span(&log_, "thermal.transient");
        return inner_.transient(t_init, node_power, ambient_celsius, dt);
    }
    void transient_into(const linalg::Vector& t_init,
                        const linalg::Vector& node_power,
                        double ambient_celsius, double dt,
                        thermal::ThermalWorkspace& workspace,
                        linalg::Vector& out) const override {
        SpanScope span(&log_, "thermal.transient");
        inner_.transient_into(t_init, node_power, ambient_celsius, dt,
                              workspace, out);
    }
    void transient_batch_into(const linalg::Vector& t_init,
                              const double* node_powers, std::size_t nrhs,
                              double ambient_celsius, double dt,
                              thermal::ThermalWorkspace& workspace,
                              double* outs) const override {
        SpanScope span(&log_, "thermal.transient");
        inner_.transient_batch_into(t_init, node_powers, nrhs,
                                    ambient_celsius, dt, workspace, outs);
    }

    double peak_core_temperature(const linalg::Vector& t_init,
                                 const linalg::Vector& node_power,
                                 double ambient_celsius, double dt,
                                 std::size_t samples) const override {
        SpanScope span(&log_, "thermal.peak");
        return inner_.peak_core_temperature(t_init, node_power,
                                            ambient_celsius, dt, samples);
    }
    thermal::Peak peak_core_temperature_exact(
        const linalg::Vector& t_init, const linalg::Vector& node_power,
        double ambient_celsius, double dt) const override {
        SpanScope span(&log_, "thermal.peak");
        return inner_.peak_core_temperature_exact(t_init, node_power,
                                                  ambient_celsius, dt);
    }

    std::unique_ptr<const thermal::TransientSolver> clone_rebound(
        const thermal::ThermalModel& model) const override {
        return inner_.clone_rebound(model);
    }

private:
    const thermal::TransientSolver& inner_;
    SpanLog& log_;
};

}  // namespace hp::bench_e2e

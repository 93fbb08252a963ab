#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/tsp.hpp"
#include "sim/scheduler.hpp"

namespace hp::sched {

/// Pins threads to a fixed list of cores at peak frequency; no thermal
/// management at all. Used for the Fig. 2(a) "thermally unsustainable"
/// reference run. Threads of arriving tasks consume the core list in order;
/// with an empty list the lowest-AMD free cores are used.
class StaticScheduler : public sim::Scheduler {
public:
    explicit StaticScheduler(std::vector<std::size_t> fixed_cores = {})
        : fixed_cores_(std::move(fixed_cores)) {}

    std::string name() const override { return "static"; }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override;

private:
    std::vector<std::size_t> fixed_cores_;
    std::size_t next_fixed_ = 0;
};

/// StaticScheduler placement plus TSP-based DVFS power budgeting every epoch
/// — the Fig. 2(b) reference (DVFS-only thermal management at the
/// state-of-the-art power budget).
class TspDvfsScheduler : public sim::Scheduler {
public:
    explicit TspDvfsScheduler(std::vector<std::size_t> fixed_cores = {})
        : fixed_cores_(std::move(fixed_cores)) {}

    std::string name() const override { return "tsp-dvfs"; }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override;
    void on_epoch(sim::SimContext& ctx) override;

    const TspGovernor& tsp_governor() const { return tsp_; }

private:
    std::vector<std::size_t> fixed_cores_;
    std::size_t next_fixed_ = 0;
    TspGovernor tsp_;
};

/// Synchronously rotates all threads around a fixed cycle of cores at peak
/// frequency with a fixed interval — the Fig. 2(c) reference (pure rotation,
/// no Algorithm 2 adaptivity).
class FixedRotationScheduler : public sim::Scheduler {
public:
    /// @p cycle is the rotation cycle (e.g. the four centre cores);
    /// @p interval_s the rotation epoch τ (paper: 0.5 ms).
    FixedRotationScheduler(std::vector<std::size_t> cycle, double interval_s);

    std::string name() const override { return "fixed-rotation"; }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override;
    void on_step(sim::SimContext& ctx) override;

private:
    std::vector<std::size_t> cycle_;
    double interval_s_;
    double next_rotation_s_;
    std::size_t next_slot_ = 0;
};

}  // namespace hp::sched

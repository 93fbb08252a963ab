#pragma once

#include <string>

#include "sched/tsp.hpp"
#include "sim/scheduler.hpp"

namespace hp::sched {

/// PCGov (Rapp et al., TC'19): DVFS-based thermal-aware scheduler for S-NUCA
/// many-cores.
///
/// Placement is performance-greedy (threads go to the lowest-AMD free cores,
/// where the distributed LLC is closest); thermal safety is enforced
/// exclusively through TSP power budgeting: every epoch each core's
/// frequency is clamped to the highest DVFS level whose power fits the
/// per-core budget of the current mapping (TspGovernor, which re-solves the
/// budget only when the mapping changed).
class PcGovScheduler : public sim::Scheduler {
public:
    std::string name() const override { return "PCGov"; }

    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override;
    void on_epoch(sim::SimContext& ctx) override;

    const TspGovernor& tsp_governor() const { return tsp_; }

protected:
    /// Budgets the current mapping and applies per-core DVFS; shared with
    /// PCMig.
    void apply_tsp_dvfs(sim::SimContext& ctx) { tsp_.apply(ctx); }

private:
    TspGovernor tsp_;
};

}  // namespace hp::sched

#include "sched/pcgov.hpp"

#include "sched/placement.hpp"

namespace hp::sched {

bool PcGovScheduler::on_task_arrival(sim::SimContext& ctx, sim::TaskId task) {
    const sim::Task& t = ctx.task(task);
    const std::vector<std::size_t> cores =
        spaced_cores_by_amd(ctx, t.thread_count);
    if (cores.empty()) return false;
    place_task_threads(ctx, task, cores);
    apply_tsp_dvfs(ctx);
    return true;
}

void PcGovScheduler::on_epoch(sim::SimContext& ctx) { apply_tsp_dvfs(ctx); }

}  // namespace hp::sched

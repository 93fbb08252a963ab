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

void PcGovScheduler::apply_tsp_dvfs(sim::SimContext& ctx) {
    const std::vector<bool> mask = active_core_mask(ctx);
    TspBudget tsp(ctx.solver());
    const double idle = ctx.power_model().idle_power_w(ctx.config().t_dtm_c);
    const double budget = tsp.per_core_budget(
        mask, idle, ctx.config().ambient_c, ctx.config().t_dtm_c);

    const double f_ref = ctx.power_model().params().f_ref_hz;
    for (std::size_t c = 0; c < mask.size(); ++c) {
        if (!mask[c]) continue;
        const sim::ThreadId id = ctx.thread_on(c);
        const perf::PhasePoint& point = ctx.thread_phase_point(id);
        const double f = ctx.power_model().max_frequency_within(
            budget, point.nominal_power_w,
            [&](double fc) {
                return ctx.perf_model().power_activity(point, c, fc, f_ref);
            },
            ctx.config().t_dtm_c);
        ctx.set_frequency(c, f);
    }
}

}  // namespace hp::sched

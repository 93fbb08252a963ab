#include "sched/static_schedulers.hpp"

#include <stdexcept>

#include "sched/placement.hpp"

namespace hp::sched {

namespace {

/// Consumes @p count cores from @p fixed (advancing @p next) or falls back to
/// the lowest-AMD free cores. Returns an empty vector if not enough cores.
std::vector<std::size_t> pick_cores(sim::SimContext& ctx,
                                    const std::vector<std::size_t>& fixed,
                                    std::size_t& next, std::size_t count) {
    std::vector<std::size_t> out;
    if (!fixed.empty()) {
        if (next + count > fixed.size()) return {};
        for (std::size_t i = 0; i < count; ++i) out.push_back(fixed[next + i]);
        for (std::size_t c : out)
            if (ctx.thread_on(c) != sim::kNone)
                throw std::logic_error("fixed core already occupied");
        next += count;
        return out;
    }
    std::vector<std::size_t> free = free_cores_by_amd(ctx);
    if (free.size() < count) return {};
    free.resize(count);
    return free;
}

}  // namespace

bool StaticScheduler::on_task_arrival(sim::SimContext& ctx,
                                      sim::TaskId task) {
    const std::vector<std::size_t> cores = pick_cores(
        ctx, fixed_cores_, next_fixed_, ctx.task(task).thread_count);
    if (cores.empty()) return false;
    place_task_threads(ctx, task, cores);
    return true;
}

bool TspDvfsScheduler::on_task_arrival(sim::SimContext& ctx,
                                       sim::TaskId task) {
    const std::vector<std::size_t> cores = pick_cores(
        ctx, fixed_cores_, next_fixed_, ctx.task(task).thread_count);
    if (cores.empty()) return false;
    place_task_threads(ctx, task, cores);
    return true;
}

void TspDvfsScheduler::on_epoch(sim::SimContext& ctx) {
    const std::vector<bool> mask = active_core_mask(ctx);
    TspBudget tsp(ctx.solver());
    const double idle =
        ctx.power_model().idle_power_w(ctx.config().t_dtm_c);
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

FixedRotationScheduler::FixedRotationScheduler(std::vector<std::size_t> cycle,
                                               double interval_s)
    : cycle_(std::move(cycle)),
      interval_s_(interval_s),
      next_rotation_s_(interval_s) {
    if (cycle_.size() < 2)
        throw std::invalid_argument(
            "FixedRotationScheduler: cycle needs >= 2 cores");
    if (interval_s_ <= 0.0)
        throw std::invalid_argument(
            "FixedRotationScheduler: interval must be positive");
}

bool FixedRotationScheduler::on_task_arrival(sim::SimContext& ctx,
                                             sim::TaskId task) {
    const sim::Task& t = ctx.task(task);
    if (next_slot_ + t.thread_count > cycle_.size()) return false;
    std::vector<std::size_t> cores(cycle_.begin() + next_slot_,
                                   cycle_.begin() + next_slot_ +
                                       t.thread_count);
    next_slot_ += t.thread_count;
    place_task_threads(ctx, task, cores);
    return true;
}

void FixedRotationScheduler::on_step(sim::SimContext& ctx) {
    if (ctx.now() + 1e-12 < next_rotation_s_) return;
    ctx.rotate(cycle_);
    next_rotation_s_ += interval_s_;
}

}  // namespace hp::sched

#include "sched/placement.hpp"

#include <algorithm>

namespace hp::sched {

std::vector<std::size_t> free_cores_by_amd(const sim::SimContext& ctx) {
    std::vector<std::size_t> cores = ctx.free_cores();
    const arch::ManyCore& chip = ctx.chip();
    std::sort(cores.begin(), cores.end(), [&](std::size_t a, std::size_t b) {
        if (chip.amd(a) != chip.amd(b)) return chip.amd(a) < chip.amd(b);
        return a < b;
    });
    return cores;
}

std::vector<std::size_t> spaced_cores_by_amd(const sim::SimContext& ctx,
                                             std::size_t count) {
    const arch::ManyCore& chip = ctx.chip();
    std::vector<std::size_t> free = ctx.free_cores();
    if (free.size() < count) return {};

    std::vector<bool> occupied(chip.core_count(), false);
    for (std::size_t c = 0; c < chip.core_count(); ++c)
        occupied[c] = ctx.thread_on(c) != sim::kNone;

    std::vector<std::size_t> picked;
    std::vector<bool> taken(chip.core_count(), false);
    while (picked.size() < count) {
        std::size_t best = sim::kNone;
        std::size_t best_neighbours = SIZE_MAX;
        double best_amd = 1e300;
        for (std::size_t c : free) {
            if (taken[c]) continue;
            std::size_t hot_neighbours = 0;
            for (std::size_t nb : chip.plan().neighbors(c))
                if (occupied[nb]) ++hot_neighbours;
            if (hot_neighbours < best_neighbours ||
                (hot_neighbours == best_neighbours &&
                 chip.amd(c) < best_amd)) {
                best = c;
                best_neighbours = hot_neighbours;
                best_amd = chip.amd(c);
            }
        }
        picked.push_back(best);
        taken[best] = true;
        occupied[best] = true;
    }
    return picked;
}

void place_task_threads(sim::SimContext& ctx, sim::TaskId task,
                        const std::vector<std::size_t>& cores) {
    const sim::Task& t = ctx.task(task);
    for (std::size_t i = 0; i < t.threads.size(); ++i)
        ctx.place(t.threads[i], cores[i]);
}

void active_core_mask(const sim::SimContext& ctx, std::vector<bool>& out) {
    out.resize(ctx.chip().core_count());
    for (std::size_t c = 0; c < out.size(); ++c)
        out[c] = ctx.thread_on(c) != sim::kNone;
}

}  // namespace hp::sched

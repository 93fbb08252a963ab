#pragma once

#include <cstddef>
#include <vector>

#include "sim/context.hpp"

namespace hp::sched {

/// Free cores sorted by ascending AMD (performance-best first), ties broken
/// by core id for determinism.
std::vector<std::size_t> free_cores_by_amd(const sim::SimContext& ctx);

/// Power- and cache-aware placement after PCGov: picks @p count free cores
/// greedily, preferring cores with no occupied neighbours first (spacing
/// raises the TSP budget of the resulting mapping) and low AMD second (LLC
/// proximity). Threads placed earlier in the same call count as occupied for
/// later picks. Returns an empty vector if fewer than @p count cores are
/// free.
std::vector<std::size_t> spaced_cores_by_amd(const sim::SimContext& ctx,
                                             std::size_t count);

/// Places all threads of @p task on @p cores (one per thread, in order).
/// Precondition: cores.size() >= thread count and every core is free.
void place_task_threads(sim::SimContext& ctx, sim::TaskId task,
                        const std::vector<std::size_t>& cores);

/// Occupancy mask over cores (true where a thread is mapped), written into
/// @p out (resized to the core count; no allocation once it has that size).
void active_core_mask(const sim::SimContext& ctx, std::vector<bool>& out);

}  // namespace hp::sched

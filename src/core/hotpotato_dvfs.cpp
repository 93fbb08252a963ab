#include "core/hotpotato_dvfs.hpp"

#include <algorithm>

namespace hp::core {

void HotPotatoDvfsScheduler::on_epoch(sim::SimContext& ctx) {
    HotPotatoScheduler::on_epoch(ctx);

    const double limit = ctx.config().t_dtm_c - params().headroom_delta_c;
    if (last_predicted_peak_c() >= limit && at_fastest_rotation()) {
        engage(ctx);
    } else if (engaged_) {
        relax(ctx);
    }
}

void HotPotatoDvfsScheduler::engage(sim::SimContext& ctx) {
    tsp_.apply(ctx);
    // The re-clock shifts every thread's power history, so cached peak
    // predictions keyed on the old powers are stale.
    invalidate_peak_cache();
    engaged_ = true;
}

void HotPotatoDvfsScheduler::relax(sim::SimContext& ctx) {
    const arch::DvfsParams& dvfs = ctx.chip().dvfs();
    bool all_at_max = true;
    for (std::size_t c = 0; c < ctx.chip().core_count(); ++c) {
        const double f = ctx.frequency(c);
        if (f < dvfs.f_max_hz) {
            ctx.set_frequency(c, std::min(dvfs.f_max_hz, f + dvfs.step_hz));
            all_at_max = false;
        }
    }
    if (!all_at_max) invalidate_peak_cache();
    if (all_at_max) engaged_ = false;
}

}  // namespace hp::core

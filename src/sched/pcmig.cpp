#include "sched/pcmig.hpp"

#include <algorithm>

#include "core/peak_cache.hpp"
#include "linalg/vector.hpp"

namespace hp::sched {

void PcMigScheduler::initialize(sim::SimContext& ctx) {
    PcGovScheduler::initialize(ctx);
    // Borrow the (arena-backed) prediction workspace from the campaign
    // worker's scratch bag when one exists.
    if (exec::WorkerScratch* scratch = ctx.worker_scratch())
        predict_ws_ = &scratch->slot<thermal::ThermalWorkspace>();
    else
        predict_ws_ = &own_predict_ws_;
    if (obs::Recorder* obs = ctx.observer())
        obs_predictions_ = &obs->counter("pcmig.predictions");
}

const linalg::Vector& PcMigScheduler::predict(sim::SimContext& ctx) {
    if (obs_predictions_) obs_predictions_->add();
    const std::size_t n = ctx.chip().core_count();
    if (predict_power_.size() != n) predict_power_ = linalg::Vector(n);
    // Powers go onto the 2^-10 W prediction grid, like HotPotato's
    // Algorithm-1 inputs (see core::quantise_power_w).
    for (std::size_t c = 0; c < n; ++c)
        predict_power_[c] = core::quantise_power_w(ctx.core_power(c));
    ctx.thermal_model().pad_power_into(predict_power_, predict_node_power_);
    ctx.solver().transient_into(ctx.temperatures(), predict_node_power_,
                                ctx.config().ambient_c,
                                params_.prediction_horizon_s, *predict_ws_,
                                predicted_);
    return predicted_;
}

void PcMigScheduler::on_epoch(sim::SimContext& ctx) {
    // DVFS first (PCGov behaviour), then check whether DVFS alone suffices.
    apply_tsp_dvfs(ctx);

    const double limit = ctx.config().t_dtm_c - params_.migration_margin_c;
    for (std::size_t m = 0; m < params_.max_migrations_per_epoch; ++m) {
        const linalg::Vector& predicted = predict(ctx);
        // Hottest predicted core that actually hosts a thread.
        std::size_t hottest = sim::kNone;
        double hottest_t = limit;
        for (std::size_t c = 0; c < ctx.chip().core_count(); ++c) {
            if (ctx.thread_on(c) == sim::kNone) continue;
            if (predicted[c] > hottest_t) {
                hottest_t = predicted[c];
                hottest = c;
            }
        }
        if (hottest == sim::kNone) break;  // nothing is about to overheat

        // Coolest free core as evacuation target (free_cores()'s set and
        // order, without materialising the list).
        std::size_t coolest = sim::kNone;
        double coolest_t = 1e300;
        for (std::size_t c = 0; c < ctx.chip().core_count(); ++c) {
            if (ctx.thread_on(c) != sim::kNone || !ctx.core_available(c))
                continue;
            if (predicted[c] < coolest_t) {
                coolest_t = predicted[c];
                coolest = c;
            }
        }
        if (coolest == sim::kNone) break;  // fully loaded: DVFS must cope
        if (coolest_t >= hottest_t) break; // no thermal benefit available

        ctx.migrate(ctx.thread_on(hottest), coolest);
        apply_tsp_dvfs(ctx);  // mapping changed; rebudget
    }
}

}  // namespace hp::sched

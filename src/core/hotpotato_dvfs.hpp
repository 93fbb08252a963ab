#pragma once

#include <string>

#include "core/hotpotato.hpp"
#include "sched/tsp.hpp"

namespace hp::core {

/// HotPotato unified with DVFS — the paper's stated future work ("we plan to
/// unify synchronous task rotation with DVFS for even more efficient thermal
/// management").
///
/// Plain HotPotato has exactly one knob: the rotation. When the chip-wide
/// *average* power is unsustainable (e.g. a fully-loaded chip of hot,
/// always-active threads), no rotation interval generates headroom and the
/// hardware DTM becomes the de-facto — and inefficient — throttle (bang-bang
/// between f_max and f_min). This extension keeps rotation as the primary,
/// performance-free knob and engages fine-grained DVFS only when the
/// heuristic is pinned at the fastest rotation and still predicts an unsafe
/// peak: active cores are then clamped to a TSP-style uniform power budget.
/// Once the predicted peak regains headroom, frequencies step back up one
/// DVFS level per epoch until the chip is at peak frequency again.
class HotPotatoDvfsScheduler : public HotPotatoScheduler {
public:
    explicit HotPotatoDvfsScheduler(HotPotatoParams params = {})
        : HotPotatoScheduler(std::move(params)) {}

    std::string name() const override { return "HotPotato+DVFS"; }

    void on_epoch(sim::SimContext& ctx) override;

    /// True while the DVFS fallback is clamping frequencies.
    bool dvfs_engaged() const { return engaged_; }

    const sched::TspGovernor& tsp_governor() const { return tsp_; }

private:
    /// Clamps every occupied core's frequency to the TSP budget for the
    /// current mapping.
    void engage(sim::SimContext& ctx);
    /// Raises every core one DVFS level; disengages when all are at f_max.
    void relax(sim::SimContext& ctx);

    bool engaged_ = false;
    sched::TspGovernor tsp_;
};

}  // namespace hp::core

#pragma once

#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "sched/pcgov.hpp"
#include "thermal/workspace.hpp"

namespace hp::sched {

/// Tunables of PCMig's on-demand migration policy.
struct PcMigParams {
    /// Look-ahead horizon of the temperature prediction.
    double prediction_horizon_s = 5e-3;
    /// Migrate when the predicted peak comes within this margin of T_DTM.
    double migration_margin_c = 1.0;
    /// At most this many migrations per scheduler epoch (migration is a
    /// measure of last resort in PCMig, not a periodic activity).
    std::size_t max_migrations_per_epoch = 1;
};

/// PCMig (Rapp et al., TC'20/DATE'19): the state-of-the-art thermal-aware
/// S-NUCA scheduler the paper compares against.
///
/// Extends PCGov's TSP-driven DVFS with *asynchronous, on-demand* thread
/// migrations: every epoch it predicts the temperature a few milliseconds
/// ahead and, if a core is about to reach the DTM threshold, evacuates its
/// thread to the coolest free core.
///
/// Substitution note (DESIGN.md §2): the original uses a neural network to
/// predict post-migration temperatures; here the prediction is the exact
/// MatEx transient the network was trained to approximate.
class PcMigScheduler : public PcGovScheduler {
public:
    explicit PcMigScheduler(PcMigParams params = {}) : params_(params) {}

    std::string name() const override { return "PCMig"; }

    void initialize(sim::SimContext& ctx) override;
    void on_epoch(sim::SimContext& ctx) override;

private:
    /// Predicted per-node temperatures after the horizon, holding current
    /// power constant. Returns a reference to per-instance scratch, valid
    /// until the next call.
    const linalg::Vector& predict(sim::SimContext& ctx);

    PcMigParams params_;
    obs::Counter* obs_predictions_ = nullptr;  // null when observability off
    // Prediction scratch. Inside a campaign worker the workspace is borrowed
    // from the worker's WorkerScratch bag (arena-backed, one per worker,
    // distinct from the simulator's workspace so the e^{λ·dt} memos of the
    // micro-step dt and the prediction horizon never thrash each other);
    // elsewhere the scheduler owns it. Safe to share across runs: every
    // buffer is fully overwritten or memo-validated before use.
    thermal::ThermalWorkspace own_predict_ws_;
    thermal::ThermalWorkspace* predict_ws_ = &own_predict_ws_;
    linalg::Vector predict_power_;
    linalg::Vector predict_node_power_;
    linalg::Vector predicted_;
};

}  // namespace hp::sched

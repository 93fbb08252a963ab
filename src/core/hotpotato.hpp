#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/peak_temperature.hpp"
#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"

namespace hp::core {

/// Tunables of the HotPotato heuristic (paper §V-§VI).
struct HotPotatoParams {
    /// Initial rotation interval τ (paper: 0.5 ms).
    double initial_rotation_interval_s = 0.5e-3;
    /// Thermal headroom Δ that triggers re-optimisation (paper: 1 °C).
    double headroom_delta_c = 1.0;
    /// Discrete τ ladder updateRotationSpeed() walks; ascending. Values above
    /// the top rung mean "rotation off".
    std::vector<double> tau_ladder_s = {0.125e-3, 0.25e-3, 0.5e-3,
                                        1e-3,     2e-3,    4e-3};
    /// Intra-epoch samples used by the peak-temperature analysis.
    std::size_t samples_per_epoch = 2;
    /// Cap on promotion migrations per epoch (keeps the heuristic from
    /// thrashing threads between rings on noisy power history).
    std::size_t max_promotions_per_epoch = 2;
    /// Graceful-degradation knob: while any thermal sensor is flagged
    /// untrusted (voting filter), every core is throttled to this fraction
    /// of f_max (quantised down to a DVFS level). Rotation keeps running —
    /// the fallback only surrenders the "always at peak frequency" property
    /// until sensing recovers.
    double sensor_fallback_freq_fraction = 0.75;
};

/// HotPotato: thermal management of S-NUCA many-cores via synchronous thread
/// rotations (the paper's contribution, Algorithm 2).
///
/// Threads are assigned to concentric AMD rings; every ring rotates its
/// threads by one core each τ seconds, averaging heat over the ring so that
/// no core ever exceeds the DTM threshold. Placement greedily prefers the
/// lowest-AMD (fastest) ring that the analytical peak-temperature method
/// (Algorithm 1) certifies as thermally safe; when threads leave, freed
/// headroom is spent promoting the most memory-bound (highest-CPI) threads
/// inward and slowing the rotation; when even the outermost ring is unsafe,
/// the rotation speeds up until enough headroom is generated. HotPotato
/// never uses DVFS — all cores run at peak frequency.
class HotPotatoScheduler : public sim::Scheduler {
public:
    explicit HotPotatoScheduler(HotPotatoParams params = {});

    std::string name() const override { return "HotPotato"; }

    void initialize(sim::SimContext& ctx) override;
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override;
    void on_task_finish(sim::SimContext& ctx, sim::TaskId task) override;
    void on_epoch(sim::SimContext& ctx) override;
    void on_step(sim::SimContext& ctx) override;
    /// Graceful degradation on core loss: re-forms the AMD rings without the
    /// dead core, re-places the evicted threads (queueing any that do not
    /// fit) and restores thermal safety for the shrunken chip.
    void on_core_failure(sim::SimContext& ctx, std::size_t core,
                         const std::vector<sim::ThreadId>& evicted) override;
    /// Re-admits a recovered core to its ring and retries displaced threads.
    void on_core_recovery(sim::SimContext& ctx, std::size_t core) override;

    // Introspection (tests, benchmarks, examples).
    bool rotation_enabled() const { return rotation_on_; }
    double rotation_interval_s() const;
    /// True when the heuristic has exhausted its rotation knob (rotation on
    /// at the fastest ladder rung) — the condition under which the DVFS
    /// extension engages.
    bool at_fastest_rotation() const { return rotation_on_ && tau_index_ == 0; }
    /// True while the untrusted-sensor conservative throttle is engaged.
    bool sensor_fallback_engaged() const { return sensor_fallback_; }
    /// Evicted threads still waiting for a free slot (normally empty).
    const std::vector<sim::ThreadId>& displaced_threads() const {
        return displaced_;
    }
    double last_predicted_peak_c() const { return last_predicted_peak_c_; }
    /// Largest peak prediction made over the whole run — the conservatism
    /// bound tests compare the observed peak against.
    double max_predicted_peak_c() const { return max_predicted_peak_c_; }
    /// Predicted peak for the current assignment at the current rotation
    /// setting; public so the overhead benchmark can time Algorithm 1+2 work.
    double predict_peak(sim::SimContext& ctx) const;

protected:
    const HotPotatoParams& params() const { return params_; }

private:
    struct Ring {
        std::vector<std::size_t> cores;   ///< rotation cycle order
        std::vector<sim::ThreadId> slots; ///< occupant per core position
        double amd = 0.0;

        std::size_t occupied() const;
        std::optional<std::size_t> first_free_slot() const;
    };

    void ensure_analyzer(sim::SimContext& ctx);
    void sync_finished_threads(sim::SimContext& ctx);
    /// Rebuilds rings_ from the chip's AMD rings, excluding offline cores and
    /// seeding slots from the current mapping.
    void rebuild_rings(sim::SimContext& ctx);
    /// Retries placement of threads displaced by core failures.
    void retry_displaced(sim::SimContext& ctx);
    /// Engages/releases the conservative DVFS throttle on sensor trust.
    void update_sensor_fallback(sim::SimContext& ctx);
    double slot_power(sim::SimContext& ctx, sim::ThreadId id) const;
    /// Fills spec_scratch_ from the current rings (all rings, including
    /// unoccupied ones — the analyzer skips all-idle rings itself) and
    /// returns it. Reuses the per-ring vectors, so a warmed-up call is
    /// allocation-free.
    const std::vector<RotationRingSpec>& build_ring_specs(
        sim::SimContext& ctx) const;
    /// Predicted peak with an explicit rotation setting.
    double predict_peak_with(sim::SimContext& ctx, bool rotation_on,
                             std::size_t tau_index) const;
    /// Fills static_power_scratch_ with the current assignment's quantised
    /// per-core powers (idle everywhere a slot is empty).
    void build_static_powers(sim::SimContext& ctx) const;
    /// Rotation-off placement: scores every free slot of ring @p ring_index
    /// as one batched multi-candidate slate and returns the slot with the
    /// lowest static peak, or nullopt when the ring is full.
    std::optional<std::size_t> best_static_slot(sim::SimContext& ctx,
                                                std::size_t ring_index,
                                                sim::ThreadId id);
    /// Algorithm 2 lines 1-14 for a single thread. Returns false only when
    /// no ring has a free slot at all.
    bool place_thread(sim::SimContext& ctx, sim::ThreadId id);
    /// Lines 8-14: restore safety by speeding the rotation and demoting the
    /// least memory-bound threads outward.
    void restore_safety(sim::SimContext& ctx);
    /// Lines 16-27: spend surplus headroom on inward promotions and slower
    /// rotation.
    void exploit_headroom(sim::SimContext& ctx);
    /// Emits a τ-adaptation event + counter tick after a rotation-speed or
    /// rotation-on/off change (no-op without an observer).
    void note_tau_change(sim::SimContext& ctx);
    void assign(sim::SimContext& ctx, sim::ThreadId id, std::size_t ring,
                std::size_t slot);
    /// Moves a thread between rings (free destination slot required).
    void move_thread(sim::SimContext& ctx, sim::ThreadId id,
                     std::size_t dest_ring, std::size_t dest_slot);
    std::optional<std::pair<std::size_t, std::size_t>> locate(
        sim::ThreadId id) const;

    HotPotatoParams params_;
    std::unique_ptr<PeakTemperatureAnalyzer> analyzer_;
    // Observability (cached in initialize(); null when observability is off).
    // obs_alg1_ is mutable for the same reason as the prediction scratch:
    // predict_peak() stays const for the overhead benchmark.
    obs::Recorder* obs_ = nullptr;
    mutable obs::Counter* obs_alg1_ = nullptr;
    obs::Counter* obs_tau_changes_ = nullptr;
    std::vector<Ring> rings_;
    std::vector<sim::ThreadId> displaced_;
    // Prediction scratch, reused across the hundreds of candidate
    // evaluations per epoch (mutable: predict_peak stays const for the
    // overhead benchmark; the scheduler itself is per-run, not shared).
    // Inside a campaign worker the workspace is borrowed from the worker's
    // WorkerScratch bag (arena-backed, reused across the worker's runs);
    // elsewhere the scheduler owns it. Safe to borrow because every buffer
    // is fully overwritten before use — only its capacity persists, plus
    // the pruned maxima's survivor hint and ring memos, which initialize()
    // drops so the alg1_rows_* and alg1_rings_* counters depend on this run
    // alone.
    mutable PeakWorkspace own_peak_ws_;
    mutable PeakWorkspace* peak_ws_ = &own_peak_ws_;
    mutable std::vector<RotationRingSpec> spec_scratch_;
    mutable linalg::Vector static_power_scratch_;
    mutable obs::Histogram* obs_batch_size_ = nullptr;
    // Rows Algorithm 1 projected exactly vs. rows its rotation queries
    // covered (DESIGN.md §14.5): their ratio is the unpruned share.
    mutable obs::Counter* obs_rows_exact_ = nullptr;
    mutable obs::Counter* obs_rows_total_ = nullptr;
    // Active ring evaluations the workspace's ring memo answered vs.
    // all of them (DESIGN.md §14.7).
    mutable obs::Counter* obs_rings_reused_ = nullptr;
    mutable obs::Counter* obs_rings_total_ = nullptr;
    // Rotation-off placement slate (grow-only, so a warmed scan is
    // allocation-free).
    std::vector<std::size_t> slate_slots_;  ///< free-slot candidates
    std::vector<double> slate_powers_;      ///< RHS-major candidate powers
    std::vector<double> slate_peaks_;
    std::vector<sim::ThreadId> shift_scratch_;  ///< on_step slot rotation
    bool sensor_fallback_ = false;
    bool rotation_on_ = true;
    std::size_t tau_index_ = 0;
    double next_rotation_s_ = 0.0;
    double last_predicted_peak_c_ = 0.0;
    double max_predicted_peak_c_ = 0.0;
};

}  // namespace hp::core

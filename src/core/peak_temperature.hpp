#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/solver.hpp"
#include "thermal/workspace.hpp"

namespace hp::core {

/// One rotation ring handed to the peak-temperature analysis: the cores in
/// cycle order and the power of each slot's occupant (idle slots carry the
/// idle power). At every rotation epoch the occupant of slot j moves to slot
/// j+1 (mod size).
struct RotationRingSpec {
    std::vector<std::size_t> cores;
    std::vector<double> slot_power_w;
};

/// Caller-owned scratch for PeakTemperatureAnalyzer queries.
///
/// Every run-time query takes one of these; after the first (sizing) call
/// the query runs without heap allocations — the modal y/z arrays, the
/// per-rung e^{λτ} tables and the sorted ring-position scratch are all
/// reused.
/// Buffer lists only ever grow, so alternating between rings of different
/// sizes does not re-allocate. A workspace may be reused across
/// analyzers/models (buffers re-size on demand) but must not be shared
/// between threads; the analyzer itself stays immutable and shareable.
///
/// The workspace also carries the survivor hint of the pruned rotation
/// maxima (DESIGN.md §14.5): the rows that could hold each rung's peak in
/// the previous map-free rotation query, projected exactly up front by the
/// next one. The hint changes how much work a query does, never its result;
/// its row lists are sized to core_count() per rung on first use, so
/// queries with different survivor counts never re-allocate.
///
/// Rotation queries also keep one ring memo per ring index (DESIGN.md
/// §14.7): the key of that ring's last evaluation (analyzer, dispatch tier,
/// cores, slot-power bits, τ bits, S) and its contribution — the addends it
/// gave its rung's bound sums and the exact row maxima projected so far. A
/// ring whose key matches is not re-staged; it adds the same doubles a fresh
/// evaluation would, so the memo too changes cost, never results.
class PeakWorkspace {
public:
    PeakWorkspace() = default;

    /// All buffers (present and future) allocate from @p mr — the campaign
    /// worker's node-local arena. The outer list spines stay on the heap
    /// (a handful of pointers); every double buffer, including the embedded
    /// ThermalWorkspace, lives on the resource. Placement never affects
    /// query results, only locality.
    explicit PeakWorkspace(std::pmr::memory_resource* mr)
        : mr_(mr),
          coeff_(mr),
          zs_batch_(mr),
          resp_batch_(mr),
          t_static_(mr),
          node_power_(mr),
          extra_batch_(mr),
          batch_node_power_(mr),
          batch_steady_(mr),
          ring_order_(mr),
          tau_modes_(mr),
          ek_pow_(mr),
          tau_cluster_(mr),
          qpow_(mr),
          bound_modal_(mr),
          bound_rows_(mr),
          bound_out_(mr),
          bound_sums_(mr),
          hint_(mr),
          survivors_(mr),
          missing_(mr),
          thermal_(mr) {}

    /// Resource newly-grown buffers are carved from (default resource when
    /// the workspace was default-constructed).
    std::pmr::memory_resource* resource() const { return mr_; }

    /// Core rows the last rotation query projected exactly, summed over its
    /// rungs: count × core_count() for a map query, the survivor hint plus
    /// any survivors outside it otherwise.
    std::size_t last_exact_rows() const { return exact_rows_; }

    /// Active ring × rung evaluations of the last rotation query that the
    /// ring memo answered without re-staging the ring, out of
    /// last_ring_evals().
    std::size_t last_reused_rings() const { return reused_rings_; }
    std::size_t last_ring_evals() const { return ring_evals_; }

    /// Drops the survivor hint and empties every ring memo, so the next
    /// query's cost no longer depends on earlier queries (results never
    /// do). O(rungs + rings), allocation-free.
    void forget_survivors() {
        for (std::size_t& len : hint_.len) len = 0;
        for (RingMemo& memo : memo_) memo.analyzer = 0;
    }

private:
    /// One ring index's last evaluation (DESIGN.md §14.7). The key is
    /// (analyzer, tier, samples, tau bits, cores, power bits); values holds
    /// the addends [c | x | ρ] (3K) and [max_s corr | corr_last] (2·cores,
    /// used on corrected backends only), then the exact row maxima
    /// projected so far (cores, NaN where not yet projected). analyzer 0
    /// marks an empty memo.
    struct RingMemo {
        explicit RingMemo(std::pmr::memory_resource* mr)
            : cores(mr), power(mr), values(mr) {}
        std::uint64_t analyzer = 0;
        int tier = 0;
        std::size_t samples = 0;
        double tau = 0.0;
        std::pmr::vector<std::size_t> cores;
        std::pmr::vector<double> power;
        std::pmr::vector<double> values;
    };

    /// Per-rung row lists of the pruned maxima: rung t's rows, ascending,
    /// occupy [t·core_count(), t·core_count() + len[t]) of rows.
    struct RungRows {
        explicit RungRows(std::pmr::memory_resource* mr) : rows(mr), len(mr) {}
        std::pmr::vector<std::size_t> rows;
        std::pmr::vector<std::size_t> len;
    };

    /// e^{λ̄ τ s/S}, s = 1..S, at the τ entry of the staged samples.
    const double* staged_qfrac(std::size_t samples_per_epoch) const {
        return tau_cluster_.data() + staged_tau_ * (samples_per_epoch + 1) + 1;
    }

    friend class PeakTemperatureAnalyzer;
    std::pmr::memory_resource* mr_ = std::pmr::get_default_resource();
    std::vector<linalg::Vector> y_;         ///< modal epoch targets β·P_f
    std::vector<linalg::Vector> z_;         ///< periodic boundary solution
    linalg::Vector coeff_;                  ///< (1-e^{λτ})/(1-e^{λδτ})
    std::pmr::vector<double> zs_batch_;     ///< RHS-major modal samples
    std::pmr::vector<double> resp_batch_;   ///< one row's δ·S responses
    // static_peaks' single-candidate solve:
    linalg::Vector t_static_;    ///< its steady state
    linalg::Vector node_power_;  ///< its padded node power
    std::pmr::vector<double> extra_batch_;  ///< rung-major ring response sums
    std::pmr::vector<double> batch_node_power_;  ///< RHS-major padded cands
    std::pmr::vector<double> batch_steady_;      ///< RHS-major batched solves
    std::pmr::vector<std::size_t> ring_order_;   ///< ring positions, by core
    /// Per query τ entry (one per rung, or one per ring for per-ring τ),
    /// S × K each: row 0 is e^{λ_k τ}, row s the interior factor
    /// e^{λ_k τ s/S}, s = 1..S-1.
    std::pmr::vector<double> tau_modes_;
    std::pmr::vector<double> ek_pow_;  ///< e^{λ_k τ g}, g = 0..δ
    // Truncated-backend correction state (untouched on exact backends):
    std::vector<linalg::Vector> cfield_;  ///< per-epoch dropped core fields
    std::vector<linalg::Vector> cstar_;   ///< dropped periodic boundary state
    /// Per τ entry, S + 1 each: e^{λ̄ τ}, then e^{λ̄ τ s/S}, s = 1..S.
    std::pmr::vector<double> tau_cluster_;
    std::size_t staged_tau_ = 0;          ///< τ entry of the staged samples
    std::pmr::vector<double> qpow_;       ///< e^{λ̄ τ g}, g = 0..δ
    // Pruned rotation maxima (map-free rotation queries):
    std::pmr::vector<double> bound_modal_;  ///< rung-major [Σc | Σx | Σρ | Σ(|c|+ρ)]
    std::pmr::vector<double> bound_rows_;   ///< rung-major dropped-cluster sums
    std::pmr::vector<double> bound_out_;    ///< one sweep's four outputs
    std::pmr::vector<double> bound_sums_;   ///< one rung's UB, then LB
    RungRows hint_{std::pmr::get_default_resource()};  ///< last survivors
    RungRows survivors_{std::pmr::get_default_resource()};
    RungRows missing_{std::pmr::get_default_resource()};  ///< survivors ∉ hint
    std::size_t hint_cores_ = 0;  ///< core count hint_ indexes (0: none yet)
    std::vector<RingMemo> memo_;  ///< one per ring index, grown on demand
    std::size_t exact_rows_ = 0;
    std::size_t reused_rings_ = 0;
    std::size_t ring_evals_ = 0;
    thermal::ThermalWorkspace thermal_;
};

/// Analytical peak temperature of synchronous thread rotations
/// (paper §IV, Algorithm 1).
///
/// Construction performs the design-time phase: it reuses the backend's
/// modal decomposition C = V·diag(λ)·V^{-1} and precomputes the auxiliary
/// matrix β = V^{-1}·B^{-1} together with the ambient offset B^{-1}·T_amb·G
/// (the α/β matrices of Algorithm 1). Run-time queries then solve the
/// periodic steady state in modal space:
///
///   z_k(e) = (1-e^{λ_k τ}) / (1-e^{λ_k δτ}) · Σ_f e^{λ_k τ·((e-f) mod δ)} y_{f,k}
///
/// which is Eq. (10) of the paper — the geometric series of Eq. (9) closed
/// in each eigen-direction — evaluated at every epoch boundary e, maxed per
/// Eq. (11). All eigenvalues are negative (B SPD), so the series converges
/// and the result is a true steady-periodic bound independent of the initial
/// temperature.
///
/// On a truncated backend (mode_count() < node_count()) the retained modes
/// alone would miss tens of Kelvin of quasi-static hotspot content, so every
/// query adds a dropped-cluster correction: the exact quasi-static core
/// response of each epoch, c_f(i) = (B^{-1}P_f)(i) - Σ_{k<K} V(i,k)·y_{f,k}
/// (a sparse direct solve, no eigenmodes), tracked through one representative
/// fast pole λ̄ = cluster_pole() by the same periodic geometric series in
/// scalar form. The residual error is what the backend's error_bound_c()
/// covers. Exact backends skip the correction entirely and reproduce the
/// historical dense results bit for bit.
///
/// Rotation queries without a per-core map need only each rung's maximum,
/// so they project only the core rows that can hold it (DESIGN.md §14.5):
/// one fused sweep per rung bounds every row's summed ring response from
/// above and below, and only rows whose upper bound reaches the best lower
/// bound are projected exactly. Map queries project every row. Either way a
/// query re-stages only rings whose workspace memo (cores, powers, τ, S) no
/// longer matches (DESIGN.md §14.7), and every answer has the bits of
/// projecting every row afresh, on dense and truncated backends alike.
///
/// Thread safety: immutable after construction. The α/β eigen-tables are
/// built in the constructor and the query entry points are const; all
/// mutable state lives in the caller's PeakWorkspace, so one analyzer may
/// serve concurrent campaign workers sharing a campaign::StudySetup with
/// one workspace per thread.
class PeakTemperatureAnalyzer {
public:
    /// @p solver (and its thermal model) must outlive the analyzer.
    /// @p idle_power_w is the power of a core without a thread, evaluated
    /// conservatively (leakage at the DTM threshold) by callers.
    PeakTemperatureAnalyzer(const thermal::TransientSolver& solver,
                            double ambient_c, double idle_power_w);

    double ambient_c() const { return ambient_c_; }
    double idle_power_w() const { return idle_power_w_; }

    /// Exact periodic-steady-state node temperatures at the end of each
    /// epoch for an explicit periodic schedule: core_power_per_epoch[f] is
    /// held for @p tau seconds, the whole pattern repeats. The full-node
    /// form the brute-force validation tests check.
    std::vector<linalg::Vector> boundary_temperatures(
        const std::vector<linalg::Vector>& core_power_per_epoch,
        double tau) const;

    /// Peak core temperature of the periodic schedule, sampling
    /// @p samples_per_epoch points inside every epoch (the end point plus
    /// interior points — per-node transients are not monotonic, so pure
    /// boundary sampling can shave an interior hump). Zero heap allocations
    /// once @p workspace is warm. Throws std::invalid_argument for an empty
    /// schedule, τ ≤ 0 or @p samples_per_epoch == 0.
    double schedule_peak(const std::vector<linalg::Vector>& core_power_per_epoch,
                         double tau, std::size_t samples_per_epoch,
                         PeakWorkspace& workspace) const;

    /// Steady-state peak core temperature of @p nrhs static (non-rotating)
    /// power assignments. @p core_powers is RHS-major — candidate r occupies
    /// [r·core_count(), (r+1)·core_count()) — and peaks[r] receives its
    /// peak. When @p core_peak_c is set it receives every candidate's
    /// per-core steady state, nrhs × core_count() entries RHS-major, read
    /// from the same solve the peaks reduce over.
    ///
    /// One candidate runs the single-RHS steady_state_into; a slate
    /// (HotPotato's rotation-off placement scan) runs one
    /// steady_state_batch_into. The two agree bit for bit, so the choice is
    /// purely on input size: the batched dense LU at one lane degenerates
    /// to length-1 axpys.
    void static_peaks(const double* core_powers, std::size_t nrhs,
                      PeakWorkspace& workspace, double* peaks,
                      double* core_peak_c = nullptr) const;

    /// Peak core temperature with every listed ring rotating synchronously
    /// and all remaining cores idle, evaluated at @p count rotation
    /// intervals: peaks[t] is the peak at interval taus[t].
    ///
    /// Rings generally have coprime sizes, so the exact joint schedule only
    /// repeats after lcm(sizes) epochs; instead of materialising that, the
    /// analysis exploits linearity: the response decomposes into an all-idle
    /// baseline plus one independent periodic response per ring, and
    /// per-node maxima are summed (max of sums <= sum of maxima). For a
    /// single occupied ring this is exact at the sample points; for multiple
    /// rings it is a safe upper bound whose slack is the (tiny) cross-ring
    /// ripple correlation.
    ///
    /// The all-idle baseline is a constant of the analyzer, solved once at
    /// construction. The per-epoch modal targets y_f = β·P_f are
    /// τ-independent, so they are built once per ring; the e^{λτ} tables
    /// depend on τ alone, so they are built once per rung; only the
    /// geometric-series evaluation runs per ring and rung. Each rung's
    /// result is bit-identical to a count-1 query at that interval. When
    /// @p core_peak_c is set it receives each core's sampled peak — baseline
    /// plus summed per-ring response maxima — count × core_count() entries,
    /// rung-major: exactly the values peaks[t] is the maximum of.
    ///
    /// Throws std::invalid_argument for a τ ≤ 0, @p samples_per_epoch == 0,
    /// a ring whose slot and core counts differ, or a ring core index that
    /// is not below core_count() or appears twice in one ring.
    void rotation_peaks(const std::vector<RotationRingSpec>& rings,
                        const double* taus, std::size_t count,
                        std::size_t samples_per_epoch, PeakWorkspace& workspace,
                        double* peaks, double* core_peak_c = nullptr) const;

    /// Per-ring rotation intervals: rings[i] rotates every tau_per_ring[i]
    /// seconds. The superposition decomposition makes heterogeneous
    /// cadences free — each ring's periodic response is solved at its own
    /// interval — enabling e.g. slow rotation on thermally-unconstrained
    /// outer rings while the centre rotates fast (an extension beyond the
    /// paper's single global τ). Runs the same ring loop as rotation_peaks,
    /// so uniform intervals give bit-identical results.
    double rotation_peak(const std::vector<RotationRingSpec>& rings,
                         const std::vector<double>& tau_per_ring,
                         std::size_t samples_per_epoch,
                         PeakWorkspace& workspace) const;

private:
    /// The one entry point behind both rotation queries. Validates every
    /// argument and fills the τ tables, then evaluates @p count rungs where
    /// ring r at rung t rotates every taus[r·ring_stride + t] (ring_stride
    /// 0: one interval per rung; 1 with count 1: one per ring) through
    /// pruned_ring_peaks.
    void ring_peaks(const std::vector<RotationRingSpec>& rings,
                    const double* taus, std::size_t ring_stride,
                    std::size_t count, std::size_t samples_per_epoch,
                    PeakWorkspace& workspace, double* peaks,
                    double* core_peak_c) const;

    /// The memoised rotation rungs, the only rotation evaluation: bound
    /// statistics plus exact hint rows per ring and rung, one bound sweep
    /// and the survivor selection per rung, then an exact rebuild pass for
    /// survivors outside the hint only. A map query (@p core_peak_c set)
    /// projects every row instead and skips the bounds. A ring whose memo
    /// key matches (DESIGN.md §14.7) reuses its stored addends and rows
    /// instead of being re-staged.
    void pruned_ring_peaks(const std::vector<RotationRingSpec>& rings,
                           const double* taus, std::size_t ring_stride,
                           std::size_t count, std::size_t samples_per_epoch,
                           PeakWorkspace& workspace, double* peaks,
                           double* core_peak_c) const;

    /// Pre-grows the RHS-major sample staging buffer to @p max_delta epochs
    /// (the largest ring of a query) and the row-response buffer to one
    /// row's samples, so stage_samples and project_row never reallocate
    /// mid-query (one growth per workspace instead of one per ring size).
    void reserve_sample_batch(std::size_t max_delta,
                              std::size_t samples_per_epoch,
                              PeakWorkspace& workspace) const;

    /// Fills the workspace's τ tables for @p entries intervals starting at
    /// @p taus: every exponential stage_samples needs that depends on τ
    /// and S only, shared by every ring at that interval.
    void fill_tau_tables(const double* taus, std::size_t entries,
                         std::size_t samples_per_epoch,
                         PeakWorkspace& workspace) const;

    /// True when @p ring has a slot whose power differs from the idle power;
    /// an empty or all-idle ring contributes nothing to any rung.
    bool ring_active(const RotationRingSpec& ring) const;

    /// Builds @p ring's per-epoch modal targets (the power deltas against
    /// the idle baseline) into the workspace; false (and nothing built) for
    /// an inactive ring. The ring must have passed ring_peaks' validation.
    bool ring_targets(const RotationRingSpec& ring,
                      PeakWorkspace& workspace) const;

    /// τ-independent half of Algorithm 1's run-time phase: fills
    /// workspace.y_ with the modal epoch targets y_f = β·P_f (and the
    /// dropped-cluster fields c_f on truncated backends) of @p delta sparse
    /// power vectors, so one ring can be evaluated at many rotation
    /// intervals without redoing the (dominant) β projections.
    /// @p epoch_power(f, i) returns the i-th of @p support (node, watts)
    /// entries of epoch f, nodes ascending: the order a dense scan of P_f
    /// would visit them in, so the sums keep its bits. Exact zeros are
    /// skipped.
    template <class EpochPower>
    void build_modal_targets(std::size_t delta, std::size_t support,
                             const EpochPower& epoch_power,
                             PeakWorkspace& workspace) const;

    /// τ-dependent half: consumes workspace.y_ (left untouched, so it may be
    /// re-evaluated at another τ) and the τ tables at @p tau_entry, solves
    /// the periodic boundary states and stages all δ·S modal samples
    /// RHS-major in workspace.zs_batch_ (plus the dropped-cluster states on
    /// truncated backends). project_row then reads the staged samples.
    void stage_samples(std::size_t delta, std::size_t tau_entry,
                       std::size_t samples_per_epoch,
                       PeakWorkspace& workspace) const;

    /// True when @p memo holds @p ring's evaluation at @p tau and
    /// @p samples_per_epoch by this analyzer under the active tier.
    bool memo_matches(const PeakWorkspace::RingMemo& memo,
                      const RotationRingSpec& ring, double tau,
                      std::size_t samples_per_epoch) const;

    /// Re-keys @p memo to @p ring at @p tau and fills its values from the
    /// ring's staged samples: the addends [c | x | ρ] (modes each; c ± ρ
    /// spans the samples per mode, x is the last sample), on corrected
    /// backends the dropped-cluster addends [max_s corr | corr_last] (cores
    /// each), and no projected row yet.
    void stage_memo(const RotationRingSpec& ring, double tau,
                    std::size_t samples_per_epoch, PeakWorkspace& workspace,
                    PeakWorkspace::RingMemo& memo) const;

    /// Bound stage, per ring and rung: adds a memo's addends to @p modal =
    /// [Σc | Σx | Σρ | Σ(|c|+ρ)] and, on corrected backends, to @p rows =
    /// [Σ max_s corr | Σ corr_last | Σ(|max_s corr| + |corr_last|)].
    void add_ring_addends(const double* addends, double* modal,
                          double* rows) const;

    /// One fused sweep over V turns a rung's sums into per-core bounds on
    /// the summed ring responses: @p ub from above, @p lb from below, each
    /// with a slack that covers every rounding (DESIGN.md §14.5).
    void rung_bounds(const double* modal, const double* rows,
                     PeakWorkspace& workspace, double* ub, double* lb) const;

    /// Exact stage: the maximum over the staged samples of core @p row's
    /// response, dropped-cluster correction included. Its bits depend on
    /// the row alone, not on which other rows a query projects.
    double project_row(std::size_t row, std::size_t delta,
                       std::size_t samples_per_epoch,
                       PeakWorkspace& workspace) const;

    /// True when queries fold in the dropped-cluster correction.
    bool corrected() const { return truncated_ && cluster_pole_ < 0.0; }

    /// Process-wide serial: ring memos key on it, not on the address, so
    /// an analyzer rebuilt where a dead one lived never matches its memos.
    std::uint64_t serial_;
    const thermal::TransientSolver* solver_;
    double ambient_c_;
    double idle_power_w_;
    std::size_t modes_;              ///< retained mode count K (design-time)
    bool truncated_;                 ///< quasi-static map and dropped-cluster
                                     ///< correction active
    double cluster_pole_;            ///< λ̄ of the dropped cluster (< 0)
    const linalg::Vector idle_core_c_;  ///< all-idle steady state, core rows
    linalg::Matrix beta_;            ///< K x N  V^{-1} B^{-1} (design-time)
    linalg::Matrix beta_t_;          ///< β^T: row j = β column j (cache-friendly
                                     ///< accumulation over sparse power vectors)
    linalg::Matrix v_cores_;         ///< V core rows, row-major (i, k) = V(i, k);
                                     ///< the modal→core projection is one matmat
                                     ///< over all boundary/interior samples
    linalg::Matrix quasi_static_map_;  ///< Truncated backends only: row j holds
                                       ///< the per-core dropped-cluster response
                                       ///< to unit power at node j,
                                       ///< Q(j,i) = (B^{-1})(i,j) − Σ_k V(i,k)β(k,j),
                                       ///< so c_f = Σ_j P_f(j)·Q(j,·) is a sparse
                                       ///< gather instead of a banded solve per
                                       ///< epoch. A floorplan constant (B is
                                       ///< symmetric, so B^{-1} core rows come
                                       ///< from `cores` unit-vector solves).
    linalg::Vector ambient_offset_;  ///< B^{-1} T_amb G
};

}  // namespace hp::core

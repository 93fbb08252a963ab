#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <vector>

#include "linalg/vector.hpp"

namespace hp::thermal {

/// Caller-owned scratch memory for the in-place TransientSolver kernels
/// (steady_state_into, apply_exponential_into, transient_into and their
/// batch forms) of both backends.
///
/// The batched steady and conductance solves stage their right-hand sides
/// in the grow-only batch_*() blocks. The batched exponential and transient
/// are the TransientSolver base's loops over the single-vector kernel: each
/// right-hand side passes through `offset` in place, and batch_steady()
/// holds the transient's steady states, so no batch needs a modal or Taylor
/// block of its own.
///
/// A workspace is sized once (to the thermal model's node count) and then
/// reused for any number of queries with zero further heap traffic — the
/// simulator owns one per run, each campaign worker owns one across its runs,
/// and the peak-temperature workspaces embed one. Two memoised vectors ride
/// along:
///
///  - ambient_rhs():  T_amb·G, so the per-step steady-state right-hand side
///    is a fused add instead of two allocated temporaries;
///  - exp_table():    a small ladder of e^{λ_k·dt} vectors, one per distinct
///    dt (up to kExpLadderSlots), so a simulator stepping at a fixed dt — or
///    an analyzer probing a τ ladder of rotation intervals — pays the K
///    exponentials once per rung instead of every query. Slots recycle
///    round-robin on overflow; invalidate_exp_tables() empties the ladder in
///    O(1) (the rebind hook for callers that swap solvers at what may be a
///    recycled lambda address).
///
/// Both caches key on the source vector's identity (address) plus the scalar
/// argument, so reusing one workspace across models or dt values is correct —
/// it just recomputes. The memoised entries are the exact values the legacy
/// code computed per call (std::exp of the same product, the same multiply),
/// so cached and uncached paths are bit-identical.
///
/// Thread affinity: a workspace is mutable state — use one per thread. The
/// model/solver it serves stays immutable and shareable.
///
/// Memory placement: the memory_resource constructor routes every buffer
/// through the given resource (a worker's node-local arena in campaign
/// runs). resize() and the memos use allocator-preserving assigns, so a
/// workspace never silently migrates off the resource it was built on —
/// and since buffers are fully overwritten per query, placement can never
/// change results, only locality.
class ThermalWorkspace {
public:
    ThermalWorkspace() = default;
    explicit ThermalWorkspace(std::size_t node_count) { resize(node_count); }

    /// All buffers (present and future) allocate from @p mr.
    explicit ThermalWorkspace(std::pmr::memory_resource* mr)
        : rhs(mr),
          steady(mr),
          offset(mr),
          modal(mr),
          solver_scratch(mr),
          taylor_a(mr),
          taylor_b(mr),
          mr_(mr),
          batch_rhs_(mr),
          batch_sol_(mr),
          batch_steady_(mr),
          batch_scratch_(mr),
          ambient_(mr),
          exp_values_(mr) {}

    /// Sizes every buffer for an N-node model; idempotent (and cheap) when
    /// the size is unchanged, so kernels call it defensively.
    void resize(std::size_t node_count) {
        if (nodes_ == node_count) return;
        nodes_ = node_count;
        rhs.assign(node_count);
        steady.assign(node_count);
        offset.assign(node_count);
        modal.assign(node_count);
        solver_scratch.assign(node_count);
        taylor_a.assign(node_count);
        taylor_b.assign(node_count);
        ambient_key_ = nullptr;
        invalidate_exp_tables();
    }

    std::size_t node_count() const { return nodes_; }

    // Scratch buffers, fully overwritten by every kernel that uses them (no
    // state is carried between queries through these).
    linalg::Vector rhs;     ///< steady-state right-hand side P + T_amb·G
    linalg::Vector steady;  ///< steady-state temperatures
    linalg::Vector offset;  ///< T_init - T_steady
    linalg::Vector modal;   ///< modal image V^{-1}·x (first K entries used
                            ///< by the truncated backend)
    linalg::Vector solver_scratch;  ///< banded-solve permutation scratch
    linalg::Vector taylor_a;        ///< sparse-propagator remainder term
    linalg::Vector taylor_b;        ///< sparse-propagator matvec ping-pong

    /// Memoised T_amb·G for the ambient-coupling vector @p g. Recomputed only
    /// when @p g (by address) or @p ambient_celsius changes.
    const linalg::Vector& ambient_rhs(const linalg::Vector& g,
                                      double ambient_celsius) {
        if (ambient_key_ != &g || ambient_c_ != ambient_celsius ||
            ambient_.size() != g.size()) {
            if (ambient_.size() != g.size()) ambient_.assign(g.size());
            for (std::size_t i = 0; i < g.size(); ++i)
                ambient_[i] = g[i] * ambient_celsius;
            ambient_key_ = &g;
            ambient_c_ = ambient_celsius;
        }
        return ambient_;
    }

    // Grow-only flat scratch for the batched (multi-RHS) kernels; each
    // buffer is fully overwritten by the batch query that uses it, and the
    // capacity high-water-marks, so alternating batch widths stays
    // allocation-free after warm-up. pmr so they live on the workspace's
    // resource (node-local arena in campaign workers).
    std::pmr::vector<double>& batch_rhs(std::size_t n) {
        return grown(batch_rhs_, n);
    }
    std::pmr::vector<double>& batch_sol(std::size_t n) {
        return grown(batch_sol_, n);
    }
    std::pmr::vector<double>& batch_steady(std::size_t n) {
        return grown(batch_steady_, n);
    }
    /// Lane-major scratch for the batched banded solve (size()·nrhs lanes).
    std::pmr::vector<double>& batch_scratch(std::size_t n) {
        return grown(batch_scratch_, n);
    }

    /// Distinct-dt slots the exp ladder keeps live before recycling. Sized
    /// for a HotPotato τ ladder plus the simulator micro-step and a few
    /// analyzer horizons; each slot is one K-vector, so the cap bounds the
    /// cache at a few hundred KiB even at 1024 cores.
    static constexpr std::size_t kExpLadderSlots = 24;

    /// Memoised e^{λ_k·dt} for the eigenvalue vector @p lambda: one ladder
    /// slot per distinct (lambda address, dt) pair, so alternating dt values
    /// (a τ ladder, epoch vs micro-step horizons) all stay warm, where the
    /// historical single-entry memo recomputed on every alternation. Slots
    /// recycle round-robin past kExpLadderSlots. Keys and cursors live
    /// inline; the values share one flat slot-strided buffer on mr_, so the
    /// whole ladder costs exactly one allocation (from the workspace's own
    /// resource) for a given K, and a warmed ladder serves hits and recycles
    /// without touching memory at all. The returned pointer stays valid
    /// until exp_table() is next called with a *longer* eigenvalue vector
    /// (a solver rebind to a bigger model, which re-strides the buffer).
    const double* exp_table(const linalg::Vector& lambda, double dt) {
        const std::size_t k = lambda.size();
        for (std::size_t s = 0; s < exp_used_; ++s) {
            if (exp_keys_[s] == &lambda && exp_dts_[s] == dt &&
                exp_lens_[s] == k)
                return exp_values_.data() + s * exp_stride_;
        }
        if (k > exp_stride_) {
            exp_stride_ = k;
            exp_used_ = 0;
            exp_next_ = 0;
            exp_values_.resize(kExpLadderSlots * exp_stride_);
        }
        std::size_t s;
        if (exp_used_ < kExpLadderSlots) {
            s = exp_used_++;
        } else {
            s = exp_next_;
            exp_next_ = (exp_next_ + 1) % kExpLadderSlots;
        }
        double* values = exp_values_.data() + s * exp_stride_;
        for (std::size_t i = 0; i < k; ++i)
            values[i] = std::exp(lambda[i] * dt);
        exp_keys_[s] = &lambda;
        exp_dts_[s] = dt;
        exp_lens_[s] = k;
        return values;
    }

    /// O(1) invalidation of every exp ladder entry — the hook for solver
    /// rebinds, where a new solver's eigenvalue vector may land at a freed
    /// (and thus aliasing) address. The value buffer keeps its capacity, so
    /// re-warming after an invalidation allocates nothing at unchanged K.
    void invalidate_exp_tables() {
        exp_used_ = 0;
        exp_next_ = 0;
    }

private:
    static std::pmr::vector<double>& grown(std::pmr::vector<double>& v,
                                           std::size_t n) {
        if (v.size() < n) v.resize(n);
        return v;
    }

    std::size_t nodes_ = 0;
    std::pmr::memory_resource* mr_ = std::pmr::get_default_resource();
    std::pmr::vector<double> batch_rhs_;
    std::pmr::vector<double> batch_sol_;
    std::pmr::vector<double> batch_steady_;
    std::pmr::vector<double> batch_scratch_;
    linalg::Vector ambient_;
    const void* ambient_key_ = nullptr;
    double ambient_c_ = 0.0;
    std::array<const void*, kExpLadderSlots> exp_keys_{};  ///< λ addresses
    std::array<double, kExpLadderSlots> exp_dts_{};        ///< exact dt bits
    std::array<std::size_t, kExpLadderSlots> exp_lens_{};  ///< cached K
    std::pmr::vector<double> exp_values_;  ///< slot s at s·exp_stride_
    std::size_t exp_stride_ = 0;         ///< slot pitch (largest K seen)
    std::size_t exp_used_ = 0;           ///< live slots
    std::size_t exp_next_ = 0;           ///< round-robin recycle cursor
};

}  // namespace hp::thermal

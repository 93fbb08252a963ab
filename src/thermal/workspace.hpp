#pragma once

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
///  - exp_table():    the last e^{λ_k·dt} vector, so a simulator stepping at
///    a fixed dt pays the K exponentials once instead of every step;
///    invalidate_exp_tables() forgets it in O(1) (the rebind hook for
///    callers that swap solvers at what may be a recycled lambda address).
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

    /// Memoised e^{λ_k·dt} for the eigenvalue vector @p lambda: one entry,
    /// keyed by the lambda address, dt and K, recomputed in place on any
    /// other key. Every caller steps one solver at one dt per workspace (the
    /// analyzer fills its own τ tables), so a single entry serves them all.
    /// The values live on the workspace's resource; a miss at no larger K
    /// allocates nothing. The returned pointer stays valid until the next
    /// exp_table() call.
    const double* exp_table(const linalg::Vector& lambda, double dt) {
        const std::size_t k = lambda.size();
        if (exp_key_ == &lambda && exp_dt_ == dt && exp_values_.size() == k)
            return exp_values_.data();
        exp_values_.resize(k);
        for (std::size_t i = 0; i < k; ++i)
            exp_values_[i] = std::exp(lambda[i] * dt);
        exp_key_ = &lambda;
        exp_dt_ = dt;
        return exp_values_.data();
    }

    /// O(1) invalidation of the exp memo — the hook for solver rebinds,
    /// where a new solver's eigenvalue vector may land at a freed (and thus
    /// aliasing) address. The value buffer keeps its capacity, so re-warming
    /// after an invalidation allocates nothing at unchanged K.
    void invalidate_exp_tables() { exp_key_ = nullptr; }

private:
    static std::pmr::vector<double>& grown(std::pmr::vector<double>& v,
                                           std::size_t n) {
        if (v.size() < n) v.resize(n);
        return v;
    }

    std::size_t nodes_ = 0;
    std::pmr::vector<double> batch_rhs_;
    std::pmr::vector<double> batch_sol_;
    std::pmr::vector<double> batch_steady_;
    std::pmr::vector<double> batch_scratch_;
    linalg::Vector ambient_;
    const void* ambient_key_ = nullptr;
    double ambient_c_ = 0.0;
    const void* exp_key_ = nullptr;      ///< λ address; null when empty
    double exp_dt_ = 0.0;
    std::pmr::vector<double> exp_values_;  ///< e^{λ_k·dt}, K entries
};

}  // namespace hp::thermal

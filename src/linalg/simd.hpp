#pragma once

#include <cstddef>

namespace hp::linalg::simd {

// Runtime-dispatched SIMD kernel tiers for the thermal hot path.
//
// The dispatch tier is selected exactly once (first use) from CPU features,
// overridable via the HOTPOTATO_DISPATCH environment variable ("scalar" or
// "avx2"; forcing "avx2" on hardware without AVX2+FMA falls back to scalar).
// Every kernel is deterministic within a tier: the same tier always produces
// the same bits for the same inputs.
//
// Cross-tier contract (documented in DESIGN.md §9):
//  * Element-wise kernels (axpy, hadamard, fma_acc, decay_mix, div_scalar)
//    perform the same per-element operation sequence in every
//    tier — no fused multiply-add, no reassociation — so they are
//    bit-identical across tiers (simd.cpp is compiled with -ffp-contract=off
//    to keep the compiler from fusing them behind our back).
//  * Reduction kernels (matvec, matmat) reassociate the per-row dot product
//    in the AVX2 tier (4-lane FMA accumulator); scalar and AVX2 results
//    agree to rounding (~1e-14 relative for this code base's N≈129 systems)
//    but are not bit-identical across tiers.
//  * matmat is bit-identical, per right-hand side, to the corresponding
//    looped matvec calls *within* a tier: each RHS owns an accumulator chain
//    with exactly matvec's operation order, whatever the batch width.
//  * bound_matvec's A·x output is bit-identical to matvec within a tier (the
//    same accumulator chain); like matvec, all four of its sums agree across
//    tiers to rounding only.

enum class Tier {
    kScalar = 0,  ///< portable fallback, baseline ISA
    kAvx2 = 1,    ///< AVX2 + FMA (x86-64)
};

/// Raw kernels of one dispatch tier. All pointers are non-null. Matrices are
/// row-major; batched operands are RHS-major (right-hand side r occupies the
/// contiguous range [r*n, (r+1)*n)) unless a kernel documents otherwise.
struct KernelTable {
    /// y = A·x (rows×cols row-major A); per-row accumulator over ascending j.
    void (*matvec)(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y);
    /// ys[r] = A·xs[r] for nrhs RHS-major vectors: a blocked multi-RHS
    /// matvec that streams each matrix row once per block of RHS (the cache
    /// tiling) while keeping every RHS's accumulation order identical to
    /// matvec.
    void (*matmat)(const double* a, std::size_t rows, std::size_t cols,
                   const double* xs, std::size_t nrhs, double* ys);
    /// y[i] += alpha·x[i] (separate multiply and add, never fused).
    void (*axpy)(std::size_t n, double alpha, const double* x, double* y);
    /// x[i] *= m[i].
    void (*hadamard)(std::size_t n, const double* m, double* x);
    /// y[i] += a[i]·b[i] (separate multiply and add, never fused).
    void (*fma_acc)(std::size_t n, const double* a, const double* b,
                    double* y);
    /// out[i] = e[i]·zp[i] + (1 - e[i])·y[i] — the intra-epoch decay mix of
    /// Algorithm 1, with exactly the scalar operation order.
    void (*decay_mix)(std::size_t n, const double* e, const double* zp,
                      const double* y, double* out);
    /// x[i] /= s (IEEE division: bit-identical in every tier).
    void (*div_scalar)(std::size_t n, double s, double* x);
    /// Four dot products per row from one pass over A, for the bound stage
    /// of Algorithm 1's pruned maxima: with xs = [c | x | r | m] (four
    /// RHS-major vectors of cols entries) it writes ys = [A·c | A·x | |A|·r
    /// | |A|·m] (four vectors of rows entries). Four independent
    /// accumulators per row; the A·x chain is exactly matvec's, so
    /// ys[rows, 2·rows) is bit-identical to matvec(a, rows, cols, x).
    void (*bound_matvec)(const double* a, std::size_t rows, std::size_t cols,
                         const double* xs, double* ys);
};

/// True when @p tier can run on this machine (kScalar always can).
bool tier_available(Tier tier);

/// Resolves a HOTPOTATO_DISPATCH-style spec ("scalar"/"avx2"). Null,
/// unrecognised or unavailable specs resolve to the best available tier
/// (forced-but-unavailable "avx2" degrades to scalar rather than crashing).
Tier resolve_tier(const char* spec);

/// The process-wide active tier: resolved once, on first call, from the
/// HOTPOTATO_DISPATCH environment variable / CPU features. Thread-safe.
Tier active_tier();

/// Stable lower-case name of @p tier ("scalar", "avx2") for provenance
/// metadata and logs.
const char* tier_name(Tier tier);

/// Kernel table of @p tier (the scalar table when @p tier is unavailable).
const KernelTable& kernels_for(Tier tier);

/// Kernel table of the active tier — the hot-path entry point.
const KernelTable& kernels();

/// Test-only override of the active tier. Not thread-safe: call only from
/// single-threaded test setup, and pair with clear_forced_tier(). Forcing an
/// unavailable tier is ignored (active_tier() keeps its detected value).
void force_tier_for_testing(Tier tier);
void clear_forced_tier_for_testing();

}  // namespace hp::linalg::simd

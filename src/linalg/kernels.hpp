#pragma once

#include <cstddef>

#include "linalg/simd.hpp"

namespace hp::linalg {

// Non-allocating kernels over raw spans / preallocated buffers. These are the
// single numeric implementation of the thermal hot path: the value-returning
// Vector/Matrix operators are thin wrappers around them, so the loop and
// accumulation order is defined exactly once and results stay bit-identical
// whichever entry point a caller uses. Since PR 5 they dispatch through the
// runtime-selected SIMD tier (see simd.hpp for the per-kernel cross-tier
// determinism contract); within a process all entry points share one tier,
// so the bit-identity guarantee is unchanged. None of these touch the heap;
// all aliasing restrictions are documented per kernel and asserted in debug
// builds where cheap.

/// y = A·x for a row-major rows×cols matrix. Accumulates each row into a
/// per-row accumulator (acc += a(i,j)·x[j] in column order; the AVX2 tier
/// uses a fixed 4-lane FMA reduction), the same order as the historical
/// Matrix·Vector operator within a tier. @p y must not alias @p x or @p a.
inline void kernel_matvec(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* y) {
    simd::kernels().matvec(a, rows, cols, x, y);
}

/// Batched matvec: ys[r] = A·xs[r] for @p nrhs RHS-major vectors (RHS r is
/// the contiguous range [r·cols, (r+1)·cols) of @p xs; outputs likewise with
/// stride rows). Blocked so each matrix row is streamed once per block of
/// right-hand sides; every RHS keeps matvec's exact accumulation order, so
/// the batch is bit-identical to @p nrhs looped kernel_matvec calls. @p ys
/// must not alias @p xs or @p a.
inline void kernel_matmat(const double* a, std::size_t rows, std::size_t cols,
                          const double* xs, std::size_t nrhs, double* ys) {
    simd::kernels().matmat(a, rows, cols, xs, nrhs, ys);
}

/// Bound sweep: ys = [A·c | A·x | |A|·r | |A|·m] from xs = [c | x | r | m]
/// in one pass over the rows×cols row-major A (see simd.hpp). ys[rows,
/// 2·rows) is bit-identical to kernel_matvec(a, rows, cols, x). @p ys (4·rows
/// entries) must not alias @p xs (4·cols entries) or @p a.
inline void kernel_bound_matvec(const double* a, std::size_t rows,
                                std::size_t cols, const double* xs,
                                double* ys) {
    simd::kernels().bound_matvec(a, rows, cols, xs, ys);
}

/// y += alpha·x (BLAS axpy; multiply and add never fused, so every tier
/// produces the same bits). @p x and @p y may be the same buffer.
inline void kernel_axpy(std::size_t n, double alpha, const double* x,
                        double* y) {
    simd::kernels().axpy(n, alpha, x, y);
}

/// x[i] *= m[i] in place (element-wise product against a precomputed table,
/// e.g. the workspace's memoised e^{λ·dt}).
inline void kernel_hadamard(std::size_t n, const double* m, double* x) {
    simd::kernels().hadamard(n, m, x);
}

/// y[i] += a[i]·b[i] (element-wise multiply-accumulate; never fused).
inline void kernel_fma_acc(std::size_t n, const double* a, const double* b,
                           double* y) {
    simd::kernels().fma_acc(n, a, b, y);
}

/// out[i] = e[i]·zp[i] + (1-e[i])·y[i] — Algorithm 1's intra-epoch decay
/// from the previous boundary zp towards the epoch target y.
inline void kernel_decay_mix(std::size_t n, const double* e, const double* zp,
                             const double* y, double* out) {
    simd::kernels().decay_mix(n, e, zp, y, out);
}

/// x[i] /= s in place (IEEE division; bit-identical in every tier).
inline void kernel_div_scalar(std::size_t n, double s, double* x) {
    simd::kernels().div_scalar(n, s, x);
}

}  // namespace hp::linalg

#include "linalg/simd.hpp"

#include <cmath>
#include <cstdlib>
#include <string_view>

// This translation unit is compiled with -ffp-contract=off (see
// src/linalg/CMakeLists.txt): the element-wise kernels promise "separate
// multiply and add, never fused" across tiers, and the AVX2 functions below
// express fusion explicitly (_mm256_fmadd_pd) exactly where the contract
// allows it — the compiler must not contract anything else behind our back.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HP_SIMD_X86 1
#include <immintrin.h>
#else
#define HP_SIMD_X86 0
#endif

namespace hp::linalg::simd {

namespace {

// --- scalar tier ------------------------------------------------------------
// These loops are the single source of truth for the per-element operation
// order; the AVX2 tier replicates it lane-wise (element-wise kernels) or
// per-RHS (matmat vs matvec).

void scalar_matvec(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y) {
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        double acc = 0.0;
        for (std::size_t j = 0; j < cols; ++j) acc += row[j] * x[j];
        y[i] = acc;
    }
}

void scalar_matmat(const double* a, std::size_t rows, std::size_t cols,
                   const double* xs, std::size_t nrhs, double* ys) {
    // One matvec per RHS — bit-identical to looping scalar_matvec.
    for (std::size_t r = 0; r < nrhs; ++r)
        scalar_matvec(a, rows, cols, xs + r * cols, ys + r * rows);
}

void scalar_axpy(std::size_t n, double alpha, const double* x, double* y) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_hadamard(std::size_t n, const double* m, double* x) {
    for (std::size_t i = 0; i < n; ++i) x[i] *= m[i];
}

void scalar_fma_acc(std::size_t n, const double* a, const double* b,
                    double* y) {
    for (std::size_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void scalar_decay_mix(std::size_t n, const double* e, const double* zp,
                      const double* y, double* out) {
    for (std::size_t i = 0; i < n; ++i)
        out[i] = e[i] * zp[i] + (1.0 - e[i]) * y[i];
}

void scalar_div_scalar(std::size_t n, double s, double* x) {
    for (std::size_t i = 0; i < n; ++i) x[i] /= s;
}

void scalar_bound_matvec(const double* a, std::size_t rows, std::size_t cols,
                         const double* xs, double* ys) {
    const double* c = xs;
    const double* x = xs + cols;
    const double* r = xs + 2 * cols;
    const double* m = xs + 3 * cols;
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        double sc = 0.0, sx = 0.0, sr = 0.0, sm = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double mag = std::fabs(row[j]);
            sc += row[j] * c[j];
            sx += row[j] * x[j];  // scalar_matvec's chain
            sr += mag * r[j];
            sm += mag * m[j];
        }
        ys[i] = sc;
        ys[rows + i] = sx;
        ys[2 * rows + i] = sr;
        ys[3 * rows + i] = sm;
    }
}

constexpr KernelTable kScalarTable = {
    scalar_matvec,    scalar_matmat,     scalar_axpy,       scalar_hadamard,
    scalar_fma_acc,   scalar_decay_mix,  scalar_div_scalar, scalar_bound_matvec,
};

// --- AVX2 + FMA tier --------------------------------------------------------

#if HP_SIMD_X86

/// Deterministic horizontal sum: (v0+v2) + (v1+v3). Fixed association so a
/// given tier always reduces in the same order.
__attribute__((target("avx2"))) inline double hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

/// The AVX2 dot-product order: 4-lane FMA accumulator over full blocks,
/// hsum, then scalar (unfused) tail in ascending j. matmat reproduces this
/// sequence exactly for every RHS, so batched ≡ looped within the tier.
__attribute__((target("avx2,fma"))) double row_dot_avx2(const double* row,
                                                        const double* x,
                                                        std::size_t n) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4)
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + j),
                              _mm256_loadu_pd(x + j), acc);
    double s = hsum(acc);
    for (; j < n; ++j) s += row[j] * x[j];
    return s;
}

__attribute__((target("avx2,fma"))) void avx2_matvec(const double* a,
                                                     std::size_t rows,
                                                     std::size_t cols,
                                                     const double* x,
                                                     double* y) {
    for (std::size_t i = 0; i < rows; ++i)
        y[i] = row_dot_avx2(a + i * cols, x, cols);
}

__attribute__((target("avx2,fma"))) void avx2_matmat(const double* a,
                                                     std::size_t rows,
                                                     std::size_t cols,
                                                     const double* xs,
                                                     std::size_t nrhs,
                                                     double* ys) {
    // Cache tiling: blocks of 4 RHS share one streaming pass over each
    // matrix row (the row is loaded once per block instead of once per RHS).
    // Each RHS keeps a private accumulator with row_dot_avx2's exact
    // operation order, so every RHS is bit-identical to a looped matvec.
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        std::size_t r = 0;
        for (; r + 4 <= nrhs; r += 4) {
            const double* x0 = xs + (r + 0) * cols;
            const double* x1 = xs + (r + 1) * cols;
            const double* x2 = xs + (r + 2) * cols;
            const double* x3 = xs + (r + 3) * cols;
            __m256d a0 = _mm256_setzero_pd();
            __m256d a1 = _mm256_setzero_pd();
            __m256d a2 = _mm256_setzero_pd();
            __m256d a3 = _mm256_setzero_pd();
            std::size_t j = 0;
            for (; j + 4 <= cols; j += 4) {
                const __m256d rv = _mm256_loadu_pd(row + j);
                a0 = _mm256_fmadd_pd(rv, _mm256_loadu_pd(x0 + j), a0);
                a1 = _mm256_fmadd_pd(rv, _mm256_loadu_pd(x1 + j), a1);
                a2 = _mm256_fmadd_pd(rv, _mm256_loadu_pd(x2 + j), a2);
                a3 = _mm256_fmadd_pd(rv, _mm256_loadu_pd(x3 + j), a3);
            }
            double s0 = hsum(a0), s1 = hsum(a1), s2 = hsum(a2), s3 = hsum(a3);
            for (; j < cols; ++j) {
                s0 += row[j] * x0[j];
                s1 += row[j] * x1[j];
                s2 += row[j] * x2[j];
                s3 += row[j] * x3[j];
            }
            ys[(r + 0) * rows + i] = s0;
            ys[(r + 1) * rows + i] = s1;
            ys[(r + 2) * rows + i] = s2;
            ys[(r + 3) * rows + i] = s3;
        }
        for (; r < nrhs; ++r)
            ys[r * rows + i] = row_dot_avx2(row, xs + r * cols, cols);
    }
}

__attribute__((target("avx2"))) void avx2_axpy(std::size_t n, double alpha,
                                               const double* x, double* y) {
    const __m256d av = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void avx2_hadamard(std::size_t n,
                                                   const double* m,
                                                   double* x) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(
            x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(m + i)));
    for (; i < n; ++i) x[i] *= m[i];
}

__attribute__((target("avx2"))) void avx2_fma_acc(std::size_t n,
                                                  const double* a,
                                                  const double* b, double* y) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d prod =
            _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
    }
    for (; i < n; ++i) y[i] += a[i] * b[i];
}

__attribute__((target("avx2"))) void avx2_decay_mix(std::size_t n,
                                                    const double* e,
                                                    const double* zp,
                                                    const double* y,
                                                    double* out) {
    const __m256d one = _mm256_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d ev = _mm256_loadu_pd(e + i);
        const __m256d lhs = _mm256_mul_pd(ev, _mm256_loadu_pd(zp + i));
        const __m256d rhs =
            _mm256_mul_pd(_mm256_sub_pd(one, ev), _mm256_loadu_pd(y + i));
        _mm256_storeu_pd(out + i, _mm256_add_pd(lhs, rhs));
    }
    for (; i < n; ++i) out[i] = e[i] * zp[i] + (1.0 - e[i]) * y[i];
}

__attribute__((target("avx2"))) void avx2_div_scalar(std::size_t n, double s,
                                                     double* x) {
    const __m256d sv = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), sv));
    for (; i < n; ++i) x[i] /= s;
}

__attribute__((target("avx2,fma"))) void avx2_bound_matvec(
    const double* a, std::size_t rows, std::size_t cols, const double* xs,
    double* ys) {
    // Four independent FMA chains share each row load; the A·x chain is
    // row_dot_avx2's exact sequence (4-lane FMA, hsum, unfused scalar tail).
    const double* c = xs;
    const double* x = xs + cols;
    const double* r = xs + 2 * cols;
    const double* m = xs + 3 * cols;
    const __m256d sign = _mm256_set1_pd(-0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        __m256d ac = _mm256_setzero_pd();
        __m256d ax = _mm256_setzero_pd();
        __m256d ar = _mm256_setzero_pd();
        __m256d am = _mm256_setzero_pd();
        std::size_t j = 0;
        for (; j + 4 <= cols; j += 4) {
            const __m256d rv = _mm256_loadu_pd(row + j);
            const __m256d mag = _mm256_andnot_pd(sign, rv);
            ac = _mm256_fmadd_pd(rv, _mm256_loadu_pd(c + j), ac);
            ax = _mm256_fmadd_pd(rv, _mm256_loadu_pd(x + j), ax);
            ar = _mm256_fmadd_pd(mag, _mm256_loadu_pd(r + j), ar);
            am = _mm256_fmadd_pd(mag, _mm256_loadu_pd(m + j), am);
        }
        double sc = hsum(ac), sx = hsum(ax), sr = hsum(ar), sm = hsum(am);
        for (; j < cols; ++j) {
            const double mag = std::fabs(row[j]);
            sc += row[j] * c[j];
            sx += row[j] * x[j];
            sr += mag * r[j];
            sm += mag * m[j];
        }
        ys[i] = sc;
        ys[rows + i] = sx;
        ys[2 * rows + i] = sr;
        ys[3 * rows + i] = sm;
    }
}

constexpr KernelTable kAvx2Table = {
    avx2_matvec,    avx2_matmat,     avx2_axpy,       avx2_hadamard,
    avx2_fma_acc,   avx2_decay_mix,  avx2_div_scalar, avx2_bound_matvec,
};

#endif  // HP_SIMD_X86

bool avx2_supported() {
#if HP_SIMD_X86
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

// Test-only override; written from single-threaded test setup only.
int g_forced_tier = -1;

}  // namespace

bool tier_available(Tier tier) {
    return tier == Tier::kScalar ||
           (tier == Tier::kAvx2 && avx2_supported());
}

Tier resolve_tier(const char* spec) {
    if (spec != nullptr) {
        const std::string_view s(spec);
        if (s == "scalar") return Tier::kScalar;
        // A forced-but-unavailable "avx2" degrades to scalar; unknown specs
        // fall through to autodetection (an env typo should not silently
        // change numerics relative to an unset variable).
        if (s == "avx2")
            return tier_available(Tier::kAvx2) ? Tier::kAvx2 : Tier::kScalar;
    }
    return avx2_supported() ? Tier::kAvx2 : Tier::kScalar;
}

Tier active_tier() {
    if (g_forced_tier >= 0) return static_cast<Tier>(g_forced_tier);
    static const Tier detected =
        resolve_tier(std::getenv("HOTPOTATO_DISPATCH"));
    return detected;
}

const char* tier_name(Tier tier) {
    return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

const KernelTable& kernels_for(Tier tier) {
#if HP_SIMD_X86
    if (tier == Tier::kAvx2 && avx2_supported()) return kAvx2Table;
#else
    (void)tier;
#endif
    return kScalarTable;
}

const KernelTable& kernels() { return kernels_for(active_tier()); }

void force_tier_for_testing(Tier tier) {
    if (!tier_available(tier)) return;
    g_forced_tier = static_cast<int>(tier);
}

void clear_forced_tier_for_testing() { g_forced_tier = -1; }

}  // namespace hp::linalg::simd

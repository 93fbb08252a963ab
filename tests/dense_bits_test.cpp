// The dense micro-step kernels against frozen copies of their one-row-at-
// a-time forms, memcmp-exact.
//
// LuDecomposition::solve_into runs forward substitution four rows per pass
// and the AVX2 matvec four rows per pass; both promise every output the
// bits of the one-row loops below, which are the routines as they were
// before the blocking. This file is compiled with -ffp-contract=off, like
// src/linalg/simd.cpp, so the frozen AVX2 row keeps its unfused tail.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HP_TEST_X86 1
#include <immintrin.h>
#else
#define HP_TEST_X86 0
#endif

namespace {

using namespace hp;
using linalg::simd::Tier;

double filler(std::size_t i, std::size_t salt) {
    return std::sin(0.37 * static_cast<double>(i) +
                    1.3 * static_cast<double>(salt)) +
           0.25 * static_cast<double>((i * 11 + salt) % 7);
}

// ---- frozen LU: partial-pivot factorisation + row-at-a-time solve --------

struct FrozenLu {
    explicit FrozenLu(const linalg::Matrix& m) : lu(m) {
        const std::size_t n = lu.rows();
        perm.resize(n);
        for (std::size_t i = 0; i < n; ++i) perm[i] = i;
        for (std::size_t col = 0; col < n; ++col) {
            std::size_t pivot = col;
            double pivot_mag = std::abs(lu(col, col));
            for (std::size_t r = col + 1; r < n; ++r) {
                const double mag = std::abs(lu(r, col));
                if (mag > pivot_mag) {
                    pivot = r;
                    pivot_mag = mag;
                }
            }
            if (pivot != col) {
                for (std::size_t j = 0; j < n; ++j)
                    std::swap(lu(pivot, j), lu(col, j));
                std::swap(perm[pivot], perm[col]);
            }
            const double inv_pivot = 1.0 / lu(col, col);
            for (std::size_t r = col + 1; r < n; ++r) {
                const double factor = lu(r, col) * inv_pivot;
                lu(r, col) = factor;
                if (factor == 0.0) continue;
                for (std::size_t j = col + 1; j < n; ++j)
                    lu(r, j) -= factor * lu(col, j);
            }
        }
    }

    void solve_into(const linalg::Vector& b, linalg::Vector& y) const {
        const std::size_t n = lu.rows();
        for (std::size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
        for (std::size_t i = 1; i < n; ++i) {
            double acc = y[i];
            for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * y[j];
            y[i] = acc;
        }
        for (std::size_t ii = n; ii-- > 0;) {
            double acc = y[ii];
            for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * y[j];
            y[ii] = acc / lu(ii, ii);
        }
    }

    linalg::Matrix lu;
    std::vector<std::size_t> perm;
};

TEST(DenseBits, LuSolveMatchesRowAtATimeSubstitution) {
    for (std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 129, 513}) {
        // Weakly diagonal so partial pivoting swaps rows.
        linalg::Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                m(i, j) = filler(i * n + j, n) + (i == j ? 0.5 : 0.0);
        const linalg::LuDecomposition lu(m);
        const FrozenLu frozen(m);
        for (std::size_t salt = 0; salt < 3; ++salt) {
            linalg::Vector b(n);
            for (std::size_t i = 0; i < n; ++i) b[i] = filler(i, 100 + salt);
            linalg::Vector got(n), want(n);
            lu.solve_into(b, got);
            frozen.solve_into(b, want);
            EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)),
                      0)
                << "n = " << n << ", rhs " << salt;
        }
    }
}

// ---- frozen matvec: one row per pass in each tier ------------------------

void frozen_scalar_matvec(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* y) {
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        double acc = 0.0;
        for (std::size_t j = 0; j < cols; ++j) acc += row[j] * x[j];
        y[i] = acc;
    }
}

#if HP_TEST_X86
__attribute__((target("avx2"))) double frozen_hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

__attribute__((target("avx2,fma"))) void frozen_avx2_matvec(
    const double* a, std::size_t rows, std::size_t cols, const double* x,
    double* y) {
    for (std::size_t i = 0; i < rows; ++i) {
        const double* row = a + i * cols;
        __m256d acc = _mm256_setzero_pd();
        std::size_t j = 0;
        for (; j + 4 <= cols; j += 4)
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + j),
                                  _mm256_loadu_pd(x + j), acc);
        double s = frozen_hsum(acc);
        for (; j < cols; ++j) s += row[j] * x[j];
        y[i] = s;
    }
}
#endif

class ForcedTier {
public:
    explicit ForcedTier(Tier tier) {
        linalg::simd::force_tier_for_testing(tier);
    }
    ~ForcedTier() { linalg::simd::clear_forced_tier_for_testing(); }
};

TEST(DenseBits, MatvecMatchesRowAtATimeKernelInEachTier) {
    for (const Tier tier : {Tier::kScalar, Tier::kAvx2}) {
        const ForcedTier forced(tier);
        if (linalg::simd::active_tier() != tier) continue;  // no AVX2 here
        void (*frozen)(const double*, std::size_t, std::size_t,
                       const double*, double*) = frozen_scalar_matvec;
#if HP_TEST_X86
        if (tier == Tier::kAvx2) frozen = frozen_avx2_matvec;
#endif
        // Sixteen data sets per shape: a fused tail, say, moves only some
        // sums' last bits.
        for (std::size_t rows = 1; rows <= 9; ++rows) {
            for (std::size_t cols : {1, 3, 4, 5, 129}) {
                for (std::size_t salt = 0; salt < 16; ++salt) {
                    std::vector<double> a(rows * cols), x(cols);
                    for (std::size_t i = 0; i < a.size(); ++i)
                        a[i] = filler(i, rows + 16 * salt);
                    for (std::size_t j = 0; j < cols; ++j)
                        x[j] = filler(j, 50 + salt);
                    std::vector<double> got(rows), want(rows);
                    linalg::simd::kernels().matvec(a.data(), rows, cols,
                                                   x.data(), got.data());
                    frozen(a.data(), rows, cols, x.data(), want.data());
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          rows * sizeof(double)),
                              0)
                        << linalg::simd::tier_name(tier) << " rows " << rows
                        << " cols " << cols << " data " << salt;
                }
            }
        }
    }
}

}  // namespace

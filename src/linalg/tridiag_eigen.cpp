#include "linalg/tridiag_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hp::linalg {

// The textbook tred2/tql2 pair walks columns of a row-major matrix in both
// of its O(n^3) loops. This version walks rows instead (DESIGN.md §14.4):
// the accumulated transform is stored transposed, so the Q accumulation's
// dot products and every QL rotation run along contiguous rows, and the
// reduction's column sums are scattered from the rows that hold them. Every
// element still sees the same operations in the same order — no sum is
// reassociated — so the eigenpairs are bit-identical to the textbook
// routine's (tests/tridiag_eigen_test.cpp pins this against a frozen copy).

namespace {

/// g = A·u over the leading (l+1)×(l+1) block of @p a's lower triangle,
/// written to @p g. Each g_j is summed in ascending k exactly as tred2 does:
/// the row part a(j,0..j)·u first, then the column part a(j+1..l, j)·u,
/// whose term k is scattered from row k. One pass over the triangle, four
/// rows at a time, serves both parts.
void lower_symmetric_matvec(const Matrix& a, std::size_t l, const double* u,
                            double* g) {
    const std::size_t n = a.cols();
    std::size_t k = 0;
    for (; k + 4 <= l + 1; k += 4) {
        const double* r0 = a.data() + k * n;
        const double* r1 = r0 + n;
        const double* r2 = r1 + n;
        const double* r3 = r2 + n;
        const double u0 = u[k], u1 = u[k + 1], u2 = u[k + 2], u3 = u[k + 3];
        double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
        for (std::size_t m = 0; m < k; ++m) {
            const double um = u[m];
            g0 += r0[m] * um;
            g1 += r1[m] * um;
            g2 += r2[m] * um;
            g3 += r3[m] * um;
            g[m] = g[m] + r0[m] * u0 + r1[m] * u1 + r2[m] * u2 + r3[m] * u3;
        }
        // The 4×4 diagonal block: each row part completes, then the rows
        // below it add their column terms in order.
        g0 += r0[k] * u0;
        g1 += r1[k] * u0;
        g1 += r1[k + 1] * u1;
        g2 += r2[k] * u0;
        g2 += r2[k + 1] * u1;
        g2 += r2[k + 2] * u2;
        g3 += r3[k] * u0;
        g3 += r3[k + 1] * u1;
        g3 += r3[k + 2] * u2;
        g3 += r3[k + 3] * u3;
        g[k] = g0 + r1[k] * u1 + r2[k] * u2 + r3[k] * u3;
        g[k + 1] = g1 + r2[k + 1] * u2 + r3[k + 1] * u3;
        g[k + 2] = g2 + r3[k + 2] * u3;
        g[k + 3] = g3;
    }
    for (; k <= l; ++k) {
        const double* r = a.data() + k * n;
        const double uk = u[k];
        double acc = 0.0;
        for (std::size_t m = 0; m < k; ++m) {
            acc += r[m] * u[m];
            g[m] += r[m] * uk;
        }
        acc += r[k] * uk;
        g[k] = acc;
    }
}

/// Q ← Q·(I - u·uᵀ/H) on the leading i×i block of @p qt, which holds Qᵀ:
/// row j of Qᵀ becomes row j - (row j · u)·(u/H), four rows at a time.
/// @p w holds u/H.
void apply_reflector(Matrix& qt, std::size_t i, const double* u,
                     const double* w) {
    const std::size_t n = qt.cols();
    std::size_t j = 0;
    for (; j + 4 <= i; j += 4) {
        double* p0 = qt.data() + j * n;
        double* p1 = p0 + n;
        double* p2 = p1 + n;
        double* p3 = p2 + n;
        double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
        for (std::size_t k = 0; k < i; ++k) {
            const double uk = u[k];
            g0 += uk * p0[k];
            g1 += uk * p1[k];
            g2 += uk * p2[k];
            g3 += uk * p3[k];
        }
        for (std::size_t k = 0; k < i; ++k) {
            const double wk = w[k];
            p0[k] -= g0 * wk;
            p1[k] -= g1 * wk;
            p2[k] -= g2 * wk;
            p3[k] -= g3 * wk;
        }
    }
    for (; j < i; ++j) {
        double* p = qt.data() + j * n;
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += u[k] * p[k];
        for (std::size_t k = 0; k < i; ++k) p[k] -= g * w[k];
    }
}

/// Householder reduction of symmetric @p a (overwritten; only its lower
/// triangle is read) to tridiagonal form: on exit @p d holds the diagonal,
/// @p e the subdiagonal (e[0] unused) and @p a the transpose Qᵀ of the
/// accumulated orthogonal transform with A = Q·T·Qᵀ. @p w is n doubles of
/// scratch.
void householder_tridiagonalize(Matrix& a, double* d, double* e, double* w) {
    const std::size_t n = a.rows();
    for (std::size_t i = n; i-- > 1;) {
        const std::size_t l = i - 1;
        double h = 0.0;
        if (l > 0) {
            double scale = 0.0;
            for (std::size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
            if (scale == 0.0) {
                e[i] = a(i, l);
            } else {
                for (std::size_t k = 0; k <= l; ++k) {
                    a(i, k) /= scale;
                    h += a(i, k) * a(i, k);
                }
                double f = a(i, l);
                double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
                e[i] = scale * g;
                h -= f * g;
                a(i, l) = f - g;
                lower_symmetric_matvec(a, l, a.data() + i * n, e);
                f = 0.0;
                for (std::size_t j = 0; j <= l; ++j) {
                    e[j] /= h;
                    f += e[j] * a(i, j);
                }
                const double hh = f / (h + h);
                for (std::size_t j = 0; j <= l; ++j) {
                    f = a(i, j);
                    e[j] = g = e[j] - hh * f;
                    for (std::size_t k = 0; k <= j; ++k)
                        a(j, k) -= f * e[k] + g * a(i, k);
                }
            }
        } else {
            e[i] = a(i, l);
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate Qᵀ in place: before step i the leading i×i block holds only
    // transform data, row i holds the reflector u and d[i] its H.
    for (std::size_t i = 0; i < n; ++i) {
        if (d[i] != 0.0) {
            for (std::size_t k = 0; k < i; ++k) w[k] = a(i, k) / d[i];
            apply_reflector(a, i, a.data() + i * n, w);
        }
        d[i] = a(i, i);
        a(i, i) = 1.0;
        for (std::size_t j = 0; j < i; ++j) {
            a(j, i) = 0.0;
            a(i, j) = 0.0;
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal (d, e), accumulating the
/// rotations into @p zt (entered as the Householder Qᵀ). On exit d holds the
/// (unsorted) eigenvalues and row j of zt the eigenvector of d[j].
void ql_implicit_shift(std::size_t n, double* d, double* e, Matrix& zt) {
    for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
    e[n - 1] = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
        std::size_t iter = 0;
        std::size_t m;
        do {
            for (m = l; m + 1 < n; ++m) {
                const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
                if (std::abs(e[m]) <= 1e-300 ||
                    std::abs(e[m]) <= 1e-16 * dd)
                    break;
            }
            if (m != l) {
                if (++iter > 64)
                    throw std::runtime_error(
                        "tridiagonal_eigen: QL iteration failed to converge");
                double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                double r = std::hypot(g, 1.0);
                g = d[m] - d[l] +
                    e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
                double s = 1.0;
                double c = 1.0;
                double p = 0.0;
                for (std::size_t i = m; i-- > l;) {
                    double f = s * e[i];
                    const double b = c * e[i];
                    r = std::hypot(f, g);
                    e[i + 1] = r;
                    if (r == 0.0) {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    double* z0 = zt.data() + i * n;
                    double* z1 = z0 + n;
                    for (std::size_t k = 0; k < n; ++k) {
                        f = z1[k];
                        z1[k] = s * z0[k] + c * f;
                        z0[k] = c * z0[k] - s * f;
                    }
                }
                if (r == 0.0 && m - l > 1) continue;
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        } while (m != l);
    }
}

}  // namespace

SymmetricEigen tridiagonal_eigen(const Matrix& m, double symmetry_tol) {
    if (!m.square())
        throw std::invalid_argument("tridiagonal_eigen: matrix must be square");
    const double scale = std::max(1.0, m.max_abs());
    if (!m.is_symmetric(symmetry_tol * scale))
        throw std::invalid_argument(
            "tridiagonal_eigen: matrix must be symmetric");

    const std::size_t n = m.rows();
    SymmetricEigen out;
    if (n == 0) return out;
    Matrix qt = m;
    // One consolidated scratch block for the diagonal, the subdiagonal and
    // the reflector work vector (the setup bench gates allocs/op; per-stage
    // vectors were churn).
    std::vector<double> de(3 * n, 0.0);
    double* d = de.data();
    double* e = de.data() + n;
    householder_tridiagonalize(qt, d, e, e + n);
    ql_implicit_shift(n, d, e, qt);

    // Sort ascending, permuting eigenvector columns along (jacobi_eigen's
    // output contract).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
    out.values = Vector(n);
    out.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.values[j] = d[order[j]];
        for (std::size_t i = 0; i < n; ++i)
            out.vectors(i, j) = qt(order[j], i);
    }
    return out;
}

}  // namespace hp::linalg

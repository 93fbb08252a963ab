#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.hpp"

namespace hp::linalg {

LuDecomposition::LuDecomposition(const Matrix& m) : lu_(m) {
    if (!m.square())
        throw std::invalid_argument("LuDecomposition: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot: pick the largest magnitude entry in this column.
        std::size_t pivot = col;
        double pivot_mag = std::abs(lu_(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double mag = std::abs(lu_(r, col));
            if (mag > pivot_mag) {
                pivot = r;
                pivot_mag = mag;
            }
        }
        if (pivot_mag == 0.0)
            throw std::domain_error("LuDecomposition: singular matrix");
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(lu_(pivot, j), lu_(col, j));
            std::swap(perm_[pivot], perm_[col]);
            perm_sign_ = -perm_sign_;
        }
        const double inv_pivot = 1.0 / lu_(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu_(r, col) * inv_pivot;
            lu_(r, col) = factor;
            if (factor == 0.0) continue;
            for (std::size_t j = col + 1; j < n; ++j)
                lu_(r, j) -= factor * lu_(col, j);
        }
    }
}

Vector LuDecomposition::solve(const Vector& b) const {
    Vector y(size());
    solve_into(b, y);
    return y;
}

void LuDecomposition::solve_into(const Vector& b, Vector& out) const {
    const std::size_t n = size();
    if (b.size() != n || out.size() != n)
        throw std::invalid_argument("LuDecomposition::solve: size mismatch");
    // Apply permutation, then forward- and back-substitute in place.
    Vector& y = out;
    for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
    // Forward substitution four rows per pass: the rows share each y[j]
    // load and their four acc -= l·y chains overlap instead of serialising
    // on one. Each row still subtracts in ascending j, finishing with the
    // in-block triangle in row order, so every y[i] keeps its bits.
    const double* l = lu_.data();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double* l0 = l + (i + 0) * n;
        const double* l1 = l + (i + 1) * n;
        const double* l2 = l + (i + 2) * n;
        const double* l3 = l + (i + 3) * n;
        double a0 = y[i], a1 = y[i + 1], a2 = y[i + 2], a3 = y[i + 3];
        for (std::size_t j = 0; j < i; ++j) {
            const double yj = y[j];
            a0 -= l0[j] * yj;
            a1 -= l1[j] * yj;
            a2 -= l2[j] * yj;
            a3 -= l3[j] * yj;
        }
        a1 -= l1[i] * a0;
        a2 -= l2[i] * a0;
        a2 -= l2[i + 1] * a1;
        a3 -= l3[i] * a0;
        a3 -= l3[i + 1] * a1;
        a3 -= l3[i + 2] * a2;
        y[i] = a0;
        y[i + 1] = a1;
        y[i + 2] = a2;
        y[i + 3] = a3;
    }
    for (; i < n; ++i) {
        const double* li = l + i * n;
        double acc = y[i];
        for (std::size_t j = 0; j < i; ++j) acc -= li[j] * y[j];
        y[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * y[j];
        y[ii] = acc / lu_(ii, ii);
    }
}

void LuDecomposition::solve_batch_into(const double* b, std::size_t nrhs,
                                       double* out) const {
    const std::size_t n = size();
    if (nrhs == 0) return;
    // Permutation, then both substitutions in place — solve_into with the
    // scalar recurrences replaced by width-nrhs axpy/div kernels. The axpy
    // form y_i += (-l)·y_j is bit-identical to solve_into's acc -= l·y_j
    // (IEEE negation is exact), and the kernels never fuse, so each RHS
    // reproduces the single-RHS bits exactly.
    for (std::size_t i = 0; i < n; ++i) {
        const double* src = b + perm_[i] * nrhs;
        double* dst = out + i * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) dst[r] = src[r];
    }
    for (std::size_t i = 1; i < n; ++i) {
        double* yi = out + i * nrhs;
        for (std::size_t j = 0; j < i; ++j)
            kernel_axpy(nrhs, -lu_(i, j), out + j * nrhs, yi);
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double* yi = out + ii * nrhs;
        for (std::size_t j = ii + 1; j < n; ++j)
            kernel_axpy(nrhs, -lu_(ii, j), out + j * nrhs, yi);
        kernel_div_scalar(nrhs, lu_(ii, ii), yi);
    }
}

Matrix LuDecomposition::solve(const Matrix& b) const {
    const std::size_t n = size();
    if (b.rows() != n)
        throw std::invalid_argument("LuDecomposition::solve: size mismatch");
    Matrix x(n, b.cols());
    Vector column(n);
    for (std::size_t c = 0; c < b.cols(); ++c) {
        for (std::size_t r = 0; r < n; ++r) column[r] = b(r, c);
        const Vector sol = solve(column);
        for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
    }
    return x;
}

Matrix LuDecomposition::inverse() const { return solve(Matrix::identity(size())); }

double LuDecomposition::determinant() const {
    double det = perm_sign_;
    for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
    return det;
}

Vector solve(const Matrix& m, const Vector& b) {
    return LuDecomposition(m).solve(b);
}

Matrix inverse(const Matrix& m) { return LuDecomposition(m).inverse(); }

}  // namespace hp::linalg

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace hp::linalg {

/// Minimal compressed-sparse-row matrix: just enough to stream y = A·x over
/// the structural nonzeros of an RC conductance/coupling matrix. Thermal
/// grids have O(1) neighbours per node, so nnz ≈ 7N and the matvec is O(N)
/// instead of the dense O(N^2) — the per-micro-step workhorse of the
/// truncated-modal solver's Taylor propagator.
///
/// Immutable after construction; matvec_into touches caller memory only, so
/// one matrix may serve any number of concurrent readers.
class SparseCsr {
public:
    SparseCsr() = default;

    /// Compresses @p dense, keeping entries with |a_ij| > @p drop_tol
    /// (0 keeps every structural nonzero bit-exactly).
    explicit SparseCsr(const Matrix& dense, double drop_tol = 0.0)
        : rows_(dense.rows()), cols_(dense.cols()) {
        row_ptr_.reserve(rows_ + 1);
        row_ptr_.push_back(0);
        for (std::size_t i = 0; i < rows_; ++i) {
            for (std::size_t j = 0; j < cols_; ++j) {
                const double a = dense(i, j);
                if (a > drop_tol || a < -drop_tol) {
                    col_.push_back(j);
                    val_.push_back(a);
                }
            }
            row_ptr_.push_back(col_.size());
        }
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t nonzeros() const { return val_.size(); }

    /// y = A·x. Sequential per-row accumulation (deterministic); @p y must
    /// not alias @p x. No allocations.
    void matvec_into(const double* x, double* y) const {
        for (std::size_t i = 0; i < rows_; ++i) {
            double acc = 0.0;
            const std::size_t end = row_ptr_[i + 1];
            for (std::size_t p = row_ptr_[i]; p < end; ++p)
                acc += val_[p] * x[col_[p]];
            y[i] = acc;
        }
    }

    /// Scales row i by s[i] in place (builds C = -A^{-1}B from CSR(B)).
    void scale_rows(const double* s) {
        for (std::size_t i = 0; i < rows_; ++i) {
            const std::size_t end = row_ptr_[i + 1];
            for (std::size_t p = row_ptr_[i]; p < end; ++p) val_[p] *= s[i];
        }
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> row_ptr_;
    std::vector<std::size_t> col_;
    std::vector<double> val_;
};

}  // namespace hp::linalg

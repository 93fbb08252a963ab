#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Dense row-major real matrix.
///
/// Sized for compact thermal models (N in the low hundreds); operations are
/// straightforward O(N^3)/O(N^2) loops without blocking, which is more than
/// fast enough for the design-time phase of the schedulers and keeps the
/// numerics easy to audit.
class Matrix {
public:
    Matrix() = default;

    /// Creates a @p rows x @p cols matrix with every entry equal to @p fill.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Creates a matrix from nested initializer lists; all rows must have the
    /// same length or std::invalid_argument is thrown.
    Matrix(std::initializer_list<std::initializer_list<double>> init) {
        rows_ = init.size();
        cols_ = rows_ == 0 ? 0 : init.begin()->size();
        data_.reserve(rows_ * cols_);
        for (const auto& row : init) {
            if (row.size() != cols_)
                throw std::invalid_argument("Matrix: ragged initializer list");
            data_.insert(data_.end(), row.begin(), row.end());
        }
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }
    bool square() const { return rows_ == cols_; }

    double operator()(std::size_t i, std::size_t j) const {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    double& operator()(std::size_t i, std::size_t j) {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    /// Raw row-major storage (rows()*cols() doubles); row i starts at
    /// data() + i*cols(). For performance-critical inner loops.
    const double* data() const { return data_.data(); }
    double* data() { return data_.data(); }

    /// The n x n identity.
    static Matrix identity(std::size_t n) {
        Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
        return m;
    }

    /// Diagonal matrix with @p d on the diagonal.
    static Matrix diagonal(const Vector& d) {
        Matrix m(d.size(), d.size());
        for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
        return m;
    }

    /// Returns the main diagonal as a vector (square matrices only).
    Vector diagonal_vector() const {
        require_square("diagonal_vector");
        Vector d(rows_);
        for (std::size_t i = 0; i < rows_; ++i) d[i] = (*this)(i, i);
        return d;
    }

    Matrix transpose() const {
        Matrix t(cols_, rows_);
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
        return t;
    }

    Matrix& operator+=(const Matrix& rhs) {
        check_same_shape(rhs);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
        return *this;
    }
    Matrix& operator-=(const Matrix& rhs) {
        check_same_shape(rhs);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
        return *this;
    }
    Matrix& operator*=(double s) {
        for (double& x : data_) x *= s;
        return *this;
    }

    friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
    friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
    friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
    friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

    /// Matrix-matrix product; shapes must be compatible.
    friend Matrix operator*(const Matrix& a, const Matrix& b) {
        if (a.cols_ != b.rows_)
            throw std::invalid_argument("Matrix multiply: shape mismatch");
        Matrix c(a.rows_, b.cols_);
        for (std::size_t i = 0; i < a.rows_; ++i) {
            for (std::size_t k = 0; k < a.cols_; ++k) {
                const double aik = a(i, k);
                if (aik == 0.0) continue;
                for (std::size_t j = 0; j < b.cols_; ++j)
                    c(i, j) += aik * b(k, j);
            }
        }
        return c;
    }

    /// Matrix-vector product (thin wrapper over the non-allocating kernel).
    friend Vector operator*(const Matrix& a, const Vector& x) {
        if (a.cols_ != x.size())
            throw std::invalid_argument("Matrix-vector multiply: shape mismatch");
        Vector y(a.rows_);
        kernel_matvec(a.data(), a.rows_, a.cols_, x.data(), y.data());
        return y;
    }

    friend bool operator==(const Matrix& a, const Matrix& b) {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
    }

    /// Largest absolute entry (max norm); 0 for an empty matrix.
    double max_abs() const {
        double m = 0.0;
        for (double x : data_) m = std::max(m, std::abs(x));
        return m;
    }

    /// True when |(i,j) - (j,i)| <= tol for all entries (square only).
    bool is_symmetric(double tol = 1e-9) const {
        if (!square()) return false;
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t j = i + 1; j < cols_; ++j)
                if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
        return true;
    }

private:
    void check_same_shape(const Matrix& rhs) const {
        if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
            throw std::invalid_argument("Matrix shape mismatch");
    }
    void require_square(const char* what) const {
        if (!square())
            throw std::logic_error(std::string("Matrix::") + what +
                                   " requires a square matrix");
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// out = a·x into a preallocated vector of a.rows() entries; bit-identical
/// to operator*(Matrix, Vector) without the allocation. @p out must not
/// alias @p x. Throws std::invalid_argument on any shape mismatch.
inline void matvec_into(const Matrix& a, const Vector& x, Vector& out) {
    if (a.cols() != x.size() || a.rows() != out.size())
        throw std::invalid_argument("matvec_into: shape mismatch");
    kernel_matvec(a.data(), a.rows(), a.cols(), x.data(), out.data());
}

}  // namespace hp::linalg

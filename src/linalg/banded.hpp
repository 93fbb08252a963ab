#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::linalg {

/// Sparse direct solver for symmetric positive-definite matrices with grid
/// structure plus a few dense-coupled rows — exactly the shape of an RC
/// conductance matrix B, where every node couples to O(1) neighbours except
/// the heat sink, which couples to the whole spreader footprint.
///
/// Factorisation strategy:
///  1. rows whose structural degree exceeds a threshold (the sink) are
///     *bordered* — ordered last and eliminated through a dense Schur
///     complement, so they cannot inflate the bandwidth;
///  2. the remaining grid rows are permuted by reverse Cuthill-McKee, which
///     makes the interior block narrowly banded;
///  3. the interior is factorised by a banded Cholesky (O(N·b²) setup,
///     O(N·b) per solve for half-bandwidth b), the border by a dense
///     Cholesky of its (tiny) Schur complement.
///
/// For a planar 16x16-core model (N = 513, b ≈ 33) a solve costs ~70 k flops
/// against the dense LU's ~530 k — and setup is O(N·b²) instead of O(N³).
/// Solutions agree with the LU path to machine precision but not bit-for-bit
/// (different elimination order); the bit-identity guarantees of the dense
/// backend therefore keep using its LU of B.
///
/// Immutable after construction; solve_into writes only caller buffers, so
/// one factorisation serves any number of concurrent solver threads.
class BandedCholesky {
public:
    BandedCholesky() = default;

    /// Factorises SPD @p spd. Rows with more than @p border_degree_threshold
    /// structural off-diagonal nonzeros are bordered. Throws
    /// std::invalid_argument if @p spd is not square/symmetric or a pivot is
    /// not positive (not SPD).
    explicit BandedCholesky(const Matrix& spd,
                            std::size_t border_degree_threshold = 12);

    std::size_t size() const { return n_; }
    /// Half-bandwidth of the RCM-permuted interior block.
    std::size_t bandwidth() const { return hb_; }
    /// Number of dense-coupled rows eliminated through the Schur complement.
    std::size_t border_count() const { return nb_; }

    /// Solves S·x = b. @p scratch must hold size() doubles; @p x may alias
    /// @p b but neither may alias @p scratch. No allocations.
    void solve_into(const double* b, double* x, double* scratch) const;

    /// Solves S·x_r = b_r for @p nrhs RHS-major vectors (RHS r occupies
    /// [r·size(), (r+1)·size()) of @p bs and @p xs) in one lane-parallel
    /// sweep: the triangular substitutions are sequential per row but
    /// independent across right-hand sides, so each factor entry is loaded
    /// once and applied to all lanes — this breaks the per-row dependency
    /// chain that makes the single solve latency-bound. Lane r performs
    /// exactly solve_into's operation sequence (same subtractions in the
    /// same order, multiply and add never reassociated), so output r is
    /// bit-identical to solve_into on input r. @p scratch must hold
    /// size()·nrhs doubles; @p xs may alias @p bs but neither may alias
    /// @p scratch. No allocations.
    void solve_batch_into(const double* bs, std::size_t nrhs, double* xs,
                          double* scratch) const;

    /// Allocating convenience solve.
    Vector solve(const Vector& b) const;

private:
    std::size_t n_ = 0;   ///< total rows
    std::size_t ni_ = 0;  ///< interior (banded) rows
    std::size_t nb_ = 0;  ///< bordered rows
    std::size_t hb_ = 0;  ///< interior half-bandwidth
    std::vector<std::size_t> perm_;   ///< permuted index k holds original perm_[k]
    std::vector<double> band_;        ///< interior L, band_[i*(hb_+1)+d] = L(i,i-d)
    std::vector<double> w_;           ///< L^{-1}·A_IB, column-major (ni_ x nb_)
    std::vector<double> schur_;       ///< dense Cholesky factor of the border Schur
};

}  // namespace hp::linalg

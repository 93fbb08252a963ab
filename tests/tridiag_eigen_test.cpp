// linalg::tridiagonal_eigen: its output contract, and bit identity with the
// column-walking routine it replaced (frozen in tridiag_eigen_reference.hpp).
//
// The production routine walks rows where the textbook tred2/tql2 pair
// walks columns, but every element sees the same operations in the same
// order, so eigenvalues and eigenvectors must match the frozen copy bit for
// bit (memcmp). The inputs cover the four-row remainder paths (n = 2..7),
// the reduction's scale == 0 branch, a QL split on an exact zero, the QL
// r == 0 branch, and the symmetrised RC models of the 64-core (129 nodes),
// stacked 256-core (321) and planar 256-core (513) chips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>

#include "arch/manycore.hpp"
#include "linalg/matrix.hpp"
#include "linalg/tridiag_eigen.hpp"
#include "linalg/vector.hpp"
#include "thermal/rc_network.hpp"
#include "tridiag_eigen_reference.hpp"

namespace {

using namespace hp;
using linalg::Matrix;
using linalg::Vector;

Matrix random_spd(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    // A^T A + n I is symmetric positive definite.
    Matrix spd = a.transpose() * a;
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
    return spd;
}

/// S = A^{-1/2} B A^{-1/2}, the matrix the modal backend decomposes.
Matrix symmetrised_model(const arch::ManyCore& chip) {
    const thermal::ThermalModel model(chip.plan(), {});
    const Vector& cap = model.capacitance();
    const Matrix& b = model.conductance();
    const std::size_t n = model.node_count();
    Vector inv_sqrt_cap(n);
    for (std::size_t i = 0; i < n; ++i)
        inv_sqrt_cap[i] = 1.0 / std::sqrt(cap[i]);
    Matrix s(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            s(i, j) = inv_sqrt_cap[i] * b(i, j) * inv_sqrt_cap[j];
    return s;
}

void expect_bit_identical(const Matrix& m) {
    const linalg::SymmetricEigen want = linalg::frozen::tridiagonal_eigen(m);
    const linalg::SymmetricEigen got = linalg::tridiagonal_eigen(m);
    const std::size_t n = m.rows();
    ASSERT_EQ(got.values.size(), n);
    ASSERT_EQ(got.vectors.rows(), n);
    ASSERT_EQ(got.vectors.cols(), n);
    EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          n * sizeof(double)),
              0)
        << "eigenvalues differ at n = " << n;
    EXPECT_EQ(std::memcmp(got.vectors.data(), want.vectors.data(),
                          n * n * sizeof(double)),
              0)
        << "eigenvectors differ at n = " << n;
}

// -------------------------------------------------------------- contract ---

TEST(TridiagonalEigen, EmptyMatrixGivesEmptyDecomposition) {
    const linalg::SymmetricEigen eig = linalg::tridiagonal_eigen(Matrix(0, 0));
    EXPECT_EQ(eig.values.size(), 0u);
    EXPECT_EQ(eig.vectors.rows(), 0u);
    EXPECT_EQ(eig.vectors.cols(), 0u);
}

TEST(TridiagonalEigen, OneByOne) {
    const linalg::SymmetricEigen eig =
        linalg::tridiagonal_eigen(Matrix{{-2.5}});
    ASSERT_EQ(eig.values.size(), 1u);
    EXPECT_EQ(eig.values[0], -2.5);
    EXPECT_EQ(eig.vectors(0, 0), 1.0);
}

TEST(TridiagonalEigen, NonSquareThrows) {
    EXPECT_THROW((void)linalg::tridiagonal_eigen(Matrix(2, 3)),
                 std::invalid_argument);
}

TEST(TridiagonalEigen, AsymmetricThrows) {
    const Matrix m{{1.0, 2.0}, {0.0, 1.0}};
    EXPECT_THROW((void)linalg::tridiagonal_eigen(m), std::invalid_argument);
}

class TridiagonalEigenContract : public ::testing::TestWithParam<int> {};

TEST_P(TridiagonalEigenContract, AscendingOrthonormalEigenpairs) {
    const std::size_t n = static_cast<std::size_t>(GetParam());
    const Matrix m = random_spd(n, 100 + n);
    const linalg::SymmetricEigen eig = linalg::tridiagonal_eigen(m);
    ASSERT_EQ(eig.values.size(), n);
    for (std::size_t k = 1; k < n; ++k)
        EXPECT_LE(eig.values[k - 1], eig.values[k]);
    const Matrix& v = eig.vectors;
    const Matrix gram = v.transpose() * v;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-12);
    const double scale = m.max_abs();
    for (std::size_t k = 0; k < n; ++k) {
        double residual = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double av = 0.0;
            for (std::size_t j = 0; j < n; ++j) av += m(i, j) * v(j, k);
            residual = std::max(residual,
                                std::abs(av - eig.values[k] * v(i, k)));
        }
        EXPECT_LT(residual, 1e-12 * scale) << "mode " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagonalEigenContract,
                         ::testing::Values(2, 3, 5, 8, 17, 40));

// ---------------------------------------------------------- bit identity ---

class TridiagonalEigenBits : public ::testing::TestWithParam<int> {};

TEST_P(TridiagonalEigenBits, RandomSpdMatchesFrozenCopy) {
    const std::size_t n = static_cast<std::size_t>(GetParam());
    expect_bit_identical(random_spd(n, n));
}

INSTANTIATE_TEST_SUITE_P(Remainders, TridiagonalEigenBits,
                         ::testing::Values(2, 3, 4, 5, 7));

TEST(TridiagonalEigenBitsInputs, ZeroHouseholderRow) {
    // The last row is zero left of the diagonal: the first reduction step
    // takes the scale == 0 branch.
    const Matrix m{{4.0, 1.0, 0.5, 0.0, 0.0},
                   {1.0, 5.0, 1.0, 0.25, 0.0},
                   {0.5, 1.0, 6.0, 1.0, 0.0},
                   {0.0, 0.25, 1.0, 7.0, 0.0},
                   {0.0, 0.0, 0.0, 0.0, 3.0}};
    expect_bit_identical(m);
}

TEST(TridiagonalEigenBitsInputs, ReducibleTridiagonal) {
    // Two decoupled 3x3 blocks: the tridiagonal form carries an exact zero
    // subdiagonal entry, so QL splits there.
    const Matrix m{{4.0, 1.0, 0.5, 0.0, 0.0, 0.0},
                   {1.0, 5.0, 1.0, 0.0, 0.0, 0.0},
                   {0.5, 1.0, 6.0, 0.0, 0.0, 0.0},
                   {0.0, 0.0, 0.0, 7.0, 2.0, 1.0},
                   {0.0, 0.0, 0.0, 2.0, 8.0, 0.5},
                   {0.0, 0.0, 0.0, 1.0, 0.5, 9.0}};
    expect_bit_identical(m);
}

TEST(TridiagonalEigenBitsInputs, UnderflowingRotation) {
    // Entries 2^±211..2^±544 apart: a QL rotation's sine underflows to zero
    // and the sweep takes the r == 0 exit.
    const Matrix m{{0.0, 0x1p-169, 0.0, -0x1p-544},
                   {0x1p-169, 0.0, 0.0, 0.0},
                   {0.0, 0.0, 0.0, -0x1p+211},
                   {-0x1p-544, 0.0, -0x1p+211, -0x1p-420}};
    expect_bit_identical(m);
}

TEST(TridiagonalEigenBitsInputs, Paper64CoreModel) {
    const Matrix m = symmetrised_model(arch::ManyCore::paper_64core());
    ASSERT_EQ(m.rows(), 129u);
    expect_bit_identical(m);
}

TEST(TridiagonalEigenBitsInputs, Stacked256CoreModel) {
    arch::SnucaParams params;
    params.layers = 4;
    const Matrix m = symmetrised_model(arch::ManyCore(8, 8, params));
    ASSERT_EQ(m.rows(), 321u);
    expect_bit_identical(m);
}

TEST(TridiagonalEigenBitsInputs, Paper256CoreModel) {
    const Matrix m = symmetrised_model(arch::ManyCore(16, 16));
    ASSERT_EQ(m.rows(), 513u);
    expect_bit_identical(m);
}

}  // namespace

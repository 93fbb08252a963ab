// Golden bits of the truncated-modal backend's one-time setup.
//
// The modal setup (DESIGN.md §11) is an eigendecomposition of the
// symmetrised RC model followed by mode selection and a per-core
// error-bound probe. Its outputs feed every modal answer, so this suite
// pins them on the stock modal chips: the hex-float error bound, switch
// horizon and cluster pole, the retained mode count, and 64-bit FNV-1a
// digests of every bit of the retained eigenvalues and mode shapes. The
// error bound is the probe's output, so its bits pin the probe too.
//
// None of these values depend on the SIMD dispatch tier or on
// HOTPOTATO_SOLVER (every chip pins SolverConfig::modal()), so one table
// serves every CI leg. The 1024-core chip (2049 nodes) is checked only in
// optimised builds, where its setup takes seconds rather than minutes.
//
// A change that alters any bit fails here and prints the new row in the
// table's format. Replace a row only for a change that is meant to move the
// setup, and say why in its description.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "campaign/study_setup.hpp"
#include "thermal/modal_solver.hpp"

namespace {

using namespace hp;

std::uint64_t fnv1a(const double* values, std::size_t count) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < count; ++i) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &values[i], sizeof(double));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct Fingerprint {
    const char* chip;
    double error_bound_c;
    double tau_switch_s;
    double cluster_pole;
    std::size_t mode_count;
    std::uint64_t eigenvalues_digest;
    std::uint64_t mode_shapes_digest;
};

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_fingerprint(const Fingerprint& want) {
    const campaign::StudySetup setup = campaign::StudySetup::by_name(
        want.chip, thermal::SolverConfig::modal());
    const auto* solver =
        dynamic_cast<const thermal::TruncatedModalSolver*>(&setup.solver());
    ASSERT_NE(solver, nullptr);
    const linalg::Vector& lambda = solver->eigenvalues();
    const linalg::Matrix& shapes = solver->mode_shapes();
    const Fingerprint got{
        want.chip,
        solver->error_bound_c(),
        solver->tau_switch_s(),
        solver->cluster_pole(),
        solver->mode_count(),
        fnv1a(lambda.data(), lambda.size()),
        fnv1a(shapes.data(), shapes.rows() * shapes.cols())};
    const bool match = same_bits(got.error_bound_c, want.error_bound_c) &&
                       same_bits(got.tau_switch_s, want.tau_switch_s) &&
                       same_bits(got.cluster_pole, want.cluster_pole) &&
                       got.mode_count == want.mode_count &&
                       got.eigenvalues_digest == want.eigenvalues_digest &&
                       got.mode_shapes_digest == want.mode_shapes_digest;
    if (match) return;
    char row[320];
    std::snprintf(row, sizeof row,
                  "    \"%s\", %a, %a,\n"
                  "    %a, %zu, 0x%016llxull, 0x%016llxull};",
                  got.chip, got.error_bound_c, got.tau_switch_s,
                  got.cluster_pole, got.mode_count,
                  static_cast<unsigned long long>(got.eigenvalues_digest),
                  static_cast<unsigned long long>(got.mode_shapes_digest));
    ADD_FAILURE() << "setup fingerprint moved; new row:\n" << row;
}

// Recorded from the column-walking tred2/tql2 eigensolver and the
// one-row-at-a-time error-bound probe; the row-wise rewrite of both keeps
// every bit.
const Fingerprint kPaper256 = {
    "paper_256core", 0x1.cd21c9f3f30f3p+4, 0x1.6451af3d7a22p-3,
    -0x1.b0c7251c42291p+6, 257, 0x9b83518703b965a4ull, 0x40c5968f8ebf68beull};
const Fingerprint kStacked256 = {
    "stacked_256core", 0x1.766a824774c2ep+1, 0x1.1bd9905ee1d1p-5,
    -0x1.f79d782d0cc87p+8, 193, 0x0df944d77309eca7ull, 0xac553f7d9a078a0dull};
const Fingerprint kPaper1024 = {
    "paper_1024core", 0x1.994fa338933p+4, 0x1.7e6f55a99c6fap-3,
    -0x1.b9f609efad9d4p+6, 1044, 0xb4ebb83a8f559e21ull, 0x14edb2e4e9280235ull};

TEST(SetupFingerprint, Paper256Core) { expect_fingerprint(kPaper256); }

TEST(SetupFingerprint, Stacked256Core) { expect_fingerprint(kStacked256); }

TEST(SetupFingerprint, Paper1024Core) {
#ifndef NDEBUG
    GTEST_SKIP() << "2049-node setup runs in optimised builds only";
#else
    expect_fingerprint(kPaper1024);
#endif
}

}  // namespace

// Runtime SIMD dispatch: tier resolution, per-tier determinism and the
// cross-tier numeric contract (simd.hpp / DESIGN.md §9).
//
//  * resolve_tier parsing: explicit specs, garbage and null fall back to the
//    best available tier; forcing avx2 on hardware without it degrades to
//    scalar instead of crashing.
//  * Element-wise kernels are bit-identical ACROSS tiers (no fusing, no
//    reassociation — EXPECT_EQ).
//  * Reduction kernels (matvec/matmat/bound_matvec) reassociate in the AVX2
//    tier: scalar and AVX2 agree to rounding, each tier is self-deterministic
//    (same bits on every run; bound_matvec's A·x is that tier's matvec), and
//    end-to-end analyzer results agree within the documented tolerance.
//
// On machines without AVX2+FMA the cross-tier cases degenerate to
// scalar-vs-scalar and pass trivially; CI's `dispatch` job also runs this
// suite with HOTPOTATO_DISPATCH forced either way.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector.hpp"
#include "thermal/modal_solver.hpp"
#include "thermal/solver.hpp"
#include "thermal/workspace.hpp"
#include "peak_queries.hpp"

namespace {

using namespace hp;
using linalg::simd::Tier;

/// Forces a dispatch tier for the lifetime of one scope.
class ForcedTier {
public:
    explicit ForcedTier(Tier tier) {
        linalg::simd::force_tier_for_testing(tier);
    }
    ~ForcedTier() { linalg::simd::clear_forced_tier_for_testing(); }
};

double filler(std::size_t i) {
    return 0.05 + 1.37 * static_cast<double>((i * 7 + 3) % 13) +
           std::sin(static_cast<double>(i) * 0.61);
}

TEST(Dispatch, ResolveTierParsesSpecsAndDegradesGracefully) {
    const Tier best = linalg::simd::resolve_tier(nullptr);
    EXPECT_TRUE(linalg::simd::tier_available(best));

    EXPECT_EQ(linalg::simd::resolve_tier("scalar"), Tier::kScalar);
    const Tier avx2 = linalg::simd::resolve_tier("avx2");
    if (linalg::simd::tier_available(Tier::kAvx2))
        EXPECT_EQ(avx2, Tier::kAvx2);
    else
        EXPECT_EQ(avx2, Tier::kScalar);  // degrade, don't crash

    // Unknown specs resolve like null: the best available tier.
    EXPECT_EQ(linalg::simd::resolve_tier("definitely-not-a-tier"), best);
    EXPECT_EQ(linalg::simd::resolve_tier(""), best);

    EXPECT_EQ(std::string(linalg::simd::tier_name(Tier::kScalar)), "scalar");
    EXPECT_EQ(std::string(linalg::simd::tier_name(Tier::kAvx2)), "avx2");

    // The scalar table always exists; requesting an unavailable tier's table
    // falls back to it rather than returning garbage.
    (void)linalg::simd::kernels_for(Tier::kScalar);
    (void)linalg::simd::kernels_for(Tier::kAvx2);
}

TEST(Dispatch, ElementwiseKernelsBitIdenticalAcrossTiers) {
    const std::size_t n = 129;  // 4-lane blocks plus a remainder
    std::vector<double> x(n), e(n), zp(n), y0(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = filler(i);
        e[i] = 1.0 / (1.0 + filler(i + 9));
        zp[i] = filler(i + 17);
        y0[i] = filler(i + 5);
    }

    // Run the full element-wise suite under one tier into `got`, the other
    // into `want`; all must agree bit-for-bit.
    const auto run_all = [&](Tier tier) {
        ForcedTier forced(tier);
        const linalg::simd::KernelTable& k = linalg::simd::kernels();
        std::vector<std::vector<double>> r;
        std::vector<double> v = y0;
        k.axpy(n, 1.25, x.data(), v.data());
        r.push_back(v);
        v = x;
        k.hadamard(n, e.data(), v.data());
        r.push_back(v);
        v = y0;
        k.fma_acc(n, x.data(), e.data(), v.data());
        r.push_back(v);
        v.assign(n, 0.0);
        k.decay_mix(n, e.data(), zp.data(), y0.data(), v.data());
        r.push_back(v);
        v = x;
        k.div_scalar(n, 3.7, v.data());
        r.push_back(v);
        return r;
    };

    const auto scalar = run_all(Tier::kScalar);
    const auto avx2 = run_all(Tier::kAvx2);  // == scalar table if unavailable
    ASSERT_EQ(scalar.size(), avx2.size());
    for (std::size_t kernel = 0; kernel < scalar.size(); ++kernel)
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(scalar[kernel][i], avx2[kernel][i])
                << "kernel=" << kernel << " i=" << i;
}

// The batched modal projections must replay the single-RHS operation
// sequence under EVERY tier. The Taylor horizon (sequential CSR matvec +
// element-wise axpy) is additionally bit-identical across tiers; the
// retained-mode horizon uses matvec, which reassociates in AVX2, so there
// batch-vs-single holds within each tier only (the cross-tier analyzer
// agreement is covered by AnalyzerResultsAgreeAcrossTiersWithinTolerance).
TEST(Dispatch, BatchedModalProjectionsMatchSinglesUnderEachTier) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core(
        thermal::SolverConfig::modal());
    const auto* modal = dynamic_cast<const thermal::TruncatedModalSolver*>(
        &setup.solver());
    ASSERT_NE(modal, nullptr);
    ASSERT_TRUE(modal->truncated());
    const std::size_t n = setup.model().node_count();
    const std::size_t nrhs = 5;
    std::vector<double> xs(nrhs * n);
    for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = filler(i + 13);

    std::vector<double> taylor_by_tier[2];
    const Tier tiers[] = {Tier::kScalar, Tier::kAvx2};
    for (int t = 0; t < 2; ++t) {
        ForcedTier forced(tiers[t]);
        thermal::ThermalWorkspace wsb, wss;
        linalg::Vector x(n), single(n);
        for (double dt : {1e-4, 1.0}) {  // Taylor horizon, modal horizon
            std::vector<double> batch(nrhs * n, -1.0);
            modal->apply_exponential_batch_into(xs.data(), nrhs, dt, wsb,
                                                batch.data());
            for (std::size_t r = 0; r < nrhs; ++r) {
                for (std::size_t i = 0; i < n; ++i) x[i] = xs[r * n + i];
                modal->apply_exponential_into(x, dt, wss, single);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(batch[r * n + i], single[i])
                        << "tier=" << linalg::simd::tier_name(tiers[t])
                        << " dt=" << dt << " r=" << r << " i=" << i;
            }
            if (dt < modal->tau_switch_s()) taylor_by_tier[t] = batch;
        }
    }
    // Taylor path: scalar and AVX2 produce the same bits.
    ASSERT_EQ(taylor_by_tier[0].size(), nrhs * n);
    for (std::size_t i = 0; i < taylor_by_tier[0].size(); ++i)
        EXPECT_EQ(taylor_by_tier[0][i], taylor_by_tier[1][i]) << i;
}

TEST(Dispatch, ReductionKernelsSelfDeterministicAndCrossTierClose) {
    const std::size_t n = 129;
    std::vector<double> a(n * n), x(n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = filler(i);
    for (std::size_t i = 0; i < n; ++i) x[i] = filler(i + 3);

    const auto matvec_with = [&](Tier tier) {
        ForcedTier forced(tier);
        std::vector<double> y(n, -1.0);
        linalg::simd::kernels().matvec(a.data(), n, n, x.data(), y.data());
        return y;
    };

    // Self-determinism: same tier, same bits, every time.
    const std::vector<double> s1 = matvec_with(Tier::kScalar);
    const std::vector<double> s2 = matvec_with(Tier::kScalar);
    const std::vector<double> v1 = matvec_with(Tier::kAvx2);
    const std::vector<double> v2 = matvec_with(Tier::kAvx2);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(s1[i], s2[i]) << i;
        EXPECT_EQ(v1[i], v2[i]) << i;
    }

    // Cross-tier: reassociated reduction agrees to rounding (documented
    // ~1e-14 relative for N≈129 accumulation chains).
    for (std::size_t i = 0; i < n; ++i) {
        const double scale = std::max(1.0, std::abs(s1[i]));
        EXPECT_NEAR(s1[i], v1[i], 1e-12 * scale) << i;
    }
}

TEST(Dispatch, BoundMatvecMatchesEachTiersMatvecAndAgreesAcrossTiers) {
    // 257 columns: the 256-core chip's mode count, with a scalar tail lane.
    const std::size_t rows = 65, cols = 257;
    std::vector<double> a(rows * cols), xs(4 * cols);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = (i % 5 < 2 ? -1.0 : 1.0) * filler(i);
    for (std::size_t j = 0; j < cols; ++j) {
        xs[j] = filler(j + 2) - 5.0;
        xs[cols + j] = filler(j + 9) - 2.0;
        xs[2 * cols + j] = 0.25 * filler(j + 4);
        xs[3 * cols + j] = std::abs(xs[j]) + xs[2 * cols + j];
    }

    const auto bound_with = [&](Tier tier) {
        ForcedTier forced(tier);
        std::vector<double> ys(4 * rows, -1.0), vx(rows, -2.0);
        linalg::simd::kernels().bound_matvec(a.data(), rows, cols, xs.data(),
                                             ys.data());
        linalg::simd::kernels().matvec(a.data(), rows, cols, xs.data() + cols,
                                       vx.data());
        // Within the tier, A·x is exactly that tier's matvec.
        for (std::size_t i = 0; i < rows; ++i)
            EXPECT_EQ(ys[rows + i], vx[i]) << linalg::simd::tier_name(tier)
                                           << " row " << i;
        return ys;
    };
    const std::vector<double> s = bound_with(Tier::kScalar);
    const std::vector<double> v = bound_with(Tier::kAvx2);
    // Across tiers every output agrees to rounding of its magnitude sum.
    for (std::size_t i = 0; i < rows; ++i) {
        double scale = 0.0;
        for (std::size_t j = 0; j < cols; ++j)
            scale += std::abs(a[i * cols + j]) *
                     (std::abs(xs[j]) + std::abs(xs[cols + j]) +
                      xs[2 * cols + j]);
        for (std::size_t out = 0; out < 4; ++out)
            EXPECT_NEAR(s[out * rows + i], v[out * rows + i], 1e-13 * scale)
                << "output " << out << " row " << i;
    }
}

TEST(Dispatch, AnalyzerResultsAgreeAcrossTiersWithinTolerance) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core();
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);

    core::RotationRingSpec ring;
    ring.cores = {27, 28, 36, 35, 34, 26, 18, 19};
    ring.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
    const std::vector<core::RotationRingSpec> rings = {ring};
    linalg::Vector static_power(setup.model().core_count(), 0.3);
    static_power[27] = 6.0;

    const auto eval_with = [&](Tier tier) {
        ForcedTier forced(tier);
        core::PeakWorkspace ws;  // fresh per tier: no cross-tier residue
        return std::pair<double, double>(
            test::rotation_peak(analyzer, rings, 0.5e-3, 2, ws),
            test::static_peak(analyzer, static_power, ws));
    };

    const auto scalar = eval_with(Tier::kScalar);
    const auto avx2 = eval_with(Tier::kAvx2);
    // End-to-end the reassociation difference stays far below any thermal
    // signal (temperatures are tens of °C; tolerance is 1 µ°C).
    EXPECT_NEAR(scalar.first, avx2.first, 1e-6);
    EXPECT_NEAR(scalar.second, avx2.second, 1e-6);

    // Within a tier the evaluation is reproducible bit-for-bit.
    EXPECT_EQ(eval_with(Tier::kScalar).first, scalar.first);
    EXPECT_EQ(eval_with(Tier::kAvx2).first, avx2.first);
}

}  // namespace

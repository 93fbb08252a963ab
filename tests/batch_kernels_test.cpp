// Bit-identity of the batched (multi-RHS) kernels against their looped
// single-RHS counterparts.
//
// The batching contract (DESIGN.md §9) promises more than closeness: every
// batched kernel runs each right-hand side through exactly the operation
// sequence of the single-RHS path — same products, same accumulation order,
// same substitutions — so batch results must be *bit-identical* (EXPECT_EQ
// on doubles, no tolerance) to looping the scalar entry point, for every
// batch width including K=1 and sizes that are not a multiple of any SIMD
// register width.
//
// Coverage: the element-wise dispatch kernels against reference loops,
// kernel_matmat vs looped kernel_matvec, kernel_bound_matvec's A·x output vs
// kernel_matvec, LU solve_batch_into vs looped solve_into, the thermal batch
// kernels (the dense steady_state_batch_into,
// apply_exponential_batch_into including the documented outs==xs aliasing,
// transient_batch_into), and the analyzer slates (rotation_peaks at
// count > 1 against count 1, static_peaks at nrhs > 1 against nrhs 1, and
// the per-core maps both slates can write).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/vector.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/workspace.hpp"
#include "thermal_oracle.hpp"

namespace {

using namespace hp;

/// Deterministic irregular filler: no symmetry that could hide an indexing
/// bug, values spread over a couple of orders of magnitude.
double filler(std::size_t i) {
    return 0.05 + 1.37 * static_cast<double>((i * 7 + 3) % 13) +
           std::sin(static_cast<double>(i) * 0.61);
}

// Sizes deliberately include 1 (degenerate), odd primes (never a multiple of
// the 4-lane AVX2 width), 8 (exact multiple) and 129 (the big_n of the
// 64-core model: 32 groups of 4 plus a remainder lane).
const std::size_t kSizes[] = {1, 3, 5, 8, 129};
const std::size_t kWidths[] = {1, 2, 3, 5, 8};

TEST(BatchKernels, MatmatBitIdenticalToLoopedMatvec) {
    for (std::size_t n : kSizes) {
        std::vector<double> a(n * n);
        for (std::size_t i = 0; i < a.size(); ++i) a[i] = filler(i);
        for (std::size_t nrhs : kWidths) {
            std::vector<double> xs(nrhs * n);
            for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = filler(i + 11);

            std::vector<double> batch(nrhs * n, -1.0);
            linalg::kernel_matmat(a.data(), n, n, xs.data(), nrhs,
                                  batch.data());
            std::vector<double> looped(nrhs * n, -2.0);
            for (std::size_t r = 0; r < nrhs; ++r)
                linalg::kernel_matvec(a.data(), n, n, xs.data() + r * n,
                                      looped.data() + r * n);
            for (std::size_t i = 0; i < batch.size(); ++i)
                EXPECT_EQ(batch[i], looped[i])
                    << "n=" << n << " nrhs=" << nrhs << " i=" << i;
        }
    }
}

TEST(BatchKernels, BoundMatvecAxOutputBitIdenticalToMatvec) {
    // cols 257 is the 256-core chip's retained-mode count: 64 groups of 4
    // plus a one-lane scalar tail.
    for (std::size_t cols : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                             std::size_t{129}, std::size_t{257}}) {
        const std::size_t rows = 37;
        std::vector<double> a(rows * cols), xs(4 * cols);
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = (i % 3 == 0 ? -1.0 : 1.0) * filler(i);
        for (std::size_t j = 0; j < cols; ++j) {
            xs[j] = filler(j + 5) - 4.0;             // c (mixed signs)
            xs[cols + j] = filler(j + 11) - 3.0;     // x
            xs[2 * cols + j] = 0.1 * filler(j + 7);  // r ≥ 0
            xs[3 * cols + j] = std::abs(xs[j]) + xs[2 * cols + j];
        }
        std::vector<double> ys(4 * rows, -1.0), want(rows, -2.0);
        linalg::kernel_bound_matvec(a.data(), rows, cols, xs.data(), ys.data());
        linalg::kernel_matvec(a.data(), rows, cols, xs.data() + cols,
                              want.data());
        for (std::size_t i = 0; i < rows; ++i) {
            EXPECT_EQ(ys[rows + i], want[i]) << "cols=" << cols << " i=" << i;
            // The other three sums against a plain reference loop.
            double c = 0.0, r = 0.0, m = 0.0, scale = 0.0;
            for (std::size_t j = 0; j < cols; ++j) {
                const double v = a[i * cols + j];
                c += v * xs[j];
                r += std::abs(v) * xs[2 * cols + j];
                m += std::abs(v) * xs[3 * cols + j];
                scale += std::abs(v) * (std::abs(xs[j]) + xs[2 * cols + j]);
            }
            EXPECT_NEAR(ys[i], c, 1e-13 * scale) << i;
            EXPECT_NEAR(ys[2 * rows + i], r, 1e-13 * scale) << i;
            EXPECT_NEAR(ys[3 * rows + i], m, 1e-13 * scale) << i;
        }
    }
}

TEST(BatchKernels, ElementwiseKernelsMatchReferenceLoops) {
    for (std::size_t n : kSizes) {
        std::vector<double> x(n), y(n), e(n), zp(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = filler(i);
            y[i] = filler(i + 5);
            e[i] = 1.0 / (1.0 + filler(i + 9));  // in (0, 1) like a decay
            zp[i] = filler(i + 17);
        }

        std::vector<double> got = y, want = y;
        linalg::kernel_axpy(n, 1.25, x.data(), got.data());
        for (std::size_t i = 0; i < n; ++i) want[i] += 1.25 * x[i];
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;

        got = x, want = x;
        linalg::kernel_hadamard(n, e.data(), got.data());
        for (std::size_t i = 0; i < n; ++i) want[i] *= e[i];
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;

        got = y, want = y;
        linalg::kernel_fma_acc(n, x.data(), e.data(), got.data());
        for (std::size_t i = 0; i < n; ++i) want[i] += x[i] * e[i];
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;

        got.assign(n, -3.0), want.assign(n, -4.0);
        linalg::kernel_decay_mix(n, e.data(), zp.data(), y.data(), got.data());
        for (std::size_t i = 0; i < n; ++i)
            want[i] = e[i] * zp[i] + (1.0 - e[i]) * y[i];
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;

        got = x, want = x;
        linalg::kernel_div_scalar(n, 3.7, got.data());
        for (std::size_t i = 0; i < n; ++i) want[i] /= 3.7;
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
    }
}

TEST(BatchKernels, LuSolveBatchBitIdenticalToLoopedSolve) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_16core();
    const linalg::LuDecomposition lu(setup.model().conductance());
    const std::size_t n = setup.model().node_count();

    for (std::size_t nrhs : kWidths) {
        // Node-major staging: node i of RHS r lives at i*nrhs + r.
        std::vector<double> b(n * nrhs);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < nrhs; ++r)
                b[i * nrhs + r] = filler(i * 31 + r);
        std::vector<double> batch(n * nrhs, -1.0);
        lu.solve_batch_into(b.data(), nrhs, batch.data());

        linalg::Vector rhs(n), sol(n);
        for (std::size_t r = 0; r < nrhs; ++r) {
            for (std::size_t i = 0; i < n; ++i) rhs[i] = b[i * nrhs + r];
            lu.solve_into(rhs, sol);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[i * nrhs + r], sol[i])
                    << "nrhs=" << nrhs << " r=" << r << " i=" << i;
        }
    }
}

// --- thermal batch kernels ---------------------------------------------------

class ThermalBatch : public ::testing::TestWithParam<const char*> {
protected:
    static campaign::StudySetup make_setup(const std::string& name) {
        if (name == "paper_16core") return campaign::StudySetup::paper_16core();
        if (name == "paper_64core") return campaign::StudySetup::paper_64core();
        return campaign::StudySetup::stacked_32core();
    }
};

TEST_P(ThermalBatch, SteadyStateBatchBitIdenticalToLoop) {
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::ThermalModel& model = setup.model();
    const thermal::MatExSolver dense(model);
    const std::size_t n = model.node_count();
    thermal::ThermalWorkspace ws;

    for (std::size_t nrhs : kWidths) {
        std::vector<double> powers(nrhs * n);  // RHS-major
        for (std::size_t i = 0; i < powers.size(); ++i)
            powers[i] = filler(i + 23);
        std::vector<double> batch(nrhs * n, -1.0);
        dense.steady_state_batch_into(powers.data(), nrhs, 45.0, ws,
                                      batch.data());

        linalg::Vector rhs(n), sol(n);
        for (std::size_t r = 0; r < nrhs; ++r) {
            for (std::size_t i = 0; i < n; ++i) rhs[i] = powers[r * n + i];
            dense.steady_state_into(rhs, 45.0, ws, sol);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[r * n + i], sol[i])
                    << "nrhs=" << nrhs << " r=" << r << " i=" << i;
        }
    }
}

TEST_P(ThermalBatch, ApplyExponentialBatchBitIdenticalIncludingAliasing) {
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::TransientSolver& matex = setup.solver();
    const std::size_t n = setup.model().node_count();
    thermal::ThermalWorkspace ws;

    for (std::size_t nrhs : kWidths) {
        std::vector<double> xs(nrhs * n);
        for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = filler(i + 41);

        std::vector<double> batch(nrhs * n, -1.0);
        matex.apply_exponential_batch_into(xs.data(), nrhs, 1e-4, ws,
                                           batch.data());
        linalg::Vector x(n), out(n);
        for (std::size_t r = 0; r < nrhs; ++r) {
            for (std::size_t i = 0; i < n; ++i) x[i] = xs[r * n + i];
            matex.apply_exponential_into(x, 1e-4, ws, out);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[r * n + i], out[i])
                    << "nrhs=" << nrhs << " r=" << r << " i=" << i;
        }

        // Documented aliasing: outs may be the xs buffer itself.
        std::vector<double> inplace = xs;
        matex.apply_exponential_batch_into(inplace.data(), nrhs, 1e-4, ws,
                                           inplace.data());
        for (std::size_t i = 0; i < inplace.size(); ++i)
            EXPECT_EQ(inplace[i], batch[i]) << "aliased i=" << i;
    }
}

TEST_P(ThermalBatch, TransientBatchBitIdenticalToLoop) {
    const campaign::StudySetup setup = make_setup(GetParam());
    const thermal::ThermalModel& model = setup.model();
    const thermal::TransientSolver& matex = setup.solver();
    const std::size_t n = model.node_count();
    const linalg::Vector t_init = test::oracle_ambient_equilibrium(model, 45.0);
    thermal::ThermalWorkspace ws;

    for (std::size_t nrhs : kWidths) {
        std::vector<double> powers(nrhs * n);
        for (std::size_t i = 0; i < powers.size(); ++i)
            powers[i] = filler(i + 57);
        std::vector<double> batch(nrhs * n, -1.0);
        matex.transient_batch_into(t_init, powers.data(), nrhs, 45.0, 1e-4,
                                   ws, batch.data());

        linalg::Vector rhs(n), out(n);
        for (std::size_t r = 0; r < nrhs; ++r) {
            for (std::size_t i = 0; i < n; ++i) rhs[i] = powers[r * n + i];
            matex.transient_into(t_init, rhs, 45.0, 1e-4, ws, out);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[r * n + i], out[i])
                    << "nrhs=" << nrhs << " r=" << r << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Models, ThermalBatch,
                         ::testing::Values("paper_16core", "paper_64core",
                                           "stacked_32core"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// --- analyzer slates ---------------------------------------------------------

/// Two rings of coprime sizes on the 64-core chip, one of them busy.
std::vector<core::RotationRingSpec> slate_rings() {
    core::RotationRingSpec busy;
    busy.cores = {27, 28, 36, 35, 34, 26, 18, 19};
    busy.slot_power_w = {6.0, 5.5, 5.0, 0.3, 0.3, 4.0, 0.3, 0.3};
    core::RotationRingSpec small;
    small.cores = {0, 1, 9};
    small.slot_power_w = {3.5, 0.3, 2.0};
    return {busy, small};
}

const std::vector<double> kSlateTaus = {0.125e-3, 0.25e-3, 0.5e-3,
                                        1e-3,     2e-3,    4e-3};

/// RHS-major static candidates: idle cores plus an irregular hot pattern.
std::vector<double> static_candidates(std::size_t nrhs, std::size_t cores) {
    std::vector<double> candidates(nrhs * cores);
    for (std::size_t r = 0; r < nrhs; ++r)
        for (std::size_t c = 0; c < cores; ++c)
            candidates[r * cores + c] =
                0.3 + ((c + r) % 4 == 0 ? 5.0 + filler(r) : 0.0);
    return candidates;
}

TEST(BatchKernels, RotationPeakTauBatchBitIdenticalToLoop) {
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core();
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace ws;
    const std::vector<core::RotationRingSpec> rings = slate_rings();

    const std::size_t count = kSlateTaus.size();
    std::vector<double> peaks(count, -1.0);
    analyzer.rotation_peaks(rings, kSlateTaus.data(), count, 2, ws,
                            peaks.data());
    for (std::size_t t = 0; t < count; ++t) {
        double single = -1.0;
        analyzer.rotation_peaks(rings, &kSlateTaus[t], 1, 2, ws, &single);
        EXPECT_EQ(peaks[t], single) << "rung=" << t;
    }
}

TEST(BatchKernels, StaticPeakBatchBitIdenticalToLoop) {
    // Both backends: the dense LU's batched solve and the modal backend's
    // batched banded Cholesky must each match their single-RHS solve, since
    // static_peaks picks between them on nrhs alone.
    for (const campaign::StudySetup& setup :
         {campaign::StudySetup::paper_16core(),
          campaign::StudySetup::paper_64core(
              thermal::SolverConfig::modal())}) {
        const std::size_t cores = setup.model().core_count();
        const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0,
                                                     0.3);
        core::PeakWorkspace ws;
        for (std::size_t nrhs : kWidths) {
            const std::vector<double> candidates =
                static_candidates(nrhs, cores);
            std::vector<double> peaks(nrhs, -1.0);
            analyzer.static_peaks(candidates.data(), nrhs, ws, peaks.data());
            for (std::size_t r = 0; r < nrhs; ++r) {
                double single = -1.0;
                analyzer.static_peaks(candidates.data() + r * cores, 1, ws,
                                      &single);
                EXPECT_EQ(peaks[r], single)
                    << setup.solver().backend_name() << " nrhs=" << nrhs
                    << " r=" << r;
            }
        }
    }
}

TEST(BatchKernels, SlateMapsMatchTheirScalarPeaks) {
    // The optional per-core maps are read from the state the peaks reduce
    // over: every map row's maximum is its peak bit for bit, a map-writing
    // call returns the same peaks as a map-less one, and a slate's rows
    // equal the count-1 / nrhs-1 maps.
    const campaign::StudySetup setup = campaign::StudySetup::paper_64core();
    const std::size_t cores = setup.model().core_count();
    const core::PeakTemperatureAnalyzer analyzer(setup.solver(), 45.0, 0.3);
    core::PeakWorkspace ws;
    const auto row_max = [&](const double* row) {
        double m = -1e300;
        for (std::size_t i = 0; i < cores; ++i) m = std::max(m, row[i]);
        return m;
    };

    const std::vector<core::RotationRingSpec> rings = slate_rings();
    const std::size_t count = kSlateTaus.size();
    std::vector<double> peaks(count), plain(count), map(count * cores);
    analyzer.rotation_peaks(rings, kSlateTaus.data(), count, 2, ws,
                            plain.data());
    analyzer.rotation_peaks(rings, kSlateTaus.data(), count, 2, ws,
                            peaks.data(), map.data());
    std::vector<double> one(cores);
    for (std::size_t t = 0; t < count; ++t) {
        EXPECT_EQ(peaks[t], plain[t]) << "rung=" << t;
        EXPECT_EQ(peaks[t], row_max(map.data() + t * cores)) << "rung=" << t;
        double single;
        analyzer.rotation_peaks(rings, &kSlateTaus[t], 1, 2, ws, &single,
                                one.data());
        for (std::size_t i = 0; i < cores; ++i)
            EXPECT_EQ(map[t * cores + i], one[i]) << "rung=" << t << " i=" << i;
    }

    const std::size_t nrhs = 5;
    const std::vector<double> candidates = static_candidates(nrhs, cores);
    std::vector<double> speaks(nrhs), splain(nrhs), smap(nrhs * cores);
    analyzer.static_peaks(candidates.data(), nrhs, ws, splain.data());
    analyzer.static_peaks(candidates.data(), nrhs, ws, speaks.data(),
                          smap.data());
    for (std::size_t r = 0; r < nrhs; ++r) {
        EXPECT_EQ(speaks[r], splain[r]) << "r=" << r;
        EXPECT_EQ(speaks[r], row_max(smap.data() + r * cores)) << "r=" << r;
        double single;
        analyzer.static_peaks(candidates.data() + r * cores, 1, ws, &single,
                              one.data());
        EXPECT_EQ(single, speaks[r]) << "r=" << r;
        for (std::size_t i = 0; i < cores; ++i)
            EXPECT_EQ(smap[r * cores + i], one[i]) << "r=" << r << " i=" << i;
    }
}

}  // namespace

// Golden bits of Algorithm 1's rotation and schedule queries.
//
// pruned_peak_test pins the pruned maxima to the full projection, but the
// two paths share the ring targets, the τ tables and the sample staging, so
// a drift in that shared code moves both sides at once and passes. This
// suite pins the answers themselves: hex-float peaks, and a 64-bit FNV-1a
// digest of every bit of the per-core maps, recorded once and compared
// exactly under each SIMD dispatch tier.
//
// Coverage: the dense 64-core chip (full projection), the modal planar and
// stacked 256-core chips (pruned path without a map, full path with one);
// rings in cycle order (cores unsorted), idle slots (zero power deltas),
// all-idle rings, many rings at once, a 3-rung τ ladder, per-ring τ, a
// count-1 query and schedule_peak. Every query runs on one warm workspace.
//
// A second table pins the solver calls every backend inherits from the
// TransientSolver base: the sampled peak_core_temperature at three horizons
// and digests of apply_exponential_batch_into (separate and in-place
// outputs) and transient_batch_into, each at a Taylor and a closed-form
// horizon, on the dense 64-core and the modal 256-core chip. A third pins
// peak_core_temperature_exact (value, time and core) on the dense 64-core
// chip, the 64-core chip forced to modal (truncated, so the residual
// pseudo-mode takes part) and the modal 256-core chip.
//
// A change that alters any bit fails here and prints the new answers in the
// table's format. Replace the table only for a change that is meant to move
// the answers, and say why in its description.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/simd.hpp"
#include "thermal/modal_solver.hpp"
#include "thermal/solver.hpp"

namespace {

using namespace hp;
using linalg::simd::Tier;

constexpr double kIdleW = 0.3;
constexpr std::size_t kAnswers = 9;

/// Forces a dispatch tier for the lifetime of one scope.
class ForcedTier {
public:
    explicit ForcedTier(Tier tier) {
        linalg::simd::force_tier_for_testing(tier);
    }
    ~ForcedTier() { linalg::simd::clear_forced_tier_for_testing(); }
};

struct Chip {
    Chip(const char* chip_name, campaign::StudySetup s)
        : name(chip_name),
          setup(std::move(s)),
          analyzer(setup.solver(), 45.0, kIdleW) {}
    const char* name;
    campaign::StudySetup setup;
    core::PeakTemperatureAnalyzer analyzer;
};

enum ChipKind { kDense64, kPaper256, kStacked256, kModal64 };
constexpr ChipKind kChips[] = {kDense64, kPaper256, kStacked256};

/// @p kind built under the active tier. The design-time tables (modes, β,
/// the quasi-static map) come from the dispatched kernels too, so each tier
/// builds and pins its own chips.
const Chip& chip(ChipKind kind) {
    static std::unique_ptr<Chip> built[4][2];
    std::unique_ptr<Chip>& c =
        built[kind][static_cast<int>(linalg::simd::active_tier())];
    if (c) return *c;
    switch (kind) {
        case kDense64:
            c = std::make_unique<Chip>(
                "paper_64core", campaign::StudySetup::paper_64core(
                                    thermal::SolverConfig::dense()));
            break;
        case kPaper256:
            c = std::make_unique<Chip>(
                "paper_256core", campaign::StudySetup::paper_256core(
                                     thermal::SolverConfig::modal()));
            break;
        case kStacked256:
            c = std::make_unique<Chip>(
                "stacked_256core", campaign::StudySetup::stacked_256core(
                                       thermal::SolverConfig::modal()));
            break;
        case kModal64:
            c = std::make_unique<Chip>(
                "paper_64core/modal", campaign::StudySetup::paper_64core(
                                          thermal::SolverConfig::modal()));
            break;
    }
    return *c;
}

/// Every chip ring with a fixed occupancy: every fourth ring all idle, and
/// in the others every third slot idle, the rest at one of 11 power levels.
std::vector<core::RotationRingSpec> busy_rings(const Chip& chip) {
    std::vector<core::RotationRingSpec> rings;
    const auto& amd = chip.setup.chip().rings();
    for (std::size_t r = 0; r < amd.size(); ++r) {
        core::RotationRingSpec spec;
        spec.cores = amd[r].cores;
        for (std::size_t j = 0; j < spec.cores.size(); ++j) {
            const bool busy = r % 4 != 3 && (j + r) % 3 != 0;
            spec.slot_power_w.push_back(
                busy ? 1.5 + 0.625 * static_cast<double>((5 * j + 3 * r) % 11)
                     : kIdleW);
        }
        rings.push_back(std::move(spec));
    }
    return rings;
}

/// Two threads on the innermost ring and one on the third, the rest idle:
/// HotPotato's typical candidate.
std::vector<core::RotationRingSpec> sparse_rings(const Chip& chip) {
    std::vector<core::RotationRingSpec> rings;
    for (const arch::AmdRing& ring : chip.setup.chip().rings())
        rings.push_back(core::RotationRingSpec{
            ring.cores, std::vector<double>(ring.cores.size(), kIdleW)});
    rings[0].slot_power_w[0] = 6.0;
    rings[0].slot_power_w[1] = 4.25;
    rings[2].slot_power_w[1] = 5.5;
    return rings;
}

std::uint64_t fnv1a(const std::vector<double>& values) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double v : values) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &v, sizeof(double));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct Answers {
    double peaks[kAnswers];
    std::uint64_t map_digest;
};

/// The fixed query sequence, on one workspace:
///   [0..2] the busy rings' 3-rung ladder, no map;
///   [3..5] the same ladder with a map (digested);
///   [6]    the busy rings at per-ring intervals;
///   [7]    the sparse rings, count 1, two samples per epoch;
///   [8]    a three-epoch schedule_peak.
Answers compute(const Chip& chip) {
    const core::PeakTemperatureAnalyzer& a = chip.analyzer;
    const std::size_t n = chip.setup.model().core_count();
    const std::vector<core::RotationRingSpec> busy = busy_rings(chip);
    const std::vector<core::RotationRingSpec> sparse = sparse_rings(chip);
    const double ladder[3] = {0.5e-3, 1e-3, 4e-3};
    core::PeakWorkspace ws;
    Answers out{};

    a.rotation_peaks(busy, ladder, 3, 4, ws, out.peaks);
    std::vector<double> map(3 * n);
    a.rotation_peaks(busy, ladder, 3, 4, ws, out.peaks + 3, map.data());
    out.map_digest = fnv1a(map);

    std::vector<double> per_ring(busy.size());
    for (std::size_t r = 0; r < busy.size(); ++r)
        per_ring[r] = ladder[r % 3] * (r % 2 ? 2.0 : 1.0);
    out.peaks[6] = a.rotation_peak(busy, per_ring, 4, ws);

    const double tau = 2e-3;
    a.rotation_peaks(sparse, &tau, 1, 2, ws, &out.peaks[7]);

    std::vector<linalg::Vector> schedule(3, linalg::Vector(n, kIdleW));
    for (std::size_t f = 0; f < 3; ++f) {
        const std::vector<std::size_t>& inner = busy[0].cores;
        schedule[f][inner[f % inner.size()]] = 7.0;
        schedule[f][inner[(f + 2) % inner.size()]] = 3.5;
        schedule[f][n - 1 - f] = 0.0;  // a power-gated core
    }
    out.peaks[8] = a.schedule_peak(schedule, 1e-3, 3, ws);
    return out;
}

struct Golden {
    const char* chip;
    Tier tier;
    Answers want;
};

// Recorded from the implementation before Algorithm 1's sparse ring targets,
// constructor-time idle baseline and per-rung τ tables; those changes keep
// every bit.
const Golden kGolden[] = {
    {"paper_64core",
     Tier::kScalar,
     {{0x1.4c67cf8a97d5ap+6, 0x1.4e6878134ebebp+6, 0x1.5cdbc5cbc0e77p+6,
       0x1.4c67cf8a97d5ap+6, 0x1.4e6878134ebebp+6, 0x1.5cdbc5cbc0e77p+6,
       0x1.5b42c470a62cp+6, 0x1.0a4cc99bee4b7p+6, 0x1.114858b3cddep+6},
      0xa72d1ccc566784fdull}},
    {"paper_64core",
     Tier::kAvx2,
     {{0x1.4c67cf8a97d5ap+6, 0x1.4e6878134ebeap+6, 0x1.5cdbc5cbc0e76p+6,
       0x1.4c67cf8a97d5ap+6, 0x1.4e6878134ebeap+6, 0x1.5cdbc5cbc0e76p+6,
       0x1.5b42c470a62cp+6, 0x1.0a4cc99bee4b7p+6, 0x1.114858b3cdddfp+6},
      0xc9a3e47f314815ffull}},
    {"paper_256core",
     Tier::kScalar,
     {{0x1.4e26f7d1c96c3p+6, 0x1.50f08f9086318p+6, 0x1.62101f6ec591ap+6,
       0x1.4e26f7d1c96c3p+6, 0x1.50f08f9086318p+6, 0x1.62101f6ec591ap+6,
       0x1.6552b614f2f0bp+6, 0x1.08e420a4c564p+6, 0x1.0ff32f9544d4cp+6},
      0xb37a48d17e3761f0ull}},
    {"paper_256core",
     Tier::kAvx2,
     {{0x1.4e26f7d1c96c4p+6, 0x1.50f08f908631ap+6, 0x1.62101f6ec591ap+6,
       0x1.4e26f7d1c96c4p+6, 0x1.50f08f908631ap+6, 0x1.62101f6ec591ap+6,
       0x1.6552b614f2f0cp+6, 0x1.08e420a4c564p+6, 0x1.0ff32f9544d4cp+6},
      0xc981b7e2f3655ad0ull}},
    {"stacked_256core",
     Tier::kScalar,
     {{0x1.a2b55ef0f3e44p+7, 0x1.a5353ba308b6p+7, 0x1.b5c9481bf8093p+7,
       0x1.a2b55ef0f3e44p+7, 0x1.a5353ba308b6p+7, 0x1.b5c9481bf8093p+7,
       0x1.ace9684863a7ap+7, 0x1.531279752e22ap+6, 0x1.4e9ab9e9f40e9p+6},
      0x43adb99b85ed7733ull}},
    {"stacked_256core",
     Tier::kAvx2,
     {{0x1.a2b55ef0f3e44p+7, 0x1.a5353ba308b5ep+7, 0x1.b5c9481bf8095p+7,
       0x1.a2b55ef0f3e44p+7, 0x1.a5353ba308b5ep+7, 0x1.b5c9481bf8095p+7,
       0x1.ace9684863a7dp+7, 0x1.531279752e229p+6, 0x1.4e9ab9e9f40eap+6},
      0x21d088d918476ab3ull}},
};

/// The answers as a kGolden row, for the failure message.
std::string table_row(const Chip& chip, Tier tier, const Answers& got) {
    std::string row = std::string("{\"") + chip.name + "\", Tier::" +
                      (tier == Tier::kAvx2 ? "kAvx2" : "kScalar") + ", {{";
    char buf[64];
    for (std::size_t i = 0; i < kAnswers; ++i) {
        std::snprintf(buf, sizeof buf, "%s%a", i ? ", " : "", got.peaks[i]);
        row += buf;
    }
    std::snprintf(buf, sizeof buf, "}, 0x%016llxull}},",
                  static_cast<unsigned long long>(got.map_digest));
    return row + buf;
}

class GoldenPeak : public ::testing::TestWithParam<Tier> {
protected:
    ForcedTier tier_{GetParam()};
};

TEST_P(GoldenPeak, AnswersKeepTheirRecordedBits) {
#if !defined(__x86_64__)
    // The table was recorded on x86-64, whose baseline ISA has no FMA for
    // the compiler to contract into; other targets may round differently.
    GTEST_SKIP() << "answers recorded on x86-64";
#endif
    // A host without the requested tier runs the scalar one, so the scalar
    // table applies.
    const Tier tier = linalg::simd::active_tier();
    for (ChipKind kind : kChips) {
        const Chip& c = chip(kind);
        SCOPED_TRACE(c.name);
        const auto* golden = std::find_if(
            std::begin(kGolden), std::end(kGolden), [&](const Golden& g) {
                return g.tier == tier && std::string(g.chip) == c.name;
            });
        ASSERT_NE(golden, std::end(kGolden));
        const Answers got = compute(c);
        const bool same =
            std::memcmp(got.peaks, golden->want.peaks, sizeof got.peaks) == 0 &&
            got.map_digest == golden->want.map_digest;
        EXPECT_TRUE(same) << "got\n    " << table_row(c, tier, got);
    }
}

// Horizons of the solver table: below the modal 256-core chip's τ_switch
// (sparse Taylor propagation) and past it (retained-mode closed form).
constexpr double kTaylorDt = 1e-4;
constexpr double kClosedFormDt = 0.25;
constexpr std::size_t kBatch = 5;
constexpr std::size_t kDigests = 6;

/// The solver tables' start temperatures: 45–53.25 °C by node.
linalg::Vector start_temperatures(const Chip& chip) {
    const std::size_t n = chip.setup.model().node_count();
    linalg::Vector t_init(n);
    for (std::size_t i = 0; i < n; ++i)
        t_init[i] = 45.0 + 0.375 * static_cast<double>((7 * i) % 23);
    return t_init;
}

/// A hot spreader between the start-temperature cores and an ambient sink
/// (the last node): under idle power the hottest core warms up and then
/// cools, so over a long enough horizon its peak falls inside it.
linalg::Vector hot_package(const Chip& chip) {
    const std::size_t n = chip.setup.model().node_count();
    const std::size_t cores = chip.setup.model().core_count();
    const linalg::Vector t_init = start_temperatures(chip);
    linalg::Vector hot(n, 100.0);
    for (std::size_t i = 0; i < cores; ++i) hot[i] = t_init[i];
    hot[n - 1] = 45.0;
    return hot;
}

/// kIdleW on every core, nothing elsewhere.
linalg::Vector idle_power(const Chip& chip) {
    linalg::Vector idle(chip.setup.model().node_count(), 0.0);
    for (std::size_t i = 0; i < chip.setup.model().core_count(); ++i)
        idle[i] = kIdleW;
    return idle;
}

struct SolverAnswers {
    double peaks[3];
    std::uint64_t digests[kDigests];
};

/// The fixed solver query sequence, on one workspace:
///   peaks      sampled peak_core_temperature at (5e-3 s, 3 samples),
///              (2e-2 s, 7) and (0.2 s, 11);
///   digests[0..1]  apply_exponential_batch_into into a separate buffer at
///                  the Taylor and the closed-form horizon;
///   digests[2..3]  the same calls in place (outs == xs);
///   digests[4..5]  transient_batch_into at both horizons.
SolverAnswers compute_solver(const Chip& chip) {
    const thermal::TransientSolver& solver = chip.setup.solver();
    const std::size_t n = solver.node_count();
    const std::size_t cores = chip.setup.model().core_count();
    const linalg::Vector t_init = start_temperatures(chip);
    std::vector<double> powers(kBatch * n, 0.0), xs(kBatch * n);
    for (std::size_t r = 0; r < kBatch; ++r) {
        for (std::size_t i = 0; i < cores; ++i)
            powers[r * n + i] =
                0.25 + 0.5 * static_cast<double>((3 * i + 7 * r) % 13);
        for (std::size_t i = 0; i < n; ++i)
            xs[r * n + i] =
                0.5 * (static_cast<double>((11 * i + 5 * r) % 19) - 9.0);
    }

    const linalg::Vector hot = hot_package(chip);
    const linalg::Vector idle = idle_power(chip);
    SolverAnswers out{};
    out.peaks[0] = solver.peak_core_temperature(hot, idle, 45.0, 5e-3, 3);
    out.peaks[1] = solver.peak_core_temperature(hot, idle, 45.0, 2e-2, 7);
    out.peaks[2] = solver.peak_core_temperature(hot, idle, 45.0, 0.2, 11);

    thermal::ThermalWorkspace ws;
    const double horizons[2] = {kTaylorDt, kClosedFormDt};
    std::vector<double> outs(kBatch * n);
    for (std::size_t h = 0; h < 2; ++h) {
        solver.apply_exponential_batch_into(xs.data(), kBatch, horizons[h], ws,
                                            outs.data());
        out.digests[h] = fnv1a(outs);
        std::vector<double> inplace = xs;
        solver.apply_exponential_batch_into(inplace.data(), kBatch,
                                            horizons[h], ws, inplace.data());
        out.digests[2 + h] = fnv1a(inplace);
        solver.transient_batch_into(t_init, powers.data(), kBatch, 45.0,
                                    horizons[h], ws, outs.data());
        out.digests[4 + h] = fnv1a(outs);
    }
    return out;
}

struct SolverGolden {
    const char* chip;
    Tier tier;
    SolverAnswers want;
};

// Recorded from the implementation in which each backend carried its own
// batched exponential, batched transient and sampled peak (the modal one
// over a lane-major sparse multi-RHS kernel); the shared base
// implementations keep every bit.
const SolverGolden kSolverGolden[] = {
    {"paper_64core",
     Tier::kScalar,
     {{0x1.0d30abdb3c87p+6, 0x1.608a471428e62p+6, 0x1.7a0b6f20ffc2fp+6},
      {0xd687d1dec6639715ull, 0xcc9801a879cb1835ull, 0xd687d1dec6639715ull,
       0xcc9801a879cb1835ull, 0x54cbc2ccc07dc96eull, 0x8b6055f28a66b2f9ull}}},
    {"paper_64core",
     Tier::kAvx2,
     {{0x1.0d30abdb3c86fp+6, 0x1.608a471428e62p+6, 0x1.7a0b6f20ffc32p+6},
      {0xc113143654a092d9ull, 0xb5bdad5252ff3f27ull, 0xc113143654a092d9ull,
       0xb5bdad5252ff3f27ull, 0x31d00a2478665478ull, 0x26e9c8c9c7de940cull}}},
    {"paper_256core",
     Tier::kScalar,
     {{0x1.0d7e69ec97de5p+6, 0x1.608738600193ap+6, 0x1.79edb1abeb644p+6},
      {0xecad4456957e458dull, 0x5a322e5d0bb74856ull, 0xecad4456957e458dull,
       0x5a322e5d0bb74856ull, 0x3b6ca825a248ed73ull, 0x8c339cbe539c1711ull}}},
    {"paper_256core",
     Tier::kAvx2,
     {{0x1.0d7e69ec97de5p+6, 0x1.608738600193ap+6, 0x1.79edb1abeb644p+6},
      {0xecad4456957e458dull, 0xb739ac35a15c3422ull, 0xecad4456957e458dull,
       0xb739ac35a15c3422ull, 0x3b6ca825a248ed73ull, 0x4fbc5c56da23554cull}}},
};

std::string solver_table_row(const Chip& chip, Tier tier,
                             const SolverAnswers& got) {
    std::string row = std::string("{\"") + chip.name + "\", Tier::" +
                      (tier == Tier::kAvx2 ? "kAvx2" : "kScalar") + ", {{";
    char buf[64];
    for (std::size_t i = 0; i < 3; ++i) {
        std::snprintf(buf, sizeof buf, "%s%a", i ? ", " : "", got.peaks[i]);
        row += buf;
    }
    row += "}, {";
    for (std::size_t i = 0; i < kDigests; ++i) {
        std::snprintf(buf, sizeof buf, "%s0x%016llxull", i ? ", " : "",
                      static_cast<unsigned long long>(got.digests[i]));
        row += buf;
    }
    return row + "}}},";
}

TEST_P(GoldenPeak, SolverBatchesAndSampledPeaksKeepTheirRecordedBits) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "answers recorded on x86-64";
#endif
    const Tier tier = linalg::simd::active_tier();
    for (ChipKind kind : {kDense64, kPaper256}) {
        const Chip& c = chip(kind);
        SCOPED_TRACE(c.name);
        const auto* golden =
            std::find_if(std::begin(kSolverGolden), std::end(kSolverGolden),
                         [&](const SolverGolden& g) {
                             return g.tier == tier &&
                                    std::string(g.chip) == c.name;
                         });
        const SolverAnswers got = compute_solver(c);
        const bool same =
            golden != std::end(kSolverGolden) &&
            std::memcmp(got.peaks, golden->want.peaks, sizeof got.peaks) == 0 &&
            std::memcmp(got.digests, golden->want.digests,
                        sizeof got.digests) == 0;
        EXPECT_TRUE(same) << "got\n    " << solver_table_row(c, tier, got);
    }
}

constexpr std::size_t kExactQueries = 3;

struct ExactAnswers {
    thermal::Peak peaks[kExactQueries];
};

/// The fixed exact-peak queries: the hot package under idle power at
/// 2e-2 s (still warming: the peak at the endpoint) and at 0.2 s (warmed
/// and cooling: the peak inside the horizon, found by bisection), and the
/// start temperatures under a loaded chip at 0.05 s.
ExactAnswers compute_exact(const Chip& chip) {
    const thermal::TransientSolver& solver = chip.setup.solver();
    const std::size_t cores = chip.setup.model().core_count();
    const linalg::Vector hot = hot_package(chip);
    const linalg::Vector idle = idle_power(chip);
    linalg::Vector loaded = idle;
    for (std::size_t i = 0; i < cores; ++i)
        loaded[i] = 0.25 + 0.5 * static_cast<double>((3 * i) % 13);
    ExactAnswers out{};
    out.peaks[0] = solver.peak_core_temperature_exact(hot, idle, 45.0, 2e-2);
    out.peaks[1] = solver.peak_core_temperature_exact(hot, idle, 45.0, 0.2);
    out.peaks[2] = solver.peak_core_temperature_exact(
        start_temperatures(chip), loaded, 45.0, 0.05);
    return out;
}

struct ExactGolden {
    const char* chip;
    Tier tier;
    ExactAnswers want;
};

// Recorded from the implementation in which each backend carried its own
// copy of the exact-peak search.
const ExactGolden kExactGolden[] = {
    {"paper_64core",
     Tier::kScalar,
     {{{0x1.608a471428e62p+6, 0x1.47ae147ae147bp-6, 36},
       {0x1.7b22a106d1c64p+6, 0x1.790a50f9dc222p-5, 36},
       {0x1.61184f777a17ap+6, 0x1.999999999999ap-5, 4}}}},
    {"paper_64core",
     Tier::kAvx2,
     {{{0x1.608a471428e62p+6, 0x1.47ae147ae147bp-6, 36},
       {0x1.7b22a106d1c64p+6, 0x1.790a50f9dc224p-5, 36},
       {0x1.61184f777a17ap+6, 0x1.999999999999ap-5, 4}}}},
    {"paper_64core/modal",
     Tier::kScalar,
     {{{0x1.7a320df668194p+6, 0x1.47ae147ae147bp-6, 13},
       {0x1.845940a216cb6p+6, 0x1.1539da1c255a4p-5, 36},
       {0x1.6325a86ea1bd3p+6, 0x1.999999999999ap-5, 4}}}},
    {"paper_64core/modal",
     Tier::kAvx2,
     {{{0x1.7a320df668194p+6, 0x1.47ae147ae147bp-6, 13},
       {0x1.845940a216cb6p+6, 0x1.1539da1c255a6p-5, 36},
       {0x1.6325a86ea1bd3p+6, 0x1.999999999999ap-5, 4}}}},
    {"paper_256core",
     Tier::kScalar,
     {{{0x1.7b4d8af9c04d8p+6, 0x1.47ae147ae147bp-6, 220},
       {0x1.84c0282fb04c8p+6, 0x1.0faf2cc725e82p-5, 220},
       {0x1.6804c6373fa2dp+6, 0x1.999999999999ap-5, 95}}}},
    {"paper_256core",
     Tier::kAvx2,
     {{{0x1.7b4d8af9c04d7p+6, 0x1.47ae147ae147bp-6, 220},
       {0x1.84c0282fb04c9p+6, 0x1.0faf2cc725e82p-5, 220},
       {0x1.6804c6373fa2dp+6, 0x1.999999999999ap-5, 95}}}},
};

std::string exact_table_row(const Chip& chip, Tier tier,
                            const ExactAnswers& got) {
    std::string row = std::string("{\"") + chip.name + "\", Tier::" +
                      (tier == Tier::kAvx2 ? "kAvx2" : "kScalar") + ", {{";
    char buf[96];
    for (std::size_t q = 0; q < kExactQueries; ++q) {
        std::snprintf(buf, sizeof buf, "%s{%a, %a, %zu}", q ? ", " : "",
                      got.peaks[q].temperature_c, got.peaks[q].time_s,
                      got.peaks[q].core);
        row += buf;
    }
    return row + "}}},";
}

TEST_P(GoldenPeak, ExactPeaksKeepTheirRecordedBits) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "answers recorded on x86-64";
#endif
    const Tier tier = linalg::simd::active_tier();
    for (ChipKind kind : {kDense64, kModal64, kPaper256}) {
        const Chip& c = chip(kind);
        SCOPED_TRACE(c.name);
        const auto* golden =
            std::find_if(std::begin(kExactGolden), std::end(kExactGolden),
                         [&](const ExactGolden& g) {
                             return g.tier == tier &&
                                    std::string(g.chip) == c.name;
                         });
        const ExactAnswers got = compute_exact(c);
        bool same = golden != std::end(kExactGolden);
        for (std::size_t q = 0; same && q < kExactQueries; ++q) {
            const thermal::Peak& w = golden->want.peaks[q];
            same = std::memcmp(&got.peaks[q].temperature_c, &w.temperature_c,
                               sizeof(double)) == 0 &&
                   std::memcmp(&got.peaks[q].time_s, &w.time_s,
                               sizeof(double)) == 0 &&
                   got.peaks[q].core == w.core;
        }
        EXPECT_TRUE(same) << "got\n    " << exact_table_row(c, tier, got);
    }
}

TEST(GoldenPeakFixtures, CoverWhatTheTableClaims) {
    // The ring fixtures exercise unsorted cores, zero-delta slots and
    // all-idle rings; the chips cover both projections.
    for (ChipKind kind : kChips) {
        const auto rings = busy_rings(chip(kind));
        ASSERT_GE(rings.size(), 4u);
        EXPECT_FALSE(std::is_sorted(rings[0].cores.begin(),
                                    rings[0].cores.end()));
        EXPECT_TRUE(std::all_of(rings[3].slot_power_w.begin(),
                                rings[3].slot_power_w.end(),
                                [](double p) { return p == kIdleW; }));
        EXPECT_EQ(rings[0].slot_power_w[0], kIdleW);
    }
    EXPECT_FALSE(chip(kDense64).setup.solver().truncated());
    EXPECT_TRUE(chip(kPaper256).setup.solver().truncated());
    EXPECT_TRUE(chip(kStacked256).setup.solver().truncated());
    // The solver table's two horizons straddle the modal chip's switch.
    const auto* modal = dynamic_cast<const thermal::TruncatedModalSolver*>(
        &chip(kPaper256).setup.solver());
    ASSERT_NE(modal, nullptr);
    EXPECT_LT(kTaylorDt, modal->tau_switch_s());
    EXPECT_GE(kClosedFormDt, modal->tau_switch_s());
    // The forced-modal 64-core chip drops modes, so its exact peaks carry
    // the residual pseudo-mode; one exact query peaks inside its horizon,
    // the other two at its end.
    EXPECT_TRUE(chip(kModal64).setup.solver().truncated());
    EXPECT_LT(chip(kModal64).setup.solver().cluster_pole(), 0.0);
    for (ChipKind kind : {kDense64, kModal64, kPaper256}) {
        const ExactAnswers got = compute_exact(chip(kind));
        EXPECT_EQ(got.peaks[0].time_s, 2e-2);
        EXPECT_GT(got.peaks[1].time_s, 0.0);
        EXPECT_LT(got.peaks[1].time_s, 0.2);
        EXPECT_EQ(got.peaks[2].time_s, 0.05);
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, GoldenPeak,
                         ::testing::Values(Tier::kScalar, Tier::kAvx2),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                             return std::string(linalg::simd::tier_name(
                                 info.param));
                         });

}  // namespace

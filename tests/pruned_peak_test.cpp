// Differential suite for the bound-pruned Algorithm-1 maxima (DESIGN.md
// §14.5).
//
// On a truncated backend, a rotation query without a per-core map projects
// only the core rows whose upper bound reaches a realised lower bound. The
// same query with a map runs the full projection. The pruned peak must have
// the bits of the maximum of that map (memcmp, not a tolerance), whatever
// the survivor hint left in the workspace by earlier queries.
//
// Coverage, under both SIMD dispatch tiers: the 256-core planar and stacked
// chips (modal on their own) and the 64-core chip forced to the modal
// backend; seeded random ring occupancies and powers; τ ladders
// (count > 1); per-ring τ through rotation_peak; an all-idle query and a
// mirror-symmetric placement whose hottest rows tie exactly; and a
// workspace warmed on one chip and reused on another, so its hint names the
// wrong rows.
//
// The ring memo (DESIGN.md §14.7) is held to the same standard: one
// workspace replays a HotPotato-shaped query stream (committed state,
// one-thread candidates, a promotion, τ steps, a full-ladder batch, per-ring
// τ), and every answer must have the bits of a fresh workspace's. So must
// answers from a workspace shared by two analyzers of one chip, one whose
// analyzer was destroyed and rebuilt in place, one whose ring was re-formed
// without a core, and one filled under the other dispatch tier. A
// Release-only case replays one-thread candidates on the 1024-core chip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/simd.hpp"
#include "thermal/solver.hpp"

namespace {

using namespace hp;
using linalg::simd::Tier;

constexpr double kIdleW = 0.3;
constexpr std::size_t kSamples = 4;
const std::vector<double> kLadder = {0.25e-3, 0.5e-3, 1e-3, 2e-3, 8e-3};

/// Forces a dispatch tier for the lifetime of one scope.
class ForcedTier {
public:
    explicit ForcedTier(Tier tier) {
        linalg::simd::force_tier_for_testing(tier);
    }
    ~ForcedTier() { linalg::simd::clear_forced_tier_for_testing(); }
};

/// One analysed chip; setups are built once per binary.
struct Chip {
    explicit Chip(campaign::StudySetup s)
        : setup(std::move(s)), analyzer(setup.solver(), 45.0, kIdleW) {}
    campaign::StudySetup setup;
    core::PeakTemperatureAnalyzer analyzer;
    std::size_t cores() const { return setup.model().core_count(); }
};

const Chip& paper256() {
    static const Chip c(campaign::StudySetup::paper_256core());
    return c;
}
const Chip& stacked256() {
    static const Chip c(campaign::StudySetup::stacked_256core());
    return c;
}
const Chip& paper64_modal() {
    static const Chip c(
        campaign::StudySetup::paper_64core(thermal::SolverConfig::modal()));
    return c;
}

/// Every chip ring, each slot busy with probability @p busy at a random
/// power in [1.5, 8] W (idle slots carry the idle power).
std::vector<core::RotationRingSpec> random_rings(const Chip& chip,
                                                 std::mt19937_64& rng,
                                                 double busy) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<core::RotationRingSpec> rings;
    for (const arch::AmdRing& ring : chip.setup.chip().rings()) {
        core::RotationRingSpec spec;
        spec.cores = ring.cores;
        for (std::size_t j = 0; j < ring.cores.size(); ++j)
            spec.slot_power_w.push_back(
                unit(rng) < busy ? 1.5 + 6.5 * unit(rng) : kIdleW);
        rings.push_back(std::move(spec));
    }
    return rings;
}

/// Full-projection reference: the per-rung maximum of the map query.
std::vector<double> map_maxima(const Chip& chip,
                               const std::vector<core::RotationRingSpec>& rings,
                               const double* taus, std::size_t count) {
    const std::size_t n = chip.cores();
    core::PeakWorkspace ws;
    std::vector<double> peaks(count), map(count * n);
    chip.analyzer.rotation_peaks(rings, taus, count, kSamples, ws, peaks.data(),
                                 map.data());
    std::vector<double> maxima(count, -1e300);
    for (std::size_t t = 0; t < count; ++t)
        for (std::size_t i = 0; i < n; ++i)
            maxima[t] = std::max(maxima[t], map[t * n + i]);
    EXPECT_EQ(0, std::memcmp(maxima.data(), peaks.data(),
                             count * sizeof(double)));
    return maxima;
}

/// The pruned ladder query on @p ws must have the reference's bits.
void expect_pruned_matches(const Chip& chip,
                           const std::vector<core::RotationRingSpec>& rings,
                           const double* taus, std::size_t count,
                           core::PeakWorkspace& ws) {
    const std::vector<double> want = map_maxima(chip, rings, taus, count);
    std::vector<double> got(count, 0.0);
    chip.analyzer.rotation_peaks(rings, taus, count, kSamples, ws, got.data());
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), count * sizeof(double)))
        << "rung 0: want " << want[0] << " got " << got[0];
    EXPECT_LE(ws.last_exact_rows(), count * chip.cores());
}

/// The pruned query's answers on a fresh workspace: no hint, no memo.
std::vector<double> fresh_peaks(const core::PeakTemperatureAnalyzer& analyzer,
                                const std::vector<core::RotationRingSpec>& rings,
                                const double* taus, std::size_t count) {
    core::PeakWorkspace fresh;
    std::vector<double> peaks(count, 0.0);
    analyzer.rotation_peaks(rings, taus, count, kSamples, fresh, peaks.data());
    return peaks;
}

/// The same query on the warm @p ws must have the fresh workspace's bits.
void expect_fresh_bits(const core::PeakTemperatureAnalyzer& analyzer,
                       const std::vector<core::RotationRingSpec>& rings,
                       const double* taus, std::size_t count,
                       core::PeakWorkspace& ws) {
    const std::vector<double> want = fresh_peaks(analyzer, rings, taus, count);
    std::vector<double> got(count, 0.0);
    analyzer.rotation_peaks(rings, taus, count, kSamples, ws, got.data());
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(), count * sizeof(double)))
        << "rung 0: want " << want[0] << " got " << got[0];
    EXPECT_LE(ws.last_reused_rings(), ws.last_ring_evals());
}

/// @p rings with one more thread in ring @p r: its first idle slot busy, or,
/// when the ring is full, its first slot a little hotter.
std::vector<core::RotationRingSpec> with_candidate(
    std::vector<core::RotationRingSpec> rings, std::size_t r, double power_w) {
    std::vector<double>& slots = rings[r].slot_power_w;
    const auto idle = std::find(slots.begin(), slots.end(), kIdleW);
    if (idle != slots.end())
        *idle = power_w;
    else
        slots.front() += 0.25;
    return rings;
}

class PrunedPeak : public ::testing::TestWithParam<Tier> {
protected:
    ForcedTier tier_{GetParam()};
};

TEST_P(PrunedPeak, RandomOccupanciesMatchFullProjection) {
    for (const Chip* chip : {&paper256(), &stacked256(), &paper64_modal()}) {
        ASSERT_TRUE(chip->setup.solver().truncated());
        std::mt19937_64 rng(17);
        core::PeakWorkspace ws;  // warm across queries: hints vary
        std::size_t exact = 0, total = 0;
        for (int q = 0; q < 6; ++q) {
            SCOPED_TRACE(q);
            const double busy = 0.15 + 0.15 * q;
            const auto rings = random_rings(*chip, rng, busy);
            expect_pruned_matches(*chip, rings, &kLadder[q % kLadder.size()],
                                  1, ws);
            expect_pruned_matches(*chip, rings, kLadder.data(), kLadder.size(),
                                  ws);
            exact += ws.last_exact_rows();
            total += kLadder.size() * chip->cores();
        }
        // The suite compares pruned answers, so it must actually prune. The
        // bound is tight on the planar die; on the stacked one, vertically
        // adjacent cores run within its slack and most rows survive.
        if (chip != &stacked256()) {
            EXPECT_LT(4 * exact, total);
        }
        EXPECT_LE(exact, total);
    }
}

TEST_P(PrunedPeak, ColdWarmAndWrongHintsGiveTheSameBits) {
    std::mt19937_64 rng(5);
    const auto rings256 = random_rings(paper256(), rng, 0.5);
    const auto stacked_rings = random_rings(stacked256(), rng, 0.5);
    const auto rings64 = random_rings(paper64_modal(), rng, 0.5);

    // Warm on the planar chip, then reuse on the stacked one (same core
    // count, so the hint is kept but names unrelated rows), then on the
    // 64-core chip (other core count: the hint is dropped).
    core::PeakWorkspace ws;
    expect_pruned_matches(paper256(), rings256, kLadder.data(), 3, ws);
    expect_pruned_matches(stacked256(), stacked_rings, kLadder.data(), 3, ws);
    expect_pruned_matches(paper64_modal(), rings64, kLadder.data(), 3, ws);
    expect_pruned_matches(paper256(), rings256, kLadder.data() + 2, 3, ws);

    // A ladder longer than the warm one: its extra rungs start hintless.
    expect_pruned_matches(paper256(), rings256, kLadder.data(), kLadder.size(),
                          ws);
    ws.forget_survivors();
    expect_pruned_matches(paper256(), rings256, kLadder.data(), 2, ws);
}

TEST_P(PrunedPeak, PerRingIntervalsMatchUniformAndHintFreeRuns) {
    const Chip& chip = paper256();
    std::mt19937_64 rng(11);
    const auto rings = random_rings(chip, rng, 0.6);

    // Uniform per-ring intervals are the uniform query (bit for bit).
    for (std::size_t t = 0; t < 3; ++t) {
        const std::vector<double> uniform(rings.size(), kLadder[t]);
        core::PeakWorkspace ws;
        const double per_ring =
            chip.analyzer.rotation_peak(rings, uniform, kSamples, ws);
        const double want = map_maxima(chip, rings, &kLadder[t], 1)[0];
        EXPECT_EQ(0, std::memcmp(&want, &per_ring, sizeof(double)));
    }

    // Mixed intervals: the same bits from a cold workspace, a warm one and a
    // workspace whose hint came from another chip; and the superposition of
    // single-ring map queries within rounding.
    std::vector<double> mixed(rings.size());
    for (std::size_t r = 0; r < rings.size(); ++r)
        mixed[r] = kLadder[r % kLadder.size()];
    core::PeakWorkspace cold, warm, foreign;
    const double a = chip.analyzer.rotation_peak(rings, mixed, kSamples, cold);
    (void)chip.analyzer.rotation_peak(rings, mixed, kSamples, warm);
    const double b = chip.analyzer.rotation_peak(rings, mixed, kSamples, warm);
    expect_pruned_matches(stacked256(), random_rings(stacked256(), rng, 0.5),
                          kLadder.data(), 2, foreign);
    const double c = chip.analyzer.rotation_peak(rings, mixed, kSamples, foreign);
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&a, &c, sizeof(double)));

    const std::size_t n = chip.cores();
    core::PeakWorkspace ws;
    std::vector<double> idle(n), map(n), sum(n, 0.0);
    double peak;
    chip.analyzer.rotation_peaks({}, &kLadder[0], 1, kSamples, ws, &peak,
                                 idle.data());
    for (std::size_t r = 0; r < rings.size(); ++r) {
        chip.analyzer.rotation_peaks({rings[r]}, &mixed[r], 1, kSamples, ws,
                                     &peak, map.data());
        for (std::size_t i = 0; i < n; ++i) sum[i] += map[i] - idle[i];
    }
    double want = -1e300;
    for (std::size_t i = 0; i < n; ++i) want = std::max(want, idle[i] + sum[i]);
    EXPECT_NEAR(a, want, 1e-9);
}

TEST_P(PrunedPeak, ExactTiesSurvive) {
    // All rings idle: every total is the idle temperature, so the hottest
    // rows clear L by the bounds' slack alone.
    for (const Chip* chip : {&paper256(), &paper64_modal()}) {
        std::vector<core::RotationRingSpec> idle_rings;
        for (const arch::AmdRing& ring : chip->setup.chip().rings())
            idle_rings.push_back(
                {ring.cores, std::vector<double>(ring.cores.size(), kIdleW)});
        core::PeakWorkspace ws;
        expect_pruned_matches(*chip, idle_rings, kLadder.data(), 2, ws);
        expect_pruned_matches(*chip, {}, kLadder.data(), 1, ws);
    }

    // A mirror-symmetric placement: the innermost ring of the 8x8 die with
    // every slot at the same power is symmetric under the die's mirrors, so
    // several cores share the peak row value exactly.
    const Chip& chip = paper64_modal();
    const arch::AmdRing& centre = chip.setup.chip().rings().front();
    const std::vector<core::RotationRingSpec> rings = {
        {centre.cores, std::vector<double>(centre.cores.size(), 6.0)}};
    const std::size_t n = chip.cores();
    core::PeakWorkspace ws;
    std::vector<double> map(n);
    double peak;
    chip.analyzer.rotation_peaks(rings, &kLadder[1], 1, kSamples, ws, &peak,
                                 map.data());
    EXPECT_GE(std::count(map.begin(), map.end(), peak), 2);
    expect_pruned_matches(chip, rings, &kLadder[1], 1, ws);
    expect_pruned_matches(chip, rings, &kLadder[1], 1, ws);  // hinted
}

TEST_P(PrunedPeak, MemoizedQueryStreamMatchesFreshWorkspaces) {
    for (const Chip* chip : {&paper256(), &stacked256()}) {
        SCOPED_TRACE(chip == &paper256() ? "paper_256core" : "stacked_256core");
        const core::PeakTemperatureAnalyzer& analyzer = chip->analyzer;
        std::mt19937_64 rng(23);
        const auto committed = random_rings(*chip, rng, 0.4);
        const std::size_t ring_count = committed.size();
        const double* tau = &kLadder[2];
        core::PeakWorkspace ws;

        // The committed state, cold and then repeated: the repeat stages no
        // ring at all.
        expect_fresh_bits(analyzer, committed, tau, 1, ws);
        expect_fresh_bits(analyzer, committed, tau, 1, ws);
        EXPECT_GT(ws.last_ring_evals(), 0u);
        EXPECT_EQ(ws.last_reused_rings(), ws.last_ring_evals());

        // Algorithm 2's placement walk: a one-thread candidate per ring. Each
        // differs from the previous query in at most two rings.
        for (std::size_t r = 0; r < ring_count; ++r) {
            SCOPED_TRACE(r);
            expect_fresh_bits(analyzer, with_candidate(committed, r, 5.0), tau,
                              1, ws);
            EXPECT_GE(ws.last_reused_rings() + 2, ws.last_ring_evals());
        }

        // A promotion: one thread moves from ring 1 inwards to ring 0.
        std::vector<core::RotationRingSpec> promoted = committed;
        std::vector<double>& outer = promoted[1].slot_power_w;
        const auto busy = std::find_if(outer.begin(), outer.end(),
                                       [](double p) { return p != kIdleW; });
        ASSERT_NE(busy, outer.end());
        const double moved = *busy;
        *busy = kIdleW;
        promoted = with_candidate(promoted, 0, moved);
        expect_fresh_bits(analyzer, promoted, tau, 1, ws);

        // τ one rung up and one rung down, the committed state again, then
        // the full ladder in one batch (each rung evicts the previous one's
        // memo) and single queries on either side of it.
        expect_fresh_bits(analyzer, committed, tau + 1, 1, ws);
        expect_fresh_bits(analyzer, committed, tau - 1, 1, ws);
        expect_fresh_bits(analyzer, committed, tau, 1, ws);
        expect_fresh_bits(analyzer, committed, kLadder.data(), kLadder.size(),
                          ws);
        expect_fresh_bits(analyzer, committed, &kLadder.back(), 1, ws);
        EXPECT_EQ(ws.last_reused_rings(), ws.last_ring_evals());
        expect_fresh_bits(analyzer, with_candidate(committed, 0, 5.0), tau, 1,
                          ws);

        // Per-ring τ, then a uniform query again.
        std::vector<double> mixed(ring_count);
        for (std::size_t r = 0; r < ring_count; ++r)
            mixed[r] = kLadder[r % kLadder.size()];
        for (int repeat = 0; repeat < 2; ++repeat) {
            core::PeakWorkspace fresh;
            const double want =
                analyzer.rotation_peak(committed, mixed, kSamples, fresh);
            const double got =
                analyzer.rotation_peak(committed, mixed, kSamples, ws);
            EXPECT_EQ(0, std::memcmp(&want, &got, sizeof(double)));
        }
        EXPECT_EQ(ws.last_reused_rings(), ws.last_ring_evals());
        expect_fresh_bits(analyzer, committed, tau, 1, ws);
    }
}

TEST_P(PrunedPeak, MemoMissesOtherAnalyzersAndReformedRings) {
    const Chip& chip = paper256();
    std::mt19937_64 rng(29);
    const auto rings = random_rings(chip, rng, 0.5);
    const double* tau = &kLadder[1];

    // One workspace, two analyzers of the same chip: another idle power
    // changes every ring's power deltas, another ambient only the baseline.
    const core::PeakTemperatureAnalyzer idle_hot(chip.setup.solver(), 45.0,
                                                 0.5);
    const core::PeakTemperatureAnalyzer warm_ambient(chip.setup.solver(), 50.0,
                                                     kIdleW);
    // Rings idle at kIdleW are active only for idle_hot, so only they keep
    // its memos from one round to the next.
    const std::size_t idle_rings = static_cast<std::size_t>(
        std::count_if(rings.begin(), rings.end(), [](const auto& ring) {
            return std::all_of(ring.slot_power_w.begin(),
                               ring.slot_power_w.end(),
                               [](double p) { return p == kIdleW; });
        }));
    core::PeakWorkspace ws;
    for (std::size_t repeat = 0; repeat < 2; ++repeat) {
        expect_fresh_bits(chip.analyzer, rings, tau, 1, ws);
        expect_fresh_bits(idle_hot, rings, tau, 1, ws);
        EXPECT_EQ(ws.last_reused_rings(), repeat * idle_rings);
        expect_fresh_bits(warm_ambient, rings, tau, 1, ws);
        EXPECT_EQ(ws.last_reused_rings(), 0u);
    }

    // An analyzer destroyed and rebuilt in the same storage, with another
    // idle power: the memo must not take it for the old one.
    std::optional<core::PeakTemperatureAnalyzer> rebuilt;
    rebuilt.emplace(chip.setup.solver(), 45.0, kIdleW);
    expect_fresh_bits(*rebuilt, rings, tau, 1, ws);
    rebuilt.reset();
    rebuilt.emplace(chip.setup.solver(), 45.0, 0.5);
    expect_fresh_bits(*rebuilt, rings, tau, 1, ws);
    EXPECT_EQ(ws.last_reused_rings(), 0u);

    // A re-formed ring: same index and leading powers, one core dropped.
    expect_fresh_bits(chip.analyzer, rings, tau, 1, ws);
    std::vector<core::RotationRingSpec> reformed = rings;
    std::size_t r = 0;
    while (reformed[r].slot_power_w.back() != kIdleW) ++r;
    reformed[r].cores.pop_back();
    reformed[r].slot_power_w.pop_back();
    expect_fresh_bits(chip.analyzer, reformed, tau, 1, ws);
    EXPECT_LT(ws.last_reused_rings(), ws.last_ring_evals());

    // forget_survivors() empties every memo.
    expect_fresh_bits(chip.analyzer, rings, tau, 1, ws);
    ws.forget_survivors();
    expect_fresh_bits(chip.analyzer, rings, tau, 1, ws);
    EXPECT_EQ(ws.last_reused_rings(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Tiers, PrunedPeak,
                         ::testing::Values(Tier::kScalar, Tier::kAvx2),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                             return std::string(
                                 linalg::simd::tier_name(info.param));
                         });

TEST(PrunedPeakMemo, DispatchTierIsPartOfTheKey) {
    // The reductions round per tier, so a memo filled under one tier must
    // not answer under the other.
    // Most answers agree across tiers; about one in five differs in its last
    // bits on the 256-core chip, so the test walks several occupancies.
    const Chip& chip = paper256();
    std::mt19937_64 rng(37);
    core::PeakWorkspace ws;
    for (int q = 0; q < 8; ++q) {
        const auto rings = random_rings(chip, rng, 0.1 + 0.1 * q);
        for (std::size_t t = 0; t < kLadder.size(); ++t) {
            SCOPED_TRACE(q * 10 + t);
            for (Tier tier : {Tier::kScalar, Tier::kAvx2}) {
                const ForcedTier forced(tier);
                expect_fresh_bits(chip.analyzer, rings, &kLadder[t], 1, ws);
                if (linalg::simd::tier_available(Tier::kAvx2)) {
                    EXPECT_EQ(ws.last_reused_rings(), 0u);
                }
            }
        }
    }
}

TEST(PrunedPeakScale, Paper1024CoreMemoMatchesFreshWorkspaces) {
#ifndef NDEBUG
    GTEST_SKIP() << "2049-node setup runs in optimised builds only";
#else
    // Algorithm 2's placement walk on the 1024-core chip: about 50
    // one-thread candidates against one committed state, each answered by
    // one warm workspace and by a fresh one.
    const Chip chip(campaign::StudySetup::paper_1024core());
    ASSERT_TRUE(chip.setup.solver().truncated());
    std::mt19937_64 rng(31);
    const auto committed = random_rings(chip, rng, 0.3);
    const std::size_t ring_count = committed.size();
    core::PeakWorkspace ws;
    std::size_t queries = 0, reused = 0, evals = 0;
    for (std::size_t round = 0; queries < 50; ++round) {
        const double* tau = &kLadder[round % 3 + 1];
        for (std::size_t r = 0; r < ring_count && queries < 50; ++r, ++queries) {
            SCOPED_TRACE(queries);
            expect_fresh_bits(chip.analyzer,
                              with_candidate(committed, r, 4.0 + 0.5 * round),
                              tau, 1, ws);
            reused += ws.last_reused_rings();
            evals += ws.last_ring_evals();
        }
    }
    EXPECT_GT(2 * reused, evals);
#endif
}

}  // namespace

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "peak_queries.hpp"
#include "thermal_oracle.hpp"

namespace {

using hp::test::oracle_ambient_equilibrium;
using hp::test::oracle_steady_state;
using hp::arch::ManyCore;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::RotationRingSpec;
using hp::linalg::Vector;
using hp::thermal::MatExSolver;
using hp::thermal::RcNetworkConfig;
using hp::thermal::ThermalModel;

constexpr double kAmbient = 45.0;
constexpr double kIdle = 0.3;

struct Fixture {
    ManyCore chip = ManyCore::paper_16core();
    ThermalModel model{chip.plan(), RcNetworkConfig{}};
    MatExSolver solver{model};
    PeakTemperatureAnalyzer analyzer{solver, kAmbient, kIdle};
    hp::core::PeakWorkspace ws;

    double rotation_peak(const std::vector<RotationRingSpec>& rings,
                         double tau, std::size_t samples_per_epoch) {
        return hp::test::rotation_peak(analyzer, rings, tau,
                                       samples_per_epoch, ws);
    }
    double static_peak(const Vector& core_power) {
        return hp::test::static_peak(analyzer, core_power, ws);
    }
};

/// Brute force: start from ambient and march the periodic schedule with the
/// exact per-epoch MatEx transient until the pattern reaches its periodic
/// steady state; returns boundary temperatures of the final period.
std::vector<Vector> brute_boundaries(const Fixture& f,
                                     const std::vector<Vector>& core_powers,
                                     double tau, int periods) {
    Vector t = oracle_ambient_equilibrium(f.model, kAmbient);
    for (int p = 0; p + 1 < periods; ++p)
        for (const Vector& cp : core_powers)
            t = f.solver.transient(t, f.model.pad_power(cp), kAmbient, tau);
    std::vector<Vector> out;
    for (const Vector& cp : core_powers) {
        t = f.solver.transient(t, f.model.pad_power(cp), kAmbient, tau);
        out.push_back(t);
    }
    return out;
}

/// Brute-force peak over the final period, sampling each epoch finely.
double brute_peak(const Fixture& f, const std::vector<Vector>& core_powers,
                  double tau, int periods, int samples_per_epoch) {
    Vector t = oracle_ambient_equilibrium(f.model, kAmbient);
    for (int p = 0; p + 1 < periods; ++p)
        for (const Vector& cp : core_powers)
            t = f.solver.transient(t, f.model.pad_power(cp), kAmbient, tau);
    double peak = -1e300;
    for (const Vector& cp : core_powers) {
        const Vector p_node = f.model.pad_power(cp);
        for (int s = 0; s < samples_per_epoch; ++s) {
            t = f.solver.transient(t, p_node, kAmbient,
                                   tau / samples_per_epoch);
            for (std::size_t i = 0; i < f.model.core_count(); ++i)
                peak = std::max(peak, t[i]);
        }
    }
    return peak;
}

/// Rotation schedule of one ring as explicit per-epoch core-power vectors
/// with every non-ring core idle.
std::vector<Vector> ring_schedule(const Fixture& f,
                                  const RotationRingSpec& ring) {
    const std::size_t k = ring.cores.size();
    std::vector<Vector> out;
    for (std::size_t epoch = 0; epoch < k; ++epoch) {
        Vector p(f.chip.core_count(), kIdle);
        for (std::size_t pos = 0; pos < k; ++pos) {
            const std::size_t slot = (pos + k - epoch % k) % k;
            p[ring.cores[pos]] = ring.slot_power_w[slot];
        }
        out.push_back(p);
    }
    return out;
}

int periods_to_converge(double tau, std::size_t delta) {
    // Slowest network time constant is ~1.8 s; march >20 constants so the
    // brute-force residual sits well below the comparison tolerance.
    return static_cast<int>(
               std::ceil(40.0 / (tau * static_cast<double>(delta)))) +
           3;
}

// ------------------------------------------------- boundary temperatures ---

TEST(Algorithm1, BoundaryTemperaturesMatchBruteForce) {
    Fixture f;
    // 2 threads rotating over the 4 centre cores at tau = 0.5 ms.
    RotationRingSpec ring{{5, 6, 10, 9}, {6.0, 6.0, kIdle, kIdle}};
    const auto schedule = ring_schedule(f, ring);
    const double tau = 0.5e-3;

    const auto analytic = f.analyzer.boundary_temperatures(schedule, tau);
    const auto brute =
        brute_boundaries(f, schedule, tau, periods_to_converge(tau, 4));

    ASSERT_EQ(analytic.size(), brute.size());
    for (std::size_t e = 0; e < analytic.size(); ++e)
        EXPECT_LT((analytic[e] - brute[e]).max_abs(), 1e-5) << "epoch " << e;
}

TEST(Algorithm1, SingleEpochScheduleEqualsSteadyState) {
    Fixture f;
    Vector power(16, kIdle);
    power[5] = 5.0;
    const auto analytic = f.analyzer.boundary_temperatures({power}, 1e-3);
    const Vector steady =
        oracle_steady_state(f.model, f.model.pad_power(power), kAmbient);
    ASSERT_EQ(analytic.size(), 1u);
    EXPECT_LT((analytic[0] - steady).max_abs(), 1e-8);
}

TEST(Algorithm1, InvalidInputsThrow) {
    Fixture f;
    EXPECT_THROW((void)f.analyzer.boundary_temperatures({}, 1e-3),
                 std::invalid_argument);
    EXPECT_THROW((void)f.analyzer.boundary_temperatures(
                     {Vector(16, 1.0)}, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)f.analyzer.schedule_peak({Vector(16, 1.0)}, 1e-3, 0, f.ws),
        std::invalid_argument);
    EXPECT_THROW((void)f.analyzer.schedule_peak(
                     {Vector(16, 1.0), Vector(15, 1.0)}, 1e-3, 2, f.ws),
                 std::invalid_argument);
}

// -------------------------------------------------------------- peak temp ---

class Algorithm1Peak : public ::testing::TestWithParam<double> {};

TEST_P(Algorithm1Peak, MatchesBruteForceAcrossRotationIntervals) {
    const double tau = GetParam();
    Fixture f;
    RotationRingSpec ring{{5, 6, 10, 9}, {6.5, 4.0, kIdle, kIdle}};
    const auto schedule = ring_schedule(f, ring);

    const double analytic = f.analyzer.schedule_peak(schedule, tau, 8, f.ws);
    const double brute =
        brute_peak(f, schedule, tau, periods_to_converge(tau, 4), 8);
    EXPECT_NEAR(analytic, brute, 0.02) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(TauSweep, Algorithm1Peak,
                         ::testing::Values(0.125e-3, 0.25e-3, 0.5e-3, 1e-3,
                                           2e-3, 8e-3));

TEST(Algorithm1, RandomSchedulesMatchBruteForce) {
    Fixture f;
    std::mt19937_64 rng(2023);
    std::uniform_real_distribution<double> power(kIdle, 7.0);
    std::uniform_int_distribution<int> len(2, 6);
    for (int trial = 0; trial < 4; ++trial) {
        const int delta = len(rng);
        std::vector<Vector> schedule;
        for (int e = 0; e < delta; ++e) {
            Vector p(16, kIdle);
            for (std::size_t c = 0; c < 16; ++c)
                if (rng() % 3 == 0) p[c] = power(rng);
            schedule.push_back(p);
        }
        const double tau = 0.5e-3;
        const double analytic =
            f.analyzer.schedule_peak(schedule, tau, 6, f.ws);
        const double brute = brute_peak(f, schedule, tau,
                                        periods_to_converge(tau, delta), 6);
        EXPECT_NEAR(analytic, brute, 0.05) << "trial " << trial;
    }
}

TEST(Algorithm1, FasterRotationLowersPeak) {
    // The core of the paper's argument: smaller tau averages heat better.
    Fixture f;
    RotationRingSpec ring{{5, 6, 10, 9}, {6.5, 6.5, kIdle, kIdle}};
    const auto schedule = ring_schedule(f, ring);
    double prev = 1e300;
    for (double tau : {8e-3, 4e-3, 2e-3, 1e-3, 0.5e-3, 0.25e-3}) {
        const double peak = f.analyzer.schedule_peak(schedule, tau, 8, f.ws);
        EXPECT_LT(peak, prev) << "tau=" << tau;
        prev = peak;
    }
}

TEST(Algorithm1, RotationBeatsStaticPlacement) {
    Fixture f;
    // Static: two 6 W threads pinned on cores 5 and 10.
    Vector static_power(16, kIdle);
    static_power[5] = 6.0;
    static_power[10] = 6.0;
    const double static_peak = f.static_peak(static_power);

    RotationRingSpec ring{{5, 6, 10, 9}, {6.0, kIdle, 6.0, kIdle}};
    const double rotating_peak =
        f.rotation_peak({ring}, 0.5e-3, 4);
    EXPECT_LT(rotating_peak, static_peak - 5.0);
}

// ---------------------------------------------------------- rotation_peak ---

TEST(RotationPeak, SingleRingMatchesExplicitSchedule) {
    Fixture f;
    RotationRingSpec ring{{5, 6, 10, 9}, {6.0, 5.0, kIdle, kIdle}};
    const double tau = 0.5e-3;
    const double via_rings = f.rotation_peak({ring}, tau, 4);
    const double via_schedule =
        f.analyzer.schedule_peak(ring_schedule(f, ring), tau, 4, f.ws);
    EXPECT_NEAR(via_rings, via_schedule, 1e-6);
}

TEST(RotationPeak, MultiRingIsSafeUpperBound) {
    Fixture f;
    // Occupy the centre ring and the middle ring; exact joint simulation via
    // lcm(4, 8) = 8-epoch explicit schedule.
    const auto& rings = f.chip.rings();
    ASSERT_GE(rings.size(), 2u);
    RotationRingSpec inner{rings[0].cores, {}};
    inner.slot_power_w.assign(4, kIdle);
    inner.slot_power_w[0] = 6.0;
    inner.slot_power_w[1] = 5.5;
    RotationRingSpec middle{rings[1].cores, {}};
    middle.slot_power_w.assign(rings[1].cores.size(), kIdle);
    middle.slot_power_w[0] = 4.5;
    middle.slot_power_w[3] = 6.0;

    const double tau = 0.5e-3;
    const double bound = f.rotation_peak({inner, middle}, tau, 4);

    // Build the exact joint schedule over lcm(4,8) = 8 epochs.
    std::vector<Vector> joint;
    for (std::size_t epoch = 0; epoch < 8; ++epoch) {
        Vector p(16, kIdle);
        for (const RotationRingSpec* r : {&inner, &middle}) {
            const std::size_t k = r->cores.size();
            for (std::size_t pos = 0; pos < k; ++pos) {
                const std::size_t slot = (pos + k - epoch % k) % k;
                if (r->slot_power_w[slot] != kIdle)
                    p[r->cores[pos]] = r->slot_power_w[slot];
            }
        }
        joint.push_back(p);
    }
    const double exact = f.analyzer.schedule_peak(joint, tau, 4, f.ws);
    EXPECT_GE(bound, exact - 1e-9);   // never optimistic
    EXPECT_LT(bound, exact + 1.5);    // and reasonably tight
}

TEST(RotationPeak, EmptyRingsGiveIdleBaseline) {
    Fixture f;
    const double peak = f.rotation_peak({}, 0.5e-3, 2);
    const double idle_peak = f.static_peak(Vector(16, kIdle));
    EXPECT_NEAR(peak, idle_peak, 1e-9);
}

TEST(RotationPeak, MismatchedRingSpecThrows) {
    Fixture f;
    RotationRingSpec bad{{5, 6}, {1.0}};
    EXPECT_THROW((void)f.rotation_peak({bad}, 0.5e-3, 2),
                 std::invalid_argument);
}

TEST(RotationPeak, SlateRejectsInvalidArguments) {
    // Every argument is checked once at entry, before any buffer is sized
    // from it: a τ <= 0 would close the geometric series as 0/0, and
    // samples_per_epoch == 0 would size the interior-sample list from
    // samples - 1.
    Fixture f;
    const std::vector<RotationRingSpec> rings = {
        RotationRingSpec{{5, 6, 10, 9}, {6.0, 5.0, kIdle, kIdle}}};
    double peaks[2];
    const double zero_tau[] = {0.5e-3, 0.0};
    EXPECT_THROW(f.analyzer.rotation_peaks(rings, zero_tau, 2, 2, f.ws, peaks),
                 std::invalid_argument);
    const double negative_tau = -0.5e-3;
    EXPECT_THROW(
        f.analyzer.rotation_peaks(rings, &negative_tau, 1, 2, f.ws, peaks),
        std::invalid_argument);
    const double tau = 0.5e-3;
    EXPECT_THROW(f.analyzer.rotation_peaks(rings, &tau, 1, 0, f.ws, peaks),
                 std::invalid_argument);
    const std::vector<RotationRingSpec> bad = {
        RotationRingSpec{{5, 6}, {1.0}}};
    EXPECT_THROW(f.analyzer.rotation_peaks(bad, &tau, 1, 2, f.ws, peaks),
                 std::invalid_argument);
    // Ring cores must be distinct core indices: 16 is the first non-core
    // node of this chip, and a repeated core would be two slots on one
    // core. An all-idle ring is checked too, and so is the map path.
    const std::size_t n = f.model.core_count();
    ASSERT_GT(f.model.node_count(), n);
    const std::vector<std::vector<std::size_t>> bad_cores = {
        {5, 6, n, 9}, {5, 6, 1000000, 9}, {5, 6, 5, 9}, {9, 9}};
    std::vector<double> map(2 * n);
    for (const auto& cores : bad_cores) {
        SCOPED_TRACE(::testing::PrintToString(cores));
        const std::vector<RotationRingSpec> busy = {
            rings[0], RotationRingSpec{cores, std::vector<double>(
                                                  cores.size(), 4.0)}};
        const std::vector<RotationRingSpec> idle = {
            rings[0], RotationRingSpec{cores, std::vector<double>(
                                                  cores.size(), kIdle)}};
        EXPECT_THROW(
            f.analyzer.rotation_peaks(busy, &tau, 1, 2, f.ws, peaks),
            std::invalid_argument);
        EXPECT_THROW(f.analyzer.rotation_peaks(idle, &tau, 1, 2, f.ws, peaks,
                                               map.data()),
                     std::invalid_argument);
        EXPECT_THROW(f.analyzer.rotation_peak(busy, {tau, tau}, 2, f.ws),
                     std::invalid_argument);
    }
    // The workspace is still usable after a rejected query: same bits as a
    // fresh one.
    EXPECT_NO_THROW(f.analyzer.rotation_peaks(rings, &tau, 1, 2, f.ws, peaks));
    hp::core::PeakWorkspace fresh;
    double want;
    f.analyzer.rotation_peaks(rings, &tau, 1, 2, fresh, &want);
    EXPECT_EQ(0, std::memcmp(&want, &peaks[0], sizeof(double)));
}

TEST(RotationPeak, MoreThreadsRaisePeak) {
    Fixture f;
    RotationRingSpec one{{5, 6, 10, 9}, {6.0, kIdle, kIdle, kIdle}};
    RotationRingSpec two{{5, 6, 10, 9}, {6.0, 6.0, kIdle, kIdle}};
    RotationRingSpec four{{5, 6, 10, 9}, {6.0, 6.0, 6.0, 6.0}};
    const double tau = 0.5e-3;
    const double p1 = f.rotation_peak({one}, tau, 4);
    const double p2 = f.rotation_peak({two}, tau, 4);
    const double p4 = f.rotation_peak({four}, tau, 4);
    EXPECT_LT(p1, p2);
    EXPECT_LT(p2, p4);
}

}  // namespace

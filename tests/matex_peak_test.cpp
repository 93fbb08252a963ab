#include <random>
#include <gtest/gtest.h>

#include "floorplan/floorplan.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "thermal_oracle.hpp"

namespace {

using hp::test::oracle_ambient_equilibrium;
using hp::floorplan::GridFloorplan;
using hp::linalg::Vector;
using hp::thermal::MatExSolver;
using hp::thermal::RcNetworkConfig;
using hp::thermal::ThermalModel;

constexpr double kAmbient = 45.0;

struct Fixture {
    ThermalModel model{GridFloorplan(4, 4, 0.81), RcNetworkConfig{}};
    MatExSolver solver{model};
};

/// Dense-sampling reference for the exact peak.
double sampled_peak(const Fixture& f, const Vector& t0, const Vector& p,
                    double dt, int samples) {
    double peak = -1e300;
    for (int s = 0; s <= samples; ++s) {
        const double t = dt * s / samples;
        const Vector temp = f.solver.transient(t0, p, kAmbient, t);
        for (std::size_t i = 0; i < f.model.core_count(); ++i)
            peak = std::max(peak, temp[i]);
    }
    return peak;
}

TEST(MatExPeak, MonotoneHeatingPeaksAtEnd) {
    Fixture f;
    Vector power(16, 0.3);
    power[5] = 6.0;
    const Vector p = f.model.pad_power(power);
    const Vector t0 = oracle_ambient_equilibrium(f.model, kAmbient);
    const auto peak =
        f.solver.peak_core_temperature_exact(t0, p, kAmbient, 0.02);
    EXPECT_NEAR(peak.time_s, 0.02, 1e-9);
    EXPECT_EQ(peak.core, 5u);
    const Vector end = f.solver.transient(t0, p, kAmbient, 0.02);
    EXPECT_NEAR(peak.temperature_c, end[5], 1e-9);
}

TEST(MatExPeak, CoolingPeaksAtStart) {
    Fixture f;
    Vector hot = oracle_ambient_equilibrium(f.model, kAmbient);
    hot[5] += 25.0;
    const Vector p = f.model.pad_power(Vector(16, 0.0));
    const auto peak =
        f.solver.peak_core_temperature_exact(hot, p, kAmbient, 0.05);
    EXPECT_NEAR(peak.time_s, 0.0, 1e-9);
    EXPECT_EQ(peak.core, 5u);
    EXPECT_NEAR(peak.temperature_c, hot[5], 1e-9);
}

TEST(MatExPeak, FindsInteriorHump) {
    // Start with a hot neighbour and power the adjacent core: core 6 first
    // absorbs heat from core 5 (rising), then both cool towards a lower
    // steady state — an interior maximum the endpoint check would miss.
    Fixture f;
    Vector t0 = oracle_ambient_equilibrium(f.model, kAmbient);
    t0[5] += 30.0;
    Vector power(16, 0.3);
    const Vector p = f.model.pad_power(power);
    const auto peak =
        f.solver.peak_core_temperature_exact(t0, p, kAmbient, 1.0);
    const double reference = sampled_peak(f, t0, p, 1.0, 4000);
    EXPECT_NEAR(peak.temperature_c, reference, 2e-3);
}

TEST(MatExPeak, MatchesDenseSamplingOnRandomisedCases) {
    Fixture f;
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> watts(0.0, 6.0);
    std::uniform_real_distribution<double> dtemp(-15.0, 25.0);
    for (int trial = 0; trial < 5; ++trial) {
        Vector t0 = oracle_ambient_equilibrium(f.model, kAmbient);
        for (std::size_t i = 0; i < 16; ++i) t0[i] += dtemp(rng);
        Vector power(16);
        for (std::size_t i = 0; i < 16; ++i) power[i] = watts(rng);
        const Vector p = f.model.pad_power(power);
        const double dt = 0.05;
        const auto exact =
            f.solver.peak_core_temperature_exact(t0, p, kAmbient, dt);
        const double reference = sampled_peak(f, t0, p, dt, 4000);
        EXPECT_NEAR(exact.temperature_c, reference, 5e-3) << "trial " << trial;
        // The exact method never under-estimates a finely-sampled reference
        // by more than the sampling granularity.
        EXPECT_GE(exact.temperature_c, reference - 5e-3);
    }
}

TEST(MatExPeak, DominatesSampledEstimate) {
    Fixture f;
    Vector t0 = oracle_ambient_equilibrium(f.model, kAmbient);
    t0[9] += 20.0;
    Vector power(16, 0.3);
    power[10] = 5.0;
    const Vector p = f.model.pad_power(power);
    const auto exact =
        f.solver.peak_core_temperature_exact(t0, p, kAmbient, 0.03);
    const double coarse = f.solver.peak_core_temperature(t0, p, kAmbient, 0.03, 4);
    EXPECT_GE(exact.temperature_c, coarse - 1e-9);
}

TEST(MatExPeak, InvalidDtThrows) {
    Fixture f;
    const Vector t0 = oracle_ambient_equilibrium(f.model, kAmbient);
    const Vector p = f.model.pad_power(Vector(16, 0.3));
    EXPECT_THROW(
        (void)f.solver.peak_core_temperature_exact(t0, p, kAmbient, 0.0),
        std::invalid_argument);
}

}  // namespace

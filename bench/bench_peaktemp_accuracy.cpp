// Methodological ablation for paper SSIV: accuracy and speed of the
// analytical peak-temperature method (Algorithm 1) against brute-force
// transient simulation of the same rotation. The paper argues the analytical
// method is what makes run-time use feasible; this bench quantifies both the
// agreement (should be ~exact at the sample points) and the speedup.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/vector.hpp"

namespace {

using hp::bench::testbed_16core;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::RotationRingSpec;
using hp::linalg::Vector;

constexpr double kAmbient = 45.0;
constexpr double kIdle = 0.3;

std::vector<Vector> ring_schedule(const RotationRingSpec& ring,
                                  std::size_t cores) {
    const std::size_t k = ring.cores.size();
    std::vector<Vector> out;
    for (std::size_t epoch = 0; epoch < k; ++epoch) {
        Vector p(cores, kIdle);
        for (std::size_t pos = 0; pos < k; ++pos)
            p[ring.cores[pos]] = ring.slot_power_w[(pos + k - epoch % k) % k];
        out.push_back(p);
    }
    return out;
}

double brute_peak(const std::vector<Vector>& schedule, double tau,
                  int samples, double horizon_s) {
    const auto& tb = testbed_16core();
    Vector t = tb.solver().steady_state(Vector(tb.model().node_count()),
                                        kAmbient);
    const int periods = static_cast<int>(
        horizon_s / (tau * static_cast<double>(schedule.size()))) + 1;
    double peak = -1e300;
    for (int p = 0; p < periods; ++p) {
        for (const Vector& cp : schedule) {
            const Vector padded = tb.model().pad_power(cp);
            for (int s = 0; s < samples; ++s) {
                t = tb.solver().transient(t, padded, kAmbient, tau / samples);
                for (std::size_t i = 0; i < tb.model().core_count(); ++i)
                    peak = std::max(peak, t[i]);
            }
        }
    }
    return peak;
}

}  // namespace

int main() {
    hp::bench::print_header(
        "Ablation: analytical peak temperature (Algorithm 1) vs brute-force "
        "simulation",
        "Shen et al., DATE 2023, SSIV (method) + SSV complexity analysis");

    const auto& tb = testbed_16core();
    const PeakTemperatureAnalyzer analyzer(tb.solver(), kAmbient, kIdle);
    hp::core::PeakWorkspace ws;
    const RotationRingSpec ring{{5, 6, 10, 9}, {6.2, 5.0, kIdle, kIdle}};
    const auto schedule = ring_schedule(ring, 16);

    std::printf("  %-10s | %12s | %12s | %10s | %12s | %12s | %8s\n", "tau",
                "analytic [C]", "brute [C]", "error [C]", "analytic[us]",
                "brute [ms]", "speedup");
    std::printf("  -----------+--------------+--------------+------------+--------------+--------------+---------\n");

    for (double tau : {0.125e-3, 0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3, 8e-3}) {
        using clock = std::chrono::steady_clock;

        const auto t0 = clock::now();
        double analytic = 0.0;
        constexpr int kReps = 50;
        for (int i = 0; i < kReps; ++i)
            analytic = analyzer.schedule_peak(schedule, tau, 4, ws);
        const auto t1 = clock::now();
        const double brute = brute_peak(schedule, tau, 4, 12.0);
        const auto t2 = clock::now();

        const double us_analytic =
            std::chrono::duration<double, std::micro>(t1 - t0).count() / kReps;
        const double ms_brute =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        std::printf("  %7.3f ms | %12.3f | %12.3f | %10.3f | %12.1f | %12.1f | %7.0fx\n",
                    tau * 1e3, analytic, brute, analytic - brute, us_analytic,
                    ms_brute, ms_brute * 1e3 / us_analytic);
    }

    std::printf("\n  note: the residual error is the brute-force run's finite convergence\n");
    std::printf("  horizon plus sampling granularity; the analytic method needs no horizon.\n");
    return 0;
}

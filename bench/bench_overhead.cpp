// Reproduces the paper's SSVI "Run-time Overhead" measurement: the time
// HotPotato needs to evaluate a synchronous thread-rotation schedule for a
// fully loaded 64-core many-core (paper: 23.76 us per invocation across
// 10000 runs => 4.75 % of a 0.5 ms rotation epoch). Measured here with
// google-benchmark over the same Algorithm 1 machinery the scheduler calls,
// plus the baselines' per-epoch costs for comparison.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/peak_temperature.hpp"
#include "linalg/vector.hpp"
#include "sched/tsp.hpp"

namespace {

using hp::bench::testbed_64core;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::PeakWorkspace;
using hp::core::RotationRingSpec;

constexpr double kAmbient = 45.0;
constexpr double kIdle = 0.3;
constexpr double kTau = 0.5e-3;

/// Fully loaded chip: every ring occupied with threads of varied power.
std::vector<RotationRingSpec> full_load_rings() {
    std::vector<RotationRingSpec> specs;
    std::size_t i = 0;
    for (const auto& ring : testbed_64core().chip().rings()) {
        RotationRingSpec spec;
        spec.cores = ring.cores;
        for (std::size_t j = 0; j < ring.cores.size(); ++j)
            spec.slot_power_w.push_back(2.0 + 0.37 * static_cast<double>((i + j) % 9));
        specs.push_back(std::move(spec));
        ++i;
    }
    return specs;
}

const PeakTemperatureAnalyzer& analyzer() {
    static const PeakTemperatureAnalyzer a(testbed_64core().solver(), kAmbient,
                                           kIdle);
    return a;
}

/// One uniform-τ rotation query through the caller's workspace — the path
/// HotPotato's candidate loop runs.
double rotation_peak(const std::vector<RotationRingSpec>& rings,
                     PeakWorkspace& ws) {
    double peak;
    analyzer().rotation_peaks(rings, &kTau, 1, 2, ws, &peak);
    return peak;
}

/// Design-time phase of Algorithm 1 (paper lines 1-7): eigendecomposition is
/// shared with the simulator, so this measures the beta/alpha set-up.
void BM_Algorithm1_DesignTime(benchmark::State& state) {
    const auto& solver = testbed_64core().solver();
    for (auto _ : state) {
        PeakTemperatureAnalyzer a(solver, kAmbient, kIdle);
        benchmark::DoNotOptimize(a.idle_power_w());
    }
}
BENCHMARK(BM_Algorithm1_DesignTime)->Unit(benchmark::kMillisecond);

/// Run-time phase of Algorithm 1 on a fully loaded 64-core chip — the cost
/// of certifying one candidate rotation schedule (the paper's 23.76 us
/// quantity).
void BM_Algorithm1_RotationPeak_FullLoad(benchmark::State& state) {
    const auto rings = full_load_rings();
    PeakWorkspace ws;
    for (auto _ : state)
        benchmark::DoNotOptimize(rotation_peak(rings, ws));
}
BENCHMARK(BM_Algorithm1_RotationPeak_FullLoad)->Unit(benchmark::kMicrosecond);

/// Sensitivity to occupancy: k occupied rings.
void BM_Algorithm1_RotationPeak_Rings(benchmark::State& state) {
    auto rings = full_load_rings();
    rings.resize(static_cast<std::size_t>(state.range(0)));
    PeakWorkspace ws;
    for (auto _ : state)
        benchmark::DoNotOptimize(rotation_peak(rings, ws));
}
BENCHMARK(BM_Algorithm1_RotationPeak_Rings)->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMicrosecond);

/// Explicit-schedule variant (Eq. 10 direct) as a function of period delta.
void BM_Algorithm1_SchedulePeak_Delta(benchmark::State& state) {
    const std::size_t delta = static_cast<std::size_t>(state.range(0));
    std::vector<hp::linalg::Vector> schedule;
    for (std::size_t e = 0; e < delta; ++e) {
        hp::linalg::Vector p(64, kIdle);
        for (std::size_t c = e % 4; c < 64; c += 4) p[c] = 4.0;
        schedule.push_back(p);
    }
    PeakWorkspace ws;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analyzer().schedule_peak(schedule, kTau, 2, ws));
}
BENCHMARK(BM_Algorithm1_SchedulePeak_Delta)->RangeMultiplier(2)->Range(1, 16)
    ->Unit(benchmark::kMicrosecond);

/// Static steady-state peak (the no-rotation path of the scheduler).
void BM_Algorithm1_StaticPeak(benchmark::State& state) {
    const std::vector<double> power(64, 2.5);
    PeakWorkspace ws;
    double peak;
    for (auto _ : state) {
        analyzer().static_peaks(power.data(), 1, ws, &peak);
        benchmark::DoNotOptimize(peak);
    }
}
BENCHMARK(BM_Algorithm1_StaticPeak)->Unit(benchmark::kMicrosecond);

/// Baseline cost: one TSP budget computation (what PCGov/PCMig pay per
/// epoch).
void BM_Baseline_TspBudget(benchmark::State& state) {
    const hp::sched::TspBudget tsp(testbed_64core().solver());
    std::vector<bool> mask(64, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tsp.per_core_budget(mask, kIdle, kAmbient, 70.0));
}
BENCHMARK(BM_Baseline_TspBudget)->Unit(benchmark::kMicrosecond);

/// Baseline cost: one MatEx transient prediction (what PCMig pays per
/// migration check).
void BM_Baseline_MatExPrediction(benchmark::State& state) {
    const auto& tb = testbed_64core();
    const hp::linalg::Vector t0 = tb.solver().steady_state(
        hp::linalg::Vector(tb.model().node_count()), kAmbient);
    hp::linalg::Vector power(64, 2.5);
    const hp::linalg::Vector padded = tb.model().pad_power(power);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tb.solver().transient(t0, padded, kAmbient, 5e-3));
}
BENCHMARK(BM_Baseline_MatExPrediction)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

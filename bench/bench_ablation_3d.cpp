// Future-work extension bench (paper SSVII: "synchronous task rotation with
// 3D S-NUCA many-cores ... using CoMeT"): a 2-layer 32-core stacked S-NUCA
// part. Quantifies (1) the 3D thermal penalty — identical power on the top
// layer runs hotter than on the bottom layer — and (2) that synchronous
// rotation, which freely mixes layers inside an AMD ring, extends to 3D and
// keeps beating the DVFS+async-migration baseline. Part (3) runs as a
// 2-scheduler campaign on the shared StudySetup::stacked_32core() machine.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/hotpotato.hpp"
#include "core/peak_temperature.hpp"
#include "sched/pcmig.hpp"
#include "workload/benchmark.hpp"

namespace {

using hp::linalg::Vector;

}  // namespace

int main(int argc, char** argv) {
    hp::bench::print_header(
        "Extension: synchronous rotation on a 3D-stacked S-NUCA (2x 4x4 "
        "layers)",
        "Shen et al., DATE 2023, SSVII future work (3D S-NUCA / CoMeT)");

    const hp::campaign::StudySetup s = hp::campaign::StudySetup::stacked_32core();
    const auto& chip = s.chip();
    const auto& model = s.model();
    const auto& solver = s.solver();
    constexpr double kAmbient = 45.0;
    constexpr double kIdle = 0.3;

    // (1) the 3D penalty: same 5 W core, bottom vs top layer.
    {
        Vector p(32, kIdle);
        p[chip.plan().index_of(1, 1, 0)] = 5.0;
        const Vector bottom =
            solver.steady_state(model.pad_power(p), kAmbient);
        Vector q(32, kIdle);
        q[chip.plan().index_of(1, 1, 1)] = 5.0;
        const Vector top = solver.steady_state(model.pad_power(q), kAmbient);
        std::printf("  5 W core steady-state: bottom layer %.1f C, top layer %.1f C"
                    " (3D penalty %.1f C)\n",
                    bottom[chip.plan().index_of(1, 1, 0)],
                    top[chip.plan().index_of(1, 1, 1)],
                    top[chip.plan().index_of(1, 1, 1)] -
                        bottom[chip.plan().index_of(1, 1, 0)]);
    }

    // (2) rotation across layers vs pinned placements.
    {
        hp::core::PeakTemperatureAnalyzer analyzer(s.solver(), kAmbient, kIdle);
        hp::core::PeakWorkspace ws;
        const auto static_peak = [&](const Vector& power) {
            double peak;
            analyzer.static_peaks(power.data(), 1, ws, &peak);
            return peak;
        };
        const auto& ring = chip.rings().front();  // spans both layers
        hp::core::RotationRingSpec spec;
        spec.cores = ring.cores;
        spec.slot_power_w.assign(ring.cores.size(), kIdle);
        spec.slot_power_w[0] = 6.0;
        spec.slot_power_w[1] = 6.0;
        std::printf("\n  2x 6 W threads on the centre ring (%zu cores over both layers):\n",
                    ring.cores.size());
        Vector pinned_top(32, kIdle);
        pinned_top[chip.plan().index_of(1, 1, 1)] = 6.0;
        pinned_top[chip.plan().index_of(2, 2, 1)] = 6.0;
        std::printf("    pinned on top layer          : %.1f C\n",
                    static_peak(pinned_top));
        Vector pinned_bottom(32, kIdle);
        pinned_bottom[chip.plan().index_of(1, 1, 0)] = 6.0;
        pinned_bottom[chip.plan().index_of(2, 2, 0)] = 6.0;
        std::printf("    pinned on bottom layer       : %.1f C\n",
                    static_peak(pinned_bottom));
        const double taus[] = {2e-3, 0.5e-3, 0.125e-3};
        double peaks[3];
        analyzer.rotation_peaks({spec}, taus, 3, 4, ws, peaks);
        for (std::size_t t = 0; t < 3; ++t)
            std::printf("    rotating, tau = %5.3f ms     : %.1f C\n",
                        taus[t] * 1e3, peaks[t]);
    }

    // (3) end-to-end: HotPotato vs PCMig on a loaded 3D chip.
    {
        hp::sim::SimConfig cfg;
        cfg.max_sim_time_s = 10.0;
        hp::campaign::CampaignSpec spec(s, cfg);
        spec.add_scheduler("PCMig", [] {
            return std::make_unique<hp::sched::PcMigScheduler>();
        });
        spec.add_scheduler("HotPotato", [] {
            return std::make_unique<hp::core::HotPotatoScheduler>();
        });
        spec.add_workload(
            "bodytrack-4x8",
            std::vector<hp::workload::TaskSpec>(
                4, {&hp::workload::profile_by_name("bodytrack"), 8, 0.0}));
        const auto out = hp::bench::run_with_progress(
            spec, hp::bench::jobs_from_args(argc, argv));
        const auto* r_mig =
            hp::campaign::find(out.records, "bodytrack-4x8", "PCMig");
        const auto* r_hp =
            hp::campaign::find(out.records, "bodytrack-4x8", "HotPotato");
        std::printf("\n  full 3D chip, 4x 8-thread bodytrack:\n");
        if (r_mig == nullptr || r_hp == nullptr || r_mig->failed ||
            r_hp->failed) {
            std::printf("    DID NOT FINISH\n");
            return 1;
        }
        std::printf("    %-12s makespan %7.1f ms  peak %5.1f C  migrations %zu\n",
                    "PCMig", r_mig->result.makespan_s * 1e3,
                    r_mig->result.peak_temperature_c, r_mig->result.migrations);
        std::printf("    %-12s makespan %7.1f ms  peak %5.1f C  migrations %zu\n",
                    "HotPotato", r_hp->result.makespan_s * 1e3,
                    r_hp->result.peak_temperature_c, r_hp->result.migrations);
        std::printf("    speedup: %+.2f %%\n",
                    (r_mig->result.makespan_s / r_hp->result.makespan_s - 1.0) *
                        100.0);
    }
    return 0;
}

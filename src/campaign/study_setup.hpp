#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/manycore.hpp"
#include "perf/interval_model.hpp"
#include "power/power_model.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace hp::campaign {

/// The expensive, shareable half of every study in this repo: a chip plus
/// its thermal model and the one-time thermal-solver setup (dense MatEx
/// eigendecomposition or truncated-modal reduction, chosen through
/// thermal::SolverConfig).
///
/// StudySetup is a value type — copies are cheap and share the same
/// immutable bundle through a shared_ptr, so a CampaignSpec holding one can
/// be copied, stored and passed across threads without any lifetime
/// contract. This replaces the Testbed boilerplate that every bench and
/// example used to duplicate.
///
/// Thread safety: ManyCore (AMD + ring tables), ThermalModel (plain A/B/G
/// data) and every TransientSolver backend are all immutable after
/// construction — no mutable members, no lazy caches — so any number of
/// threads may call their const member functions concurrently. This is the
/// contract the parallel campaign engine relies on: one StudySetup is shared
/// read-only by all workers while every worker builds its own Simulator,
/// Scheduler and (when faults are scheduled) FaultInjector per run.
class StudySetup {
public:
    /// Builds chip + thermal model + solver backend for @p chip. The default
    /// @p solver auto-selects the backend: dense at or below
    /// SolverConfig::dense_node_threshold thermal nodes, truncated-modal
    /// above, with an environment override via HOTPOTATO_SOLVER.
    static StudySetup custom(arch::ManyCore chip,
                             thermal::RcNetworkConfig cooling = {},
                             thermal::SolverConfig solver = {});

    /// Paper Table I 64-core (8x8) part.
    static StudySetup paper_64core(thermal::SolverConfig solver = {});
    /// The motivational example's 16-core (4x4) part.
    static StudySetup paper_16core(thermal::SolverConfig solver = {});
    /// 3D-stacked 2x(4x4) part (paper SSVII future work).
    static StudySetup stacked_32core(thermal::SolverConfig solver = {});
    /// 256-core (16x16) scale-up of the paper Table I part; 513 thermal
    /// nodes, served by the truncated-modal backend under auto selection.
    static StudySetup paper_256core(thermal::SolverConfig solver = {});
    /// 3D-stacked 256-core part: four stacked 8x8 layers over one spreader
    /// (321 thermal nodes).
    static StudySetup stacked_256core(thermal::SolverConfig solver = {});
    /// 1024-core (32x32) part (2049 thermal nodes) — the scaling ceiling
    /// the truncated-modal backend is specified against.
    static StudySetup paper_1024core(thermal::SolverConfig solver = {});

    /// Builds the named stock configuration — the tag namespace the advice
    /// server binds request config tags against ("paper_64core",
    /// "paper_16core", "stacked_32core", "paper_256core", "stacked_256core",
    /// "paper_1024core"). Throws std::invalid_argument on an unknown name,
    /// listing the known tags.
    static StudySetup by_name(const std::string& name,
                              thermal::SolverConfig solver = {});

    /// The tags by_name accepts, in a stable order.
    static const std::vector<std::string>& known_names();

    const arch::ManyCore& chip() const { return *chip_; }
    const thermal::ThermalModel& model() const { return *model_; }
    const thermal::TransientSolver& solver() const { return *solver_; }

    /// A StudySetup over a brand-new bundle that shares no storage with this
    /// one: chip tables and model data copied and the solver cloned via
    /// TransientSolver::clone_rebound() — all bit-for-bit copies, nothing
    /// recomputed (no eigensolve, no factorisation), so replica
    /// runs produce bit-identical records. The campaign engine calls this
    /// once per NUMA node (first worker on the node pays the copy; the pages
    /// land node-local by first touch) so high --jobs sweeps stop bouncing
    /// the shared solver tables across sockets.
    StudySetup replicate() const;

    /// A fresh simulator over the shared machine; one per run. An optional
    /// @p workspace lets a worker thread reuse its thermal scratch across
    /// consecutive runs (never share one workspace between threads). An
    /// optional @p recorder attaches the observability layer to the run; a
    /// recorder belongs to one run only (never reuse it across runs — its
    /// instruments would accumulate). An optional @p cancel token makes the
    /// run cooperatively cancellable (see sim::CancellationToken). An
    /// optional @p scratch hands the worker's long-lived scratch bag to the
    /// simulator (SimContext::worker_scratch()) so schedulers can borrow
    /// arena-backed workspaces across the worker's runs.
    sim::Simulator make_simulator(
        sim::SimConfig config = {}, power::PowerParams power = {},
        perf::PerfParams perf = {},
        thermal::ThermalWorkspace* workspace = nullptr,
        obs::Recorder* recorder = nullptr,
        const sim::CancellationToken* cancel = nullptr,
        exec::WorkerScratch* scratch = nullptr) const;

private:
    struct Bundle;  // owning storage (chip, then model, then solver)

    StudySetup(std::shared_ptr<const Bundle> owned, const arch::ManyCore* chip,
               const thermal::ThermalModel* model,
               const thermal::TransientSolver* solver)
        : owned_(std::move(owned)), chip_(chip), model_(model),
          solver_(solver) {}

    std::shared_ptr<const Bundle> owned_;
    const arch::ManyCore* chip_;
    const thermal::ThermalModel* model_;
    const thermal::TransientSolver* solver_;
};

}  // namespace hp::campaign

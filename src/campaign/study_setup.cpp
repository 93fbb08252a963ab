#include "campaign/study_setup.hpp"

#include <stdexcept>
#include <utility>

namespace hp::campaign {

/// Members reference each other (model reads chip.plan() during build, the
/// solver keeps a pointer to model), so the bundle is constructed in place
/// on the heap and never moved afterwards.
struct StudySetup::Bundle {
    arch::ManyCore chip;
    thermal::ThermalModel model;
    std::unique_ptr<const thermal::TransientSolver> solver;

    Bundle(arch::ManyCore c, const thermal::RcNetworkConfig& cooling,
           const thermal::SolverConfig& solver_config)
        : chip(std::move(c)),
          model(chip.plan(), cooling),
          solver(thermal::make_solver(model, solver_config)) {}

    /// Deep copy sharing nothing with @p other: the model is plain data and
    /// clone_rebound copies the solver's tables bit-for-bit against the new
    /// model — no setup recomputation.
    Bundle(const Bundle& other)
        : chip(other.chip),
          model(other.model),
          solver(other.solver->clone_rebound(model)) {}
};

StudySetup StudySetup::replicate() const {
    auto bundle = std::make_shared<const Bundle>(*owned_);
    const Bundle* b = bundle.get();
    return StudySetup(std::move(bundle), &b->chip, &b->model,
                      b->solver.get());
}

StudySetup StudySetup::custom(arch::ManyCore chip,
                              thermal::RcNetworkConfig cooling,
                              thermal::SolverConfig solver) {
    auto bundle =
        std::make_shared<const Bundle>(std::move(chip), cooling, solver);
    const Bundle* b = bundle.get();
    return StudySetup(std::move(bundle), &b->chip, &b->model,
                      b->solver.get());
}

StudySetup StudySetup::paper_64core(thermal::SolverConfig solver) {
    return custom(arch::ManyCore::paper_64core(), {}, solver);
}

StudySetup StudySetup::paper_16core(thermal::SolverConfig solver) {
    return custom(arch::ManyCore::paper_16core(), {}, solver);
}

StudySetup StudySetup::stacked_32core(thermal::SolverConfig solver) {
    return custom(arch::ManyCore::stacked_32core(), {}, solver);
}

StudySetup StudySetup::paper_256core(thermal::SolverConfig solver) {
    return custom(arch::ManyCore(16, 16), {}, solver);
}

StudySetup StudySetup::stacked_256core(thermal::SolverConfig solver) {
    arch::SnucaParams params;
    params.layers = 4;
    return custom(arch::ManyCore(8, 8, params), {}, solver);
}

StudySetup StudySetup::paper_1024core(thermal::SolverConfig solver) {
    return custom(arch::ManyCore(32, 32), {}, solver);
}

StudySetup StudySetup::by_name(const std::string& name,
                               thermal::SolverConfig solver) {
    if (name == "paper_16core") return paper_16core(solver);
    if (name == "paper_64core") return paper_64core(solver);
    if (name == "stacked_32core") return stacked_32core(solver);
    if (name == "paper_256core") return paper_256core(solver);
    if (name == "stacked_256core") return stacked_256core(solver);
    if (name == "paper_1024core") return paper_1024core(solver);
    std::string known;
    for (const std::string& n : known_names()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw std::invalid_argument("StudySetup::by_name: unknown config tag '" +
                                name + "' (known: " + known + ")");
}

const std::vector<std::string>& StudySetup::known_names() {
    static const std::vector<std::string> names = {
        "paper_16core",  "paper_64core",   "stacked_32core",
        "paper_256core", "stacked_256core", "paper_1024core"};
    return names;
}

sim::Simulator StudySetup::make_simulator(
    sim::SimConfig config, power::PowerParams power, perf::PerfParams perf,
    thermal::ThermalWorkspace* workspace, obs::Recorder* recorder,
    const sim::CancellationToken* cancel, exec::WorkerScratch* scratch) const {
    return sim::Simulator(*chip_, *model_, *solver_, std::move(config), power,
                          perf, workspace, recorder, cancel, scratch);
}

}  // namespace hp::campaign

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace hp::cli {

/// Parsed command line of the `hotpotato_sim` driver.
struct CliOptions {
    // Machine.
    std::size_t rows = 8;
    std::size_t cols = 8;
    std::size_t layers = 1;

    // Thermal-solver backend: auto | dense | modal (thermal::SolverConfig).
    std::string solver = "auto";
    double solver_tol_c = 0.01;  ///< modal truncation tolerance [K]

    // Policy: hotpotato | hotpotato-dvfs | pcmig | pcgov | tsp-dvfs |
    // static | reactive | global-rotation.
    std::string scheduler = "hotpotato";

    // Optional fidelity knobs.
    bool noc_contention = false;
    bool sensors = false;
    bool power_gating = false;

    // Workload: either an explicit task file, a homogeneous fill of one
    // benchmark, or (default) a Poisson mix.
    std::string profiles_file;  ///< optional extra benchmark definitions
    std::string tasks_file;     ///< explicit task list (wins if set)
    std::string benchmark;      ///< homogeneous fill of this benchmark
    std::size_t tasks = 20;
    double arrivals_per_s = 50.0;
    std::size_t min_threads = 2;
    std::size_t max_threads = 8;
    std::uint64_t seed = 1;

    // Simulation.
    double t_dtm_c = 70.0;
    double ambient_c = 45.0;
    double max_time_s = 30.0;
    std::string trace_file;       ///< write CSV trace here if non-empty
    double trace_interval_s = 1e-3;

    // Fault injection / resilience.
    std::string faults_file;      ///< fault schedule CSV (empty: no faults)
    std::uint64_t fault_seed = 1; ///< RNG seed for fault perturbations
    bool watchdog = false;        ///< thermal-runaway watchdog (forced on
                                  ///< whenever --faults is given)

    // Observability (src/obs): discrete-event trace + per-run metrics.
    std::string events_file;        ///< event-trace CSV (empty: no tracing)
    std::string chrome_trace_file;  ///< Chrome trace_event JSON (empty: off)
    bool metrics = false;           ///< print the metrics block after the run

    // Campaign mode: race several schedulers over the same workload on the
    // parallel campaign engine instead of a single run.
    std::string compare;          ///< comma-separated scheduler names
    std::size_t jobs = 1;         ///< campaign worker threads (0 = all cores)

    // Execution placement (campaign mode; DESIGN.md §12). Placement never
    // changes record values, only where workers run and where their scratch
    // memory lives.
    std::string pin = "auto";     ///< worker pinning: auto|none|compact|spread
    bool numa = true;             ///< node-local arenas + per-node bundles

    // Campaign resilience (campaign mode only; DESIGN.md §10).
    std::string journal_file;     ///< write an append-only run journal here
    std::string resume_file;      ///< resume from this journal (implies the
                                  ///< journal keeps growing in place)
    double run_timeout_s = 0.0;   ///< per-run deadline (0 = no watchdog)
    std::size_t max_retries = 0;  ///< retries for transient failures
    double retry_backoff_s = 0.05;  ///< base backoff before the first retry

    // Campaign exports, published atomically (tmp + rename).
    std::string csv_file;         ///< write the record table as CSV
    std::string json_file;        ///< write records + summary as JSON

    // Server mode (`hotpotato_sim serve ...`, DESIGN.md §13): run the
    // thermal-advice daemon instead of a simulation. --pin/--numa and the
    // thermal flags (--solver, --t-dtm, --ambient) apply to the daemon.
    bool serve = false;
    std::string socket_path;          ///< --socket (required with serve)
    std::size_t server_threads = 4;   ///< --server-threads
    std::string server_configs = "paper_64core";  ///< --server-configs A,B
    std::size_t server_cache = 4096;  ///< --server-cache (entries; 0 = off)

    bool help = false;
};

/// Process exit-code contract of the CLI (asserted in cli_test.cpp):
/// scripts can distinguish "everything ran" from "some runs failed" from
/// "the invocation itself was wrong" from "the resume journal is unusable".
enum ExitCode : int {
    kExitOk = 0,            ///< all runs completed and finished
    kExitRunFailure = 1,    ///< simulation ran, but some runs failed or
                            ///< did not finish (quarantine non-empty)
    kExitConfigError = 2,   ///< bad flags / invalid configuration / any
                            ///< unexpected error
    kExitJournalError = 3,  ///< --resume journal corrupt, unreadable, or
                            ///< written for a different campaign grid
};

/// Usage text for --help and error messages.
std::string usage();

/// Parses argv-style arguments (excluding the program name). A leading
/// `serve` word selects server mode (the thermal-advice daemon). Throws
/// std::invalid_argument on unknown flags or bad values. Semantic checks
/// (positive dimensions, consistent ranges, usable fault/trace settings) are
/// aggregated: the exception message lists every violation at once, one per
/// line, so a bad invocation can be fixed in a single edit.
CliOptions parse(const std::vector<std::string>& args);

/// Instantiates the scheduler named in @p name; throws std::invalid_argument
/// for unknown names.
std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name);

/// Builds the machine and workload described by @p options, runs the
/// simulation and writes a human-readable report to @p out. Returns
/// kExitOk on success and kExitRunFailure if tasks did not finish (or, in
/// campaign mode, if any run is quarantined). Throws on configuration and
/// journal errors — run_cli() maps those onto the exit-code contract.
int run(const CliOptions& options, std::ostream& out);

/// Complete CLI entry point: parse + run with every error mapped onto the
/// ExitCode contract (kExitJournalError for campaign::JournalError,
/// kExitConfigError for anything else thrown). @p err receives error text;
/// this is what main() delegates to and what cli_test.cpp asserts against.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace hp::cli

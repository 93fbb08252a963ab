#include "cli/options.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "arch/manycore.hpp"
#include "campaign/atomic_file.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "core/hotpotato.hpp"
#include "exec/affinity.hpp"
#include "core/hotpotato_dvfs.hpp"
#include "fault/fault_io.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "report/failures.hpp"
#include "report/resilience.hpp"
#include "sched/pcgov.hpp"
#include "sched/pcmig.hpp"
#include "sched/reactive.hpp"
#include "sched/global_rotation.hpp"
#include "sched/static_schedulers.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "textio/textio.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "workload/workload_io.hpp"

namespace hp::cli {

std::string usage() {
    return R"(hotpotato_sim - interval thermal simulation of S-NUCA many-cores

machine:
  --rows N --cols N        mesh dimensions           (default 8x8)
  --layers N               stacked silicon layers    (default 1)
  --solver NAME            thermal solver backend: auto | dense | modal
                           (default auto: dense up to the SolverConfig node
                           threshold, truncated-modal above; the
                           HOTPOTATO_SOLVER environment variable overrides
                           auto selection)
  --solver-tol K           modal truncation tolerance in kelvin
                           (default 0.01; ignored by --solver dense)

policy:
  --scheduler NAME         hotpotato | hotpotato-dvfs | pcmig | pcgov |
                           tsp-dvfs | static | reactive | global-rotation
                                                     (default hotpotato)
  --no-peak-cache          disable the peak-prediction memo (hotpotato,
                           hotpotato-dvfs); results are bit-identical either
                           way, only evaluation counts change

fidelity:
  --noc-contention         model NoC link queueing on LLC latency
  --sensors                DTM driven by quantised/noisy thermal sensors
  --power-gating           gate idle cores (wake penalty on arrival)

workload (pick one):
  --tasks-file PATH        explicit task list ("task <bench> <thr> <arr_s>")
  --benchmark NAME         homogeneous full-chip fill of one benchmark
  (default)                Poisson mix: --tasks N --rate R --min-threads N
                           --max-threads N --seed S
  --profiles-file PATH     extra benchmark definitions usable by name

simulation:
  --t-dtm C                DTM threshold             (default 70)
  --ambient C              ambient temperature       (default 45)
  --max-time S             simulated-time budget     (default 30)
  --trace PATH             write a thermal trace CSV
  --trace-interval S       trace sampling period     (default 1e-3)

observability:
  --events PATH            write the discrete-event trace (rotations,
                           migrations, DVFS, DTM, faults, ...) as CSV
  --chrome-trace PATH      write the event trace as Chrome trace_event JSON
                           (load in chrome://tracing or Perfetto)
  --metrics                print the metrics block (counters, gauges,
                           histograms, phase timers); with --compare, the
                           campaign-level roll-up

resilience:
  --faults PATH            fault schedule CSV
                           (time_s,kind,target,duration_s,magnitude)
  --fault-seed S           seed for fault perturbations (default 1)
  --watchdog               thermal-runaway watchdog (emergency f_min
                           throttle; implied by --faults)

campaign:
  --compare A,B,...        race the named schedulers over the workload on
                           the parallel campaign engine; prints a markdown
                           table (record order is deterministic at any
                           --jobs value)
  --jobs N                 campaign worker threads (default 1; 0 = one per
                           hardware thread)
  --pin POLICY             worker CPU pinning: auto | none | compact | spread
                           (default auto: no pinning on single-node hosts,
                           compact while one NUMA node holds every worker,
                           spread beyond; HOTPOTATO_PIN overrides)
  --numa on|off            node-local worker arenas + per-node read-only
                           solver-bundle replicas (default on; placement
                           never changes results, only memory locality;
                           HOTPOTATO_NUMA overrides)
  --csv PATH               write the record table as CSV (atomic: tmp+rename)
  --json PATH              write records + summary as JSON (atomic)

resilience (campaign mode, DESIGN.md §10):
  --journal PATH           append-only run journal: one fsync'd, checksummed
                           record per completed run (crash-safe checkpoint)
  --resume PATH            resume from an existing journal: journaled runs
                           are restored, only the missing ones execute, and
                           the merged records are bit-identical to an
                           uninterrupted campaign at any --jobs
  --run-timeout S          per-run wall-clock deadline; a run past it is
                           cancelled and recorded failed ("timeout") while
                           the pool keeps draining (default: off)
  --max-retries N          retries for transient failures (default 0)
  --retry-backoff S        base backoff before the first retry; doubles per
                           attempt with deterministic jitter (default 0.05)

server mode (hotpotato_sim serve ..., DESIGN.md §13):
  serve                    run the thermal-advice daemon instead of a
                           simulation; framed requests over a Unix-domain
                           socket are answered by a fixed worker pool
                           (protocol: README appendix)
  --socket PATH            listening AF_UNIX socket path (required)
  --server-threads N       worker-thread pool size      (default 4)
  --server-configs A,B     chip-config tags served      (default
                           paper_64core; see StudySetup::known_names())
  --server-cache N         shared prediction-cache entries per config
                           (default 4096; 0 disables)
  (--solver, --solver-tol, --t-dtm, --ambient, --pin, --numa and
   --metrics apply to the daemon; SIGINT/SIGTERM drain and stop it)

exit codes:
  0  all runs completed and finished
  1  some runs failed, timed out, or did not finish
  2  bad flags / invalid configuration / unexpected error
  3  --resume journal corrupt or written for a different campaign

  --help                   this text
)";
}

namespace {

double parse_double(const std::string& flag, const std::string& value) {
    if (const auto v = textio::parse_f64(value)) return *v;
    throw std::invalid_argument("bad value for " + flag + ": " + value);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value) {
    if (const auto v = textio::parse_u64(value)) return *v;
    throw std::invalid_argument("bad value for " + flag + ": " + value);
}

/// Splits a comma-separated list, keeping empty entries so validation can
/// flag them.
std::vector<std::string> split_names(const std::string& list) {
    const auto names = textio::split(list, ',');
    return std::vector<std::string>(names.begin(), names.end());
}

}  // namespace

CliOptions parse(const std::vector<std::string>& args) {
    CliOptions o;
    std::size_t first = 0;
    if (!args.empty() && args[0] == "serve") {
        o.serve = true;
        first = 1;
    }
    for (std::size_t i = first; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (flag == "--help" || flag == "-h") {
            o.help = true;
            continue;
        }
        if (flag == "--noc-contention") {
            o.noc_contention = true;
            continue;
        }
        if (flag == "--sensors") {
            o.sensors = true;
            continue;
        }
        if (flag == "--power-gating") {
            o.power_gating = true;
            continue;
        }
        if (flag == "--watchdog") {
            o.watchdog = true;
            continue;
        }
        if (flag == "--metrics") {
            o.metrics = true;
            continue;
        }
        if (flag == "--no-peak-cache") {
            o.no_peak_cache = true;
            continue;
        }
        const auto value = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                throw std::invalid_argument(flag + " needs a value");
            return args[++i];
        };
        if (flag == "--rows") o.rows = parse_uint(flag, value());
        else if (flag == "--cols") o.cols = parse_uint(flag, value());
        else if (flag == "--layers") o.layers = parse_uint(flag, value());
        else if (flag == "--solver") o.solver = value();
        else if (flag == "--solver-tol")
            o.solver_tol_c = parse_double(flag, value());
        else if (flag == "--scheduler") o.scheduler = value();
        else if (flag == "--profiles-file") o.profiles_file = value();
        else if (flag == "--tasks-file") o.tasks_file = value();
        else if (flag == "--benchmark") o.benchmark = value();
        else if (flag == "--tasks") o.tasks = parse_uint(flag, value());
        else if (flag == "--rate") o.arrivals_per_s = parse_double(flag, value());
        else if (flag == "--min-threads") o.min_threads = parse_uint(flag, value());
        else if (flag == "--max-threads") o.max_threads = parse_uint(flag, value());
        else if (flag == "--seed") o.seed = parse_uint(flag, value());
        else if (flag == "--t-dtm") o.t_dtm_c = parse_double(flag, value());
        else if (flag == "--ambient") o.ambient_c = parse_double(flag, value());
        else if (flag == "--max-time") o.max_time_s = parse_double(flag, value());
        else if (flag == "--trace") o.trace_file = value();
        else if (flag == "--trace-interval")
            o.trace_interval_s = parse_double(flag, value());
        else if (flag == "--events") o.events_file = value();
        else if (flag == "--chrome-trace") o.chrome_trace_file = value();
        else if (flag == "--faults") o.faults_file = value();
        else if (flag == "--fault-seed") o.fault_seed = parse_uint(flag, value());
        else if (flag == "--compare") o.compare = value();
        else if (flag == "--jobs") o.jobs = parse_uint(flag, value());
        else if (flag == "--pin") o.pin = value();
        else if (flag == "--numa") {
            const std::string& v = value();
            if (v == "on" || v == "1") o.numa = true;
            else if (v == "off" || v == "0") o.numa = false;
            else throw std::invalid_argument("bad value for --numa: " + v +
                                             " (want on|off)");
        }
        else if (flag == "--socket") o.socket_path = value();
        else if (flag == "--server-threads")
            o.server_threads = parse_uint(flag, value());
        else if (flag == "--server-configs") o.server_configs = value();
        else if (flag == "--server-cache")
            o.server_cache = parse_uint(flag, value());
        else if (flag == "--csv") o.csv_file = value();
        else if (flag == "--json") o.json_file = value();
        else if (flag == "--journal") o.journal_file = value();
        else if (flag == "--resume") o.resume_file = value();
        else if (flag == "--run-timeout")
            o.run_timeout_s = parse_double(flag, value());
        else if (flag == "--max-retries")
            o.max_retries = parse_uint(flag, value());
        else if (flag == "--retry-backoff")
            o.retry_backoff_s = parse_double(flag, value());
        else
            throw std::invalid_argument("unknown flag: " + flag);
    }

    // Semantic validation: collect every violation before throwing so the
    // user can fix a bad invocation in one pass.
    std::vector<std::string> violations;
    if (o.rows == 0 || o.cols == 0 || o.layers == 0)
        violations.push_back("machine dimensions must be positive");
    try {
        (void)thermal::parse_solver_backend(o.solver);
    } catch (const std::invalid_argument& e) {
        violations.push_back(std::string("--solver: ") + e.what());
    }
    if (o.solver_tol_c <= 0.0)
        violations.push_back("--solver-tol must be positive");
    if (!o.tasks_file.empty() && !o.benchmark.empty())
        violations.push_back(
            "--tasks-file and --benchmark are mutually exclusive");
    if (o.min_threads < 2 || o.max_threads < o.min_threads)
        violations.push_back(
            "bad thread-count range: need 2 <= --min-threads <= "
            "--max-threads");
    if (o.t_dtm_c <= o.ambient_c)
        violations.push_back("--t-dtm must exceed --ambient");
    if (o.max_time_s <= 0.0)
        violations.push_back("--max-time must be positive");
    if (o.arrivals_per_s <= 0.0)
        violations.push_back("--rate must be positive");
    if (o.trace_interval_s <= 0.0)
        violations.push_back("--trace-interval must be positive");
    if (o.run_timeout_s < 0.0)
        violations.push_back("--run-timeout must be >= 0");
    if (o.retry_backoff_s <= 0.0)
        violations.push_back("--retry-backoff must be positive");
    if (!exec::parse_pin_policy(o.pin))
        violations.push_back("--pin: unknown policy: " + o.pin +
                             " (want auto|none|compact|spread)");
    if (!o.journal_file.empty() && !o.resume_file.empty())
        violations.push_back(
            "--journal and --resume are mutually exclusive (--resume keeps "
            "appending to the journal it resumes from)");
    if (o.compare.empty()) {
        const struct {
            bool set;
            const char* flag;
        } campaign_only[] = {
            {!o.journal_file.empty(), "--journal"},
            {!o.resume_file.empty(), "--resume"},
            {o.run_timeout_s > 0.0, "--run-timeout"},
            {o.max_retries > 0, "--max-retries"},
            {!o.csv_file.empty(), "--csv"},
            {!o.json_file.empty(), "--json"},
            {o.pin != "auto" && !o.serve, "--pin"},
            {!o.numa && !o.serve, "--numa off"},
        };
        for (const auto& c : campaign_only)
            if (c.set)
                violations.push_back(std::string(c.flag) +
                                     " requires --compare (campaign mode)");
    }
    if (o.serve) {
        if (o.socket_path.empty())
            violations.push_back("serve requires --socket PATH");
        if (o.server_threads == 0)
            violations.push_back("--server-threads must be positive");
        if (!o.compare.empty())
            violations.push_back("--compare is not supported in serve mode");
        const std::vector<std::string>& known =
            campaign::StudySetup::known_names();
        for (const std::string& name : split_names(o.server_configs)) {
            if (name.empty()) {
                violations.push_back("--server-configs has an empty tag");
                continue;
            }
            if (std::find(known.begin(), known.end(), name) == known.end())
                violations.push_back("--server-configs: unknown config: " +
                                     name);
        }
    } else {
        const struct {
            bool set;
            const char* flag;
        } server_only[] = {
            {!o.socket_path.empty(), "--socket"},
            {o.server_threads != 4, "--server-threads"},
            {o.server_configs != "paper_64core", "--server-configs"},
            {o.server_cache != 4096, "--server-cache"},
        };
        for (const auto& c : server_only)
            if (c.set)
                violations.push_back(std::string(c.flag) +
                                     " requires serve mode");
    }
    if (!o.compare.empty()) {
        if (!o.trace_file.empty())
            violations.push_back(
                "--trace is not supported with --compare (per-run traces "
                "would overwrite each other)");
        if (!o.events_file.empty() || !o.chrome_trace_file.empty())
            violations.push_back(
                "--events/--chrome-trace are not supported with --compare "
                "(per-run traces would overwrite each other; use --metrics "
                "for the campaign roll-up)");
        for (const std::string& name : split_names(o.compare)) {
            if (name.empty()) {
                violations.push_back(
                    "--compare has an empty scheduler name");
                continue;
            }
            try {
                make_scheduler(name);
            } catch (const std::invalid_argument&) {
                violations.push_back("--compare: unknown scheduler: " + name);
            }
        }
    }
    if (!violations.empty()) {
        std::string message = "invalid options:";
        for (const std::string& v : violations) message += "\n  - " + v;
        throw std::invalid_argument(message);
    }
    return o;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name,
                                               bool use_peak_cache) {
    if (name == "hotpotato") {
        core::HotPotatoParams params;
        params.use_peak_cache = use_peak_cache;
        return std::make_unique<core::HotPotatoScheduler>(params);
    }
    if (name == "hotpotato-dvfs") {
        core::HotPotatoParams params;
        params.use_peak_cache = use_peak_cache;
        return std::make_unique<core::HotPotatoDvfsScheduler>(params);
    }
    if (name == "pcmig") return std::make_unique<sched::PcMigScheduler>();
    if (name == "pcgov") return std::make_unique<sched::PcGovScheduler>();
    if (name == "tsp-dvfs") return std::make_unique<sched::TspDvfsScheduler>();
    if (name == "static") return std::make_unique<sched::StaticScheduler>();
    if (name == "reactive")
        return std::make_unique<sched::ReactiveMigrationScheduler>();
    if (name == "global-rotation")
        return std::make_unique<sched::GlobalRotationScheduler>();
    throw std::invalid_argument("unknown scheduler: " + name);
}

namespace {

/// The task list described by the workload options. @p extra_profiles must
/// outlive the returned specs (they may point into it).
std::vector<workload::TaskSpec> build_workload(
    const CliOptions& options, const arch::ManyCore& chip,
    const std::vector<workload::BenchmarkProfile>& extra_profiles) {
    if (!options.tasks_file.empty())
        return workload::read_tasks_file(options.tasks_file, extra_profiles);
    if (!options.benchmark.empty()) {
        const workload::BenchmarkProfile* profile = nullptr;
        for (const auto& p : extra_profiles)
            if (p.name == options.benchmark) profile = &p;
        if (profile == nullptr)
            profile = &workload::profile_by_name(options.benchmark);
        return workload::homogeneous_fill(*profile, chip.core_count(),
                                          options.seed);
    }
    return workload::poisson_mix(options.tasks, options.arrivals_per_s,
                                 options.min_threads, options.max_threads,
                                 options.seed);
}

/// A one-line label for the workload the options describe.
std::string workload_label(const CliOptions& options) {
    if (!options.tasks_file.empty()) return options.tasks_file;
    if (!options.benchmark.empty()) return "full-" + options.benchmark;
    return "poisson-" + std::to_string(options.tasks) + "x" +
           std::to_string(static_cast<long long>(options.arrivals_per_s));
}

/// Campaign mode: every --compare scheduler over the one configured
/// workload, sharded over --jobs workers.
int run_comparison(const CliOptions& options,
                   campaign::StudySetup setup, sim::SimConfig config,
                   power::PowerParams power_params,
                   std::vector<workload::TaskSpec> tasks, std::ostream& out) {
    campaign::RunSetup base;
    base.sim = std::move(config);
    base.power = power_params;
    campaign::CampaignSpec spec(std::move(setup), std::move(base));
    const bool use_peak_cache = !options.no_peak_cache;
    for (const std::string& name : split_names(options.compare))
        spec.add_scheduler(name, [name, use_peak_cache] {
            return make_scheduler(name, use_peak_cache);
        });
    spec.add_workload(workload_label(options), std::move(tasks));

    campaign::CampaignOptions campaign_options;
    campaign_options.jobs = options.jobs;
    campaign_options.observe = options.metrics;
    campaign_options.journal_path = options.journal_file;
    campaign_options.resume_path = options.resume_file;
    campaign_options.run_timeout_s = options.run_timeout_s;
    campaign_options.retry.max_retries = options.max_retries;
    campaign_options.retry.backoff_base_s = options.retry_backoff_s;
    campaign_options.exec.pin = *exec::parse_pin_policy(options.pin);
    campaign_options.exec.numa = options.numa;
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, campaign_options);

    if (!options.csv_file.empty())
        campaign::write_csv_file(options.csv_file, result.records);
    if (!options.json_file.empty())
        campaign::write_json_file(options.json_file, result.records,
                                  result.summary);

    out << campaign::to_markdown(result.records);
    out << "\n" << campaign::summary_markdown(result.summary);
    const std::string failures = report::render_failures(result.summary);
    if (!failures.empty()) out << failures;
    if (options.metrics) {
        const std::string metrics = campaign::metrics_markdown(result.records);
        if (!metrics.empty()) out << "\n" << metrics;
    }
    bool ok = true;
    for (const campaign::RunRecord& r : result.records)
        ok = ok && !r.failed && r.result.all_finished;
    return ok ? kExitOk : kExitRunFailure;
}

/// SIGINT/SIGTERM latch for server mode. The handler only stores the signal
/// number (async-signal-safe); the serve loop polls it and runs the graceful
/// AdviceServer::stop() from normal context.
std::atomic<int> g_stop_signal{0};

void handle_stop_signal(int sig) {
    g_stop_signal.store(sig, std::memory_order_relaxed);
}

/// Server mode: bring the advice daemon up and block until a stop signal
/// arrives, then drain in-flight requests and report totals.
int run_server(const CliOptions& options, std::ostream& out) {
    server::ServerConfig config;
    config.socket_path = options.socket_path;
    config.threads = options.server_threads;
    config.configs = split_names(options.server_configs);
    config.solver.backend = thermal::parse_solver_backend(options.solver);
    config.solver.tolerance_c = options.solver_tol_c;
    config.exec.pin = *exec::parse_pin_policy(options.pin);
    config.exec.numa = options.numa;
    config.defaults.t_dtm_c = options.t_dtm_c;
    config.defaults.ambient_c = options.ambient_c;
    config.cache_entries = options.server_cache;

    server::AdviceServer server(std::move(config));
    out << "advice server listening on " << server.socket_path() << " ("
        << options.server_threads << " threads, configs "
        << options.server_configs << ")\n"
        << std::flush;

    g_stop_signal.store(0, std::memory_order_relaxed);
    struct sigaction action {};
    struct sigaction old_int {};
    struct sigaction old_term {};
    action.sa_handler = handle_stop_signal;
    sigaction(SIGINT, &action, &old_int);
    sigaction(SIGTERM, &action, &old_term);
    while (g_stop_signal.load(std::memory_order_relaxed) == 0 &&
           server.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);

    server.stop();
    out << "advice server stopped after " << server.requests_served()
        << " requests\n";
    if (options.metrics)
        out << "\nmetrics:\n" << obs::metrics_markdown(server.metrics());
    return kExitOk;
}

}  // namespace

int run(const CliOptions& options, std::ostream& out) {
    if (options.serve) return run_server(options, out);
    arch::SnucaParams params;
    params.layers = options.layers;
    thermal::SolverConfig solver_config;
    solver_config.backend = thermal::parse_solver_backend(options.solver);
    solver_config.tolerance_c = options.solver_tol_c;
    const campaign::StudySetup setup = campaign::StudySetup::custom(
        arch::ManyCore(options.rows, options.cols, params), {}, solver_config);
    const arch::ManyCore& chip = setup.chip();

    sim::SimConfig config;
    config.t_dtm_c = options.t_dtm_c;
    config.ambient_c = options.ambient_c;
    config.max_sim_time_s = options.max_time_s;
    config.model_noc_contention = options.noc_contention;
    config.dtm_uses_sensors = options.sensors;
    if (!options.trace_file.empty())
        config.trace_interval_s = options.trace_interval_s;
    config.thermal_watchdog = options.watchdog;
    if (!options.faults_file.empty()) {
        config.fault_schedule =
            fault::read_fault_schedule_file(options.faults_file);
        config.fault_seed = options.fault_seed;
    }
    power::PowerParams power_params;
    power_params.power_gating = options.power_gating;

    std::vector<workload::BenchmarkProfile> extra_profiles;
    if (!options.profiles_file.empty())
        extra_profiles = workload::read_profiles_file(options.profiles_file);
    std::vector<workload::TaskSpec> tasks =
        build_workload(options, chip, extra_profiles);

    if (!options.compare.empty())
        return run_comparison(options, setup, std::move(config), power_params,
                              std::move(tasks), out);

    const bool observe = options.metrics || !options.events_file.empty() ||
                         !options.chrome_trace_file.empty();
    std::optional<obs::Recorder> recorder;
    if (observe) recorder.emplace();

    sim::Simulator simulator = setup.make_simulator(
        config, power_params, {}, nullptr, recorder ? &*recorder : nullptr);
    simulator.add_tasks(tasks);

    std::unique_ptr<sim::Scheduler> scheduler =
        make_scheduler(options.scheduler, !options.no_peak_cache);
    const sim::SimResult result = simulator.run(*scheduler);
    if (!options.trace_file.empty())
        sim::write_trace_csv(options.trace_file, result.trace);

    if (recorder) {
        // Rendered in memory, published atomically: a crash mid-export
        // leaves the previous complete file (or none), never a torn one.
        const std::vector<obs::Event> events = recorder->events();
        if (!options.events_file.empty()) {
            std::ostringstream buffer;
            obs::write_events_csv(buffer, events);
            campaign::write_file_atomic(options.events_file, buffer.str());
        }
        if (!options.chrome_trace_file.empty()) {
            std::ostringstream buffer;
            obs::write_chrome_trace(buffer, events,
                                    "hotpotato_sim " + options.scheduler);
            campaign::write_file_atomic(options.chrome_trace_file,
                                        buffer.str());
        }
    }

    out << "machine            : " << options.rows << "x" << options.cols
        << (options.layers > 1 ? " x" + std::to_string(options.layers) + " layers"
                               : "")
        << " (" << chip.core_count() << " cores, " << chip.rings().size()
        << " AMD rings)\n";
    out << "thermal solver     : " << setup.solver().backend_name() << " ("
        << setup.solver().mode_count() << "/" << setup.model().node_count()
        << " modes";
    if (setup.solver().truncated())
        out << ", error bound " << setup.solver().error_bound_c() << " K";
    out << ")\n";
    out << "scheduler          : " << scheduler->name() << "\n";
    out << "tasks finished     : " << result.tasks.size() << "/"
        << (result.all_finished ? result.tasks.size() : std::size_t(-1))
        << (result.all_finished ? "" : " (INCOMPLETE)") << "\n";
    out << "makespan           : " << result.makespan_s * 1e3 << " ms\n";
    out << "avg response time  : " << result.average_response_time_s() * 1e3
        << " ms\n";
    out << "peak temperature   : " << result.peak_temperature_c << " C (limit "
        << options.t_dtm_c << " C)\n";
    out << "DTM triggers       : " << result.dtm_triggers << " ("
        << result.dtm_throttled_s * 1e3 << " ms throttled)\n";
    out << "migrations         : " << result.migrations << "\n";
    out << "energy             : " << result.total_energy_j << " J (avg "
        << result.average_power_w() << " W)\n";
    out << report::render_resilience(result.resilience);
    if (!result.resilience.fault_log.empty()) out << "fault log:\n";
    report::write_fault_log(out, result.resilience);
    if (!options.trace_file.empty())
        out << "trace              : " << options.trace_file << "\n";
    if (!options.events_file.empty())
        out << "events             : " << options.events_file << "\n";
    if (!options.chrome_trace_file.empty())
        out << "chrome trace       : " << options.chrome_trace_file << "\n";
    if (options.metrics && recorder) {
        out << "\nmetrics:\n" << obs::metrics_markdown(recorder->snapshot());
    }
    return result.all_finished ? kExitOk : kExitRunFailure;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
    try {
        const CliOptions options = parse(args);
        if (options.help) {
            out << usage();
            return kExitOk;
        }
        return run(options, out);
    } catch (const campaign::JournalError& e) {
        err << "error: " << e.what() << "\n";
        return kExitJournalError;
    } catch (const std::invalid_argument& e) {
        err << "error: " << e.what() << "\n\n" << usage();
        return kExitConfigError;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return kExitConfigError;
    }
}

}  // namespace hp::cli

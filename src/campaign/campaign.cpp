#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__has_include)
#if __has_include(<cxxabi.h>)
#include <cxxabi.h>
#define HP_CAMPAIGN_HAVE_CXXABI 1
#endif
#endif

#include "campaign/atomic_file.hpp"
#include "campaign/journal.hpp"
#include "sim/cancellation.hpp"

namespace hp::campaign {

std::string to_string(const RunKey& key) {
    return key.workload + "/" + key.scheduler + "/" + key.config + "/" +
           std::to_string(key.seed);
}

const char* to_string(FailureClass cls) {
    switch (cls) {
        case FailureClass::kNone: return "none";
        case FailureClass::kTransient: return "transient";
        case FailureClass::kTimeout: return "timeout";
        case FailureClass::kNumericalDivergence: return "numerical_divergence";
        case FailureClass::kInvalidConfig: return "invalid_config";
        case FailureClass::kUnknown: return "unknown";
    }
    return "unknown";
}

// --- CampaignSpec ----------------------------------------------------------

CampaignSpec::CampaignSpec(StudySetup setup, RunSetup base)
    : setup_(std::move(setup)), base_(std::move(base)) {}

CampaignSpec::CampaignSpec(StudySetup setup, sim::SimConfig base)
    : setup_(std::move(setup)) {
    base_.sim = std::move(base);
}

CampaignSpec& CampaignSpec::add_scheduler(std::string label,
                                          SchedulerFactory factory) {
    if (!factory)
        throw std::invalid_argument("CampaignSpec: null scheduler factory");
    schedulers_.push_back({std::move(label), std::move(factory)});
    return *this;
}

CampaignSpec& CampaignSpec::add_workload(
    std::string label, std::vector<workload::TaskSpec> tasks) {
    workloads_.push_back(
        {std::move(label),
         [tasks = std::move(tasks)](std::uint64_t) { return tasks; }});
    return *this;
}

CampaignSpec& CampaignSpec::add_workload(std::string label,
                                         WorkloadFactory factory) {
    if (!factory)
        throw std::invalid_argument("CampaignSpec: null workload factory");
    workloads_.push_back({std::move(label), std::move(factory)});
    return *this;
}

CampaignSpec& CampaignSpec::add_config(std::string label,
                                       ConfigOverride patch) {
    configs_.push_back({std::move(label), std::move(patch)});
    return *this;
}

CampaignSpec& CampaignSpec::add_seed(std::uint64_t seed) {
    seeds_.push_back(seed);
    return *this;
}

std::size_t CampaignSpec::run_count() const {
    return schedulers_.size() * workloads_.size() *
           std::max<std::size_t>(configs_.size(), 1) *
           std::max<std::size_t>(seeds_.size(), 1);
}

std::vector<RunKey> CampaignSpec::keys() const {
    const std::vector<std::uint64_t> seeds =
        seeds_.empty() ? std::vector<std::uint64_t>{base_.sim.fault_seed}
                       : seeds_;
    std::vector<RunKey> keys;
    keys.reserve(run_count());
    for (const auto& workload : workloads_)
        for (const auto& scheduler : schedulers_)
            for (std::size_t c = 0;
                 c < std::max<std::size_t>(configs_.size(), 1); ++c)
                for (std::uint64_t seed : seeds) {
                    RunKey key;
                    key.index = keys.size();
                    key.workload = workload.label;
                    key.scheduler = scheduler.label;
                    key.config = configs_.empty() ? "base" : configs_[c].label;
                    key.seed = seed;
                    keys.push_back(std::move(key));
                }
    return keys;
}

const CampaignSpec::Named<ConfigOverride>* CampaignSpec::find_config(
    const std::string& label) const {
    for (const auto& c : configs_)
        if (c.label == label) return &c;
    return nullptr;
}

RunSetup CampaignSpec::setup_for(const RunKey& key) const {
    RunSetup setup = base_;
    if (const auto* config = find_config(key.config); config && config->value)
        config->value(setup);
    else if (!configs_.empty() && !find_config(key.config))
        throw std::invalid_argument("CampaignSpec: unknown config label: " +
                                    key.config);
    setup.sim.fault_seed = key.seed;
    return setup;
}

std::vector<workload::TaskSpec> CampaignSpec::tasks_for(
    const RunKey& key) const {
    for (const auto& w : workloads_)
        if (w.label == key.workload) return w.value(key.seed);
    throw std::invalid_argument("CampaignSpec: unknown workload label: " +
                                key.workload);
}

std::unique_ptr<sim::Scheduler> CampaignSpec::make_scheduler(
    const RunKey& key) const {
    for (const auto& s : schedulers_)
        if (s.label == key.scheduler) return s.value();
    throw std::invalid_argument("CampaignSpec: unknown scheduler label: " +
                                key.scheduler);
}

// --- engine ----------------------------------------------------------------

namespace {

/// Demangled dynamic type of the in-flight exception — callable only from
/// inside a catch block. Gives `catch (...)` a diagnosable message instead
/// of the former constant "unknown exception".
std::string current_exception_type_name() {
#ifdef HP_CAMPAIGN_HAVE_CXXABI
    if (const std::type_info* type = abi::__cxa_current_exception_type()) {
        int status = 0;
        char* demangled =
            abi::__cxa_demangle(type->name(), nullptr, nullptr, &status);
        std::string name =
            (status == 0 && demangled) ? demangled : type->name();
        std::free(demangled);
        return name;
    }
#endif
    return "unknown type";
}

/// Maps the in-flight exception onto the failure taxonomy (DESIGN.md §10).
/// Must run inside a catch block; re-throws @p ep to dispatch on its dynamic
/// type. Order matters: the specific classes derive from the generic ones.
void classify_failure(const std::exception_ptr& ep, RunRecord& record) {
    record.failed = true;
    try {
        std::rethrow_exception(ep);
    } catch (const TransientError& e) {
        record.failure_class = FailureClass::kTransient;
        record.error = e.what();
    } catch (const sim::CancelledError& e) {
        record.failure_class = e.reason() == sim::CancelReason::kDeadline
                                   ? FailureClass::kTimeout
                                   : FailureClass::kUnknown;
        record.error = e.what();
    } catch (const sim::ThermalDivergenceError& e) {
        record.failure_class = FailureClass::kNumericalDivergence;
        record.error = e.what();
    } catch (const std::invalid_argument& e) {
        record.failure_class = FailureClass::kInvalidConfig;
        record.error = e.what();
    } catch (const std::exception& e) {
        record.failure_class = FailureClass::kUnknown;
        record.error = e.what();
    } catch (...) {
        record.failure_class = FailureClass::kUnknown;
        record.error = "unhandled exception of type " +
                       current_exception_type_name();
    }
}

/// One attempt of one run, all exceptions captured and classified into the
/// record. @p study is the solver bundle to run against — the spec's own
/// setup, or the calling worker's node-local replica (bit-identical by the
/// clone_rebound contract); @p workspace is the calling worker's thermal
/// scratch, reused across its runs; @p scratch (may be null) is the worker's
/// long-lived scratch bag for scheduler workspaces; @p recorder (may be
/// null) is this attempt's private observability sink; @p cancel (may be
/// null) is this attempt's watchdog token, polled by the simulator's
/// micro-step loop.
RunRecord execute(const CampaignSpec& spec, const StudySetup& study,
                  RunKey key, thermal::ThermalWorkspace& workspace,
                  exec::WorkerScratch* scratch, obs::Recorder* recorder,
                  const sim::CancellationToken* cancel) {
    RunRecord record;
    record.key = std::move(key);
    const auto start = std::chrono::steady_clock::now();
    try {
        const RunSetup setup = spec.setup_for(record.key);
        sim::Simulator simulator = study.make_simulator(
            setup.sim, setup.power, setup.perf, &workspace, recorder, cancel,
            scratch);
        simulator.add_tasks(spec.tasks_for(record.key));
        const std::unique_ptr<sim::Scheduler> scheduler =
            spec.make_scheduler(record.key);
        record.result = simulator.run(*scheduler);
    } catch (...) {
        record.result = sim::SimResult{};
        classify_failure(std::current_exception(), record);
    }
    // Failed runs keep their observability too: a timeout's kCancelled event
    // and a divergence's kDivergence event are the failure forensics.
    if (recorder) {
        record.metrics = recorder->snapshot();
        record.events = recorder->events();
    }
    record.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return record;
}

std::size_t resolve_jobs(std::size_t requested, std::size_t runs) {
    std::size_t jobs = requested;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0) jobs = 1;
    }
    return std::max<std::size_t>(1, std::min(jobs, runs));
}

/// Backoff before retry @p attempt (1-based) of @p key: exponential in the
/// attempt, capped, scaled by a deterministic per-(key, attempt) jitter in
/// [1 - jitter_frac/2, 1 + jitter_frac/2]. Same key, same attempt -> same
/// backoff, at any worker count.
double backoff_for(const RetryPolicy& policy, const RunKey& key,
                   std::size_t attempt) {
    double base = policy.backoff_base_s;
    for (std::size_t i = 1; i < attempt; ++i) {
        base *= 2.0;
        if (base >= policy.backoff_cap_s) break;
    }
    base = std::min(base, policy.backoff_cap_s);
    const std::uint64_t hash =
        fnv1a64(to_string(key) + "#" + std::to_string(attempt));
    const double unit = static_cast<double>(hash % 10001) / 10000.0;
    return base * (1.0 + policy.jitter_frac * (unit - 0.5));
}

/// Per-run deadline watchdog. One slot per worker: the worker arms its slot
/// with a fresh stack token before each attempt and disarms afterwards; a
/// monitor thread polls the slots and requests cooperative cancellation on
/// any armed token past its deadline. Each slot has its own mutex, so a
/// disarm can never race the monitor into cancelling the worker's *next*
/// run with a stale deadline.
class DeadlineMonitor {
public:
    DeadlineMonitor(std::size_t workers, double timeout_s)
        : slots_(workers), timeout_s_(timeout_s) {
        if (enabled() && workers > 0)
            thread_ = std::thread([this] { loop(); });
    }

    DeadlineMonitor(const DeadlineMonitor&) = delete;
    DeadlineMonitor& operator=(const DeadlineMonitor&) = delete;

    ~DeadlineMonitor() {
        if (!thread_.joinable()) return;
        {
            const std::lock_guard<std::mutex> lock(wake_mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    bool enabled() const { return timeout_s_ > 0.0; }

    void arm(std::size_t worker, sim::CancellationToken* token) {
        if (!enabled()) return;
        Slot& slot = slots_[worker];
        const std::lock_guard<std::mutex> lock(slot.mutex);
        slot.token = token;
        slot.deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s_));
    }

    void disarm(std::size_t worker) {
        if (!enabled()) return;
        Slot& slot = slots_[worker];
        const std::lock_guard<std::mutex> lock(slot.mutex);
        slot.token = nullptr;
    }

private:
    struct Slot {
        std::mutex mutex;
        sim::CancellationToken* token = nullptr;
        std::chrono::steady_clock::time_point deadline{};
    };

    void loop() {
        // Poll well inside the deadline so reap latency stays a fraction of
        // the timeout, but never busier than 1 kHz.
        const auto poll = std::chrono::duration<double>(
            std::clamp(timeout_s_ / 8.0, 1e-3, 5e-2));
        std::unique_lock<std::mutex> lock(wake_mutex_);
        while (!stop_) {
            wake_.wait_for(lock, poll, [this] { return stop_; });
            if (stop_) return;
            const auto now = std::chrono::steady_clock::now();
            for (Slot& slot : slots_) {
                const std::lock_guard<std::mutex> slot_lock(slot.mutex);
                if (slot.token && now >= slot.deadline)
                    slot.token->request(sim::CancelReason::kDeadline);
            }
        }
    }

    std::vector<Slot> slots_;
    double timeout_s_;
    std::thread thread_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
    if (spec.scheduler_count() == 0)
        throw std::invalid_argument("run_campaign: spec has no schedulers");
    if (spec.workload_count() == 0)
        throw std::invalid_argument("run_campaign: spec has no workloads");

    const std::vector<RunKey> keys = spec.keys();
    const std::size_t total = keys.size();

    CampaignResult out;
    out.records.resize(total);
    const auto campaign_start = std::chrono::steady_clock::now();

    // Checkpoint/resume: restore journaled records first (they are never
    // re-run), then open the journal for the runs still missing.
    std::optional<RunJournal> journal;
    std::vector<char> restored(total, 0);
    if (!options.resume_path.empty()) {
        JournalContents contents = read_journal(options.resume_path);
        if (contents.grid_hash != grid_signature(spec) ||
            contents.total_runs != total)
            throw JournalError(
                "run_campaign: resume journal was written for a different "
                "campaign spec: " + options.resume_path);
        for (RunRecord& r : contents.records) {
            const std::size_t idx = r.key.index;
            if (idx >= total || !(r.key == keys[idx]))
                throw JournalError(
                    "run_campaign: journaled record does not match the grid "
                    "at index " + std::to_string(r.key.index));
            out.records[idx] = std::move(r);  // duplicate index: last wins
            restored[idx] = 1;
        }
        journal.emplace(RunJournal::append_to(options.resume_path, spec));
    } else if (!options.journal_path.empty()) {
        journal.emplace(RunJournal::create(options.journal_path, spec));
    }

    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t i = 0; i < total; ++i)
        if (!restored[i]) pending.push_back(i);
    const std::size_t resumed = total - pending.size();
    const std::size_t jobs = resolve_jobs(options.jobs, pending.size());

    // Execution placement (DESIGN.md §12). The policy resolves against the
    // host topology (or the injected test topology); plan_pinning is pure,
    // so the placement is deterministic for a given (topology, jobs, pin).
    // None of this may change record values — only where workers run and
    // where their scratch lives.
    exec::ExecPolicy policy = options.exec;
    policy.apply_env_overrides();
    const exec::Topology topology = policy.resolve_topology();
    const std::vector<exec::WorkerPlacement> placements =
        exec::plan_pinning(topology, jobs, policy.pin);

    // Read-only StudySetup bundles replicated once per NUMA node
    // (copy-on-first-use: the first pinned worker on a node pays one deep
    // copy — tables only, never an eigensolve — and first-touch lands the
    // pages node-local; later workers on the node share it). Replication is
    // pointless without pinning: an unpinned worker has no stable node.
    int max_node = -1;
    for (const exec::WorkerPlacement& p : placements)
        max_node = std::max(max_node, p.node);
    const bool replicate_bundles =
        policy.numa && topology.multi_node() && max_node >= 0;
    struct NodeReplica {
        std::once_flag once;
        std::optional<StudySetup> setup;
    };
    std::vector<NodeReplica> replicas(
        replicate_bundles ? static_cast<std::size_t>(max_node) + 1 : 0);

    // Per-worker placement outcomes, harvested into gauges after the join.
    struct WorkerStats {
        int node = -1;
        bool pinned = false;
        std::size_t arena_reserved = 0;
        std::size_t arena_high_water = 0;
    };
    std::vector<WorkerStats> worker_stats(jobs);

    // Fixed-size pool sharding the pending list through an atomic cursor.
    // Results land at their key's index, so record order is the spec's
    // deterministic enumeration regardless of completion order or how many
    // runs a resume restored.
    DeadlineMonitor monitor(pending.empty() ? 0 : jobs,
                            options.run_timeout_s);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::mutex io_mutex;  ///< serializes journal appends + progress calls
    const auto worker = [&](std::size_t worker_id) {
        // Shared-nothing worker context: pin to the planned CPU (best
        // effort), then carve every long-lived scratch object from an arena
        // bound to the worker's node. Runs are sequential within a worker,
        // so sharing its scratch across them is safe and keeps every run's
        // hot loop allocation-free after the first.
        const exec::WorkerPlacement place = placements[worker_id];
        WorkerStats& stats = worker_stats[worker_id];
        stats.node = place.node;
        if (place.cpu >= 0) stats.pinned = exec::pin_current_thread(place.cpu);
        exec::Arena arena(policy.arena_block_bytes,
                          policy.numa ? place.node : -1);
        exec::ArenaResource arena_mr(arena);
        exec::WorkerScratch scratch(&arena_mr);
        thermal::ThermalWorkspace workspace(&arena_mr);
        const StudySetup* study = &spec.setup();
        if (replicate_bundles && place.node >= 0) {
            NodeReplica& replica = replicas[static_cast<std::size_t>(
                place.node)];
            std::call_once(replica.once, [&] {
                replica.setup.emplace(spec.setup().replicate());
            });
            study = &*replica.setup;
            // Rebinding to the replica's solver: drop any memoised e^{λ·dt}
            // ladders keyed on another solver's eigenvalue storage, whose
            // freed address the replica may alias (O(1), empty on a fresh
            // workspace).
            workspace.invalidate_exp_tables();
        }
        const auto harvest = [&] {
            stats.arena_reserved = arena.bytes_reserved();
            stats.arena_high_water = arena.high_water();
        };
        for (;;) {
            const std::size_t p =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (p >= pending.size()) {
                harvest();
                return;
            }
            const std::size_t i = pending[p];
            RunRecord record;
            std::vector<double> backoffs;
            for (std::size_t attempt = 1;; ++attempt) {
                // Fresh recorder per attempt (see CampaignOptions::observe):
                // reusing one would leak instrument registrations between
                // runs and make the output depend on work stealing.
                std::optional<obs::Recorder> recorder;
                if (options.observe) recorder.emplace(options.recorder);
                // Fresh stack token per attempt: a token is owned by exactly
                // one attempt, so a late cancellation request can never leak
                // into the worker's next run.
                sim::CancellationToken token;
                monitor.arm(worker_id, &token);
                record = execute(spec, *study, keys[i], workspace, &scratch,
                                 recorder ? &*recorder : nullptr, &token);
                monitor.disarm(worker_id);
                record.attempts = attempt;
                record.backoff_s = backoffs;
                const bool retryable =
                    record.failed &&
                    record.failure_class == FailureClass::kTransient &&
                    attempt <= options.retry.max_retries;
                if (!retryable) break;
                const double backoff =
                    backoff_for(options.retry, keys[i], attempt);
                backoffs.push_back(backoff);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
            }
            out.records[i] = std::move(record);
            const std::size_t completed =
                resumed + done.fetch_add(1, std::memory_order_relaxed) + 1;
            {
                const std::lock_guard<std::mutex> lock(io_mutex);
                // Journal before progress: once a callback saw the record,
                // it survives a crash.
                if (journal) journal->append(out.records[i]);
                if (options.progress)
                    options.progress(out.records[i], completed, total);
            }
        }
    };

    if (!pending.empty()) {
        // The serial path runs on the calling thread — but never when it
        // would pin it: sched_setaffinity would outlive the campaign and
        // leak placement into the caller. A planned pin always gets its own
        // thread.
        if (jobs == 1 && placements[0].cpu < 0) {
            worker(0);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (std::size_t t = 0; t < jobs; ++t)
                pool.emplace_back(worker, t);
            for (std::thread& t : pool) t.join();
        }
    }

    out.summary.total_runs = total;
    out.summary.jobs = jobs;
    out.summary.resumed_runs = resumed;
    out.summary.wall_time_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  campaign_start)
                                  .count();
    for (const RunRecord& r : out.records) {
        out.summary.total_run_time_s += r.wall_time_s;
        if (r.failed) {
            ++out.summary.failed_runs;
            out.summary.quarantine.push_back(
                {r.key, r.failure_class, r.error, r.attempts});
        }
        if (r.attempts > 1) {
            ++out.summary.retried_runs;
            out.summary.total_retries += r.attempts - 1;
        }
        if (r.failure_class == FailureClass::kTimeout)
            ++out.summary.timeout_runs;
    }
    out.summary.runs_per_second =
        out.summary.wall_time_s > 0.0
            ? static_cast<double>(total) / out.summary.wall_time_s
            : 0.0;

    // Campaign-level resilience counters through the obs layer, so the
    // roll-up reaches every export the per-run metrics reach.
    obs::RecorderConfig campaign_rc;
    campaign_rc.trace_capacity = 0;
    obs::Recorder campaign_recorder(campaign_rc);
    campaign_recorder.counter("campaign.retries")
        .add(out.summary.total_retries);
    campaign_recorder.counter("campaign.timeouts")
        .add(out.summary.timeout_runs);
    campaign_recorder.counter("campaign.quarantined")
        .add(out.summary.quarantine.size());
    campaign_recorder.counter("campaign.resumed_runs")
        .add(out.summary.resumed_runs);
    campaign_recorder.counter("campaign.journal_appends")
        .add(journal ? pending.size() : 0);
    // Placement observability (mis-placement should be visible without a
    // profiler): workers per node, how many pins stuck, and the arena
    // footprint. Unpinned workers count under node 0 — the single-node
    // degenerate case, where placement is moot anyway.
    if (!pending.empty()) {
        std::vector<std::size_t> per_node(
            static_cast<std::size_t>(std::max(max_node, 0)) + 1, 0);
        std::size_t pinned = 0, reserved = 0, high_water = 0;
        for (const WorkerStats& w : worker_stats) {
            ++per_node[static_cast<std::size_t>(std::max(w.node, 0))];
            if (w.pinned) ++pinned;
            reserved += w.arena_reserved;
            high_water += w.arena_high_water;
        }
        for (std::size_t n = 0; n < per_node.size(); ++n)
            campaign_recorder
                .gauge("campaign.workers_per_node." + std::to_string(n))
                .set(static_cast<double>(per_node[n]));
        campaign_recorder.gauge("campaign.pinned_workers")
            .set(static_cast<double>(pinned));
        campaign_recorder.gauge("arena.bytes_reserved")
            .set(static_cast<double>(reserved));
        campaign_recorder.gauge("arena.high_water")
            .set(static_cast<double>(high_water));
    }
    out.summary.metrics = campaign_recorder.snapshot();
    return out;
}

// --- lookup & rendering ----------------------------------------------------

const RunRecord* find(const std::vector<RunRecord>& records,
                      const std::string& workload,
                      const std::string& scheduler, const std::string& config,
                      const std::uint64_t* seed) {
    for (const RunRecord& r : records) {
        if (r.key.workload != workload || r.key.scheduler != scheduler)
            continue;
        if (!config.empty() && r.key.config != config) continue;
        if (seed != nullptr && r.key.seed != *seed) continue;
        return &r;
    }
    return nullptr;
}

namespace {

/// CSV/markdown cells must stay single-cell: separators collapse to ';'.
std::string sanitize(const std::string& text) {
    std::string out = text;
    for (char& c : out)
        if (c == ',' || c == '\n' || c == '\r' || c == '|') c = ';';
    return out;
}

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

std::string to_markdown(const std::vector<RunRecord>& records) {
    std::ostringstream out;
    out << "| workload | scheduler | config | seed | makespan [ms] | "
           "avg response [ms] | peak [C] | DTM [ms] | migrations | "
           "energy [J] |\n";
    out << "|---|---|---|---|---|---|---|---|---|---|\n";
    out.setf(std::ios::fixed);
    out.precision(2);
    for (const RunRecord& r : records) {
        out << "| " << r.key.workload << " | " << r.key.scheduler << " | "
            << r.key.config << " | " << r.key.seed << " | ";
        if (r.failed) {
            out << "FAILED: " << sanitize(r.error) << " ["
                << to_string(r.failure_class) << ", attempts=" << r.attempts
                << "] | - | - | - | - | - |\n";
            continue;
        }
        const auto& s = r.result;
        out << s.makespan_s * 1e3 << " | "
            << s.average_response_time_s() * 1e3 << " | "
            << s.peak_temperature_c << " | " << s.dtm_throttled_s * 1e3
            << " | " << s.migrations << " | " << s.total_energy_j;
        out << (s.all_finished ? " |\n" : " (INCOMPLETE) |\n");
    }
    return out.str();
}

void write_csv(std::ostream& out, const std::vector<RunRecord>& records) {
    out << "workload,scheduler,config,seed,makespan_s,avg_response_s,peak_c,"
           "dtm_throttled_s,migrations,energy_j,all_finished,failed,error,"
           "failure_class,attempts\n";
    for (const RunRecord& r : records) {
        const auto& s = r.result;
        out << sanitize(r.key.workload) << ',' << sanitize(r.key.scheduler)
            << ',' << sanitize(r.key.config) << ',' << r.key.seed << ','
            << s.makespan_s << ',' << s.average_response_time_s() << ','
            << s.peak_temperature_c << ',' << s.dtm_throttled_s << ','
            << s.migrations << ',' << s.total_energy_j << ','
            << (s.all_finished ? 1 : 0) << ',' << (r.failed ? 1 : 0) << ','
            << sanitize(r.error) << ',' << to_string(r.failure_class) << ','
            << r.attempts << '\n';
    }
}

void write_json(std::ostream& out, const std::vector<RunRecord>& records,
                const CampaignSummary& summary) {
    out << "{\n  \"summary\": {\n"
        << "    \"total_runs\": " << summary.total_runs << ",\n"
        << "    \"failed_runs\": " << summary.failed_runs << ",\n"
        << "    \"jobs\": " << summary.jobs << ",\n"
        << "    \"wall_time_s\": " << summary.wall_time_s << ",\n"
        << "    \"total_run_time_s\": " << summary.total_run_time_s << ",\n"
        << "    \"runs_per_second\": " << summary.runs_per_second << ",\n"
        << "    \"pool_utilization\": " << summary.pool_utilization() << ",\n"
        << "    \"resumed_runs\": " << summary.resumed_runs << ",\n"
        << "    \"retried_runs\": " << summary.retried_runs << ",\n"
        << "    \"total_retries\": " << summary.total_retries << ",\n"
        << "    \"timeout_runs\": " << summary.timeout_runs << ",\n"
        << "    \"quarantine\": [";
    for (std::size_t i = 0; i < summary.quarantine.size(); ++i) {
        const QuarantinedRun& q = summary.quarantine[i];
        out << (i == 0 ? "\n" : ",\n")
            << "      {\"workload\": \"" << json_escape(q.key.workload)
            << "\", \"scheduler\": \"" << json_escape(q.key.scheduler)
            << "\", \"config\": \"" << json_escape(q.key.config)
            << "\", \"seed\": " << q.key.seed << ", \"failure_class\": \""
            << to_string(q.failure_class) << "\", \"attempts\": "
            << q.attempts << ", \"error\": \"" << json_escape(q.error)
            << "\"}";
    }
    out << (summary.quarantine.empty() ? "]" : "\n    ]");
    if (!summary.metrics.empty()) {
        out << ",\n    \"campaign_metrics\": ";
        obs::write_metrics_json(out, summary.metrics);
    }
    out << "\n  },\n  \"runs\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunRecord& r = records[i];
        const auto& s = r.result;
        out << "    {\"workload\": \"" << json_escape(r.key.workload)
            << "\", \"scheduler\": \"" << json_escape(r.key.scheduler)
            << "\", \"config\": \"" << json_escape(r.key.config)
            << "\", \"seed\": " << r.key.seed
            << ", \"failed\": " << (r.failed ? "true" : "false")
            << ", \"error\": \"" << json_escape(r.error)
            << "\", \"failure_class\": \"" << to_string(r.failure_class)
            << "\", \"attempts\": " << r.attempts;
        if (!r.backoff_s.empty()) {
            out << ", \"backoff_s\": [";
            for (std::size_t b = 0; b < r.backoff_s.size(); ++b)
                out << (b ? ", " : "") << r.backoff_s[b];
            out << "]";
        }
        out << ", \"wall_time_s\": " << r.wall_time_s
            << ", \"makespan_s\": " << s.makespan_s
            << ", \"avg_response_s\": " << s.average_response_time_s()
            << ", \"peak_c\": " << s.peak_temperature_c
            << ", \"dtm_throttled_s\": " << s.dtm_throttled_s
            << ", \"migrations\": " << s.migrations
            << ", \"energy_j\": " << s.total_energy_j
            << ", \"all_finished\": " << (s.all_finished ? "true" : "false");
        if (!r.metrics.empty()) {
            out << ", \"metrics\": ";
            obs::write_metrics_json(out, r.metrics);
        }
        out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

void write_markdown_file(const std::string& path,
                         const std::vector<RunRecord>& records) {
    write_file_atomic(path, to_markdown(records));
}

void write_csv_file(const std::string& path,
                    const std::vector<RunRecord>& records) {
    std::ostringstream out;
    write_csv(out, records);
    write_file_atomic(path, out.str());
}

void write_json_file(const std::string& path,
                     const std::vector<RunRecord>& records,
                     const CampaignSummary& summary) {
    std::ostringstream out;
    write_json(out, records, summary);
    write_file_atomic(path, out.str());
}

std::string summary_markdown(const CampaignSummary& summary) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(2);
    out << "campaign: " << summary.total_runs << " runs ("
        << summary.failed_runs << " failed), " << summary.jobs << " worker"
        << (summary.jobs == 1 ? "" : "s") << ", " << summary.wall_time_s
        << " s wall, " << summary.runs_per_second << " runs/s (parallel "
        << "speedup " << summary.speedup() << "x, pool utilization "
        << summary.pool_utilization() * 100.0 << "%)\n";
    if (summary.resumed_runs > 0)
        out << "resume: " << summary.resumed_runs
            << " runs restored from journal\n";
    if (summary.total_retries > 0)
        out << "retries: " << summary.total_retries << " across "
            << summary.retried_runs << " runs\n";
    if (!summary.quarantine.empty())
        out << "quarantine: " << summary.quarantine.size() << " run"
            << (summary.quarantine.size() == 1 ? "" : "s")
            << " still failed after the retry policy\n";
    return out.str();
}

std::string metrics_markdown(const std::vector<RunRecord>& records) {
    std::vector<obs::MetricsSnapshot> observed;
    for (const RunRecord& r : records)
        if (!r.metrics.empty()) observed.push_back(r.metrics);
    if (observed.empty()) return {};
    return obs::metrics_markdown(obs::merge(observed));
}

std::vector<obs::MetricsSnapshot> metrics_from_json(const std::string& json) {
    // write_json() emits every run on its own line with the metrics object
    // last before the closing brace, so a balanced-brace scan from each
    // `"metrics": ` marker recovers exactly the objects
    // obs::parse_metrics_json understands. (The summary's campaign-level
    // snapshot is keyed "campaign_metrics" precisely so this scan never
    // picks it up.)
    std::vector<obs::MetricsSnapshot> out;
    const std::string marker = "\"metrics\": ";
    std::size_t pos = 0;
    while ((pos = json.find(marker, pos)) != std::string::npos) {
        std::size_t start = pos + marker.size();
        if (start >= json.size() || json[start] != '{')
            throw std::runtime_error(
                "metrics_from_json: marker not followed by an object");
        int depth = 0;
        std::size_t end = start;
        for (; end < json.size(); ++end) {
            if (json[end] == '{') ++depth;
            if (json[end] == '}' && --depth == 0) break;
        }
        if (depth != 0)
            throw std::runtime_error(
                "metrics_from_json: unbalanced metrics object");
        out.push_back(
            obs::parse_metrics_json(json.substr(start, end - start + 1)));
        pos = end;
    }
    return out;
}

}  // namespace hp::campaign

// End-to-end benchmark of the HotPotato reproduction (see README.md).
//
//   bench_e2e --workload NAME --seed N --seconds T [--trace-out PATH] [--smoke]
//
// Without --trace-out the run is untraced and reports the end-to-end
// metrics. With it, every unit of work runs twice on the same inputs —
// untraced and traced, alternating which goes first — the two results are
// compared bit for bit, the per-layer metrics come from the traced twin, and
// its spans are written to PATH as Chrome-trace JSON.
//
// The last line of standard output is one JSON object: workload, seed,
// mode, correct, attempted, failed, metrics {name: {value, unit}} and info
// (provenance, digests, distributions). Human-readable progress goes to
// standard error. Exit status: 0 all checks passed; 1 a check failed (the
// result line is still printed); 2 bad usage or a host too small for the
// workload (no result line).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/hotpotato.hpp"
#include "linalg/simd.hpp"
#include "obs/recorder.hpp"
#include "sched/pcmig.hpp"
#include "server/advice.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "span_trace.hpp"
#include "timed_layers.hpp"
#include "workload/benchmark.hpp"
#include "workload/generator.hpp"

#ifndef HP_E2E_GIT_SHA
#define HP_E2E_GIT_SHA "unknown"
#endif
#ifndef HP_E2E_BUILD_TYPE
#define HP_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hp;
using bench_e2e::Clock;
using bench_e2e::seconds_since;
using bench_e2e::SpanLog;
using bench_e2e::SpanScope;
using bench_e2e::SpanTrace;
using bench_e2e::TimedScheduler;
using bench_e2e::TimedSolver;

// ---- command line ---------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = -1.0;  ///< measured phase; < 0 = default for the mode
    std::string trace_out;  ///< non-empty = traced run
    bool smoke = false;

    bool traced() const { return !trace_out.empty(); }
};

constexpr const char* kWorkloads[] = {"fig4a-grid64", "open256-hotpotato",
                                      "open256-pcmig", "advice-mixed"};

[[noreturn]] void usage(const std::string& error) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload "
                 "fig4a-grid64|open256-hotpotato|open256-pcmig|advice-mixed "
                 "--seed N [--seconds T] [--trace-out PATH] [--smoke]\n",
                 error.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
            } else if (arg == "--seed") {
                const std::string v = value();
                std::size_t used = 0;
                o.seed = std::stoull(v, &used);
                if (used != v.size()) usage("bad --seed " + v);
                have_seed = true;
            } else if (arg == "--seconds") {
                const std::string v = value();
                std::size_t used = 0;
                o.seconds = std::stod(v, &used);
                if (used != v.size() || !(o.seconds > 0.0) ||
                    o.seconds > 600.0)
                    usage("--seconds must be in (0, 600]");
            } else if (arg == "--trace-out") {
                o.trace_out = value();
            } else if (arg == "--smoke") {
                o.smoke = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
        std::end(kWorkloads))
        usage("unknown --workload '" + o.workload + "'");
    if (!have_seed && !o.smoke) usage("--seed is required");
    if (o.seconds < 0.0) o.seconds = o.smoke ? 1.0 : 20.0;
    return o;
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Highest of the usual tail quantiles that still has at least ten samples
/// beyond it (0.5 when the sample is too small for any of them).
double supported_tail(std::size_t n) {
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75})
        if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
    return 0.5;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---- result line ----------------------------------------------------------

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Ordered JSON object under construction.
class Json {
public:
    Json& add(const std::string& key, double v) { return raw(key, num(v)); }
    Json& add(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    Json& add(const std::string& key, const std::string& v) {
        return raw(key, "\"" + json_escape(v) + "\"");
    }
    Json& add(const std::string& key, const char* v) {
        return add(key, std::string(v));
    }
    Json& add(const std::string& key, bool v) {
        return raw(key, v ? "true" : "false");
    }
    Json& add(const std::string& key, const Json& v) {
        return raw(key, v.str());
    }
    Json& raw(const std::string& key, const std::string& value) {
        body_ += (body_.empty() ? "" : ",") + ("\"" + json_escape(key) +
                                               "\":" + value);
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

/// A latency sample in ms: count, mean, p50, p90, p99 and the highest
/// quantile that still has at least ten samples beyond it.
Json latency_summary(const std::vector<double>& seconds) {
    const double tail = supported_tail(seconds.size());
    return Json()
        .add("n", static_cast<std::uint64_t>(seconds.size()))
        .add("mean_ms", 1e3 * mean(seconds))
        .add("p50_ms", 1e3 * quantile(seconds, 0.5))
        .add("p90_ms", 1e3 * quantile(seconds, 0.9))
        .add("p99_ms", 1e3 * quantile(seconds, 0.99))
        .add("tail_q", tail)
        .add("tail_ms", 1e3 * quantile(seconds, tail));
}

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< failed checks, for the log
    Json metrics;
    Json info;

    void fail(const std::string& what) {
        ++failed;
        if (problems.size() < 20) problems.push_back(what);
    }
    void metric(const std::string& name, double value, const char* unit) {
        metrics.add(name, Json().add("value", value).add("unit", unit));
    }
};

// ---- host / provenance ----------------------------------------------------

std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Pins the calling thread to one of the CPUs it may run on, the @p k-th
/// counting cyclically, until destroyed; threads it starts meanwhile
/// inherit the pin.
class PinToCpu {
public:
    explicit PinToCpu(std::size_t k) {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
        std::size_t skip = k % static_cast<std::size_t>(CPU_COUNT(&saved_));
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (!CPU_ISSET(c, &saved_) || skip-- > 0) continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
            return;
        }
    }
    ~PinToCpu() {
        if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
    }
    PinToCpu(const PinToCpu&) = delete;
    PinToCpu& operator=(const PinToCpu&) = delete;

private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// CPU time the calling thread has used so far.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json provenance(std::size_t threads, const std::string& backend) {
    return Json()
        .add("nproc", static_cast<std::uint64_t>(nproc()))
        .add("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .add("threads", static_cast<std::uint64_t>(threads))
        .add("cpu", cpu_model())
        .add("compiler", compiler_id())
        .add("build_type", HP_E2E_BUILD_TYPE)
        .add("git_sha", HP_E2E_GIT_SHA)
        .add("simd", linalg::simd::tier_name(linalg::simd::active_tier()))
        .add("solver_backend", backend);
}

/// Load threads for the parallel workloads: one per CPU, at most four.
std::size_t load_threads() { return std::min<std::size_t>(nproc(), 4); }

// ---- host speed -----------------------------------------------------------

// A shared virtual machine changes speed by tens of percent, within seconds
// and over minutes, as neighbouring tenants come and go, and CPU-time
// accounting does not show it: a vCPU whose physical core is busy elsewhere
// just runs slower. So a fixed kernel that uses no repository code is timed
// on the threads that carry the load, between the workload's own units of
// work, and every end-to-end time is reported at the reference speed, where
// one pass of the kernel takes kReferencePassS: each unit's raw time *
// kReferencePassS / the mean time of the passes just before and just after
// it. The raw values and the overall scale are kept in `info`.
constexpr double kReferencePassS = 3e-3;
/// Passes owed per second of work on a sampling thread (one per 200 ms).
constexpr double kPassesPerS = 5.0;
constexpr std::size_t kMaxPassesPerSample = 10;

/// Keeps the speed kernel's result alive.
thread_local volatile double speed_sink = 0.0;

/// One pass of the speed kernel — a chain of 96x96 matrix-vector products
/// on cache-resident data — and its wall time.
double speed_pass_s() {
    constexpr std::size_t n = 96;
    thread_local std::vector<double> a, x, y;
    if (a.empty()) {
        a.resize(n * n);
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = 1.0 / static_cast<double>(1 + (i * 7919) % 1021);
        y.assign(n, 0.0);
    }
    x.assign(n, 1.0);
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < 600; ++rep) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < n; ++j) s += a[i * n + j] * x[j];
            y[i] = s;
            total += s;
        }
        for (std::size_t i = 0; i < n; ++i) x[i] = y[i] / total;
    }
    speed_sink = x[0];
    return seconds_since(start);
}

/// Times, on the calling thread, the speed passes owed for @p worked_s
/// seconds of work: at least @p min_passes, at most kMaxPassesPerSample.
void sample_speed(double worked_s, std::size_t min_passes,
                  std::vector<double>& passes_s) {
    const std::size_t passes = std::clamp(
        static_cast<std::size_t>(worked_s * kPassesPerS), min_passes,
        kMaxPassesPerSample);
    for (std::size_t p = 0; p < passes; ++p)
        passes_s.push_back(speed_pass_s());
}

/// Speed passes on @p threads threads at once — the load the parallel
/// workloads put on the host — owed for @p worked_s seconds of work.
void sample_parallel(std::size_t threads, double worked_s,
                     std::vector<double>& passes_s) {
    std::vector<std::vector<double>> times(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(
            [&times, t, worked_s] { sample_speed(worked_s, 1, times[t]); });
    for (std::thread& t : pool) t.join();
    for (const std::vector<double>& v : times)
        passes_s.insert(passes_s.end(), v.begin(), v.end());
}

/// Host time scale: mean pass time over the reference (> 1 = slower host).
double host_scale(const std::vector<double>& passes_s) {
    return passes_s.empty() ? 1.0 : mean(passes_s) / kReferencePassS;
}

/// End-to-end times at the reference speed, added unit by unit. A unit is
/// the work done between two timings of the speed kernel on the threads
/// that did it, converted by the passes just before and just after it.
struct ReferenceClock {
    double work = 0.0;    ///< in the workload's throughput unit
    double host_s = 0.0;  ///< host time the work took
    double reference_s = 0.0;
    std::vector<double> latencies_s;   ///< raw host seconds
    double reference_latency_s = 0.0;  ///< their sum at the reference speed
    std::uint64_t passes = 0;

    void add(double unit_work, double unit_host_s,
             const std::vector<double>& unit_latencies_s,
             std::vector<double> around_s, const std::vector<double>& after_s) {
        around_s.insert(around_s.end(), after_s.begin(), after_s.end());
        const double scale = host_scale(around_s);
        work += unit_work;
        host_s += unit_host_s;
        reference_s += unit_host_s / scale;
        latencies_s.insert(latencies_s.end(), unit_latencies_s.begin(),
                           unit_latencies_s.end());
        reference_latency_s += sum(unit_latencies_s) / scale;
        passes += after_s.size();
    }

    void merge(const ReferenceClock& other) {
        work += other.work;
        host_s += other.host_s;
        reference_s += other.reference_s;
        latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                           other.latencies_s.end());
        reference_latency_s += other.reference_latency_s;
        passes += other.passes;
    }
};

/// One load thread's clock. Speed passes are owed in proportion to the time
/// worked since the last ones; the work in between is one unit.
class SpeedSampler {
public:
    /// Times the passes before the thread's first unit of work.
    void start() {
        sample_speed(0.0, 1, last_passes_);
        last_ = Clock::now();
    }

    void worked(double work, double host_s,
                const std::vector<double>& latencies_s) {
        work_ += work;
        host_s_ += host_s;
        latencies_s_.insert(latencies_s_.end(), latencies_s.begin(),
                            latencies_s.end());
        close(0);
    }

    /// Closes the last unit; call on the load thread when its work is done.
    void finish() {
        if (host_s_ > 0.0) close(1);
    }

    ReferenceClock clock;

private:
    void close(std::size_t min_passes) {
        std::vector<double> fresh;
        sample_speed(seconds_since(last_), min_passes, fresh);
        if (fresh.empty()) return;
        clock.add(work_, host_s_, latencies_s_, last_passes_, fresh);
        last_passes_ = std::move(fresh);
        work_ = host_s_ = 0.0;
        latencies_s_.clear();
        last_ = Clock::now();
    }

    std::vector<double> last_passes_;
    Clock::time_point last_ = Clock::now();
    double work_ = 0.0;
    double host_s_ = 0.0;
    std::vector<double> latencies_s_;
};

/// Median set-up time, raw and at the reference speed.
struct SetupTime {
    double raw_s = 0.0;
    double scaled_s = 0.0;
};

/// Times @p build (returning std::unique_ptr<T>) at least five times and
/// until 1.5 s have passed (at most 40 builds; once when @p once), each
/// between two speed passes and pinned to the next of the process's CPUs in
/// turn, destroying each object before the next build. The vCPUs of a shared
/// host can differ by 1.7x in build speed for minutes at a time while the
/// speed kernel runs alike on all of them, so a set-up timed wherever it
/// first landed reads fast or slow by lot. Returns one more build, unpinned
/// and untimed: threads an object starts inherit the CPU mask of the thread
/// that built it.
template <typename T, typename Build>
std::unique_ptr<T> build_timed(bool once, SetupTime& time, Build&& build) {
    std::vector<double> raw, scaled;
    const Clock::time_point start = Clock::now();
    while (raw.empty() ||
           (!once && raw.size() < 40 &&
            (raw.size() < 5 || seconds_since(start) < 1.5))) {
        const PinToCpu pin(raw.size());
        const double before_s = speed_pass_s();
        const Clock::time_point t0 = Clock::now();
        const std::unique_ptr<T> object = build();
        raw.push_back(seconds_since(t0));
        const double pass_s = 0.5 * (before_s + speed_pass_s());
        scaled.push_back(raw.back() * kReferencePassS / pass_s);
    }
    time.raw_s = median(raw);
    time.scaled_s = median(scaled);
    return build();
}

/// The end-to-end metrics every workload reports, at the reference speed:
/// throughput is @p parallel * work per reference second (work done by
/// @p parallel threads each keeping their own time). The raw values are in
/// `info.host`, the raw latency distribution in `info.latency`.
void report_e2e(Outcome& out, const SetupTime& setup,
                const ReferenceClock& clock, double parallel) {
    const double n = static_cast<double>(clock.latencies_s.size());
    out.metric("setup_s", setup.scaled_s, "s");
    out.metric("throughput_per_s", parallel * clock.work / clock.reference_s,
               "1/s");
    out.metric("latency_mean_ms", 1e3 * clock.reference_latency_s / n, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.info.add("host",
                 Json()
                     .add("scale", clock.host_s / clock.reference_s)
                     .add("passes", clock.passes)
                     .add("raw_setup_s", setup.raw_s)
                     .add("raw_throughput_per_s",
                          parallel * clock.work / clock.host_s)
                     .add("raw_latency_mean_ms",
                          1e3 * mean(clock.latencies_s)))
        .add("latency", latency_summary(clock.latencies_s));
}

// ---- simulation results ---------------------------------------------------

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bit-for-bit equality of everything a run reports.
bool identical(const sim::SimResult& a, const sim::SimResult& b) {
    if (a.tasks.size() != b.tasks.size() ||
        a.all_finished != b.all_finished ||
        a.dtm_triggers != b.dtm_triggers || a.migrations != b.migrations ||
        !same_bits(a.makespan_s, b.makespan_s) ||
        !same_bits(a.simulated_time_s, b.simulated_time_s) ||
        !same_bits(a.peak_temperature_c, b.peak_temperature_c) ||
        !same_bits(a.dtm_throttled_s, b.dtm_throttled_s) ||
        !same_bits(a.total_energy_j, b.total_energy_j) ||
        !same_bits(a.idle_energy_j, b.idle_energy_j))
        return false;
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        const sim::TaskResult& x = a.tasks[i];
        const sim::TaskResult& y = b.tasks[i];
        if (x.id != y.id || x.benchmark != y.benchmark ||
            x.threads != y.threads || !same_bits(x.arrival_s, y.arrival_s) ||
            !same_bits(x.start_s, y.start_s) ||
            !same_bits(x.finish_s, y.finish_s) ||
            !same_bits(x.energy_j, y.energy_j))
            return false;
    }
    return true;
}

/// FNV-1a over the simulated statistics of @p results, in order.
std::uint64_t digest(const std::vector<const sim::SimResult*>& results) {
    std::uint64_t h = 1469598103934665603ull;
    const auto word = [&h](std::uint64_t w) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto real = [&word](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    };
    for (const sim::SimResult* r : results) {
        real(r->makespan_s);
        real(r->peak_temperature_c);
        real(r->total_energy_j);
        real(r->dtm_throttled_s);
        word(r->migrations);
        for (const sim::TaskResult& t : r->tasks) real(t.finish_s);
    }
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Empty when @p r is a complete, physically sane run of @p tasks tasks.
std::string check_run(const sim::SimResult& r, std::size_t tasks) {
    if (!r.all_finished) return "not every task finished";
    if (r.tasks.size() != tasks) return "task count mismatch";
    if (!(r.makespan_s > 0.0) || !std::isfinite(r.peak_temperature_c) ||
        !(r.total_energy_j > 0.0))
        return "non-physical run statistics";
    for (const sim::TaskResult& t : r.tasks)
        if (!(t.arrival_s <= t.start_s && t.start_s < t.finish_s))
            return "task timeline out of order";
    return {};
}

// ---- per-layer accounting -------------------------------------------------

/// log(traced / untraced thread CPU time) of each pair of twins, by the role
/// the traced twin had: which of two threads sharing a CPU ran it
/// (run_pair), or whether it went first (the advice replay). The overhead
/// averages the two roles' mean logs, so an advantage of one role cancels
/// however many pairs each role got.
struct TwinLogs {
    std::vector<double> by_role[2];

    void add(double traced_s, double untraced_s, std::size_t role) {
        if (traced_s > 0.0 && untraced_s > 0.0)
            by_role[role % 2].push_back(std::log(traced_s / untraced_s));
    }

    void merge(const TwinLogs& other) {
        for (std::size_t role = 0; role < 2; ++role)
            by_role[role].insert(by_role[role].end(),
                                 other.by_role[role].begin(),
                                 other.by_role[role].end());
    }

    /// Traced over untraced host time minus one, in percent.
    double overhead_pct() const {
        double log_sum = 0.0;
        int roles = 0;
        for (const std::vector<double>& logs : by_role)
            if (!logs.empty()) {
                log_sum += mean(logs);
                ++roles;
            }
        return roles > 0 ? 100.0 * std::expm1(log_sum / roles) : 0.0;
    }
};

/// Raw per-layer totals of one traced run, turned into the per-layer metric
/// set every workload reports (layers a workload does not exercise read 0).
struct Layers {
    double study_s = 0.0;        ///< StudySetup build (median)
    double init_s = 0.0;         ///< mean decision-maker initialisation
    std::vector<double> decisions_s;
    double root_s = 0.0;         ///< host time of the traced work
    double sched_self_s = 0.0;
    double alg1_s = 0.0;         ///< Algorithm 1 (subset of sched or advise)
    double thermal_s = 0.0;
    double sim_self_s = 0.0;
    double codec_s = 0.0;
    double wait_s = 0.0;
    double busy = 0.0;           ///< worker utilisation in [0, 1]
    double cache_hits = 0.0;
    double cache_lookups = 0.0;
    double alg1_evals = 0.0;
    double thermal_calls = 0.0;
    double sched_calls = 0.0;
    double ops = 0.0;            ///< the workload's unit of work
    TwinLogs twins;

    void report(Outcome& out) const {
        const auto pct = [this](double part) {
            return root_s > 0.0 ? 100.0 * part / root_s : 0.0;
        };
        const auto per_op = [this](double count) {
            return ops > 0.0 ? count / ops : 0.0;
        };
        out.metric("setup.study_s", study_s, "s");
        out.metric("sched.init_ms", 1e3 * init_s, "ms");
        out.metric("decision.p50_us", 1e6 * quantile(decisions_s, 0.5), "us");
        out.metric("decision.p99_us", 1e6 * quantile(decisions_s, 0.99),
                   "us");
        out.metric("sched.self_pct", pct(sched_self_s), "%");
        out.metric("core.alg1_pct", pct(alg1_s), "%");
        out.metric("thermal.self_pct", pct(thermal_s), "%");
        out.metric("sim.self_pct", pct(sim_self_s), "%");
        out.metric("server.codec_pct", pct(codec_s), "%");
        out.metric("server.wait_pct", pct(wait_s), "%");
        out.metric("exec.busy_pct", 100.0 * busy, "%");
        out.metric("core.cache_hit_pct",
                   cache_lookups > 0.0 ? 100.0 * cache_hits / cache_lookups
                                       : 0.0,
                   "%");
        out.metric("core.alg1_evals_per_op", per_op(alg1_evals), "count/op");
        out.metric("thermal.calls_per_op", per_op(thermal_calls), "count/op");
        out.metric("sched.calls_per_op", per_op(sched_calls), "count/op");
        out.metric("trace.overhead_pct", twins.overhead_pct(), "%");
        out.info.add("layer_seconds",
                     Json()
                         .add("root", root_s)
                         .add("sched_self", sched_self_s)
                         .add("thermal", thermal_s)
                         .add("sim_self", sim_self_s)
                         .add("codec", codec_s)
                         .add("wait", wait_s)
                         .add("alg1", alg1_s));
        out.info.add("decisions", static_cast<std::uint64_t>(
                                      decisions_s.size()));
    }
};

bool starts_with(const char* s, const char* prefix) {
    return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

bool is_decision(const char* name) {
    return std::strcmp(name, "sched.on_task_arrival") == 0 ||
           std::strcmp(name, "sched.on_task_finish") == 0 ||
           std::strcmp(name, "sched.on_epoch") == 0;
}

/// Existing obs counters and phase timers of one traced run.
void add_obs(const obs::MetricsSnapshot& m, Layers& layers) {
    for (const auto& c : m.counters) {
        const double v = static_cast<double>(c.value);
        if (c.name == "hotpotato.alg1_evals") layers.alg1_evals += v;
        if (c.name == "hotpotato.peak_cache_hits" ||
            c.name == "pcmig.steady_cache_hits") {
            layers.cache_hits += v;
            layers.cache_lookups += v;
        }
        if (c.name == "hotpotato.peak_cache_misses" ||
            c.name == "pcmig.steady_cache_misses")
            layers.cache_lookups += v;
    }
    for (const auto& p : m.phases) {
        if (p.name == "peak_analysis") layers.alg1_s += p.total_s;
    }
}

obs::RecorderConfig counters_only() {
    obs::RecorderConfig config;
    config.trace_capacity = 0;
    return config;
}

constexpr std::int64_t kMaxSpanRecords = 100000;

// ---- simulations and their traced twins -----------------------------------

enum class Policy { kHotPotato, kPcMig };

std::unique_ptr<sim::Scheduler> make_policy(Policy policy) {
    if (policy == Policy::kHotPotato)
        return std::make_unique<core::HotPotatoScheduler>();
    return std::make_unique<sched::PcMigScheduler>();
}

/// One simulation: the chip, the run's knobs, its tasks and a factory for a
/// fresh scheduler.
struct SimJob {
    const campaign::StudySetup* setup = nullptr;
    campaign::RunSetup knobs;
    std::vector<workload::TaskSpec> tasks;
    campaign::SchedulerFactory scheduler;
    std::uint64_t run = 0;  ///< id stamped on its spans
    /// When set, the traced result must equal it bit for bit.
    const sim::SimResult* expected = nullptr;
};

/// Runs @p job on the calling thread with @p solver; @p log (may be null)
/// gets its spans, @p decisions (may be null) its decision-hook latencies.
sim::SimResult simulate(const SimJob& job,
                        const thermal::TransientSolver& solver, SpanLog* log,
                        obs::Recorder* recorder,
                        std::vector<double>* decisions) {
    sim::Simulator sim(job.setup->chip(), job.setup->model(), solver,
                       job.knobs.sim, job.knobs.power, job.knobs.perf, nullptr,
                       recorder);
    sim.add_tasks(job.tasks);
    TimedScheduler scheduler(job.scheduler(), log, decisions);
    const SpanScope root(log, "sim.run");
    return sim.run(scheduler);
}

/// One twin of a traced simulation.
struct Twin {
    sim::SimResult result;
    double cpu_s = 0.0;             ///< thread CPU time
    obs::MetricsSnapshot observed;  ///< traced twin
    std::string error;
};

/// Runs @p job as one twin on the calling thread: traced (spans into
/// @p log, the timed solver and an obs recorder) when @p log is set, else
/// timing its decisions as an untraced run does.
void run_twin(const SimJob& job, SpanLog* log, Twin& twin) {
    try {
        std::optional<TimedSolver> timed;
        std::optional<obs::Recorder> recorder;
        if (log) {
            log->set_run(job.run);
            timed.emplace(job.setup->solver(), *log);
            recorder.emplace(counters_only());
        }
        const thermal::TransientSolver& solver =
            timed ? static_cast<const thermal::TransientSolver&>(*timed)
                  : job.setup->solver();
        std::vector<double> decisions;
        const double cpu0 = thread_cpu_s();
        twin.result = simulate(job, solver, log,
                               recorder ? &*recorder : nullptr,
                               log ? nullptr : &decisions);
        twin.cpu_s = thread_cpu_s() - cpu0;
        if (recorder) twin.observed = recorder->snapshot();
    } catch (const std::exception& e) {
        twin.error = e.what();
    }
}

/// Empty when @p r is a complete run of @p job and equals its expected
/// result, if it has one.
std::string check_job(const SimJob& job, const sim::SimResult& r) {
    std::string bad = check_run(r, job.tasks.size());
    if (bad.empty() && job.expected && !identical(*job.expected, r))
        bad = "traced result differs from the campaign record";
    return bad;
}

/// What the traced jobs of a run add up to.
struct TracedTotals {
    TwinLogs twins;                ///< pairs; thread CPU time
    std::uint64_t solo_runs = 0;   ///< complete solo runs
    double solo_sim_ms = 0.0;      ///< their simulated time
    std::vector<obs::MetricsSnapshot> observed;  ///< their obs counters
    double busy_s = 0.0;           ///< wall time spent on jobs
    std::uint64_t simulations = 0;
    std::vector<std::string> problems;

    void fail(const SimJob& job, const std::string& what) {
        problems.push_back("run " + std::to_string(job.run) + ": " + what);
    }

    void merge(TracedTotals&& other) {
        twins.merge(other.twins);
        solo_runs += other.solo_runs;
        solo_sim_ms += other.solo_sim_ms;
        std::move(other.observed.begin(), other.observed.end(),
                  std::back_inserter(observed));
        busy_s += other.busy_s;
        simulations += other.simulations;
        problems.insert(problems.end(), other.problems.begin(),
                        other.problems.end());
    }
};

/// Runs @p job traced, alone on the calling thread's CPU; its spans go to
/// @p trace and give the per-layer split.
void run_solo(const SimJob& job, SpanTrace& trace, TracedTotals& totals) {
    Twin traced;
    const Clock::time_point start = Clock::now();
    run_twin(job, &trace.thread_log(), traced);
    totals.busy_s += seconds_since(start);
    ++totals.simulations;
    const std::string bad =
        traced.error.empty() ? check_job(job, traced.result) : traced.error;
    if (!bad.empty()) return totals.fail(job, bad);
    ++totals.solo_runs;
    totals.solo_sim_ms += 1e3 * traced.result.simulated_time_s;
    totals.observed.push_back(std::move(traced.observed));
}

/// Runs @p job's untraced and traced twins at the same time on the calling
/// thread and a helper, which inherits the caller's CPU mask. With the
/// caller pinned to one CPU, the twins share that CPU's speed at every
/// moment, and the ratio of their thread CPU times is the tracing overhead:
/// on a shared host whose vCPUs change speed within seconds, twins run one
/// after the other, or at the same time on two CPUs, differ by up to ±20%.
/// Sharing the CPU stretches the traced twin's spans by the other twin's
/// time slices, so they go to a trace of their own that is dropped. The
/// traced twin runs on the helper when @p role is 1.
void run_pair(const SimJob& job, std::size_t role, TracedTotals& totals) {
    SpanTrace dropped(kMaxSpanRecords);
    SpanLog& log = dropped.new_log();
    Twin twins[2];  // untraced, traced
    const bool helper_traced = role == 1;
    const Clock::time_point start = Clock::now();
    {
        std::jthread helper([&] {
            run_twin(job, helper_traced ? &log : nullptr,
                     twins[helper_traced ? 1 : 0]);
        });
        run_twin(job, helper_traced ? nullptr : &log,
                 twins[helper_traced ? 0 : 1]);
    }
    totals.busy_s += seconds_since(start);
    totals.simulations += 2;
    std::string bad = twins[0].error.empty() ? twins[1].error : twins[0].error;
    if (bad.empty()) bad = check_job(job, twins[1].result);
    if (bad.empty() && !identical(twins[0].result, twins[1].result))
        bad = "traced and untraced results differ";
    if (!bad.empty()) return totals.fail(job, bad);
    totals.twins.add(twins[1].cpu_s, twins[0].cpu_s, role);
}

/// Runs the jobs @p next hands out on @p workers threads, each pinned to its
/// own CPU: even-numbered jobs traced alone (run_solo), odd-numbered ones as
/// pairs of twins (run_pair) with alternating roles. @p next is called from
/// every worker and returns nullopt when the run is over.
TracedTotals run_traced(std::size_t workers, SpanTrace& trace,
                        const std::function<std::optional<SimJob>()>& next) {
    std::vector<TracedTotals> per_worker(workers);
    {
        std::vector<std::jthread> pool;
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&, w] {
                const PinToCpu pin(w);
                try {
                    while (const std::optional<SimJob> job = next()) {
                        if (job->run % 2 == 0)
                            run_solo(*job, trace, per_worker[w]);
                        else
                            run_pair(*job, job->run / 2 % 2, per_worker[w]);
                    }
                } catch (const std::exception& e) {
                    per_worker[w].problems.push_back(e.what());
                }
            });
    }
    TracedTotals all;
    for (TracedTotals& t : per_worker) all.merge(std::move(t));
    return all;
}

/// The per-layer split of the solo traced runs: scheduler, thermal and
/// simulator self times under the sim.run roots, decisions, the scheduler
/// initialisation and the existing obs counters; and the pairs' overhead.
void add_sim_layers(const SpanTrace& trace, const TracedTotals& totals,
                    Outcome& out, Layers& layers) {
    for (const auto& [name, s] : trace.merged()) {
        if (starts_with(name, "sched.")) layers.sched_self_s += s.self_s;
        if (starts_with(name, "thermal.")) {
            layers.thermal_s += s.self_s;
            layers.thermal_calls += static_cast<double>(s.count);
        }
        if (is_decision(name)) {
            layers.sched_calls += static_cast<double>(s.count);
            layers.decisions_s.insert(layers.decisions_s.end(),
                                      s.durations_s.begin(),
                                      s.durations_s.end());
        }
        if (std::strcmp(name, "sched.initialize") == 0)
            layers.init_s = mean(s.durations_s);
        if (std::strcmp(name, "sim.run") == 0) {
            layers.root_s = s.total_s;
            layers.sim_self_s = s.self_s;
        }
    }
    for (const obs::MetricsSnapshot& m : totals.observed) add_obs(m, layers);
    layers.twins = totals.twins;
    out.attempted += totals.simulations;
    for (const std::string& p : totals.problems) out.fail(p);
}

// ---- open256-hotpotato / open256-pcmig -----------------------------------

/// One round of the open 256-core workload: every PARSEC profile once in a
/// seeded order, with a seeded permutation of a fixed thread-count multiset
/// (mean 5, as uniform 2..8), arriving as a Poisson process at 200/s. Fixing
/// the multisets keeps every round the same mix, so a run's rate varies
/// with the seed far less than with independent poisson_mix draws.
std::vector<workload::TaskSpec> open_round(std::uint64_t seed,
                                           std::size_t task_count) {
    const std::vector<workload::BenchmarkProfile>& profiles =
        workload::parsec_profiles();
    std::vector<std::size_t> order(profiles.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::size_t> threads = {2, 3, 4, 5, 5, 6, 7, 8};
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    std::shuffle(threads.begin(), threads.end(), rng);
    std::exponential_distribution<double> gap(200.0);
    std::vector<workload::TaskSpec> tasks;
    double t = 0.0;
    for (std::size_t i = 0; i < std::min(task_count, order.size()); ++i) {
        if (i > 0) t += gap(rng);
        tasks.push_back({&profiles[order[i]], threads[i], t});
    }
    return tasks;
}

struct OpenWorker {
    std::uint64_t rounds = 0;
    std::vector<std::string> problems;
    SpeedSampler speed;
};

Outcome run_open256(const Options& opt, Policy policy) {
    Outcome out;
    const std::size_t workers = load_threads();
    const std::size_t tasks_per_round = opt.smoke ? 2 : 8;
    SetupTime setup_time;
    const std::unique_ptr<campaign::StudySetup> setup =
        build_timed<campaign::StudySetup>(opt.smoke, setup_time, [] {
            return std::make_unique<campaign::StudySetup>(
                campaign::StudySetup::paper_256core());
        });
    out.info.add("tasks_per_round",
                 static_cast<std::uint64_t>(tasks_per_round))
        .add("provenance", provenance(workers, setup->solver().backend_name()));

    std::atomic<std::uint64_t> next_round{0};
    const auto next_job = [&]() -> SimJob {
        const std::uint64_t round = next_round.fetch_add(1);
        return SimJob{setup.get(),
                      {},
                      open_round(mix(opt.seed, round), tasks_per_round),
                      [policy] { return make_policy(policy); },
                      round,
                      nullptr};
    };
    const Clock::time_point start = Clock::now();

    if (opt.traced()) {
        SpanTrace trace(kMaxSpanRecords);
        const TracedTotals totals =
            run_traced(workers, trace, [&]() -> std::optional<SimJob> {
                if (seconds_since(start) >= opt.seconds) return std::nullopt;
                return next_job();
            });
        const double elapsed = seconds_since(start);
        Layers layers;
        layers.study_s = setup_time.raw_s;
        add_sim_layers(trace, totals, out, layers);
        layers.busy =
            totals.busy_s / (static_cast<double>(workers) * elapsed);
        layers.ops = totals.solo_sim_ms;
        layers.report(out);
        out.info.add("elapsed_s", elapsed);
        if (!trace.write_chrome_trace(opt.trace_out))
            out.fail("cannot write " + opt.trace_out);
        return out;
    }

    std::vector<OpenWorker> results(workers);
    const auto worker = [&](std::size_t w) {
        OpenWorker& me = results[w];
        me.speed.start();
        while (seconds_since(start) < opt.seconds) {
            std::string bad;
            std::uint64_t round = 0;
            try {
                const SimJob job = next_job();
                round = job.run;
                std::vector<double> decisions_s;
                const Clock::time_point t0 = Clock::now();
                const sim::SimResult r = simulate(job, setup->solver(),
                                                  nullptr, nullptr,
                                                  &decisions_s);
                me.speed.worked(1e3 * r.simulated_time_s, seconds_since(t0),
                                decisions_s);
                bad = check_run(r, job.tasks.size());
            } catch (const std::exception& e) {
                bad = e.what();
            }
            ++me.rounds;
            if (!bad.empty())
                me.problems.push_back("round " + std::to_string(round) +
                                      ": " + bad);
        }
        me.speed.finish();
    };
    {
        std::vector<std::jthread> pool;
        for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    }
    const double elapsed = seconds_since(start);

    ReferenceClock clock;
    for (OpenWorker& w : results) {
        clock.merge(w.speed.clock);
        out.attempted += w.rounds;
        for (const std::string& p : w.problems) out.fail(p);
    }
    out.info.add("rounds", out.attempted)
        .add("simulated_ms", clock.work)
        .add("elapsed_s", elapsed);
    // Each worker keeps its own busy time, so the tail of the last rounds
    // (some workers already idle) does not dilute the rate.
    report_e2e(out, setup_time, clock, static_cast<double>(workers));
    return out;
}

// ---- fig4a-grid64 ---------------------------------------------------------

/// Simulator settings of the Fig. 4(a) runs.
sim::SimConfig fig4a_config() {
    sim::SimConfig cfg;
    cfg.micro_step_s = 1e-4;
    cfg.max_sim_time_s = 10.0;
    return cfg;
}

/// One batch of the Fig. 4(a) grid: the eight PARSEC benchmarks, each
/// filling the 64-core chip (homogeneous_fill), under PCMig and HotPotato,
/// for @p seeds seeds drawn from (@p seed, @p batch).
campaign::CampaignSpec fig4a_batch(const campaign::StudySetup& setup,
                                   std::uint64_t seed, std::uint64_t batch,
                                   std::size_t seeds) {
    campaign::CampaignSpec spec(setup, fig4a_config());
    spec.add_scheduler("PCMig", [] {
        return std::make_unique<sched::PcMigScheduler>();
    });
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<core::HotPotatoScheduler>();
    });
    for (const workload::BenchmarkProfile& profile :
         workload::parsec_profiles()) {
        const workload::BenchmarkProfile* p = &profile;
        spec.add_workload(profile.name, [p](std::uint64_t s) {
            return workload::homogeneous_fill(*p, 64, s);
        });
    }
    for (std::size_t k = 0; k < seeds; ++k)
        spec.add_seed(mix(seed, batch * seeds + k));
    return spec;
}

void check_records(const campaign::CampaignSpec& spec,
                   const campaign::CampaignResult& result, Outcome& out) {
    for (const campaign::RunRecord& r : result.records) {
        const std::string bad =
            r.failed ? r.error
                     : check_run(r.result, spec.tasks_for(r.key).size());
        if (!bad.empty()) out.fail(campaign::to_string(r.key) + ": " + bad);
    }
}

/// Fails @p out when @p rec differs from a direct, single-threaded
/// simulation of its key: campaign records must not depend on the pool.
void check_direct(const campaign::CampaignSpec& spec,
                  const campaign::RunRecord& rec, Outcome& out) {
    sim::Simulator sim =
        spec.setup().make_simulator(spec.setup_for(rec.key).sim);
    sim.add_tasks(spec.tasks_for(rec.key));
    const std::unique_ptr<sim::Scheduler> scheduler =
        spec.make_scheduler(rec.key);
    if (!identical(sim.run(*scheduler), rec.result))
        out.fail(campaign::to_string(rec.key) +
                 ": campaign record differs from a direct run");
}

/// Every batch runs as a campaign on `jobs` workers, untraced in both modes.
/// A traced run then replays the batch's runs on as many pinned workers
/// (run_traced), and every traced result must equal the campaign's record.
Outcome run_fig4a(const Options& opt) {
    Outcome out;
    const std::size_t jobs = load_threads();
    const std::size_t seeds_per_batch = opt.smoke ? 1 : 8;
    SetupTime setup_time;
    const std::unique_ptr<campaign::StudySetup> setup =
        build_timed<campaign::StudySetup>(opt.smoke, setup_time, [] {
            return std::make_unique<campaign::StudySetup>(
                campaign::StudySetup::paper_64core());
        });
    campaign::CampaignOptions options;
    options.jobs = jobs;

    SpanTrace trace(kMaxSpanRecords);
    TracedTotals totals;
    // Only the first batch is kept (for its digest and speedup): keeping
    // every batch would make memory grow with the batches a host completes.
    std::optional<campaign::CampaignResult> first;
    std::uint64_t batches = 0;
    std::vector<double> utilization, before_s;
    ReferenceClock clock;
    if (!opt.traced()) sample_parallel(jobs, 1.0, before_s);
    const Clock::time_point start = Clock::now();
    for (; batches == 0 || seconds_since(start) < opt.seconds; ++batches) {
        const std::uint64_t b = batches;
        const campaign::CampaignSpec spec =
            fig4a_batch(*setup, opt.seed, b, seeds_per_batch);
        const Clock::time_point t0 = Clock::now();
        campaign::CampaignResult result;
        {
            const SpanScope span(opt.traced() ? &trace.thread_log() : nullptr,
                                 "campaign.batch");
            result = campaign::run_campaign(spec, options);
        }
        const double wall_s = seconds_since(t0);
        utilization.push_back(result.summary.pool_utilization());
        std::vector<double> run_walls_s;
        for (const campaign::RunRecord& rec : result.records)
            run_walls_s.push_back(rec.wall_time_s);
        check_records(spec, result, out);
        check_direct(spec, result.records[(b * 37) % result.records.size()],
                     out);
        out.attempted += result.records.size();

        if (opt.traced()) {
            std::atomic<std::size_t> next{0};
            const auto next_job = [&]() -> std::optional<SimJob> {
                const std::size_t i = next.fetch_add(1);
                if (i >= result.records.size()) return std::nullopt;
                const campaign::RunRecord& rec = result.records[i];
                return SimJob{setup.get(),
                              spec.setup_for(rec.key),
                              spec.tasks_for(rec.key),
                              [&spec, key = rec.key] {
                                  return spec.make_scheduler(key);
                              },
                              b * result.records.size() + i,
                              &rec.result};
            };
            totals.merge(run_traced(jobs, trace, next_job));
        } else {
            std::vector<double> after_s;
            sample_parallel(jobs, wall_s, after_s);
            clock.add(static_cast<double>(result.records.size()), wall_s,
                      run_walls_s, before_s, after_s);
            before_s = std::move(after_s);
        }
        if (!first) first = std::move(result);
    }
    const double elapsed = seconds_since(start);

    // The first batch is complete on every run of a seed: its digest and
    // the Fig. 4(a) speedup are pure functions of the seed.
    std::vector<const sim::SimResult*> first_results;
    double pcmig_ms = 0.0, hotpotato_ms = 0.0;
    for (const campaign::RunRecord& r : first->records) {
        first_results.push_back(&r.result);
        (r.key.scheduler == "PCMig" ? pcmig_ms : hotpotato_ms) +=
            r.result.makespan_s;
    }
    const double speedup = 100.0 * (pcmig_ms / hotpotato_ms - 1.0);
    out.info.add("batches", batches)
        .add("runs_per_batch",
             static_cast<std::uint64_t>(first->records.size()))
        .add("elapsed_s", elapsed)
        .add("pool_utilization", median(utilization))
        .add("digest", hex(digest(first_results)))
        .add("hotpotato_speedup_pct", speedup)
        .add("speedup_minus_paper_pct", speedup - 10.72)
        .add("provenance", provenance(jobs, setup->solver().backend_name()));

    if (!opt.traced()) {
        report_e2e(out, setup_time, clock, 1.0);
        return out;
    }
    Layers layers;
    layers.study_s = setup_time.raw_s;
    add_sim_layers(trace, totals, out, layers);
    layers.busy = mean(utilization);
    layers.ops = static_cast<double>(totals.solo_runs);
    layers.report(out);
    if (!trace.write_chrome_trace(opt.trace_out))
        out.fail("cannot write " + opt.trace_out);
    return out;
}

// ---- advice-mixed ---------------------------------------------------------

// The daemon's callers are run-time schedulers, so its traffic is what
// HotPotato asks at run time: every decision of a HotPotato run (task
// arrival, task finish, epoch) becomes one request for the threads then
// running, innermost ring first, with the recent powers the scheduler
// measured for them. Each connection is one caller replaying the decisions
// of the HotPotato runs fig4a-grid64 makes for the same seed. So the request
// sizes and how often requests repeat (which decides the cache-hit share)
// are properties of those runs, not chosen here: runs of seeds 1-3 repeated
// 1-2% of their requests exactly, always the request just before.
//
// Only paper_64core is served. Decisions recorded from open256-hotpotato
// rounds cost 1.9-3.3 ms per request from seed to seed (seeds 1-10; the
// 64-core recordings 0.91-1.18 ms), and recording one such round takes
// 4-7 s, so a run could not record enough of them to be steady.
constexpr const char* kConfig = "paper_64core";
/// Closed-loop warm-up before timing, so the server's workers and caches are
/// past their first requests.
constexpr double kWarmupS = 1.0;
/// The measured time is split into stretches of about a second, with the
/// host speed sampled on every load thread between them.
constexpr std::size_t kStretches = 16;
/// Every 16th request of each connection is checked against the
/// single-threaded, cache-free reference (and replayed when traced).
constexpr std::size_t kSampleStride = 16;
constexpr std::size_t kServerWorkers = 2;

/// Scheduler wrapper that records, after every decision hook, the thread
/// powers of the threads then running (innermost ring first), quantised as
/// the schedulers and the server quantise them.
class DecisionRecorder final : public sim::Scheduler {
public:
    DecisionRecorder(std::unique_ptr<sim::Scheduler> inner,
                     std::vector<std::vector<double>>& out)
        : inner_(std::move(inner)), out_(out) {}

    std::string name() const override { return inner_->name(); }
    void initialize(sim::SimContext& ctx) override { inner_->initialize(ctx); }
    bool on_task_arrival(sim::SimContext& ctx, sim::TaskId task) override {
        const bool placed = inner_->on_task_arrival(ctx, task);
        record(ctx);
        return placed;
    }
    void on_task_finish(sim::SimContext& ctx, sim::TaskId task) override {
        inner_->on_task_finish(ctx, task);
        record(ctx);
    }
    void on_core_failure(sim::SimContext& ctx, std::size_t core,
                         const std::vector<sim::ThreadId>& evicted) override {
        inner_->on_core_failure(ctx, core, evicted);
    }
    void on_core_recovery(sim::SimContext& ctx, std::size_t core) override {
        inner_->on_core_recovery(ctx, core);
    }
    void on_epoch(sim::SimContext& ctx) override {
        inner_->on_epoch(ctx);
        record(ctx);
    }
    void on_step(sim::SimContext& ctx) override { inner_->on_step(ctx); }

private:
    void record(const sim::SimContext& ctx) {
        std::vector<double> powers;
        for (const arch::AmdRing& ring : ctx.chip().rings())
            for (std::size_t core : ring.cores) {
                const sim::ThreadId t = ctx.thread_on(core);
                if (t != sim::kNone)
                    powers.push_back(
                        core::quantise_power_w(ctx.thread_recent_power(t)));
            }
        if (!powers.empty()) out_.push_back(std::move(powers));
    }

    std::unique_ptr<sim::Scheduler> inner_;
    std::vector<std::vector<double>>& out_;
};

/// The decisions caller @p caller replays: the HotPotato runs of grid seed
/// @p caller of fig4a-grid64's first batch on @p setup (paper_64core), every
/// PARSEC benchmark in turn (smoke runs: the first benchmark only).
std::vector<server::AdviceRequest> record_decisions(
    const campaign::StudySetup& setup, std::uint64_t seed, std::size_t caller,
    bool smoke, Outcome& out) {
    std::vector<std::vector<double>> decisions;
    for (const workload::BenchmarkProfile& profile :
         workload::parsec_profiles()) {
        SimJob job{&setup, {}, {}, {}, caller, nullptr};
        job.knobs.sim = fig4a_config();
        job.tasks = workload::homogeneous_fill(profile, 64, mix(seed, caller));
        job.scheduler = [&decisions] {
            return std::make_unique<DecisionRecorder>(
                std::make_unique<core::HotPotatoScheduler>(), decisions);
        };
        const std::string bad = check_run(
            simulate(job, setup.solver(), nullptr, nullptr, nullptr),
            job.tasks.size());
        if (!bad.empty()) out.fail("recording decisions: " + bad);
        if (smoke) break;
    }
    std::vector<server::AdviceRequest> requests(decisions.size());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        requests[i].config = kConfig;
        requests[i].thread_power_w = std::move(decisions[i]);
    }
    return requests;
}

/// One connection: a caller replaying its recorded decisions in order, over
/// and over. Pass p adds p quantisation steps (p/1024 W) to every power, so
/// a pass never hits the cache entries of an earlier one: repeats are only
/// those of the recorded runs.
struct Caller {
    std::vector<server::AdviceRequest> decisions;
    std::size_t next = 0;
    std::size_t pass = 0;
    std::size_t sent = 0;

    server::AdviceRequest request() {
        server::AdviceRequest r = decisions[next];
        for (double& p : r.thread_power_w)
            p += static_cast<double>(pass) / 1024.0;
        if (++next == decisions.size()) {
            next = 0;
            ++pass;
        }
        return r;
    }
};

struct Sample {
    server::AdviceRequest request;
    std::vector<std::uint8_t> payload;
    double latency_s = 0.0;
};

struct ClientResult {
    std::vector<double> latency_s;
    std::vector<Sample> samples;
    std::size_t errors = 0;
    std::string transport_error;
};

/// Sends @p caller's requests back to back on @p client from @p start until
/// @p end (closed loop: each after the previous answer).
void drive(server::AdviceClient& client, Caller& caller,
           Clock::time_point start, Clock::time_point end, SpanLog* log,
           ClientResult& out) {
    std::this_thread::sleep_until(start);
    try {
        while (Clock::now() < end) {
            server::AdviceRequest request = caller.request();
            const Clock::time_point t0 = Clock::now();
            std::vector<std::uint8_t> payload;
            {
                const SpanScope span(log, "loadgen.request");
                payload = client.raw_query(request);
            }
            const double latency = seconds_since(t0);
            out.latency_s.push_back(latency);
            if (payload.empty() || payload[0] != 0) ++out.errors;
            if (caller.sent++ % kSampleStride == 0)
                out.samples.push_back(
                    {std::move(request), std::move(payload), latency});
        }
    } catch (const std::exception& e) {
        out.transport_error = e.what();
    }
}

std::uint64_t counter(const obs::MetricsSnapshot& m, const char* name) {
    for (const auto& c : m.counters)
        if (c.name == name) return c.value;
    return 0;
}

Outcome run_advice(const Options& opt) {
    Outcome out;
    const std::size_t clients = load_threads();
    server::ServerConfig config;
    config.socket_path =
        "bench_e2e_advice_" + std::to_string(::getpid()) + ".sock";
    config.threads = kServerWorkers;
    config.configs = {kConfig};

    SetupTime setup_time;
    const std::unique_ptr<server::AdviceServer> srv =
        build_timed<server::AdviceServer>(opt.smoke, setup_time, [&] {
            return std::make_unique<server::AdviceServer>(config);
        });

    // The reference bundle (the cache-free single-threaded oracle); its
    // StudySetup also runs the recorded HotPotato simulations.
    Layers layers;
    SetupTime study_time;
    const std::unique_ptr<campaign::StudySetup> study =
        build_timed<campaign::StudySetup>(
            opt.smoke || !opt.traced(), study_time, [] {
                return std::make_unique<campaign::StudySetup>(
                    campaign::StudySetup::by_name(kConfig));
            });
    layers.study_s = study_time.raw_s;
    const Clock::time_point bundle_start = Clock::now();
    const server::AdviceBundle bundle(*study, config.defaults);
    layers.init_s = seconds_since(bundle_start);

    std::vector<Caller> callers(clients);
    const Clock::time_point record_start = Clock::now();
    {
        std::vector<Outcome> recorded(clients);
        {
            std::vector<std::jthread> pool;
            for (std::size_t c = 0; c < clients; ++c)
                pool.emplace_back([&, c] {
                    try {
                        callers[c].decisions = record_decisions(
                            *study, opt.seed, c, opt.smoke, recorded[c]);
                    } catch (const std::exception& e) {
                        recorded[c].fail(std::string("recording: ") +
                                         e.what());
                    }
                });
        }
        for (std::size_t c = 0; c < clients; ++c) {
            for (const std::string& p : recorded[c].problems) out.fail(p);
            if (callers[c].decisions.empty())
                out.fail("caller " + std::to_string(c) +
                         " recorded no decisions");
        }
        if (out.failed > 0) return out;
    }
    const double record_s = seconds_since(record_start);

    std::vector<std::unique_ptr<server::AdviceClient>> connections;
    for (std::size_t c = 0; c < clients; ++c)
        connections.push_back(
            std::make_unique<server::AdviceClient>(config.socket_path));

    SpanTrace trace(kMaxSpanRecords);
    std::vector<Sample> samples;
    std::vector<double> stretch_rps;
    // One closed-loop stretch on every connection; returns its elapsed time
    // and adds its latencies to @p latencies.
    const auto stretch = [&](double duration_s,
                             std::vector<double>& latencies) {
        std::vector<ClientResult> results(clients);
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(20);
        const Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(duration_s));
        {
            std::vector<std::jthread> threads;
            for (std::size_t c = 0; c < clients; ++c)
                threads.emplace_back([&, c] {
                    drive(*connections[c], callers[c], start, end,
                          opt.traced() ? &trace.thread_log() : nullptr,
                          results[c]);
                });
        }
        const double elapsed_s = seconds_since(start);
        std::size_t sent = 0;
        for (ClientResult& r : results) {
            if (!r.transport_error.empty())
                out.fail("transport: " + r.transport_error);
            for (std::size_t e = 0; e < r.errors; ++e)
                out.fail("error response");
            latencies.insert(latencies.end(), r.latency_s.begin(),
                             r.latency_s.end());
            sent += r.latency_s.size();
            for (Sample& s : r.samples) samples.push_back(std::move(s));
        }
        out.attempted += sent;
        stretch_rps.push_back(static_cast<double>(sent) / elapsed_s);
        return elapsed_s;
    };

    const double warmup_s = std::min(kWarmupS, 0.1 * opt.seconds);
    std::vector<double> warmup_latency_s;
    stretch(warmup_s, warmup_latency_s);
    stretch_rps.clear();
    const double stretch_s =
        (opt.seconds - warmup_s) / static_cast<double>(kStretches);
    ReferenceClock clock;
    std::vector<double> before_s;
    if (!opt.traced()) sample_parallel(clients, 1.0, before_s);
    for (std::size_t k = 0; k < kStretches; ++k) {
        std::vector<double> latencies_s, after_s;
        const double elapsed_s = stretch(stretch_s, latencies_s);
        if (!opt.traced()) sample_parallel(clients, elapsed_s, after_s);
        clock.add(static_cast<double>(latencies_s.size()), elapsed_s,
                  latencies_s, before_s, after_s);
        before_s = std::move(after_s);
    }
    const obs::MetricsSnapshot server_metrics = srv->metrics();
    connections.clear();
    srv->stop();

    // Byte-compare the sampled answers with the cache-free reference.
    {
        std::vector<server::AdviceRequest> requests;
        for (const Sample& s : samples) requests.push_back(s.request);
        const std::vector<server::AdviceResponse> ref =
            server::advise_batch(bundle, requests);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            std::vector<std::uint8_t> frame;
            server::encode_response(ref[i], frame);
            if (!std::equal(frame.begin() + 8, frame.end(),
                            samples[i].payload.begin(),
                            samples[i].payload.end()))
                out.fail("served answer differs from advise_batch");
        }
    }

    const double hits =
        static_cast<double>(counter(server_metrics, "server.cache_hits"));
    const double misses =
        static_cast<double>(counter(server_metrics, "server.cache_misses"));
    Json recorded, rps;
    for (std::size_t c = 0; c < clients; ++c) {
        double threads = 0.0;
        for (const server::AdviceRequest& r : callers[c].decisions)
            threads += static_cast<double>(r.thread_power_w.size());
        recorded.add(std::to_string(c),
                     Json()
                         .add("decisions", static_cast<std::uint64_t>(
                                               callers[c].decisions.size()))
                         .add("mean_threads",
                              threads / static_cast<double>(
                                            callers[c].decisions.size()))
                         .add("sent", static_cast<std::uint64_t>(
                                          callers[c].sent)));
    }
    for (std::size_t k = 0; k < stretch_rps.size(); ++k)
        rps.add(std::to_string(k), stretch_rps[k]);
    out.info.add("callers", recorded)
        .add("record_s", record_s)
        .add("stretch_rps", rps)
        .add("samples_checked", static_cast<std::uint64_t>(samples.size()))
        .add("server_cache_hit_pct",
             hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0)
        .add("provenance",
             provenance(clients + kServerWorkers,
                        study->solver().backend_name()));

    if (!opt.traced()) {
        report_e2e(out, setup_time, clock, 1.0);
        return out;
    }

    // Replay the sampled requests through decode -> advise -> encode,
    // untraced and traced in alternating order, each twin with its own
    // cache fed the same sequence. Service time is measured here; client
    // latency minus service time is queueing plus transport.
    core::ConcurrentPeakCache cache_plain, cache_traced;
    cache_plain.configure(config.cache_entries, bundle.max_key_words());
    cache_traced.configure(config.cache_entries, bundle.max_key_words());
    server::AdviceScratch scratch_plain, scratch_traced;
    SpanLog& log = trace.thread_log();
    double service_s = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::vector<std::uint8_t> frame;
        server::encode_request(samples[i].request, frame);
        const auto plain = [&] {
            const double cpu0 = thread_cpu_s();
            const Clock::time_point t0 = Clock::now();
            const server::AdviceRequest req =
                server::decode_request(frame.data() + 8, frame.size() - 8);
            std::vector<std::uint8_t> reply;
            server::encode_response(
                server::advise(bundle, req, scratch_plain, &cache_plain),
                reply);
            service_s += seconds_since(t0);
            return thread_cpu_s() - cpu0;
        };
        const auto traced = [&] {
            const double cpu0 = thread_cpu_s();
            std::vector<std::uint8_t> reply;
            {
                log.set_run(i);
                const SpanScope request(&log, "server.request");
                server::AdviceRequest req;
                {
                    const SpanScope span(&log, "server.decode");
                    req = server::decode_request(frame.data() + 8,
                                                 frame.size() - 8);
                }
                server::AdviceResponse resp;
                {
                    const SpanScope span(&log, "server.advise");
                    resp = server::advise(bundle, req, scratch_traced,
                                          &cache_traced);
                }
                const SpanScope span(&log, "server.encode");
                server::encode_response(resp, reply);
            }
            const double cpu = thread_cpu_s() - cpu0;
            if (!std::equal(reply.begin() + 8, reply.end(),
                            samples[i].payload.begin(),
                            samples[i].payload.end()))
                out.fail("replayed answer differs from the served one");
            return cpu;
        };
        double plain_s = 0.0, traced_s = 0.0;
        if (i % 2 == 0) {
            plain_s = plain();
            traced_s = traced();
        } else {
            traced_s = traced();
            plain_s = plain();
        }
        layers.twins.add(traced_s, plain_s, i % 2);
        layers.root_s += samples[i].latency_s;
    }
    for (const auto& [name, s] : trace.merged()) {
        if (std::strcmp(name, "server.advise") == 0) {
            layers.alg1_s = s.total_s;
            layers.decisions_s = s.durations_s;
        }
        if (std::strcmp(name, "server.decode") == 0 ||
            std::strcmp(name, "server.encode") == 0)
            layers.codec_s += s.total_s;
    }
    layers.wait_s = layers.root_s - layers.alg1_s - layers.codec_s;
    layers.busy = service_s * static_cast<double>(kSampleStride) /
                  (static_cast<double>(kServerWorkers) * opt.seconds);
    layers.cache_hits = hits;
    layers.cache_lookups = hits + misses;
    // Every request evaluates its chosen setting fresh, plus one
    // Algorithm-1 evaluation per scan lookup that missed the cache.
    const double requests = static_cast<double>(out.attempted);
    layers.alg1_evals = requests + misses;
    layers.ops = requests;
    layers.sched_calls = requests;
    layers.report(out);
    if (!trace.write_chrome_trace(opt.trace_out))
        out.fail("cannot write " + opt.trace_out);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    if (nproc() < 2 && (opt.workload == "fig4a-grid64" ||
                        opt.workload == "advice-mixed")) {
        std::fprintf(stderr,
                     "bench_e2e: %s needs at least 2 CPUs (this process may "
                     "use %zu): its parallel load would only measure "
                     "queueing on one CPU\n",
                     opt.workload.c_str(), nproc());
        return 2;
    }
    Outcome out;
    try {
        if (opt.workload == "fig4a-grid64")
            out = run_fig4a(opt);
        else if (opt.workload == "open256-hotpotato")
            out = run_open256(opt, Policy::kHotPotato);
        else if (opt.workload == "open256-pcmig")
            out = run_open256(opt, Policy::kPcMig);
        else
            out = run_advice(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 3;
    }
    for (const std::string& p : out.problems)
        std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", p.c_str());
    const bool correct = out.failed == 0 && out.attempted > 0;
    const Json line = Json()
                          .add("workload", opt.workload)
                          .add("seed", opt.seed)
                          .add("mode", opt.traced() ? "traced" : "untraced")
                          .add("correct", correct)
                          .add("attempted", out.attempted)
                          .add("failed", out.failed)
                          .add("metrics", out.metrics)
                          .add("info", out.info);
    std::printf("%s\n", line.str().c_str());
    return correct ? 0 : 1;
}

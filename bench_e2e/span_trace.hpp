#pragma once

// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// A span is one timed call into a layer's public function, recorded from
// outside the layer: name, start, end, parent span and run/request id. Each
// thread records into its own SpanLog (no locking on the hot path); the
// SpanTrace owns the logs, merges their per-name aggregates after the
// workers have joined, and writes the retained span records as Chrome-trace
// JSON. Self time = span duration minus the time covered by its direct
// children, computed as each span closes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hp::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Aggregate over every span of one name (all of them, not only the
/// retained records).
struct SpanStats {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
};

using SpanTable = std::vector<std::pair<const char*, SpanStats>>;

/// One retained span, times in microseconds since the trace started.
struct SpanRecord {
    const char* name = nullptr;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;  ///< index into the same thread's records
    std::uint64_t run = 0;
};

/// Per-thread span recorder. Span names must be string literals: aggregates
/// are keyed by pointer identity.
class SpanLog {
public:
    SpanLog(Clock::time_point epoch, std::atomic<std::int64_t>& budget,
            std::uint32_t tid)
        : epoch_(epoch), budget_(budget), tid_(tid) {}

    /// Request / run id stamped on spans opened from now on.
    void set_run(std::uint64_t run) { run_ = run; }

    void begin(const char* name) {
        const Clock::time_point now = Clock::now();
        frames_.push_back(Frame{name, now, 0.0, keep(name, micros(now))});
    }

    void end() {
        const Clock::time_point now = Clock::now();
        const Frame frame = frames_.back();
        frames_.pop_back();
        close(frame, now);
    }

    std::uint32_t tid() const { return tid_; }
    const std::vector<SpanRecord>& records() const { return records_; }
    const SpanTable& stats() const { return stats_; }

private:
    struct Frame {
        const char* name;
        Clock::time_point start;
        double child_s;
        std::int64_t record;  ///< -1 when over the record budget
    };

    static constexpr std::int64_t kBudgetChunk = 4096;

    double micros(Clock::time_point t) const {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    /// Retains a record for a span starting at @p start_us while the shared
    /// budget lasts; returns its index or -1.
    std::int64_t keep(const char* name, double start_us) {
        if (local_budget_ == 0) {
            if (budget_.fetch_sub(kBudgetChunk, std::memory_order_relaxed) <
                kBudgetChunk)
                return -1;
            local_budget_ = kBudgetChunk;
        }
        --local_budget_;
        SpanRecord rec;
        rec.name = name;
        rec.start_us = start_us;
        rec.parent = frames_.empty() ? -1 : frames_.back().record;
        rec.run = run_;
        records_.push_back(rec);
        return static_cast<std::int64_t>(records_.size() - 1);
    }

    void close(const Frame& frame, Clock::time_point end) {
        const double dur =
            std::chrono::duration<double>(end - frame.start).count();
        SpanStats& stats = stats_for(frame.name);
        ++stats.count;
        stats.total_s += dur;
        stats.self_s += dur - frame.child_s;
        stats.durations_s.push_back(dur);
        if (!frames_.empty()) frames_.back().child_s += dur;
        if (frame.record >= 0)
            records_[static_cast<std::size_t>(frame.record)].end_us =
                micros(end);
    }

    SpanStats& stats_for(const char* name) {
        for (auto& entry : stats_)
            if (entry.first == name) return entry.second;
        stats_.emplace_back(name, SpanStats{});
        return stats_.back().second;
    }

    Clock::time_point epoch_;
    std::atomic<std::int64_t>& budget_;
    std::int64_t local_budget_ = 0;
    std::uint32_t tid_;
    std::uint64_t run_ = 0;
    std::vector<Frame> frames_;
    std::vector<SpanRecord> records_;
    SpanTable stats_;
};

/// RAII span; a null log makes it a no-op.
class SpanScope {
public:
    SpanScope(SpanLog* log, const char* name) : log_(log) {
        if (log_) log_->begin(name);
    }
    ~SpanScope() {
        if (log_) log_->end();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog* log_;
};

/// Owner of every thread's SpanLog for one benchmark run.
class SpanTrace {
public:
    /// @p max_records bounds the span records kept for the Chrome trace
    /// across all threads (aggregates always cover every span).
    explicit SpanTrace(std::int64_t max_records) : budget_(max_records) {}

    /// A fresh log for one thread; valid for the trace's lifetime.
    SpanLog& new_log() {
        const std::lock_guard<std::mutex> lock(mutex_);
        logs_.push_back(std::make_unique<SpanLog>(
            epoch_, budget_, static_cast<std::uint32_t>(logs_.size() + 1)));
        return *logs_.back();
    }

    /// The calling thread's log, created on its first call. The thread-local
    /// cache assumes one SpanTrace per process.
    SpanLog& thread_log() {
        thread_local const SpanTrace* owner = nullptr;
        thread_local SpanLog* log = nullptr;
        if (owner != this) {
            log = &new_log();
            owner = this;
        }
        return *log;
    }

    /// Aggregates merged across threads. Call after every writer joined.
    SpanTable merged() const {
        SpanTable out;
        for (const auto& log : logs_) {
            for (const auto& [name, s] : log->stats()) {
                auto it = std::find_if(
                    out.begin(), out.end(),
                    [name = name](const auto& e) { return e.first == name; });
                if (it == out.end()) {
                    out.emplace_back(name, SpanStats{});
                    it = out.end() - 1;
                }
                it->second.count += s.count;
                it->second.total_s += s.total_s;
                it->second.self_s += s.self_s;
                it->second.durations_s.insert(it->second.durations_s.end(),
                                              s.durations_s.begin(),
                                              s.durations_s.end());
            }
        }
        return out;
    }

    /// Chrome trace-event JSON ("X" complete events); returns false when the
    /// file cannot be written. Call after every writer joined.
    bool write_chrome_trace(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
        bool first = true;
        for (const auto& log : logs_) {
            for (std::size_t i = 0; i < log->records().size(); ++i) {
                const SpanRecord& r = log->records()[i];
                std::fprintf(f,
                             "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                             "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                             "{\"id\":%zu,\"parent\":%lld,\"run\":%llu}}",
                             first ? "" : ",", r.name, log->tid(), r.start_us,
                             r.end_us - r.start_us, i,
                             static_cast<long long>(r.parent),
                             static_cast<unsigned long long>(r.run));
                first = false;
            }
        }
        std::fputs("\n]}\n", f);
        return std::fclose(f) == 0;
    }

private:
    Clock::time_point epoch_ = Clock::now();
    std::atomic<std::int64_t> budget_;
    std::mutex mutex_;  ///< guards logs_ growth
    std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace hp::bench_e2e

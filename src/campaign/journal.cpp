#include "campaign/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "campaign/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "textio/textio.hpp"

namespace hp::campaign {

namespace {

// ---- primitives -----------------------------------------------------------

constexpr char kSep = '\x1f';  ///< field separator (ASCII unit separator)
constexpr const char* kMagic = "hpjournal1";

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);  // bit-exact round-trip
    return buf;
}

/// Strings may contain anything; the separator, newlines and backslashes
/// are escaped so a payload is always exactly one line of separated fields.
std::string escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case kSep: out += "\\u"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            default: out += c;
        }
    }
    return out;
}

std::string unescape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        if (i + 1 >= text.size())
            throw JournalError("journal: dangling escape in string field");
        switch (text[++i]) {
            case '\\': out += '\\'; break;
            case 'u': out += kSep; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            default:
                throw JournalError("journal: unknown escape in string field");
        }
    }
    return out;
}

// ---- field writer / reader ------------------------------------------------

class FieldWriter {
public:
    void str(const std::string& s) { put(escape(s)); }
    void u64(std::uint64_t v) { put(std::to_string(v)); }
    void f64(double v) { put(fmt_double(v)); }
    void boolean(bool v) { put(v ? "1" : "0"); }
    std::string take() { return std::move(out_); }

private:
    void put(const std::string& field) {
        if (!out_.empty()) out_ += kSep;
        out_ += field;
    }
    std::string out_;
};

class FieldReader {
public:
    explicit FieldReader(std::string_view payload)
        : fields_(textio::split(payload, kSep)) {}

    std::string_view raw() {
        if (next_ >= fields_.size())
            throw JournalError("journal: truncated record payload");
        return fields_[next_++];
    }
    std::string str() { return unescape(raw()); }
    std::uint64_t u64() {
        const std::string_view f = raw();
        if (const auto v = textio::parse_u64(f)) return *v;
        throw JournalError("journal: bad integer field: " + std::string(f));
    }
    double f64() {
        const std::string_view f = raw();
        if (const auto v = textio::parse_f64(f)) return *v;
        throw JournalError("journal: bad double field: " + std::string(f));
    }
    bool boolean() { return u64() != 0; }
    /// An integer field that must not exceed @p max (enum tags, u32 args).
    std::uint64_t u64_at_most(std::uint64_t max, const char* what) {
        const std::uint64_t v = u64();
        if (v > max)
            throw JournalError(std::string("journal: ") + what + " " +
                               std::to_string(v) + " out of range");
        return v;
    }
    /// The count of a list whose items take at least @p fields_each fields:
    /// a count the fields left cannot hold is rejected before anything is
    /// sized by it.
    std::size_t count(std::size_t fields_each) {
        const std::uint64_t n = u64();
        const std::size_t left = fields_.size() - next_;
        if (n > left / fields_each)
            throw JournalError("journal: count " + std::to_string(n) +
                               " exceeds the " + std::to_string(left) +
                               " fields left");
        return static_cast<std::size_t>(n);
    }
    bool exhausted() const { return next_ == fields_.size(); }

private:
    std::vector<std::string_view> fields_;
    std::size_t next_ = 0;
};

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
    throw std::runtime_error(what + ": " + path + ": " +
                             std::strerror(errno));
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

// ---- grid signature -------------------------------------------------------

std::uint64_t grid_signature(const CampaignSpec& spec) {
    std::uint64_t hash = fnv1a64(std::to_string(spec.run_count()));
    for (const RunKey& key : spec.keys()) {
        hash = fnv1a64(std::to_string(key.index), hash);
        hash = fnv1a64(key.workload, hash);
        hash = fnv1a64(key.scheduler, hash);
        hash = fnv1a64(key.config, hash);
        hash = fnv1a64(std::to_string(key.seed), hash);
    }
    return hash;
}

// ---- record (de)serialization ---------------------------------------------

std::string serialize_record(const RunRecord& r) {
    FieldWriter w;
    w.str("R1");  // payload version
    w.u64(r.key.index);
    w.str(r.key.workload);
    w.str(r.key.scheduler);
    w.str(r.key.config);
    w.u64(r.key.seed);
    w.boolean(r.failed);
    w.u64(static_cast<std::uint64_t>(r.failure_class));
    w.u64(r.attempts);
    w.u64(r.backoff_s.size());
    for (double b : r.backoff_s) w.f64(b);
    w.str(r.error);
    w.f64(r.wall_time_s);

    const sim::SimResult& s = r.result;
    w.boolean(s.all_finished);
    w.f64(s.makespan_s);
    w.f64(s.simulated_time_s);
    w.f64(s.peak_temperature_c);
    w.f64(s.dtm_throttled_s);
    w.u64(s.dtm_triggers);
    w.u64(s.migrations);
    w.f64(s.total_energy_j);
    w.f64(s.idle_energy_j);
    w.u64(s.tasks.size());
    for (const sim::TaskResult& t : s.tasks) {
        w.u64(t.id);
        w.str(t.benchmark);
        w.u64(t.threads);
        w.f64(t.arrival_s);
        w.f64(t.start_s);
        w.f64(t.finish_s);
        w.f64(t.energy_j);
    }
    const sim::ResilienceStats& res = s.resilience;
    w.u64(res.faults_injected);
    w.u64(res.core_failures);
    w.u64(res.sensor_faults);
    w.u64(res.rotation_aborts);
    w.u64(res.threads_replaced);
    w.u64(res.threads_stranded);
    w.u64(res.watchdog_triggers);
    w.f64(res.watchdog_throttled_s);
    w.f64(res.worst_recovery_s);
    w.f64(res.thermal_violation_s);
    w.f64(res.peak_during_fault_c);
    w.u64(res.untrusted_sensor_samples);
    w.u64(res.fault_log.size());
    for (const fault::FaultLogEntry& e : res.fault_log) {
        w.f64(e.time_s);
        w.u64(static_cast<std::uint64_t>(e.kind));
        w.u64(e.target);
        w.str(e.note);
    }
    w.u64(s.trace.size());
    for (const sim::TraceSample& t : s.trace) {
        w.f64(t.time_s);
        w.f64(t.max_core_temperature_c);
        w.u64(t.core_temperature_c.size());
        for (double v : t.core_temperature_c) w.f64(v);
        for (double v : t.core_power_w) w.f64(v);
        for (double v : t.core_frequency_hz) w.f64(v);
    }

    if (r.metrics.empty()) {
        w.str("");
    } else {
        std::ostringstream metrics;
        obs::write_metrics_json(metrics, r.metrics);
        w.str(metrics.str());
    }
    w.u64(r.events.size());
    for (const obs::Event& e : r.events) {
        w.f64(e.time_s);
        w.u64(static_cast<std::uint64_t>(e.kind));
        w.u64(e.arg0);
        w.u64(e.arg1);
        w.f64(e.value);
    }
    return w.take();
}

RunRecord parse_record(const std::string& payload) {
    FieldReader f(payload);
    if (f.str() != "R1")
        throw JournalError("journal: unsupported record version");
    RunRecord r;
    r.key.index = f.u64();
    r.key.workload = f.str();
    r.key.scheduler = f.str();
    r.key.config = f.str();
    r.key.seed = f.u64();
    r.failed = f.boolean();
    const std::uint64_t cls = f.u64();
    if (cls > static_cast<std::uint64_t>(FailureClass::kUnknown))
        throw JournalError("journal: bad failure class");
    r.failure_class = static_cast<FailureClass>(cls);
    r.attempts = f.u64();
    r.backoff_s.resize(f.count(1));
    for (double& b : r.backoff_s) b = f.f64();
    r.error = f.str();
    r.wall_time_s = f.f64();

    sim::SimResult& s = r.result;
    s.all_finished = f.boolean();
    s.makespan_s = f.f64();
    s.simulated_time_s = f.f64();
    s.peak_temperature_c = f.f64();
    s.dtm_throttled_s = f.f64();
    s.dtm_triggers = f.u64();
    s.migrations = f.u64();
    s.total_energy_j = f.f64();
    s.idle_energy_j = f.f64();
    s.tasks.resize(f.count(7));
    for (sim::TaskResult& t : s.tasks) {
        t.id = f.u64();
        t.benchmark = f.str();
        t.threads = f.u64();
        t.arrival_s = f.f64();
        t.start_s = f.f64();
        t.finish_s = f.f64();
        t.energy_j = f.f64();
    }
    sim::ResilienceStats& res = s.resilience;
    res.faults_injected = f.u64();
    res.core_failures = f.u64();
    res.sensor_faults = f.u64();
    res.rotation_aborts = f.u64();
    res.threads_replaced = f.u64();
    res.threads_stranded = f.u64();
    res.watchdog_triggers = f.u64();
    res.watchdog_throttled_s = f.f64();
    res.worst_recovery_s = f.f64();
    res.thermal_violation_s = f.f64();
    res.peak_during_fault_c = f.f64();
    res.untrusted_sensor_samples = f.u64();
    res.fault_log.resize(f.count(4));
    for (fault::FaultLogEntry& e : res.fault_log) {
        e.time_s = f.f64();
        e.kind = static_cast<fault::FaultKind>(f.u64_at_most(
            static_cast<std::uint64_t>(fault::FaultKind::kRotationAbort),
            "fault kind"));
        e.target = f.u64();
        e.note = f.str();
    }
    s.trace.resize(f.count(3));
    for (sim::TraceSample& t : s.trace) {
        t.time_s = f.f64();
        t.max_core_temperature_c = f.f64();
        const std::size_t n = f.count(3);
        t.core_temperature_c.resize(n);
        t.core_power_w.resize(n);
        t.core_frequency_hz.resize(n);
        for (double& v : t.core_temperature_c) v = f.f64();
        for (double& v : t.core_power_w) v = f.f64();
        for (double& v : t.core_frequency_hz) v = f.f64();
    }

    const std::string metrics = f.str();
    if (!metrics.empty()) {
        try {
            r.metrics = obs::parse_metrics_json(metrics);
        } catch (const std::exception& e) {
            throw JournalError(std::string("journal: bad metrics field: ") +
                               e.what());
        }
    }
    r.events.resize(f.count(5));
    constexpr std::uint64_t kU32 = 0xffffffffu;
    for (obs::Event& e : r.events) {
        e.time_s = f.f64();
        e.kind = static_cast<obs::EventKind>(f.u64_at_most(
            static_cast<std::uint64_t>(obs::EventKind::kDivergence),
            "event kind"));
        e.arg0 = static_cast<std::uint32_t>(f.u64_at_most(kU32, "event arg0"));
        e.arg1 = static_cast<std::uint32_t>(f.u64_at_most(kU32, "event arg1"));
        e.value = f.f64();
    }
    if (!f.exhausted())
        throw JournalError("journal: trailing fields in record payload");
    return r;
}

// ---- file format ----------------------------------------------------------

namespace {

std::string header_line(const CampaignSpec& spec) {
    return std::string(kMagic) + " " + hex64(grid_signature(spec)) + " " +
           std::to_string(spec.run_count()) + "\n";
}

/// Shared scan: parses the whole file, returning the contents plus the byte
/// length of the valid prefix (everything before a torn final line).
JournalContents scan_journal(const std::string& path,
                             std::size_t* valid_bytes) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw JournalError("journal: cannot open: " + path + ": " +
                           std::strerror(errno));
    std::string data;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, file)) > 0)
        data.append(buf, n);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error)
        throw JournalError("journal: read failed: " + path);

    // Every failure below names the journal line it is about.
    std::size_t line_no = 1;
    const auto error = [&](const std::string& what) {
        return JournalError("journal: " + path + ":" +
                            std::to_string(line_no) + ": " + what);
    };
    if (data.empty()) throw error("empty file, no header");
    JournalContents out;
    std::size_t pos = 0;
    std::size_t consumed = 0;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        const bool complete = nl != std::string::npos;
        const std::string line =
            data.substr(pos, complete ? nl - pos : std::string::npos);
        if (pos == 0) {
            // Header: "hpjournal1 <grid hex> <runs>". Created atomically, so
            // a torn header means the file is not a journal at all.
            const auto h = textio::split(line, ' ');
            const bool ok = complete && h.size() == 3 && h[0] == kMagic &&
                            h[1].size() == 16;
            const auto grid = ok ? textio::parse_u64(h[1], 16) : std::nullopt;
            const auto runs = ok ? textio::parse_u64(h[2]) : std::nullopt;
            if (!grid || !runs) throw error("bad header");
            out.grid_hash = *grid;
            out.total_runs = *runs;
        } else {
            const std::size_t space = line.find(' ');
            const bool well_formed =
                complete && space == 16 &&
                hex64(fnv1a64(std::string_view(line).substr(space + 1))) ==
                    line.substr(0, 16);
            if (!well_formed) {
                // A torn/corrupt FINAL line is the expected crash artifact:
                // drop it. Anywhere else it is corruption.
                if (complete && nl != data.size() - 1)
                    throw error("checksum mismatch");
                out.torn_tail = true;
                break;
            }
            try {
                out.records.push_back(parse_record(line.substr(space + 1)));
            } catch (const JournalError& e) {
                constexpr std::string_view kPrefix = "journal: ";
                std::string_view what = e.what();
                if (what.starts_with(kPrefix))
                    what.remove_prefix(kPrefix.size());
                throw error(std::string(what));
            }
        }
        pos = nl + 1;
        consumed = pos;
        ++line_no;
    }
    if (valid_bytes) *valid_bytes = consumed;
    return out;
}

}  // namespace

JournalContents read_journal(const std::string& path) {
    return scan_journal(path, nullptr);
}

RunJournal RunJournal::create(const std::string& path,
                              const CampaignSpec& spec) {
    // Header published atomically: after this either no journal exists or a
    // valid (possibly empty) one does — never a torn header.
    write_file_atomic(path, header_line(spec));
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) fail_io("journal: cannot open for append", path);
    return RunJournal(path, fd);
}

RunJournal RunJournal::append_to(const std::string& path,
                                 const CampaignSpec& spec) {
    std::size_t valid_bytes = 0;
    const JournalContents contents = scan_journal(path, &valid_bytes);
    if (contents.grid_hash != grid_signature(spec) ||
        contents.total_runs != spec.run_count())
        throw JournalError(
            "journal: grid mismatch (journal written for a different "
            "campaign spec): " + path);
    // Drop a torn tail before appending so the next record starts on a
    // clean line boundary.
    if (contents.torn_tail &&
        ::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0)
        fail_io("journal: cannot truncate torn tail", path);
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) fail_io("journal: cannot open for append", path);
    return RunJournal(path, fd);
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
    other.fd_ = -1;
}

RunJournal::~RunJournal() {
    if (fd_ >= 0) ::close(fd_);
}

void RunJournal::append(const RunRecord& record) {
    const std::string payload = serialize_record(record);
    const std::string line = hex64(fnv1a64(payload)) + " " + payload + "\n";
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        const ssize_t n = ::write(fd_, data, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_io("journal: append failed", path_);
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd_) != 0) fail_io("journal: fsync failed", path_);
}

}  // namespace hp::campaign

#include "obs/trace.hpp"

#include <cstdio>
#include <ostream>

#include "textio/textio.hpp"

namespace hp::obs {

const char* to_string(EventKind kind) {
    switch (kind) {
        case EventKind::kTaskStart: return "task_start";
        case EventKind::kTaskFinish: return "task_finish";
        case EventKind::kRotation: return "rotation";
        case EventKind::kRotationAbort: return "rotation_abort";
        case EventKind::kMigration: return "migration";
        case EventKind::kDvfsChange: return "dvfs_change";
        case EventKind::kDtmEngage: return "dtm_engage";
        case EventKind::kDtmRelease: return "dtm_release";
        case EventKind::kWatchdogTrip: return "watchdog_trip";
        case EventKind::kWatchdogRelease: return "watchdog_release";
        case EventKind::kFaultStart: return "fault_start";
        case EventKind::kFaultEnd: return "fault_end";
        case EventKind::kTauAdapt: return "tau_adapt";
        case EventKind::kSensorFallback: return "sensor_fallback";
        case EventKind::kCancelled: return "cancelled";
        case EventKind::kDivergence: return "divergence";
    }
    return "unknown";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : ring_(capacity) {}

void TraceBuffer::record(const Event& e) noexcept {
    if (ring_.empty()) return;  // tracing disabled
    ring_[(head_ + size_) % ring_.size()] = e;
    if (size_ < ring_.size())
        ++size_;
    else
        head_ = (head_ + 1) % ring_.size();  // overwrite the oldest
    ++recorded_;
}

std::vector<Event> TraceBuffer::snapshot() const {
    std::vector<Event> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void TraceBuffer::clear() {
    head_ = 0;
    size_ = 0;
    recorded_ = 0;
}

void write_events_csv(std::ostream& out, const std::vector<Event>& events) {
    out << "time_s,kind,arg0,arg1,value\n";
    char buf[160];
    for (const Event& e : events) {
        std::snprintf(buf, sizeof buf, "%.12g,%s,%u,%u,%.12g\n", e.time_s,
                      to_string(e.kind), e.arg0, e.arg1, e.value);
        out << buf;
    }
}

void write_chrome_trace(std::ostream& out, const std::vector<Event>& events,
                        const std::string& process_name) {
    out << "{\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"" << process_name << "\"}}";
    char buf[256];
    for (const Event& e : events) {
        // Instant events on the simulated-time axis; tid partitions by the
        // event's primary subject (core/thread/task) so Perfetto lanes stay
        // readable. "s":"t" scopes the marker to its lane.
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":0,\"tid\":%u,\"s\":\"t\",\"args\":{"
                      "\"arg0\":%u,\"arg1\":%u,\"value\":%.12g}}",
                      to_string(e.kind), e.time_s * 1e6, e.arg1, e.arg0,
                      e.arg1, e.value);
        out << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<Event> read_events_csv(std::istream& in,
                                   const std::string& source_name) {
    constexpr int kKinds = static_cast<int>(EventKind::kDivergence) + 1;
    constexpr std::uint32_t kU32 = UINT32_MAX;
    std::vector<Event> events;
    textio::LineReader r(in, "events_csv", source_name);
    if (r.next() && r.line() != "time_s,kind,arg0,arg1,value")
        r.fail("bad header: " + std::string(r.line()));
    while (r.next()) {
        const auto fields = r.fields(',');
        if (fields.size() != 5)
            r.fail("expected 5 fields, got " + std::to_string(fields.size()));
        Event e;
        e.time_s = r.f64(fields[0], "time_s");
        int k = 0;
        while (k < kKinds && fields[1] != to_string(static_cast<EventKind>(k)))
            ++k;
        if (k == kKinds)
            r.fail("unknown event kind '" + std::string(fields[1]) + "'");
        e.kind = static_cast<EventKind>(k);
        e.arg0 = static_cast<std::uint32_t>(r.u64(fields[2], "arg0", kU32));
        e.arg1 = static_cast<std::uint32_t>(r.u64(fields[3], "arg1", kU32));
        e.value = r.f64(fields[4], "value");
        events.push_back(e);
    }
    return events;
}

}  // namespace hp::obs

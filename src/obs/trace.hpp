#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace hp::obs {

/// Preallocated flight-recorder ring of trace Events.
///
/// The full capacity is allocated at construction; record() writes into the
/// ring without ever touching the heap, so it is safe inside the simulator's
/// zero-allocation micro-step. On overflow the oldest events are overwritten
/// (flight-recorder policy — the tail of a run is usually the interesting
/// part) and the drop is counted, so exports can state what was lost instead
/// of silently truncating.
class TraceBuffer {
public:
    /// @p capacity = 0 disables tracing entirely (record() is a no-op).
    explicit TraceBuffer(std::size_t capacity);

    void record(const Event& e) noexcept;

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return size_; }
    /// Events recorded over the buffer's lifetime (kept + dropped).
    std::uint64_t recorded() const { return recorded_; }
    /// Events overwritten by the flight-recorder overflow policy.
    std::uint64_t dropped() const { return recorded_ - size_; }

    /// Retained events, oldest first. Allocates — not for the hot path.
    std::vector<Event> snapshot() const;

    void clear();

private:
    std::vector<Event> ring_;
    std::size_t head_ = 0;  ///< index of the oldest retained event
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
};

/// Events as CSV: `time_s,kind,arg0,arg1,value`, oldest first. Output is a
/// pure function of the event list (fixed formatting, no wall-clock or host
/// data), so two identical runs export byte-identical files at any campaign
/// worker count.
void write_events_csv(std::ostream& out, const std::vector<Event>& events);

/// Events as a Chrome `trace_event` JSON document (load via
/// chrome://tracing or Perfetto). Every event becomes an instant event with
/// ts in microseconds of *simulated* time; @p process_name labels the pid-0
/// metadata row. Byte-deterministic like the CSV export.
void write_chrome_trace(std::ostream& out, const std::vector<Event>& events,
                        const std::string& process_name);

/// Parses a CSV written by write_events_csv (round-trips; the shared input
/// rules of src/textio apply, arg0/arg1 must fit 32 bits). @p source_name
/// labels diagnostics.
std::vector<Event> read_events_csv(std::istream& in,
                                   const std::string& source_name = "<stream>");

}  // namespace hp::obs

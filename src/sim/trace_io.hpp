#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace hp::sim {

/// Writes a thermal/power trace as CSV:
/// time_s,max_temp_c,T0..Tn-1,P0..Pn-1,F0..Fn-1 — the format the Fig. 2
/// reproduction and the examples emit for plotting.
void write_trace_csv(std::ostream& out, const std::vector<TraceSample>& trace);

/// Convenience overload writing to @p path; throws std::runtime_error when
/// the file cannot be opened.
void write_trace_csv(const std::string& path,
                     const std::vector<TraceSample>& trace);

/// Parses a trace CSV written by write_trace_csv (round-trips; the shared
/// input rules of src/textio apply). @p source_name labels diagnostics.
std::vector<TraceSample> read_trace_csv(
    std::istream& in, const std::string& source_name = "<stream>");

/// Convenience overload reading @p path.
std::vector<TraceSample> read_trace_csv_file(const std::string& path);

}  // namespace hp::sim

#pragma once

#include <iosfwd>
#include <string>

#include "fault/fault.hpp"

namespace hp::fault {

/// Fault-schedule CSV format (one event per line; the shared input rules of
/// src/textio apply):
///
///     time_s,kind,target,duration_s,magnitude
///     0.010,sensor_stuck,3,0,45.0
///     0.015,core_permanent,5,0,0
///     0.020,rotation_abort,0,0.002,0
///
/// `kind` is one of: sensor_stuck, sensor_drift, sensor_spike,
/// sensor_dropout, core_transient, core_permanent, rotation_abort. A header
/// line starting with "time_s" is accepted and skipped.

/// Parses a schedule from @p in; @p source_name labels diagnostics.
FaultSchedule read_fault_schedule(std::istream& in,
                                  const std::string& source_name = "<stream>");

/// Convenience overload reading @p path.
FaultSchedule read_fault_schedule_file(const std::string& path);

/// Writes @p schedule in the same CSV format (round-trips with the reader).
void write_fault_schedule(std::ostream& out, const FaultSchedule& schedule);

}  // namespace hp::fault

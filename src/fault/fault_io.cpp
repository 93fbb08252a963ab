#include "fault/fault_io.hpp"

#include <ostream>

#include "textio/textio.hpp"

namespace hp::fault {

FaultSchedule read_fault_schedule(std::istream& in,
                                  const std::string& source_name) {
    FaultSchedule schedule;
    textio::LineReader r(in, "fault_io", source_name);
    while (r.next()) {
        if (r.line().starts_with("time_s")) continue;  // optional header row
        const auto fields = r.fields(',');
        if (fields.size() != 5)
            r.fail("expected 5 fields (time_s,kind,target,duration_s,magnitude)"
                   ", got " + std::to_string(fields.size()));
        FaultEvent e;
        e.time_s = r.f64(fields[0], "time_s");
        const auto kind = kind_from_string(fields[1]);
        if (!kind)
            r.fail("unknown fault kind '" + std::string(fields[1]) + "'");
        e.kind = *kind;
        e.target = r.u64(fields[2], "target");
        e.duration_s = r.f64(fields[3], "duration_s");
        e.magnitude = r.f64(fields[4], "magnitude");
        if (e.time_s < 0.0) r.fail("negative time_s");
        schedule.events.push_back(e);
    }
    return schedule;
}

FaultSchedule read_fault_schedule_file(const std::string& path) {
    auto file = textio::open_input(path, "fault_io");
    return read_fault_schedule(file, path);
}

void write_fault_schedule(std::ostream& out, const FaultSchedule& schedule) {
    out << "time_s,kind,target,duration_s,magnitude\n";
    for (const FaultEvent& e : schedule.events)
        out << textio::format_f64(e.time_s) << ',' << to_string(e.kind) << ','
            << e.target << ',' << textio::format_f64(e.duration_s) << ','
            << textio::format_f64(e.magnitude) << '\n';
}

}  // namespace hp::fault

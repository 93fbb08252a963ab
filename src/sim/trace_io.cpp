#include "sim/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "textio/textio.hpp"

namespace hp::sim {

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceSample>& trace) {
    if (trace.empty()) return;
    const std::size_t n = trace.front().core_temperature_c.size();
    out << "time_s,max_temp_c";
    for (std::size_t c = 0; c < n; ++c) out << ",temp_c" << c;
    for (std::size_t c = 0; c < n; ++c) out << ",power_c" << c;
    for (std::size_t c = 0; c < n; ++c) out << ",freq_c" << c;
    out << '\n';
    for (const TraceSample& s : trace) {
        out << s.time_s << ',' << s.max_core_temperature_c;
        for (double t : s.core_temperature_c) out << ',' << t;
        for (double p : s.core_power_w) out << ',' << p;
        for (double f : s.core_frequency_hz) out << ',' << f;
        out << '\n';
    }
}

void write_trace_csv(const std::string& path,
                     const std::vector<TraceSample>& trace) {
    std::ofstream file(path);
    if (!file)
        throw std::runtime_error("write_trace_csv: cannot open " + path);
    write_trace_csv(file, trace);
}

std::vector<TraceSample> read_trace_csv(std::istream& in,
                                        const std::string& source_name) {
    std::vector<TraceSample> trace;
    textio::LineReader r(in, "trace_io", source_name);
    if (!r.next()) return trace;  // empty stream: empty trace
    const auto header = r.fields(',');
    if (header.size() < 2 || header[0] != "time_s" ||
        header[1] != "max_temp_c")
        r.fail("expected header starting with 'time_s,max_temp_c'");
    // Core count from the temp_c* columns; the layout is then fixed.
    std::size_t cores = 0;
    while (2 + cores < header.size() &&
           header[2 + cores].starts_with("temp_c"))
        ++cores;
    if (cores == 0 || header.size() != 2 + 3 * cores)
        r.fail("header must be time_s,max_temp_c,temp_c*,power_c*,freq_c* ("
               "got " + std::to_string(header.size()) + " columns for " +
               std::to_string(cores) + " cores)");

    while (r.next()) {
        const auto fields = r.fields(',');
        if (fields.size() != 2 + 3 * cores)
            r.fail("expected " + std::to_string(2 + 3 * cores) +
                   " fields, got " + std::to_string(fields.size()));
        const auto number = [&](std::size_t column) {
            if (const auto v = textio::parse_f64(fields[column])) return *v;
            r.fail("column " + std::to_string(column + 1) + ": bad number '" +
                   std::string(fields[column]) + "'");
        };
        TraceSample s;
        s.time_s = number(0);
        s.max_core_temperature_c = number(1);
        s.core_temperature_c.resize(cores);
        s.core_power_w.resize(cores);
        s.core_frequency_hz.resize(cores);
        for (std::size_t c = 0; c < cores; ++c) {
            s.core_temperature_c[c] = number(2 + c);
            s.core_power_w[c] = number(2 + cores + c);
            s.core_frequency_hz[c] = number(2 + 2 * cores + c);
        }
        trace.push_back(std::move(s));
    }
    return trace;
}

std::vector<TraceSample> read_trace_csv_file(const std::string& path) {
    auto file = textio::open_input(path, "trace_io");
    return read_trace_csv(file, path);
}

}  // namespace hp::sim

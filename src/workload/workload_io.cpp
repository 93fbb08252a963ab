#include "workload/workload_io.hpp"

#include <ostream>

#include "textio/textio.hpp"

namespace hp::workload {

std::vector<BenchmarkProfile> read_profiles(std::istream& in,
                                            const std::string& source_name) {
    std::vector<BenchmarkProfile> out;
    BenchmarkProfile current;
    bool in_block = false;
    textio::LineReader r(in, "workload_io", source_name);
    while (r.next()) {
        const auto w = r.words();
        const std::string_view keyword = w[0];
        if (keyword == "benchmark") {
            if (in_block) r.fail("nested 'benchmark' (missing 'end'?)");
            if (w.size() != 2) r.fail("'benchmark' needs a name");
            current = BenchmarkProfile{};
            current.name = w[1];
            in_block = true;
        } else if (keyword == "threads") {
            if (!in_block) r.fail("'threads' outside benchmark block");
            const auto n =
                w.size() == 2 ? textio::parse_u64(w[1]) : std::nullopt;
            if (!n || *n < 1) r.fail("'threads' needs a positive count");
            current.default_threads = *n;
        } else if (keyword == "phase") {
            if (!in_block) r.fail("'phase' outside benchmark block");
            if (w.size() != 7 && w.size() != 8)
                r.fail("'phase' needs: label master_Minstr worker_Minstr cpi "
                       "apki watts [miss_ratio]");
            PhaseSpec phase;
            phase.label = w[1];
            const double master_m = r.f64(w[2], "master_Minstr");
            const double worker_m = r.f64(w[3], "worker_Minstr");
            phase.perf.base_cpi = r.f64(w[4], "cpi");
            phase.perf.llc_apki = r.f64(w[5], "apki");
            phase.perf.nominal_power_w = r.f64(w[6], "watts");
            if (w.size() == 8)
                phase.perf.llc_miss_ratio = r.f64(w[7], "miss_ratio");
            if (master_m < 0.0 || worker_m < 0.0 || phase.perf.base_cpi <= 0.0 ||
                phase.perf.llc_apki < 0.0 || phase.perf.nominal_power_w <= 0.0 ||
                phase.perf.llc_miss_ratio < 0.0 ||
                phase.perf.llc_miss_ratio > 1.0)
                r.fail("'phase' values out of range");
            phase.master_instructions = master_m * 1e6;
            phase.worker_instructions = worker_m * 1e6;
            current.phases.push_back(std::move(phase));
        } else if (keyword == "end") {
            if (!in_block) r.fail("'end' without 'benchmark'");
            if (w.size() != 1) r.fail("'end' takes no arguments");
            if (current.phases.empty())
                r.fail("benchmark '" + current.name + "' has no phases");
            out.push_back(std::move(current));
            in_block = false;
        } else {
            r.fail("unknown directive '" + std::string(keyword) + "'");
        }
    }
    if (in_block) r.fail("unterminated benchmark block");
    return out;
}

std::vector<BenchmarkProfile> read_profiles_file(const std::string& path) {
    auto file = textio::open_input(path, "workload_io");
    return read_profiles(file, path);
}

void write_profiles(std::ostream& out,
                    const std::vector<BenchmarkProfile>& profiles) {
    for (const BenchmarkProfile& p : profiles) {
        out << "benchmark " << p.name << '\n';
        out << "threads " << p.default_threads << '\n';
        for (const PhaseSpec& phase : p.phases) {
            out << "phase " << phase.label;
            for (double v : {phase.master_instructions / 1e6,
                             phase.worker_instructions / 1e6,
                             phase.perf.base_cpi, phase.perf.llc_apki,
                             phase.perf.nominal_power_w,
                             phase.perf.llc_miss_ratio})
                out << ' ' << textio::format_f64(v);
            out << '\n';
        }
        out << "end\n";
    }
}

std::vector<TaskSpec> read_tasks(
    std::istream& in, const std::vector<BenchmarkProfile>& profiles,
    const std::string& source_name) {
    std::vector<TaskSpec> out;
    textio::LineReader r(in, "workload_io", source_name);
    const auto resolve = [&](std::string_view name) -> const BenchmarkProfile* {
        for (const BenchmarkProfile& p : profiles)
            if (p.name == name) return &p;
        for (const BenchmarkProfile& p : parsec_profiles())
            if (p.name == name) return &p;
        r.fail("unknown benchmark '" + std::string(name) + "'");
    };
    while (r.next()) {
        const auto w = r.words();
        if (w[0] != "task")
            r.fail("expected 'task <benchmark> <threads> <arrival_s>'");
        if (w.size() != 4)
            r.fail("'task' needs: benchmark threads arrival_seconds");
        TaskSpec spec;
        spec.thread_count = r.u64(w[2], "threads");
        spec.arrival_s = r.f64(w[3], "arrival_s");
        if (spec.thread_count < 1 || spec.arrival_s < 0.0)
            r.fail("'task' values out of range");
        spec.profile = resolve(w[1]);
        out.push_back(spec);
    }
    return out;
}

std::vector<TaskSpec> read_tasks_file(
    const std::string& path, const std::vector<BenchmarkProfile>& profiles) {
    auto file = textio::open_input(path, "workload_io");
    return read_tasks(file, profiles, path);
}

void write_tasks(std::ostream& out, const std::vector<TaskSpec>& tasks) {
    for (const TaskSpec& t : tasks)
        out << "task " << (t.profile ? t.profile->name : "?") << ' '
            << t.thread_count << ' ' << textio::format_f64(t.arrival_s) << '\n';
}

}  // namespace hp::workload

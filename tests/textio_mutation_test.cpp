// Seeded mutation suite over the five text decoders (hostile input).
//
// Each decoder reads its own writer's output after a fixed-seed edit: a byte
// flip, a truncation, a dropped or duplicated separator, an inserted '-', a
// number replaced by 1e400 or by a 20-digit count. Every decode must either
// succeed or throw std::runtime_error naming "<source>:<line>:"; any other
// exception fails the test. The suite is compiled into the ASan+UBSan
// executable (tests/CMakeLists.txt), so memory errors and undefined
// behaviour, out-of-range float casts included, fail it as well.

#include <cctype>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_io.hpp"
#include "obs/trace.hpp"
#include "sim/trace_io.hpp"
#include "workload/workload_io.hpp"

namespace {

constexpr const char* kSource = "mutant.txt";
constexpr int kSeedsPerEdit = 64;

/// True when @p what contains "mutant.txt:<line>:".
bool names_source_line(const std::string& what) {
    const std::string key = std::string(kSource) + ":";
    const std::size_t at = what.find(key);
    if (at == std::string::npos) return false;
    std::size_t i = at + key.size();
    const std::size_t digits = i;
    while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i])))
        ++i;
    return i > digits && i < what.size() && what[i] == ':';
}

/// Replaces the number at or after @p pos (wrapping to the start) with
/// @p literal.
void replace_number(std::string& text, std::size_t pos,
                    const std::string& literal) {
    std::size_t start = text.find_first_of("0123456789", pos);
    if (start == std::string::npos) start = text.find_first_of("0123456789");
    if (start == std::string::npos) return;
    std::size_t end = text.find_first_not_of("0123456789.eE+-", start);
    if (end == std::string::npos) end = text.size();
    text.replace(start, end - start, literal);
}

std::string mutate(std::string text, char sep, int edit,
                   std::mt19937_64& rng) {
    const std::size_t pos = rng() % text.size();
    switch (edit) {
        case 0: text[pos] = static_cast<char>(text[pos] ^ (1 << rng() % 8));
                break;
        case 1: text.resize(pos); break;
        case 2:
            if (const auto s = text.find(sep, pos); s != std::string::npos)
                text.erase(s, 1);
            break;
        case 3:
            if (const auto s = text.find(sep, pos); s != std::string::npos)
                text.insert(s, 1, sep);
            break;
        case 4: text.insert(pos, 1, '-'); break;
        case 5: replace_number(text, pos, "1e400"); break;
        default: replace_number(text, pos, "99999999999999999999"); break;
    }
    return text;
}

/// Decodes @p written unmodified, then every seeded mutant of it.
void run_mutants(const std::string& written, char sep,
                 const std::function<void(std::istream&)>& decode) {
    {
        std::istringstream in(written);
        ASSERT_NO_THROW(decode(in)) << "writer output must decode";
    }
    std::size_t rejected = 0;
    for (int edit = 0; edit <= 6; ++edit) {
        std::mt19937_64 rng(1000 + edit);
        for (int seed = 0; seed < kSeedsPerEdit; ++seed) {
            const std::string text = mutate(written, sep, edit, rng);
            std::istringstream in(text);
            try {
                decode(in);
            } catch (const std::runtime_error& e) {
                ++rejected;
                EXPECT_TRUE(names_source_line(e.what()))
                    << e.what() << "\n--- input ---\n" << text;
            } catch (...) {
                ADD_FAILURE() << "non-runtime_error exception for:\n" << text;
            }
        }
    }
    EXPECT_GT(rejected, 0u) << "the mutations never produced bad input";
}

TEST(TextioMutation, FaultSchedule) {
    std::mt19937_64 rng(7);
    hp::fault::FaultSchedule schedule;
    for (int i = 0; i < 16; ++i) {
        hp::fault::FaultEvent e;
        e.time_s = 1e-3 * static_cast<double>(rng() % 100000) / 7.0;
        e.kind = static_cast<hp::fault::FaultKind>(rng() % 7);
        e.target = rng() % 64;
        e.duration_s = 1e-4 * static_cast<double>(rng() % 1000) / 3.0;
        e.magnitude = static_cast<double>(rng() % 4000) / 100.0 - 20.0;
        schedule.events.push_back(e);
    }
    std::ostringstream out;
    hp::fault::write_fault_schedule(out, schedule);
    run_mutants(out.str(), ',', [](std::istream& in) {
        (void)hp::fault::read_fault_schedule(in, kSource);
    });
}

TEST(TextioMutation, TraceCsv) {
    std::vector<hp::sim::TraceSample> trace(3);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].time_s = 0.001 * static_cast<double>(i + 1) / 3.0;
        trace[i].max_core_temperature_c = 70.0 + 0.1 * static_cast<double>(i);
        trace[i].core_temperature_c = {60.25, 65.5, 70.0, 45.0};
        trace[i].core_power_w = {1.5, 0.0, 3.75, 0.125};
        trace[i].core_frequency_hz = {4e9, 1e9, 2.5e9, 4e9};
    }
    std::ostringstream out;
    hp::sim::write_trace_csv(out, trace);
    run_mutants(out.str(), ',', [](std::istream& in) {
        (void)hp::sim::read_trace_csv(in, kSource);
    });
}

TEST(TextioMutation, EventsCsv) {
    std::vector<hp::obs::Event> events;
    for (int k = 0; k <= static_cast<int>(hp::obs::EventKind::kDivergence);
         ++k)
        events.push_back({0.01 * k, static_cast<hp::obs::EventKind>(k),
                          static_cast<std::uint32_t>(k * 977),
                          static_cast<std::uint32_t>(k), 1.0 / (k + 1)});
    std::ostringstream out;
    hp::obs::write_events_csv(out, events);
    run_mutants(out.str(), ',', [](std::istream& in) {
        (void)hp::obs::read_events_csv(in, kSource);
    });
}

TEST(TextioMutation, Profiles) {
    std::ostringstream out;
    hp::workload::write_profiles(out, hp::workload::parsec_profiles());
    run_mutants(out.str(), ' ', [](std::istream& in) {
        (void)hp::workload::read_profiles(in, kSource);
    });
}

TEST(TextioMutation, Tasks) {
    std::ostringstream out;
    hp::workload::write_tasks(out,
                              hp::workload::poisson_mix(20, 200.0, 2, 8, 7));
    run_mutants(out.str(), ' ', [](std::istream& in) {
        (void)hp::workload::read_tasks(in, {}, kSource);
    });
}

}  // namespace

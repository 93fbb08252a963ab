// Seeded mutation suite over the run journal (DESIGN.md §10.1), the file
// `--resume` trusts after a crash.
//
// A small observed campaign (traces, a fault log, metrics and events in
// every record) writes a real journal; each case then reads a seeded edit
// of it through read_journal(). Payload edits are made before the line's
// checksum is recomputed, so parse_record() sees them: a flipped byte, a
// truncation, a dropped or duplicated field, a field replaced by a count
// such as 0, 2^32 or 2^64-1. File edits are made after it and exercise the
// torn-tail and interior-checksum paths: a flipped, inserted or deleted byte,
// a truncation. Every read must succeed or throw a JournalError naming
// "<path>:<line>:"; any other exception fails the test. The fault-matrix CI
// job runs this suite under ASan+UBSan, where an allocation sized by an
// unchecked count aborts the run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "fault/fault.hpp"
#include "sched/static_schedulers.hpp"
#include "workload/benchmark.hpp"

namespace {

using hp::campaign::JournalError;

constexpr int kSeedsPerEdit = 48;
constexpr char kSep = '\x1f';

/// Pid-qualified, so ctest processes running the cases in parallel never
/// share a file.
std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) /
            (std::to_string(::getpid()) + "_" + name))
        .string();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/// The journal of a two-run campaign on the 16-core chip with a trace, an
/// injected core fault and the observability layer on, so every record
/// carries every list the payload can hold.
const std::string& written_journal() {
    static const std::string text = [] {
        static const hp::campaign::StudySetup setup =
            hp::campaign::StudySetup::paper_16core();
        hp::sim::SimConfig cfg;
        cfg.max_sim_time_s = 0.01;
        cfg.trace_interval_s = 0.004;
        hp::fault::FaultEvent fault;
        fault.time_s = 0.001;
        fault.kind = hp::fault::FaultKind::kCoreTransient;
        fault.target = 3;
        fault.duration_s = 0.002;
        cfg.fault_schedule.events.push_back(fault);
        hp::campaign::CampaignSpec spec(setup, cfg);
        spec.add_scheduler("HotPotato", [] {
            return std::make_unique<hp::core::HotPotatoScheduler>();
        });
        spec.add_scheduler("Static", [] {
            return std::make_unique<hp::sched::StaticScheduler>();
        });
        spec.add_workload(
            "blackscholes-4",
            {{&hp::workload::profile_by_name("blackscholes"), 4, 0.0}});
        hp::campaign::CampaignOptions options;
        options.observe = true;
        options.journal_path = temp_path("journal_mutation_source.hpj");
        (void)hp::campaign::run_campaign(spec, options);
        return read_file(options.journal_path);
    }();
    return text;
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
         start = nl + 1)
        lines.push_back(text.substr(start, nl - start));
    return lines;
}

std::vector<std::string> fields_of(const std::string& payload) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t sep;
         (sep = payload.find(kSep, start)) != std::string::npos;
         start = sep + 1)
        fields.push_back(payload.substr(start, sep - start));
    fields.push_back(payload.substr(start));
    return fields;
}

std::string join_fields(const std::vector<std::string>& fields) {
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) out += kSep;
        out += fields[i];
    }
    return out;
}

/// A record line as RunJournal::append writes it: checksum, space, payload.
std::string checksummed(const std::string& payload) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      hp::campaign::fnv1a64(payload)));
    return std::string(hex) + " " + payload;
}

/// Payload edit @p edit of a record payload (before its checksum).
std::string mutate_payload(const std::string& payload, int edit,
                           std::mt19937_64& rng) {
    std::vector<std::string> fields = fields_of(payload);
    const std::size_t at = rng() % fields.size();
    switch (edit) {
        case 0: {
            std::string text = payload;
            const std::size_t pos = rng() % text.size();
            text[pos] = static_cast<char>(text[pos] ^ (1 << rng() % 8));
            return text;
        }
        case 1: return payload.substr(0, rng() % payload.size());
        case 2: fields.erase(fields.begin() + static_cast<long>(at)); break;
        case 3:
            fields.insert(fields.begin() + static_cast<long>(at), fields[at]);
            break;
        default: {
            static const char* const kCounts[] = {
                "0",          "1",          "65535",
                "65536",      "4294967295", "4294967296",
                "18446744073709551615",     "99999999999999999999"};
            fields[at] = kCounts[rng() % std::size(kCounts)];
            break;
        }
    }
    return join_fields(fields);
}

/// File edit @p edit of the whole journal (after the checksums).
std::string mutate_file(std::string text, int edit, std::mt19937_64& rng) {
    const std::size_t pos = rng() % text.size();
    switch (edit) {
        case 0: text[pos] = static_cast<char>(text[pos] ^ (1 << rng() % 8));
                break;
        case 1: text.resize(pos); break;
        case 2: text.insert(pos, 1, static_cast<char>(rng() % 256)); break;
        default: text.erase(pos, 1); break;
    }
    return text;
}

/// True when @p what contains "<path>:<digits>:".
bool names_path_line(const std::string& what, const std::string& path) {
    const std::size_t at = what.find(path + ":");
    if (at == std::string::npos) return false;
    std::size_t i = at + path.size() + 1;
    const std::size_t digits = i;
    while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i])))
        ++i;
    return i > digits && i < what.size() && what[i] == ':';
}

/// Reads @p text back as a journal file. Returns true on a rejection, which
/// must be a JournalError naming the path and a line.
bool read_rejects(const std::string& text) {
    const std::string path = temp_path("journal_mutant.hpj");
    write_file(path, text);
    try {
        (void)hp::campaign::read_journal(path);
        return false;
    } catch (const JournalError& e) {
        EXPECT_TRUE(names_path_line(e.what(), path)) << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "non-JournalError exception: " << e.what();
    } catch (...) {
        ADD_FAILURE() << "non-std exception";
    }
    return true;
}

TEST(JournalMutation, PayloadEditsBeforeTheChecksum) {
    const std::vector<std::string> lines = lines_of(written_journal());
    ASSERT_EQ(lines.size(), 3u) << "header plus one line per run";
    ASSERT_NO_THROW((void)hp::campaign::read_journal(
        temp_path("journal_mutation_source.hpj")));
    std::size_t rejected = 0, accepted = 0;
    for (int edit = 0; edit <= 4; ++edit) {
        std::mt19937_64 rng(2000 + edit);
        for (int seed = 0; seed < kSeedsPerEdit; ++seed) {
            // Edit one record's payload and re-checksum it; the other record
            // stays intact, so the edited line is interior half the time.
            const std::size_t victim = 1 + rng() % 2;
            std::string text = lines[0] + "\n";
            for (std::size_t i = 1; i < lines.size(); ++i) {
                const std::string payload = lines[i].substr(17);
                text += checksummed(i == victim
                                        ? mutate_payload(payload, edit, rng)
                                        : payload) +
                        "\n";
            }
            (read_rejects(text) ? rejected : accepted) += 1;
        }
    }
    EXPECT_GT(rejected, 0u) << "the edits never produced a bad payload";
    EXPECT_GT(accepted, 0u) << "no edit left a readable journal";
}

TEST(JournalMutation, FileEditsAfterTheChecksum) {
    const std::string& written = written_journal();
    std::size_t rejected = 0, accepted = 0;
    for (int edit = 0; edit <= 3; ++edit) {
        std::mt19937_64 rng(3000 + edit);
        for (int seed = 0; seed < kSeedsPerEdit; ++seed)
            (read_rejects(mutate_file(written, edit, rng)) ? rejected
                                                           : accepted) += 1;
    }
    // Interior edits fail the checksum; edits in the last line are a torn
    // tail and drop that record.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

}  // namespace

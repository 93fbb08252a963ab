#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"

namespace hp::campaign {

/// Raised on any resume-journal problem that is NOT a crash artifact: a
/// missing or unreadable file, a malformed header, a checksum or parse
/// failure on an interior record, or a journal written for a different
/// campaign grid. (A torn *final* line is the expected signature of a crash
/// mid-append and is silently dropped instead.) The CLI maps this to its
/// own exit code so scripts can distinguish "journal corrupt" from "some
/// runs failed".
class JournalError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// 64-bit FNV-1a of @p text, continuing from @p hash (the offset basis by
/// default): the journal's line checksums and grid signature, and the
/// campaign engine's deterministic retry jitter.
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t hash = 14695981039346656037ull);

/// Order- and thread-count-independent fingerprint of a campaign grid:
/// FNV-1a over run_count and every RunKey (index, labels, seed). A journal
/// records the signature of the spec that wrote it; resuming with a spec
/// whose signature differs is a JournalError — the journaled records would
/// be merged into the wrong grid.
std::uint64_t grid_signature(const CampaignSpec& spec);

/// What read_journal() recovered.
struct JournalContents {
    std::uint64_t grid_hash = 0;    ///< signature of the writing spec
    std::size_t total_runs = 0;     ///< grid size of the writing spec
    /// Journaled records in append (completion) order. The engine re-merges
    /// them by key.index, so this order carries no meaning.
    std::vector<RunRecord> records;
    /// True when the final line was torn (crash mid-append) and dropped.
    bool torn_tail = false;
};

/// Parses a journal file. Throws JournalError on corruption anywhere except
/// a torn final line; a problem with the file's content is reported as
/// `journal: <path>:<line>: <what>`. The record payloads round-trip every
/// determinism-relevant RunRecord field bit-exactly (doubles via %.17g),
/// including the obs metrics snapshot and event trace.
JournalContents read_journal(const std::string& path);

/// Append-only, crash-safe run journal (DESIGN.md §10).
///
/// Layout: one header line (format version, grid signature, run count)
/// followed by one line per completed run — `<fnv64 hex> <payload>` where
/// the checksum covers the payload bytes. The file is created atomically
/// (temp + fsync + rename) so a crash during creation leaves either no
/// journal or a valid empty one; every append is written and fsync'd as a
/// single line, so a crash mid-append can only tear the final line, which
/// read_journal() detects by checksum and drops.
///
/// Threading: append() is NOT internally synchronized — the campaign engine
/// serializes appends under its own mutex.
class RunJournal {
public:
    /// Starts a fresh journal for @p spec at @p path (atomically replacing
    /// any previous file). Throws std::runtime_error on I/O failure.
    static RunJournal create(const std::string& path,
                             const CampaignSpec& spec);

    /// Opens an existing journal for continued appends (the resume case).
    /// Validates the header against @p spec; throws JournalError on
    /// mismatch or corruption.
    static RunJournal append_to(const std::string& path,
                                const CampaignSpec& spec);

    RunJournal(RunJournal&& other) noexcept;
    RunJournal& operator=(RunJournal&&) = delete;
    RunJournal(const RunJournal&) = delete;
    RunJournal& operator=(const RunJournal&) = delete;
    ~RunJournal();

    /// Serializes @p record, appends it as one checksummed line and fsyncs.
    /// After append() returns, the record survives a SIGKILL or power loss.
    void append(const RunRecord& record);

    const std::string& path() const { return path_; }

private:
    RunJournal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

    std::string path_;
    int fd_ = -1;
};

/// Payload (de)serialization, exposed for tests: serialize_record() emits a
/// single line without checksum or newline; parse_record() inverts it
/// exactly. parse_record() throws JournalError on malformed input, which
/// includes a list count larger than the fields left in the payload (checked
/// before anything is sized by it) and an out-of-range enum tag or event
/// argument.
std::string serialize_record(const RunRecord& record);
RunRecord parse_record(const std::string& payload);

}  // namespace hp::campaign

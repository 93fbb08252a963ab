#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// The one reader behind every text input (profiles, task lists, fault
/// schedules, trace and event CSVs, CLI values, the run journal). Rules:
/// numbers are whole fields, unsigned counts take no sign, '#' starts a
/// comment, CRLF reads like LF, and errors read
/// "<module>: <source>:<line>: <what>". std-only.
namespace hp::textio {

/// Decimal double (std::from_chars, plus one optional leading '+'); nullopt
/// unless all of @p text parses and is in range.
std::optional<double> parse_f64(std::string_view text);

/// Unsigned integer in @p base; nullopt on a sign, trailing text or overflow.
std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10);

/// Shortest decimal that parse_f64 reads back to the same bits.
std::string format_f64(double v);

/// @p text cut at every @p sep, empty fields kept, nothing trimmed.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Opens @p path for reading or throws "<module>: cannot open <path>".
std::ifstream open_input(const std::string& path, const std::string& module);

/// Numbered line reader: next() skips lines that are blank once a '#'
/// comment, a trailing '\r' and outer blanks are stripped. The views that
/// line(), fields() and words() return live until the next call to next().
class LineReader {
public:
    LineReader(std::istream& in, std::string module, std::string source);
    LineReader(const LineReader&) = delete;
    LineReader& operator=(const LineReader&) = delete;

    bool next();
    std::string_view line() const { return line_; }

    /// The line cut at @p sep, each field trimmed of outer blanks.
    std::vector<std::string_view> fields(char sep) const;
    /// The line cut at runs of blanks.
    std::vector<std::string_view> words() const;

    [[noreturn]] void fail(const std::string& what) const;
    /// parse_f64 / parse_u64 of @p field, else fail("bad <what> '<field>'").
    double f64(std::string_view field, std::string_view what) const;
    std::uint64_t u64(std::string_view field, std::string_view what,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) const;

private:
    std::istream& in_;
    std::string module_, source_, buffer_;
    std::string_view line_;
    std::size_t line_no_ = 0;
};

}  // namespace hp::textio

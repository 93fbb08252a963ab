#include "textio/textio.hpp"

#include <charconv>
#include <istream>
#include <stdexcept>

namespace hp::textio {

namespace {

constexpr std::string_view kBlanks = " \t\r\f\v";

std::string_view trim(std::string_view text) {
    const std::size_t first = text.find_first_not_of(kBlanks);
    if (first == std::string_view::npos) return {};
    return text.substr(first, text.find_last_not_of(kBlanks) - first + 1);
}

}  // namespace

std::optional<double> parse_f64(std::string_view text) {
    if (text.size() > 1 && text[0] == '+' && text[1] != '-')
        text.remove_prefix(1);
    double v = 0.0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last) return std::nullopt;
    return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
    std::uint64_t v = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v, base);
    if (ec != std::errc() || end != last) return std::nullopt;
    return v;
}

std::string format_f64(double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
    std::vector<std::string_view> out;
    for (std::size_t start = 0;;) {
        const std::size_t end = text.find(sep, start);
        out.push_back(text.substr(start, end - start));
        if (end == std::string_view::npos) return out;
        start = end + 1;
    }
}

std::ifstream open_input(const std::string& path, const std::string& module) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error(module + ": cannot open " + path);
    return file;
}

LineReader::LineReader(std::istream& in, std::string module,
                       std::string source)
    : in_(in), module_(std::move(module)), source_(std::move(source)) {}

bool LineReader::next() {
    while (std::getline(in_, buffer_)) {
        ++line_no_;
        const std::string_view text = buffer_;
        line_ = trim(text.substr(0, text.find('#')));
        if (!line_.empty()) return true;
    }
    return false;
}

std::vector<std::string_view> LineReader::fields(char sep) const {
    std::vector<std::string_view> out = split(line_, sep);
    for (std::string_view& field : out) field = trim(field);
    return out;
}

std::vector<std::string_view> LineReader::words() const {
    std::vector<std::string_view> out;
    for (std::size_t start = line_.find_first_not_of(kBlanks);
         start != std::string_view::npos;
         start = line_.find_first_not_of(kBlanks, start)) {
        const std::size_t end = line_.find_first_of(kBlanks, start);
        out.push_back(line_.substr(start, end - start));
        start = end;
    }
    return out;
}

void LineReader::fail(const std::string& what) const {
    throw std::runtime_error(module_ + ": " + source_ + ":" +
                             std::to_string(line_no_) + ": " + what);
}

double LineReader::f64(std::string_view field, std::string_view what) const {
    if (const auto v = parse_f64(field)) return *v;
    fail("bad " + std::string(what) + " '" + std::string(field) + "'");
}

std::uint64_t LineReader::u64(std::string_view field, std::string_view what,
                              std::uint64_t max) const {
    const auto v = parse_u64(field);
    if (v && *v <= max) return *v;
    fail("bad " + std::string(what) + " '" + std::string(field) + "'");
}

}  // namespace hp::textio

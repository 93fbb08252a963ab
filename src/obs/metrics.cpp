#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "textio/textio.hpp"

namespace hp::obs {

// --- instruments -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        throw std::invalid_argument("Histogram: bounds must be ascending");
}

void Histogram::observe(double x) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    ++counts_[i];
}

std::uint64_t Histogram::total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts_) sum += c;
    return sum;
}

double Histogram::histogram_quantile(const std::vector<double>& bounds,
                                     const std::vector<std::uint64_t>& counts,
                                     double q) {
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    if (total == 0 || counts.empty()) return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the target observation, 1-based; q = 0 targets the first.
    const double rank = std::max(1.0, q * static_cast<double>(total));
    double cum = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double in_bucket = static_cast<double>(counts[i]);
        if (cum + in_bucket < rank) {
            cum += in_bucket;
            continue;
        }
        if (i >= bounds.size())  // overflow bucket: saturate at its floor
            return bounds.empty() ? 0.0 : bounds.back();
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = bounds[i];
        if (in_bucket <= 0.0) return hi;
        return lo + (hi - lo) * ((rank - cum) / in_bucket);
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

// --- registry ----------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
    for (auto& c : counters_)
        if (c.name == name) return c.value;
    counters_.push_back({name, Counter{}});
    return counters_.back().value;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    for (auto& g : gauges_)
        if (g.name == name) return g.value;
    gauges_.push_back({name, Gauge{}});
    return gauges_.back().value;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
    for (auto& h : histograms_)
        if (h.name == name) return h.value;
    histograms_.push_back({name, Histogram(std::move(upper_bounds))});
    return histograms_.back().value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot out;
    for (const auto& c : counters_)
        out.counters.push_back({c.name, c.value.value});
    for (const auto& g : gauges_)
        out.gauges.push_back({g.name, g.value.value});
    for (const auto& h : histograms_)
        out.histograms.push_back(
            {h.name, h.value.bounds(), h.value.counts()});
    const auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(out.counters.begin(), out.counters.end(), by_name);
    std::sort(out.gauges.begin(), out.gauges.end(), by_name);
    std::sort(out.histograms.begin(), out.histograms.end(), by_name);
    return out;
}

// --- JSON --------------------------------------------------------------------

namespace {

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsSnapshot& s) {
    out << "{\"events_recorded\": " << s.events_recorded
        << ", \"events_dropped\": " << s.events_dropped;
    out << ", \"counters\": {";
    for (std::size_t i = 0; i < s.counters.size(); ++i)
        out << (i ? ", " : "") << '"' << s.counters[i].name
            << "\": " << s.counters[i].value;
    out << "}, \"gauges\": {";
    for (std::size_t i = 0; i < s.gauges.size(); ++i)
        out << (i ? ", " : "") << '"' << s.gauges[i].name
            << "\": " << fmt_double(s.gauges[i].value);
    out << "}, \"histograms\": {";
    for (std::size_t i = 0; i < s.histograms.size(); ++i) {
        const auto& h = s.histograms[i];
        out << (i ? ", " : "") << '"' << h.name << "\": {\"bounds\": [";
        for (std::size_t j = 0; j < h.bounds.size(); ++j)
            out << (j ? ", " : "") << fmt_double(h.bounds[j]);
        out << "], \"counts\": [";
        for (std::size_t j = 0; j < h.counts.size(); ++j)
            out << (j ? ", " : "") << h.counts[j];
        out << "]}";
    }
    out << "}, \"phases\": {";
    for (std::size_t i = 0; i < s.phases.size(); ++i) {
        const auto& p = s.phases[i];
        out << (i ? ", " : "") << '"' << p.name << "\": {\"calls\": "
            << p.calls << ", \"total_s\": " << fmt_double(p.total_s) << "}";
    }
    out << "}}";
}

namespace {

/// Recursive-descent parser for the exact value shapes write_metrics_json
/// emits: objects, arrays, strings without escapes, and numbers. Kept local
/// and strict — this is a round-trip reader for our own output, not a
/// general JSON library.
class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    void expect(char c) {
        skip_ws();
        if (i_ >= s_.size() || s_[i_] != c)
            fail(std::string("expected '") + c + "'");
        ++i_;
    }
    bool consume(char c) {
        skip_ws();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }
    char peek() {
        skip_ws();
        return i_ < s_.size() ? s_[i_] : '\0';
    }
    std::string parse_string() {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') out += s_[i_++];
        expect('"');
        return out;
    }
    // Numbers are whole tokens in the shared textio grammar; a bad one
    // fails at the offset of its first character.
    double parse_number() {
        const std::string_view token = number_token();
        if (const auto v = textio::parse_f64(token)) return *v;
        fail_at(token, "expected a number");
    }
    std::uint64_t parse_uint() {
        const std::string_view token = number_token();
        if (const auto v = textio::parse_u64(token)) return *v;
        fail_at(token, "expected an unsigned integer");
    }
    void end() {
        skip_ws();
        if (i_ != s_.size()) fail("trailing characters");
    }
    [[noreturn]] void fail(const std::string& why) {
        throw std::runtime_error("parse_metrics_json at offset " +
                                 std::to_string(i_) + ": " + why);
    }

private:
    /// The token at the cursor: everything up to the next blank, ',', ']'
    /// or '}'.
    std::string_view number_token() {
        skip_ws();
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               std::string_view(" \n\t\r,]}").find(s_[i_]) ==
                   std::string_view::npos)
            ++i_;
        return std::string_view(s_).substr(start, i_ - start);
    }
    [[noreturn]] void fail_at(std::string_view token, const std::string& why) {
        i_ = static_cast<std::size_t>(token.data() - s_.data());
        fail(why);
    }
    void skip_ws() {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
                s_[i_] == '\r'))
            ++i_;
    }

    const std::string& s_;
    std::size_t i_ = 0;
};

}  // namespace

MetricsSnapshot parse_metrics_json(const std::string& text) {
    MetricsSnapshot out;
    Parser p(text);
    p.expect('{');
    if (!p.consume('}')) {
        do {
            const std::string key = p.parse_string();
            p.expect(':');
            if (key == "events_recorded") {
                out.events_recorded = p.parse_uint();
            } else if (key == "events_dropped") {
                out.events_dropped = p.parse_uint();
            } else if (key == "counters") {
                p.expect('{');
                if (!p.consume('}')) {
                    do {
                        MetricsSnapshot::CounterValue c;
                        c.name = p.parse_string();
                        p.expect(':');
                        c.value = p.parse_uint();
                        out.counters.push_back(std::move(c));
                    } while (p.consume(','));
                    p.expect('}');
                }
            } else if (key == "gauges") {
                p.expect('{');
                if (!p.consume('}')) {
                    do {
                        MetricsSnapshot::GaugeValue g;
                        g.name = p.parse_string();
                        p.expect(':');
                        g.value = p.parse_number();
                        out.gauges.push_back(std::move(g));
                    } while (p.consume(','));
                    p.expect('}');
                }
            } else if (key == "histograms") {
                p.expect('{');
                if (!p.consume('}')) {
                    do {
                        MetricsSnapshot::HistogramValue h;
                        h.name = p.parse_string();
                        p.expect(':');
                        p.expect('{');
                        do {
                            const std::string field = p.parse_string();
                            p.expect(':');
                            p.expect('[');
                            if (field == "bounds") {
                                if (p.peek() != ']')
                                    do {
                                        h.bounds.push_back(p.parse_number());
                                    } while (p.consume(','));
                            } else if (field == "counts") {
                                if (p.peek() != ']')
                                    do {
                                        h.counts.push_back(p.parse_uint());
                                    } while (p.consume(','));
                            } else {
                                p.fail("unknown histogram field: " + field);
                            }
                            p.expect(']');
                        } while (p.consume(','));
                        p.expect('}');
                        out.histograms.push_back(std::move(h));
                    } while (p.consume(','));
                    p.expect('}');
                }
            } else if (key == "phases") {
                p.expect('{');
                if (!p.consume('}')) {
                    do {
                        MetricsSnapshot::PhaseValue ph;
                        ph.name = p.parse_string();
                        p.expect(':');
                        p.expect('{');
                        do {
                            const std::string field = p.parse_string();
                            p.expect(':');
                            if (field == "calls")
                                ph.calls = p.parse_uint();
                            else if (field == "total_s")
                                ph.total_s = p.parse_number();
                            else
                                p.fail("unknown phase field: " + field);
                        } while (p.consume(','));
                        p.expect('}');
                        out.phases.push_back(std::move(ph));
                    } while (p.consume(','));
                    p.expect('}');
                }
            } else {
                p.fail("unknown key: " + key);
            }
        } while (p.consume(','));
        p.expect('}');
    }
    p.end();
    return out;
}

// --- markdown ----------------------------------------------------------------

std::string metrics_markdown(const MetricsSnapshot& s) {
    std::ostringstream out;
    if (!s.counters.empty() || !s.gauges.empty()) {
        out << "| metric | value |\n|---|---|\n";
        for (const auto& c : s.counters)
            out << "| " << c.name << " | " << c.value << " |\n";
        out.setf(std::ios::fixed);
        out.precision(4);
        for (const auto& g : s.gauges)
            out << "| " << g.name << " | " << g.value << " |\n";
        out.unsetf(std::ios::fixed);
    }
    for (const auto& h : s.histograms) {
        out << "\n" << h.name << ":";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            out << " ";
            if (i < h.bounds.size())
                out << "<=" << h.bounds[i];
            else
                out << ">" << (h.bounds.empty() ? 0.0 : h.bounds.back());
            out << ": " << h.counts[i];
        }
        out << "\n";
    }
    if (!s.phases.empty()) {
        out << "\n| phase | calls | total [ms] |\n|---|---|---|\n";
        out.setf(std::ios::fixed);
        out.precision(3);
        for (const auto& p : s.phases)
            out << "| " << p.name << " | " << p.calls << " | "
                << p.total_s * 1e3 << " |\n";
        out.unsetf(std::ios::fixed);
    }
    if (s.events_recorded > 0 || s.events_dropped > 0)
        out << "\nevents: " << s.events_recorded << " recorded, "
            << s.events_dropped << " dropped (ring overflow)\n";
    return out.str();
}

// --- merge -------------------------------------------------------------------

MetricsSnapshot merge(const std::vector<MetricsSnapshot>& snapshots) {
    MetricsSnapshot out;
    for (const MetricsSnapshot& s : snapshots) {
        out.events_recorded += s.events_recorded;
        out.events_dropped += s.events_dropped;
        for (const auto& c : s.counters) {
            auto it = std::find_if(
                out.counters.begin(), out.counters.end(),
                [&](const auto& existing) { return existing.name == c.name; });
            if (it == out.counters.end())
                out.counters.push_back(c);
            else
                it->value += c.value;
        }
        for (const auto& g : s.gauges) {
            auto it = std::find_if(
                out.gauges.begin(), out.gauges.end(),
                [&](const auto& existing) { return existing.name == g.name; });
            if (it == out.gauges.end())
                out.gauges.push_back(g);
            else
                it->value = std::max(it->value, g.value);
        }
        for (const auto& h : s.histograms) {
            auto it = std::find_if(
                out.histograms.begin(), out.histograms.end(),
                [&](const auto& existing) { return existing.name == h.name; });
            if (it == out.histograms.end()) {
                out.histograms.push_back(h);
            } else if (it->bounds == h.bounds) {
                for (std::size_t i = 0; i < it->counts.size(); ++i)
                    it->counts[i] += h.counts[i];
            }  // mismatched bounds: keep the first occurrence's buckets
        }
        for (const auto& ph : s.phases) {
            auto it = std::find_if(
                out.phases.begin(), out.phases.end(),
                [&](const auto& existing) { return existing.name == ph.name; });
            if (it == out.phases.end()) {
                out.phases.push_back(ph);
            } else {
                it->calls += ph.calls;
                it->total_s += ph.total_s;
            }
        }
    }
    const auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(out.counters.begin(), out.counters.end(), by_name);
    std::sort(out.gauges.begin(), out.gauges.end(), by_name);
    std::sort(out.histograms.begin(), out.histograms.end(), by_name);
    return out;
}

}  // namespace hp::obs

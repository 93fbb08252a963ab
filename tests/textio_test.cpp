// The shared text-input layer (src/textio): number grammar, line cleaning,
// field splitting and the "<module>: <source>:<line>: <what>" error format
// every decoder inherits.

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "textio/textio.hpp"

namespace {

using hp::textio::format_f64;
using hp::textio::LineReader;
using hp::textio::parse_f64;
using hp::textio::parse_u64;

TEST(TextioNumbers, F64TakesWholeFieldsOnly) {
    EXPECT_EQ(parse_f64("0.5"), 0.5);
    EXPECT_EQ(parse_f64("-1.25e3"), -1250.0);
    EXPECT_EQ(parse_f64("+2"), 2.0);
    EXPECT_TRUE(std::isinf(*parse_f64("inf")));
    EXPECT_TRUE(std::isnan(*parse_f64("nan")));
    for (const char* bad : {"", "+", "-", "+-1", "1x", " 1", "1 ", "1e400",
                            "0x10", "abc", "1,5"})
        EXPECT_FALSE(parse_f64(bad)) << bad;
}

TEST(TextioNumbers, U64TakesNoSignAndNoOverflow) {
    EXPECT_EQ(parse_u64("0"), 0u);
    EXPECT_EQ(parse_u64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parse_u64("00ff", 16), 255u);
    for (const char* bad : {"", "-1", "+1", "4x", "1.0", " 4",
                            "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parse_u64(bad)) << bad;
}

TEST(TextioNumbers, FormatIsShortestRoundTrip) {
    for (double v : {0.1, 0.00062449681459736178, 0.0123456789, 4e9, -0.0,
                     5e-324, std::numeric_limits<double>::max()}) {
        const std::string text = format_f64(v);
        const auto back = parse_f64(text);
        ASSERT_TRUE(back) << text;
        EXPECT_EQ(std::signbit(*back), std::signbit(v)) << text;
        EXPECT_EQ(*back, v) << text;
    }
    EXPECT_EQ(format_f64(0.5), "0.5");
    EXPECT_EQ(format_f64(2.0), "2");
}

TEST(TextioSplit, KeepsEmptyFields) {
    const auto f = hp::textio::split("a,,b,", ',');
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "");
    EXPECT_EQ(f[2], "b");
    EXPECT_EQ(f[3], "");
    EXPECT_EQ(hp::textio::split("", ',').size(), 1u);
}

TEST(TextioLineReader, CleansNumbersAndSplitsLines) {
    std::istringstream in(
        "# header comment\r\n"
        "\r\n"
        "  a, b ,c  # trailing\r\n"
        "\t x \t y\tz\n"
        "   # only a comment\n");
    LineReader r(in, "mod", "src.txt");
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.line(), "a, b ,c");
    const auto f = r.fields(',');
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[1], "b");
    ASSERT_TRUE(r.next());
    const auto w = r.words();
    ASSERT_EQ(w.size(), 3u);
    EXPECT_EQ(w[0], "x");
    EXPECT_EQ(w[2], "z");
    try {
        r.fail("boom");
        FAIL() << "fail() must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "mod: src.txt:4: boom");
    }
    EXPECT_FALSE(r.next());
}

TEST(TextioLineReader, FieldParsersNameTheField) {
    std::istringstream in("4x 300\n");
    LineReader r(in, "mod", "s");
    ASSERT_TRUE(r.next());
    const auto w = r.words();
    try {
        (void)r.u64(w[0], "count");
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "mod: s:1: bad count '4x'");
    }
    EXPECT_EQ(r.u64(w[1], "byte", 300), 300u);
    EXPECT_THROW((void)r.u64(w[1], "byte", 255), std::runtime_error);
    EXPECT_THROW((void)r.f64(w[0], "value"), std::runtime_error);
}

TEST(TextioOpen, MissingFileNamesModuleAndPath) {
    try {
        (void)hp::textio::open_input("/nonexistent/in.txt", "mod");
        FAIL() << "expected an open error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "mod: cannot open /nonexistent/in.txt");
    }
}

}  // namespace

/**
 * @file
 * Tests for sim::BenchReport emission and the sim/json.hh parsers:
 * the BENCH_*.json artifact must round-trip through the JSON parser
 * (the same one the shard-merge tool trusts), the hexfloat map must
 * reproduce every decimal metric bit-exactly, two writes of the same
 * report must be byte-identical (the property performance-tracking
 * tooling diffs on), a write that fails must say so, the parser must
 * read only the escapes the writers emit, and the shared decimal
 * parser must take exactly the uint64 range.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/bench_report.hh"
#include "sim/json.hh"

namespace
{

using namespace pktchase;
using sim::JsonValue;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse @p path with the shared parser; any error fails the test. */
JsonValue
parseFile(const std::string &path)
{
    JsonValue root;
    std::string err;
    EXPECT_TRUE(sim::parseJsonFile(path, root, err)) << err;
    EXPECT_EQ(root.kind, JsonValue::Object);
    return root;
}

/** A report with awkward values: negatives, tiny, huge, non-dyadic. */
sim::BenchReport
sampleReport()
{
    sim::BenchReport report("selftest");
    report.scalar("elapsed_sec", 12.25);
    report.scalar("count", 3.0);
    sim::BenchReport::Metrics m1;
    m1.emplace_back("p99", 0.1);                 // not exactly dyadic
    m1.emplace_back("rate", 1.2345678901234567e9);
    m1.emplace_back("delta", -4.9406564584124654e-324); // denormal min
    sim::BenchReport::Metrics m2;
    m2.emplace_back("p99", 1e308);
    report.cell("cells/with \"quotes\" and \\slashes", m1);
    report.cell("cells/plain", m2);
    return report;
}

TEST(BenchReport, RoundTripsThroughJsonParser)
{
    const std::string path =
        testing::TempDir() + "/bench_report_roundtrip.json";
    ASSERT_TRUE(sampleReport().write(path));

    const JsonValue root = parseFile(path);

    const JsonValue *bench = root.find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->str, "selftest");
    const JsonValue *elapsed = root.find("elapsed_sec");
    ASSERT_NE(elapsed, nullptr);
    EXPECT_DOUBLE_EQ(elapsed->num, 12.25);

    const JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->kind, JsonValue::Array);
    ASSERT_EQ(cells->arr.size(), 2u);

    const JsonValue &c0 = cells->arr[0];
    const JsonValue *name = c0.find("name");
    ASSERT_NE(name, nullptr);
    // The escaped name must round-trip back to the original.
    EXPECT_EQ(name->str, "cells/with \"quotes\" and \\slashes");
    const JsonValue *metrics = c0.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *rate = metrics->find("rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_DOUBLE_EQ(rate->num, 1.2345678901234567e9);

    std::remove(path.c_str());
}

TEST(BenchReport, MetaStringsEmitAndLastWriteWins)
{
    sim::BenchReport report("metas");
    report.meta("grid", "fig-with \"quotes\"");
    report.meta("campaign_seed", "41");
    report.meta("campaign_seed", "42"); // last write wins
    const std::string path = testing::TempDir() + "/bench_meta.json";
    ASSERT_TRUE(report.write(path));

    const JsonValue root = parseFile(path);
    ASSERT_NE(root.find("grid"), nullptr);
    EXPECT_EQ(root.find("grid")->str, "fig-with \"quotes\"");
    ASSERT_NE(root.find("campaign_seed"), nullptr);
    EXPECT_EQ(root.find("campaign_seed")->str, "42");
    std::remove(path.c_str());
}

TEST(BenchReport, RowTaggedCellsCarryIndexAndSeed)
{
    sim::BenchReport report("rows");
    sim::BenchReport::Metrics m;
    m.emplace_back("v", 0.5);
    report.cell(12, 0xDEADBEEFCAFEF00Dull, "rows/one", m);
    const std::string path = testing::TempDir() + "/bench_rows.json";
    ASSERT_TRUE(report.write(path));

    const JsonValue root = parseFile(path);
    const JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->arr.size(), 1u);
    const JsonValue &cell = cells->arr[0];
    ASSERT_NE(cell.find("index"), nullptr);
    EXPECT_EQ(cell.find("index")->num, 12.0);
    ASSERT_NE(cell.find("seed"), nullptr);
    EXPECT_EQ(cell.find("seed")->str, "0xdeadbeefcafef00d");
    EXPECT_EQ(cell.find("name")->str, "rows/one");
    std::remove(path.c_str());
}

TEST(BenchReport, HexMapReproducesDecimalMetricsBitExactly)
{
    const std::string path =
        testing::TempDir() + "/bench_report_hex.json";
    ASSERT_TRUE(sampleReport().write(path));

    const JsonValue root = parseFile(path);
    const JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    for (const JsonValue &cell : cells->arr) {
        const JsonValue *metrics = cell.find("metrics");
        const JsonValue *hex = cell.find("hex");
        ASSERT_NE(metrics, nullptr);
        ASSERT_NE(hex, nullptr);
        ASSERT_EQ(metrics->obj.size(), hex->obj.size());
        for (std::size_t i = 0; i < metrics->obj.size(); ++i) {
            EXPECT_EQ(metrics->obj[i].first, hex->obj[i].first);
            ASSERT_EQ(hex->obj[i].second.kind, JsonValue::String);
            // strtod accepts the %a spelling; the bits must match the
            // %.17g decimal exactly (both round-trip IEEE doubles).
            const double from_hex =
                std::strtod(hex->obj[i].second.str.c_str(), nullptr);
            EXPECT_EQ(from_hex, metrics->obj[i].second.num)
                << cell.find("name")->str << "/"
                << metrics->obj[i].first;
        }
    }
    std::remove(path.c_str());
}

TEST(BenchReport, TwoWritesAreByteIdentical)
{
    const std::string a =
        testing::TempDir() + "/bench_report_rep_a.json";
    const std::string b =
        testing::TempDir() + "/bench_report_rep_b.json";
    const sim::BenchReport report = sampleReport();
    ASSERT_TRUE(report.write(a));
    ASSERT_TRUE(report.write(b));
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

/** /dev/full accepts the open and fails the flush: the write must
 *  report the failure instead of claiming the file was written. */
TEST(BenchReport, FailedWriteIsReported)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    EXPECT_FALSE(sampleReport().write("/dev/full"));
}

TEST(BenchReport, ScalarLastWriteWins)
{
    sim::BenchReport report("scalars");
    report.scalar("x", 1.0);
    report.scalar("x", 2.0);
    const std::string path =
        testing::TempDir() + "/bench_report_scalar.json";
    ASSERT_TRUE(report.write(path));
    const JsonValue root = parseFile(path);
    const JsonValue *x = root.find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_DOUBLE_EQ(x->num, 2.0);
    std::remove(path.c_str());
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(sim::parseJson("", v, err));
    EXPECT_FALSE(sim::parseJson("{\"a\": }", v, err));
    EXPECT_FALSE(sim::parseJson("{\"a\": 1} trailing", v, err));
    EXPECT_FALSE(sim::parseJson("[1, 2", v, err));
    // JSON strings cannot hold control characters, raw or escaped.
    EXPECT_FALSE(sim::parseJson("[\"a\nb\"]", v, err));
    EXPECT_FALSE(sim::parseJson("[\"a\\\nb\"]", v, err));
    EXPECT_FALSE(err.empty());
    // The writers escape only the quote and the backslash; every other
    // escape is refused at its byte offset rather than read as a
    // literal.
    for (const char *esc : {"\\n", "\\t", "\\/", "\\u0041"}) {
        err.clear();
        EXPECT_FALSE(sim::parseJson(std::string("[\"ab") + esc + "\"]", v,
                                    err))
            << esc;
        EXPECT_NE(err.find("at byte 4: unsupported escape"),
                  std::string::npos)
            << err;
    }
    ASSERT_TRUE(sim::parseJson("[\"a\\\"b\\\\c\"]", v, err)) << err;
    EXPECT_EQ(v.arr[0].str, "a\"b\\c");
    std::string noent_err;
    EXPECT_FALSE(sim::parseJsonFile(
        testing::TempDir() + "/json_no_such_file.json", v, noent_err));
    EXPECT_FALSE(noent_err.empty());
}

TEST(JsonParser, CapsNestingDepth)
{
    JsonValue v;
    std::string err;
    // The writers nest 3 levels below the root; 64 still parse.
    EXPECT_TRUE(sim::parseJson(std::string(64, '[') + std::string(64, ']'),
                               v, err))
        << err;
    std::string objects;
    for (int i = 0; i < 65; ++i)
        objects += "{\"a\": ";
    EXPECT_FALSE(sim::parseJson(objects + "1" + std::string(65, '}'), v,
                                err));
    EXPECT_NE(err.find("nesting deeper than 64 levels"), std::string::npos)
        << err;
    // Deep enough to overflow the stack of an uncapped recursive parser.
    EXPECT_FALSE(sim::parseJson(std::string(2000000, '['), v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
}

TEST(JsonParser, AcceptsOnlyJsonNumbers)
{
    JsonValue v;
    std::string err;
    // strtod takes most of these; the JSON number grammar takes none.
    for (const char *bad : {"nan", "NAN", "inf", "-inf", "Infinity", "0x10",
                            "+1", "-", ".5", "1.", "1e", "1e+", "01",
                            "-x"}) {
        EXPECT_FALSE(sim::parseJson(std::string("[") + bad + "]", v, err))
            << bad;
    }
    for (const char *good : {"0", "-0", "7", "1.5", "-2.25e-3", "1E+2",
                             "12345678901234567890",
                             "4.9406564584124654e-324"}) {
        ASSERT_TRUE(sim::parseJson(std::string("[") + good + "]", v, err))
            << good << ": " << err;
        ASSERT_EQ(v.arr.size(), 1u);
        EXPECT_EQ(v.arr[0].kind, JsonValue::Number) << good;
        EXPECT_EQ(v.arr[0].num, std::strtod(good, nullptr)) << good;
    }
}

TEST(DecimalParser, TakesExactlyTheUint64Range)
{
    std::uint64_t v = 7;
    ASSERT_TRUE(sim::parseDecimalU64("0", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(sim::parseDecimalU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    ASSERT_TRUE(sim::parseDecimalU64("00000000000000000042", v));
    EXPECT_EQ(v, 42u);
    // A failed parse leaves the output alone.
    for (const char *bad : {"18446744073709551616", "", "2abc", "-1",
                            "+1", " 1", "1 ", "0x10",
                            "100000000000000000000"}) {
        v = 7;
        EXPECT_FALSE(sim::parseDecimalU64(bad, v)) << '"' << bad << '"';
        EXPECT_EQ(v, 7u) << '"' << bad << '"';
    }
}

} // namespace

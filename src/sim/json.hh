/**
 * @file
 * A deliberately minimal JSON reader: just enough of the grammar to
 * consume the artifacts this codebase writes itself (sim::BenchReport
 * files and the campaign shard reports) -- objects, arrays, strings
 * with the two escapes the writers emit (\" and \\; any other escape
 * is an error), and numbers in the JSON number grammar (no nan, inf or
 * hex spellings).
 *
 * This is a *round-trip* parser for our own output, not a general
 * JSON library: no unicode escapes, no booleans/null keywords beyond
 * what the writers produce. The shard merge is the main consumer, and
 * its input comes from other processes, so the parser must survive
 * anything: errors are reported as a one-line, position-stamped
 * message, never by aborting, raw control characters in strings are
 * rejected, and nesting is capped so hostile input cannot exhaust the
 * stack.
 *
 * parseDecimalU64() is the one reader of unsigned decimal input: CLI
 * flags, environment variables, defense-spec counts and the integer
 * fields of shard reports all go through it.
 */

#ifndef PKTCHASE_SIM_JSON_HH
#define PKTCHASE_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pktchase::sim
{

/** One parsed JSON value; a tagged tree. */
struct JsonValue
{
    enum Kind { Null, Number, String, Array, Object } kind = Null;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    /** Object members in document order (duplicates preserved). */
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** First member named @p key, or nullptr. Object kind only. */
    const JsonValue *find(const std::string &key) const;

    /** find() that errors into @p err (and returns nullptr) when the
     *  member is missing or not of @p kind; @p what names the file or
     *  context for the message. */
    const JsonValue *require(const std::string &key, Kind kind,
                             const std::string &what,
                             std::string &err) const;
};

/**
 * Parse @p text into @p out. Returns true on success; on failure
 * returns false and describes the first error in @p err (byte offset
 * included). Trailing non-whitespace after the value is an error.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

/** Slurp @p path and parse it; false + @p err on I/O or parse error. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string &err);

/**
 * Parse @p text as an unsigned decimal: 1 to 20 ASCII digits whose
 * value fits a uint64_t, with no sign, space or other byte. On
 * success stores the value in @p out; on failure returns false and
 * leaves @p out alone. Callers apply their own range checks.
 */
bool parseDecimalU64(const std::string &text, std::uint64_t &out);

} // namespace pktchase::sim

#endif // PKTCHASE_SIM_JSON_HH

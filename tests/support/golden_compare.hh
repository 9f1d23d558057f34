/**
 * @file
 * Golden-file comparison helper: structural diff of two JSON
 * documents with a configurable numeric tolerance.
 *
 * relTol = 0 demands bitwise-identical numbers (the default for the
 * golden regression tier — the store serializes doubles exactly, so
 * any drift is a real behavior change); a positive relTol allows the
 * relative slack a deliberate numeric refactor may need while it
 * updates the golden file.
 */

#ifndef NVMEXP_TESTS_SUPPORT_GOLDEN_COMPARE_HH
#define NVMEXP_TESTS_SUPPORT_GOLDEN_COMPARE_HH

#include <cmath>
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hh"

namespace nvmexp {
namespace testsupport {

inline bool
numbersNear(double expected, double actual, double relTol)
{
    if (expected == actual)  // covers matching infinities
        return true;
    if (std::isnan(expected) && std::isnan(actual))
        return true;
    if (relTol <= 0.0)
        return false;
    double scale = std::max(std::fabs(expected), std::fabs(actual));
    return std::fabs(expected - actual) <= relTol * scale;
}

namespace detail {

/** The value at `expected` against the one at `actual`, both readers
 *  consumed past them unless a size or member name differs (then
 *  false, and the readers are left where they stopped). */
inline bool
readersNear(JsonReader &expected, JsonReader &actual, double relTol,
            std::vector<std::string> &diffs, const std::string &path)
{
    constexpr std::size_t kMaxDiffs = 25;
    if (diffs.size() >= kMaxDiffs)
        return false;
    JsonValue::Kind kind = expected.peek();
    if (kind != actual.peek()) {
        diffs.push_back(path + ": kind mismatch");
        expected.skip();
        actual.skip();
        return false;
    }
    switch (kind) {
      case JsonValue::Kind::Null:
        expected.null();
        actual.null();
        return true;
      case JsonValue::Kind::Bool:
        if (expected.boolean() != actual.boolean()) {
            diffs.push_back(path + ": bool mismatch");
            return false;
        }
        return true;
      case JsonValue::Kind::String: {
        std::string e(expected.string());
        std::string a(actual.string());
        if (e != a) {
            diffs.push_back(path + ": '" + e + "' vs '" + a + "'");
            return false;
        }
        return true;
      }
      case JsonValue::Kind::Number: {
        double e = expected.number();
        double a = actual.number();
        if (!numbersNear(e, a, relTol)) {
            diffs.push_back(path + ": " + JsonValue::formatNumber(e) +
                            " vs " + JsonValue::formatNumber(a));
            return false;
        }
        return true;
      }
      case JsonValue::Kind::Array: {
        bool same = true;
        expected.beginArray();
        actual.beginArray();
        for (std::size_t i = 0;; ++i) {
            bool more = expected.nextElement();
            if (more != actual.nextElement()) {
                diffs.push_back(path + ": array size differs at " +
                                std::to_string(i));
                return false;
            }
            if (!more)
                return same;
            same &= readersNear(expected, actual, relTol, diffs,
                                path + "[" + std::to_string(i) + "]");
        }
      }
      case JsonValue::Kind::Object: {
        bool same = true;
        expected.beginObject();
        actual.beginObject();
        std::string_view e, a;
        while (true) {
            bool more = expected.nextMember(e);
            if (more != actual.nextMember(a) || (more && e != a)) {
                diffs.push_back(path + ": members differ");
                return false;
            }
            if (!more)
                return same;
            same &= readersNear(expected, actual, relTol, diffs,
                                path + "." + std::string(e));
        }
      }
    }
    return false;
}

} // namespace detail

/**
 * Compare the JSON text `actual` against `expected`, walking a reader
 * over each in lockstep (members in the same order); every mismatch is
 * appended to `diffs` as "<path>: <detail>" (capped so a wholesale
 * regression stays readable). @return true when no differences.
 */
inline bool
jsonNear(std::string_view expected, std::string_view actual, double relTol,
         std::vector<std::string> &diffs)
{
    JsonReader e(expected, "expected");
    JsonReader a(actual, "actual");
    if (!detail::readersNear(e, a, relTol, diffs, "$"))
        return false;
    e.end();
    a.end();
    return true;
}

/** Copy the value at `reader` through `writer`, kind by kind: the
 *  reader and the writer agree on every kind, so a document the writer
 *  wrote copies to the same bytes at the same indent. */
inline void
copyJson(JsonReader &reader, JsonWriter &writer)
{
    std::string_view name;
    switch (reader.peek()) {
      case JsonValue::Kind::Null:
        reader.null();
        writer.null();
        break;
      case JsonValue::Kind::Bool:
        writer.boolean(reader.boolean());
        break;
      case JsonValue::Kind::Number:
        writer.number(reader.number());
        break;
      case JsonValue::Kind::String:
        writer.string(reader.string());
        break;
      case JsonValue::Kind::Array:
        reader.beginArray();
        writer.beginArray();
        while (reader.nextElement())
            copyJson(reader, writer);
        writer.endArray();
        break;
      case JsonValue::Kind::Object:
        reader.beginObject();
        writer.beginObject();
        while (reader.nextMember(name)) {
            writer.key(name);
            copyJson(reader, writer);
        }
        writer.endObject();
        break;
    }
}

/** The exact bytes of a file, e.g. a golden ("" when unreadable). */
inline std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace testsupport
} // namespace nvmexp

#endif // NVMEXP_TESTS_SUPPORT_GOLDEN_COMPARE_HH

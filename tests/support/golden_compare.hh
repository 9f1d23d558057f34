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
#include <fstream>
#include <set>
#include <sstream>
#include <string>
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

/**
 * Recursively compare `actual` against `expected`; every mismatch is
 * appended to `diffs` as "<path>: <detail>" (capped so a wholesale
 * regression stays readable). @return true when no differences.
 */
inline bool
jsonNear(const JsonValue &expected, const JsonValue &actual,
         double relTol, std::vector<std::string> &diffs,
         const std::string &path = "$")
{
    constexpr std::size_t kMaxDiffs = 25;
    if (diffs.size() >= kMaxDiffs)
        return false;
    if (expected.kind() != actual.kind()) {
        diffs.push_back(path + ": kind mismatch (" +
                        expected.dump(-1).substr(0, 40) + " vs " +
                        actual.dump(-1).substr(0, 40) + ")");
        return false;
    }
    bool same = true;
    switch (expected.kind()) {
      case JsonValue::Kind::Null:
        break;
      case JsonValue::Kind::Bool:
        if (expected.asBool() != actual.asBool()) {
            diffs.push_back(path + ": bool mismatch");
            same = false;
        }
        break;
      case JsonValue::Kind::String:
        if (expected.asString() != actual.asString()) {
            diffs.push_back(path + ": '" + expected.asString() +
                            "' vs '" + actual.asString() + "'");
            same = false;
        }
        break;
      case JsonValue::Kind::Number:
        if (!numbersNear(expected.asNumber(), actual.asNumber(),
                         relTol)) {
            diffs.push_back(
                path + ": " + JsonValue::formatNumber(expected.asNumber()) +
                " vs " + JsonValue::formatNumber(actual.asNumber()));
            same = false;
        }
        break;
      case JsonValue::Kind::Array: {
        const auto &e = expected.asArray();
        const auto &a = actual.asArray();
        if (e.size() != a.size()) {
            diffs.push_back(path + ": array size " +
                            std::to_string(e.size()) + " vs " +
                            std::to_string(a.size()));
            return false;
        }
        for (std::size_t i = 0; i < e.size(); ++i) {
            same &= jsonNear(e[i], a[i], relTol, diffs,
                             path + "[" + std::to_string(i) + "]");
        }
        break;
      }
      case JsonValue::Kind::Object: {
        std::set<std::string> names(expected.memberNames().begin(),
                                    expected.memberNames().end());
        std::set<std::string> actualNames(actual.memberNames().begin(),
                                          actual.memberNames().end());
        if (names != actualNames) {
            diffs.push_back(path + ": member set differs");
            return false;
        }
        for (const auto &name : names) {
            same &= jsonNear(expected.at(name), actual.at(name), relTol,
                             diffs, path + "." + name);
        }
        break;
      }
    }
    return same;
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

/**
 * @file
 * Randomized property tier for util/json: round-trip stability of
 * arbitrary generated documents and crash-free rejection of corrupted
 * input. Runs under the CI ASan/UBSan leg, so any parser over-read or
 * UB on garbage input fails loudly.
 *
 * All randomness flows from the project Rng with fixed seeds —
 * failures reproduce exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "../support/golden_compare.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

/** Write a random scalar: strings with escapes, numbers across
 *  scales (including the Infinity/NaN literals), bools, null. */
void
randomScalar(Rng &rng, JsonWriter &w)
{
    switch (rng.range(6)) {
      case 0: {
        static const char alphabet[] =
            "abcXYZ019 \t\n\"\\/{}[],:.\x01\x7f";
        std::string s;
        std::size_t len = rng.range(12);
        for (std::size_t i = 0; i < len; ++i)
            s += alphabet[rng.range(sizeof alphabet - 1)];
        w.string(s);
        return;
      }
      case 1: {
        // Exact-round-trip doubles across magnitudes and signs.
        double mag = std::pow(10.0, (double)rng.range(600) - 300.0);
        w.number((rng.uniform() * 2.0 - 1.0) * mag);
        return;
      }
      case 2:
        w.number((double)rng() - 9.22e18); // huge integers
        return;
      case 3: {
        const double specials[] = {
            0.0, -0.0, std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::max(),
        };
        w.number(specials[rng.range(7)]);
        return;
      }
      case 4:
        w.boolean(rng.bernoulli(0.5));
        return;
      default:
        w.null();
        return;
    }
}

void
randomValue(Rng &rng, int depth, JsonWriter &w)
{
    if (depth <= 0 || rng.bernoulli(0.3)) {
        randomScalar(rng, w);
        return;
    }
    std::size_t n = rng.range(5);
    if (rng.bernoulli(0.5)) {
        w.beginArray();
        for (std::size_t i = 0; i < n; ++i)
            randomValue(rng, depth - 1, w);
        w.endArray();
        return;
    }
    w.beginObject();
    for (std::size_t i = 0; i < n; ++i) {
        // Built without operator+ to dodge GCC 12's -Wrestrict false
        // positive (PR105651) on inlined string concatenation.
        std::string key = "k";
        key += std::to_string(rng.range(8));
        w.key(key);
        randomValue(rng, depth - 1, w);
    }
    w.endObject();
}

/** A random document of at most `depth` levels, written at `indent`. */
std::string
randomDocument(Rng &rng, int depth, int indent = -1)
{
    std::string text;
    JsonWriter w(text, indent);
    randomValue(rng, depth, w);
    return text;
}

/** `text` copied through a reader into a writer at `indent`. */
std::string
copied(const std::string &text, int indent)
{
    std::string out;
    JsonWriter w(out, indent);
    JsonReader r(text);
    testsupport::copyJson(r, w);
    r.end();
    return out;
}

bool
parses(const std::string &text)
{
    return JsonReader::tryRead(text, [](JsonReader &r) { r.skip(); });
}

TEST(JsonFuzz, RandomDocumentsRoundTripExactly)
{
    Rng rng(0xF022);
    for (int round = 0; round < 200; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Rng start = rng;
        Rng compactRng = start;
        const std::string compact = randomDocument(compactRng, 4);
        // The same document pretty and compact: each copies through a
        // reader into a writer to the same bytes, and all compare
        // equal structurally (relTol 0: numbers bit for bit, NaN==NaN
        // included).
        for (int indent : {-1, 0, 2}) {
            Rng again = start;
            std::string text = randomDocument(again, 4, indent);
            ASSERT_TRUE(parses(text)) << text;
            EXPECT_EQ(copied(text, indent), text);
            EXPECT_EQ(copied(text, -1), compact);
            std::vector<std::string> diffs;
            EXPECT_TRUE(testsupport::jsonNear(compact, text, 0.0, diffs))
                << text << (diffs.empty() ? "" : "\n" + diffs[0]);
            rng = again;
        }
    }
}

TEST(JsonFuzz, TruncatedDocumentsAreRejectedWithoutCrashing)
{
    Rng rng(0x7239);
    int rejected = 0;
    for (int round = 0; round < 50; ++round) {
        std::string text =
            "{\"payload\":" + randomDocument(rng, 3) + "}";
        // Every strict prefix of an object document is incomplete.
        for (std::size_t len : {std::size_t{0}, text.size() / 4,
                                text.size() / 2, text.size() - 1}) {
            EXPECT_FALSE(parses(text.substr(0, len)))
                << "prefix of " << text;
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, 200);
}

TEST(JsonFuzz, MutatedDocumentsNeverCrashTheParser)
{
    Rng rng(0xBAD5EED);
    for (int round = 0; round < 300; ++round) {
        std::string text = randomDocument(rng, 3, (int)rng.range(3) - 1);
        // Flip, delete, or insert a handful of bytes.
        std::size_t edits = 1 + rng.range(4);
        for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
            std::size_t pos = rng.range(text.size());
            switch (rng.range(3)) {
              case 0:
                text[pos] = (char)rng.range(256);
                break;
              case 1:
                text.erase(pos, 1);
                break;
              default:
                text.insert(pos, 1, (char)rng.range(256));
                break;
            }
        }
        // Whatever survived mutation must itself round-trip.
        if (parses(text)) {
            std::string again = copied(text, -1);
            EXPECT_EQ(copied(again, -1), again);
        }
    }
}

TEST(JsonFuzz, PureGarbageIsRejectedWithoutCrashing)
{
    Rng rng(0x6A2BA6E);
    for (int round = 0; round < 300; ++round) {
        std::string garbage;
        std::size_t len = rng.range(64);
        for (std::size_t i = 0; i < len; ++i)
            garbage += (char)rng.range(256);
        // Must not crash; random bytes essentially never form valid
        // JSON, but acceptance is not itself a bug — copy it if so.
        if (parses(garbage))
            (void)copied(garbage, -1);
    }
}

TEST(JsonFuzz, DeeplyNestedInputDoesNotOverflow)
{
    // 4k-deep arrays/objects: the reader must refuse them cleanly (no
    // stack smash under ASan), past the depth cap.
    std::string deepArray(4096, '[');
    deepArray += std::string(4096, ']');
    EXPECT_FALSE(parses(deepArray));
    std::string unterminated(8192, '{');
    EXPECT_FALSE(parses(unterminated));
}

} // namespace
} // namespace nvmexp

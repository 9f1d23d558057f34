#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "../support/golden_compare.hh"
#include "util/json.hh"

namespace nvmexp {
namespace {

/** The one string document `text` holds, unescaped. */
std::string
stringOf(const std::string &text)
{
    JsonReader reader(text);
    std::string out(reader.string());
    reader.end();
    return out;
}

/** The one number document `text` holds. */
double
numberOf(const std::string &text)
{
    JsonReader reader(text);
    double out = reader.number();
    reader.end();
    return out;
}

TEST(Json, ParsesScalars)
{
    JsonReader null("null");
    EXPECT_EQ(null.peek(), JsonValue::Kind::Null);
    null.null();
    EXPECT_TRUE(JsonReader("true").boolean());
    EXPECT_FALSE(JsonReader("false").boolean());
    EXPECT_DOUBLE_EQ(numberOf("42"), 42.0);
    EXPECT_DOUBLE_EQ(numberOf("-3.5e2"), -350.0);
    EXPECT_EQ(stringOf("\"hi\""), "hi");
}

TEST(Json, ParsesEscapes)
{
    EXPECT_EQ(stringOf(R"("a\"b\\c\nd\te")"), "a\"b\\c\nd\te");
}

TEST(Json, ParsesNestedStructures)
{
    JsonReader r(R"({
        "name": "sweep",
        "caps": [1, 2, 16],
        "inner": {"flag": true, "x": 0.5}
    })");
    std::string_view name;
    r.beginObject();
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(name, "name");
    EXPECT_EQ(r.string(), "sweep");
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(name, "caps");
    std::vector<double> caps;
    r.beginArray();
    while (r.nextElement())
        caps.push_back(r.number());
    EXPECT_EQ(caps, (std::vector<double>{1, 2, 16}));
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(name, "inner");
    r.beginObject();
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_TRUE(r.boolean());
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_DOUBLE_EQ(r.number(), 0.5);
    EXPECT_FALSE(r.nextMember(name));
    EXPECT_FALSE(r.nextMember(name));
    r.end();
}

TEST(Json, LineCommentsAreSkipped)
{
    JsonReader r("// leading comment\n"
                 "{ \"a\": 1, // trailing comment\n"
                 "  \"b\": 2 }\n");
    std::string_view name;
    r.beginObject();
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_DOUBLE_EQ(r.number(), 1.0);
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(name, "b");
    EXPECT_DOUBLE_EQ(r.number(), 2.0);
    EXPECT_FALSE(r.nextMember(name));
    r.end();
}

TEST(Json, MemberNamesPreserveOrder)
{
    JsonReader r(R"({"z": 1, "a": 2, "m": 3})");
    std::vector<std::string> names;
    std::string_view name;
    r.beginObject();
    while (r.nextMember(name)) {
        names.emplace_back(name);
        r.skip();
    }
    EXPECT_EQ(names, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Json, EmptyContainers)
{
    JsonReader array("[]");
    array.beginArray();
    EXPECT_FALSE(array.nextElement());
    array.end();
    JsonReader object("{}");
    std::string_view name;
    object.beginObject();
    EXPECT_FALSE(object.nextMember(name));
    object.end();
}

TEST(JsonDeath, ReportsPositionOnErrors)
{
    EXPECT_EXIT(JsonValue::parse("{\"a\": }"),
                ::testing::ExitedWithCode(1), "line 1");
    EXPECT_EXIT(JsonValue::parse("[1, 2"),
                ::testing::ExitedWithCode(1), "unexpected end");
    EXPECT_EXIT(JsonValue::parse("{} extra"),
                ::testing::ExitedWithCode(1), "trailing");
}

/** parse() keeps the document byte for byte; value() keeps the span of
 *  one value, without the whitespace and comments around it. */
TEST(Json, ParseAndValueKeepTheText)
{
    const std::string text = " {\"a\": [1, 2.50], // note\n \"b\": {}}\n";
    EXPECT_EQ(JsonValue::parse(text).text(), text);
    JsonReader r(text);
    std::string_view name;
    r.beginObject();
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(r.value().text(), "[1, 2.50]");
    ASSERT_TRUE(r.nextMember(name));
    EXPECT_EQ(r.value().text(), "{}");
    EXPECT_FALSE(r.nextMember(name));
    r.end();
}

TEST(Json, NestingStopsAtTheDepthCap)
{
    // kMaxDepth levels parse; one more fails at the bracket that
    // exceeds the cap, objects and arrays alike.
    auto deep = [](std::size_t depth, const char *open, char close) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i)
            text += open;
        return text + "0" + std::string(depth, close);
    };
    auto skips = [](const std::string &text) {
        return JsonReader::tryRead(text, [](JsonReader &r) { r.skip(); });
    };
    const std::size_t cap = JsonValue::kMaxDepth;
    EXPECT_EQ(JsonValue::parse(deep(cap, "[", ']')).text(),
              deep(cap, "[", ']'));
    EXPECT_TRUE(skips(deep(cap, "{\"a\":", '}')));
    EXPECT_FALSE(skips(deep(cap + 1, "[", ']')));
    EXPECT_FALSE(skips(deep(cap + 1, "{\"a\":", '}')));
    EXPECT_EXIT(JsonValue::parse(deep(cap + 1, "[", ']')),
                ::testing::ExitedWithCode(1),
                "line 1 column 513: nesting deeper than 512 levels");
    // Far past the cap too: the skip keeps no stack frame per level.
    EXPECT_FALSE(skips(deep(400000, "[", ']')));
}

TEST(JsonDeath, TypeMismatchesAreFatal)
{
    EXPECT_EXIT(JsonReader(R"("x")").number(),
                ::testing::ExitedWithCode(1), "expected a value");
    EXPECT_EXIT(JsonReader("3").beginObject(),
                ::testing::ExitedWithCode(1), "expected '\\{'");
    EXPECT_EXIT(JsonReader("[1]", "doc.json").reject("not this"),
                ::testing::ExitedWithCode(1),
                "'doc.json' at line 1 column 1: not this");
}

/** reject() names the member path its steps make, and a step leaves
 *  the path when it goes. */
TEST(JsonDeath, RejectNamesTheMemberPath)
{
    auto rejectAt = [](bool nested) {
        JsonReader r("{}", "doc.json");
        JsonReader::PathStep cells(r, "cells");
        cells.index = 1;
        if (!nested)
            cells.reject("first");
        {
            JsonReader::PathStep area(r, "area_f2");
            (void)area;
        }
        JsonReader::PathStep area(r, "area_f2");
        area.reject("must be a number");
    };
    EXPECT_EXIT(rejectAt(true), ::testing::ExitedWithCode(1),
                "'doc.json' at line 1 column 1: cells\\[1\\]\\.area_f2: "
                "must be a number");
    EXPECT_EXIT(rejectAt(false), ::testing::ExitedWithCode(1),
                "at line 1 column 1: cells\\[1\\]: first");
    auto topLevel = [] {
        JsonReader r("{}");
        JsonReader::PathStep format(r, "format");
        format.reject("must be 2");
    };
    EXPECT_EXIT(topLevel(), ::testing::ExitedWithCode(1),
                "JSON document at line 1 column 1: \"format\" must be 2");
}

TEST(JsonWriter, FormatNumberRoundTripsExactly)
{
    const double values[] = {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                             6.02214076e23, 5e-324, -1.7976931348623157e308,
                             2.0e-19, 146.0};
    for (double v : values) {
        std::string text = JsonValue::formatNumber(v);
        EXPECT_EQ(numberOf(text), v) << text;
    }
    EXPECT_EQ(JsonValue::formatNumber(
                  std::numeric_limits<double>::infinity()),
              "Infinity");
    EXPECT_EQ(JsonValue::formatNumber(
                  -std::numeric_limits<double>::infinity()),
              "-Infinity");
    EXPECT_EQ(JsonValue::formatNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "NaN");
}

TEST(JsonReader, TryReadReportsErrorsWithoutExiting)
{
    auto skips = [](const std::string &text) {
        return JsonReader::tryRead(text, [](JsonReader &r) { r.skip(); });
    };
    EXPECT_TRUE(skips("{\"a\": [1, Infinity]}"));
    EXPECT_FALSE(skips("{\"a\" 1}")); // balanced braces
    EXPECT_FALSE(skips("{\"a\": 1")); // truncated
    EXPECT_FALSE(skips("{} trailing"));
    EXPECT_FALSE(skips("{\"a\": tru"));
    EXPECT_FALSE(skips(""));
}

TEST(JsonWriter, LayoutMatchesTheDumpFormat)
{
    auto write = [](int indent) {
        std::string out;
        JsonWriter w(out, indent);
        w.beginObject();
        w.key("empty_array").beginArray().endArray();
        w.key("empty_object").beginObject().endObject();
        w.key("list").beginArray();
        w.number(1).null().beginObject().key("x").boolean(true).endObject();
        w.endArray();
        w.key("s").string("v");
        w.endObject();
        return out;
    };
    const std::string pretty = write(2);
    EXPECT_EQ(pretty, "{\n"
                      "  \"empty_array\": [],\n"
                      "  \"empty_object\": {},\n"
                      "  \"list\": [\n"
                      "    1,\n"
                      "    null,\n"
                      "    {\n"
                      "      \"x\": true\n"
                      "    }\n"
                      "  ],\n"
                      "  \"s\": \"v\"\n"
                      "}");
    EXPECT_EQ(write(-1), "{\"empty_array\":[],\"empty_object\":{},"
                         "\"list\":[1,null,{\"x\":true}],\"s\":\"v\"}");
    EXPECT_EQ(write(0), "{\n\"empty_array\": [],\n\"empty_object\": {},"
                        "\n\"list\": [\n1,\nnull,\n{\n\"x\": true\n}\n],"
                        "\n\"s\": \"v\"\n}");
    // A reader copied into a writer reproduces the layout.
    std::string copy;
    JsonWriter w(copy, 2);
    JsonReader r(pretty);
    testsupport::copyJson(r, w);
    EXPECT_EQ(copy, pretty);
    std::string negativeZero;
    JsonWriter(negativeZero).number(-0.0);
    EXPECT_EQ(negativeZero, "-0");
}

/** One string written compactly. */
std::string
written(const std::string &value)
{
    std::string out;
    JsonWriter(out).string(value);
    return out;
}

TEST(JsonWriter, ControlCharactersAreEscapedAndRoundTrip)
{
    // Every byte below 0x20 without a short escape is written as
    // \u00XX, so the text stays valid JSON for any parser.
    for (int c = 0; c < 0x20; ++c) {
        std::string raw = "a";
        raw += (char)c;
        raw += "b";
        std::string text = written(raw);
        for (char ch : text)
            EXPECT_GE((unsigned char)ch, 0x20) << "byte " << c;
        EXPECT_EQ(stringOf(text), raw) << "byte " << c;
    }
    EXPECT_EQ(written(std::string("\0\x01\x1f\x7f", 4)),
              "\"\\u0000\\u0001\\u001f\x7f\"");
    EXPECT_EQ(written("q\"b\\n\nt\tr\rb\bf\f"),
              R"("q\"b\\n\nt\tr\rb\bf\f")");
    // UTF-8 passes through unchanged.
    EXPECT_EQ(written("\xc2\xb5s-cache"), "\"\xc2\xb5s-cache\"");
}

TEST(Json, ParsesUnicodeEscapesToUtf8)
{
    // What Python's json.dump writes for non-ASCII names.
    EXPECT_EQ(stringOf(R"("\u00b5s-cache")"), "\xc2\xb5s-cache");
    EXPECT_EQ(stringOf(R"("\u00B5")"), "\xc2\xb5");
    EXPECT_EQ(stringOf(R"("\u0041\u20ac")"), "A\xe2\x82\xac");
    EXPECT_EQ(stringOf(R"("\ud834\udd1e")"), "\xf0\x9d\x84\x9e");
    EXPECT_EQ(stringOf(R"("\u0000")"), std::string(1, '\0'));
}

TEST(JsonDeath, MalformedUnicodeEscapesAreRejectedWithTheirOffset)
{
    EXPECT_EXIT(JsonValue::parse(R"(["ab\ud800"])"),
                ::testing::ExitedWithCode(1),
                "line 1 column 5: lone high surrogate");
    EXPECT_EXIT(JsonValue::parse(R"(["\ud800\u0041"])"),
                ::testing::ExitedWithCode(1),
                "line 1 column 3: lone high surrogate");
    EXPECT_EXIT(JsonValue::parse("{\n \"k\": \"\\udc00\"}"),
                ::testing::ExitedWithCode(1),
                "line 2 column 8: lone low surrogate");
    EXPECT_EXIT(JsonValue::parse(R"("\u12g4")"),
                ::testing::ExitedWithCode(1), "bad hex digit");
    auto skips = [](const std::string &text) {
        return JsonReader::tryRead(text, [](JsonReader &r) { r.skip(); });
    };
    EXPECT_FALSE(skips(R"("\ud800")"));
    EXPECT_FALSE(skips(R"("\u12)"));
    EXPECT_FALSE(skips(R"("\u12")"));
}

std::vector<std::string>
directoryEntries(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    return names;
}

TEST(AtomicWrite, ReplacesTheFileAndLeavesNoTemporary)
{
    std::string dir = ::testing::TempDir() + "nvmexp_atomic_write";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    writeFileAtomically(dir + "/out.txt", "first\n");
    writeFileAtomically(dir + "/out.txt", std::string("sec\0ond\n", 8));
    EXPECT_EQ(testsupport::fileText(dir + "/out.txt"),
              std::string("sec\0ond\n", 8));
    EXPECT_EQ(directoryEntries(dir), std::vector<std::string>{"out.txt"});
}

TEST(AtomicWriteDeath, FailedRenameNamesBothPathsAndCleansUp)
{
    std::string dir = ::testing::TempDir() + "nvmexp_atomic_rename";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/target");
    std::ofstream(dir + "/target/occupant") << "x";
    EXPECT_EXIT(writeFileAtomically(dir + "/target", "bytes"),
                ::testing::ExitedWithCode(1),
                "cannot move '.*/target\\.tmp\\.[0-9]+\\.[0-9]+' to "
                "'.*/target'");
    // The child removed its temporary before exiting.
    EXPECT_EQ(directoryEntries(dir), std::vector<std::string>{"target"});
}

} // namespace
} // namespace nvmexp

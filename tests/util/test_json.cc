#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "../support/golden_compare.hh"
#include "util/json.hh"

namespace nvmexp {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesEscapes)
{
    auto v = JsonValue::parse(R"("a\"b\\c\nd\te")");
    EXPECT_EQ(v.asString(), "a\"b\\c\nd\te");
}

TEST(Json, ParsesNestedStructures)
{
    auto v = JsonValue::parse(R"({
        "name": "sweep",
        "caps": [1, 2, 16],
        "inner": {"flag": true, "x": 0.5}
    })");
    EXPECT_EQ(v.at("name").asString(), "sweep");
    EXPECT_EQ(v.at("caps").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("caps").asArray()[2].asNumber(), 16.0);
    EXPECT_TRUE(v.at("inner").at("flag").asBool());
    EXPECT_DOUBLE_EQ(v.at("inner").numberOr("x", 0.0), 0.5);
}

TEST(Json, LineCommentsAreSkipped)
{
    auto v = JsonValue::parse(
        "// leading comment\n"
        "{ \"a\": 1, // trailing comment\n"
        "  \"b\": 2 }\n");
    EXPECT_DOUBLE_EQ(v.at("a").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(v.at("b").asNumber(), 2.0);
}

TEST(Json, DefaultsApplyWhenMembersAbsent)
{
    auto v = JsonValue::parse(R"({"present": 7})");
    EXPECT_DOUBLE_EQ(v.numberOr("present", 1.0), 7.0);
    EXPECT_DOUBLE_EQ(v.numberOr("absent", 1.0), 1.0);
    EXPECT_EQ(v.stringOr("absent", "d"), "d");
    EXPECT_TRUE(v.boolOr("absent", true));
}

TEST(Json, MemberNamesPreserveOrder)
{
    auto v = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
    auto names = v.memberNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "z");
    EXPECT_EQ(names[1], "a");
    EXPECT_EQ(names[2], "m");
}

TEST(Json, EmptyContainers)
{
    EXPECT_TRUE(JsonValue::parse("[]").asArray().empty());
    EXPECT_TRUE(JsonValue::parse("{}").isObject());
}

TEST(JsonDeath, ReportsPositionOnErrors)
{
    EXPECT_EXIT(JsonValue::parse("{\"a\": }"),
                ::testing::ExitedWithCode(1), "line 1");
    EXPECT_EXIT(JsonValue::parse("{\"a\": 1,\n\"a\": 2}"),
                ::testing::ExitedWithCode(1), "duplicate member");
    EXPECT_EXIT(JsonValue::parse("[1, 2"),
                ::testing::ExitedWithCode(1), "unexpected end");
    EXPECT_EXIT(JsonValue::parse("{} extra"),
                ::testing::ExitedWithCode(1), "trailing");
}

TEST(Json, NestingStopsAtTheDepthCap)
{
    // kMaxDepth levels parse and dump; one more fails at the bracket
    // that exceeds the cap, objects and arrays alike.
    auto deep = [](std::size_t depth, const char *open, char close) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i)
            text += open;
        return text + "0" + std::string(depth, close);
    };
    const std::size_t cap = JsonValue::kMaxDepth;
    JsonValue out;
    ASSERT_TRUE(JsonValue::tryParse(deep(cap, "[", ']'), out));
    EXPECT_EQ(out.dump(-1), deep(cap, "[", ']'));
    EXPECT_TRUE(JsonValue::tryParse(deep(cap, "{\"a\":", '}'), out));
    EXPECT_FALSE(JsonValue::tryParse(deep(cap + 1, "[", ']'), out));
    EXPECT_FALSE(JsonValue::tryParse(deep(cap + 1, "{\"a\":", '}'), out));
    EXPECT_EXIT(JsonValue::parse(deep(cap + 1, "[", ']')),
                ::testing::ExitedWithCode(1),
                "line 1 column 513: nesting deeper than 512 levels");
}

TEST(JsonDeath, TypeMismatchesAreFatal)
{
    auto v = JsonValue::parse(R"({"s": "x"})");
    EXPECT_EXIT(v.at("s").asNumber(), ::testing::ExitedWithCode(1),
                "expected a number");
    EXPECT_EXIT(v.at("missing"), ::testing::ExitedWithCode(1),
                "missing required member");
    EXPECT_EXIT(JsonValue::parse("3").at("x"),
                ::testing::ExitedWithCode(1), "expected an object");
}

TEST(JsonDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(JsonValue::parseFile("/no/such/file.json"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(JsonWriter, BuildersDumpAndReparse)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("name", JsonValue::makeString("line \"1\"\n\ttab"));
    doc.set("flag", JsonValue::makeBool(true));
    doc.set("nothing", JsonValue());
    JsonValue list = JsonValue::makeArray();
    list.append(JsonValue::makeNumber(1.0));
    list.append(JsonValue::makeNumber(-2.5e-19));
    doc.set("list", std::move(list));
    doc.set("flag", JsonValue::makeBool(false));  // overwrite in place

    JsonValue back = JsonValue::parse(doc.dump());
    EXPECT_EQ(back.at("name").asString(), "line \"1\"\n\ttab");
    EXPECT_FALSE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("nothing").isNull());
    EXPECT_EQ(back.at("list").asArray()[1].asNumber(), -2.5e-19);
    // Member order is preserved, so dumps are byte-stable.
    EXPECT_EQ(doc.dump(), back.dump());
    EXPECT_EQ(doc.dump(-1), back.dump(-1));
    EXPECT_EQ(doc.dump(-1),
              "{\"name\":\"line \\\"1\\\"\\n\\ttab\",\"flag\":false,"
              "\"nothing\":null,\"list\":[1,-2.5e-19]}");
}

TEST(JsonWriter, FormatNumberRoundTripsExactly)
{
    const double values[] = {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                             6.02214076e23, 5e-324, -1.7976931348623157e308,
                             2.0e-19, 146.0};
    for (double v : values) {
        std::string text = JsonValue::formatNumber(v);
        EXPECT_EQ(JsonValue::parse(text).asNumber(), v) << text;
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

TEST(JsonWriter, TryParseReportsErrorsWithoutExiting)
{
    JsonValue out;
    EXPECT_TRUE(JsonValue::tryParse("{\"a\": [1, Infinity]}", out));
    EXPECT_EQ(out.at("a").asArray()[0].asNumber(), 1.0);
    EXPECT_FALSE(JsonValue::tryParse("{\"a\" 1}", out));  // balanced braces
    EXPECT_FALSE(JsonValue::tryParse("{\"a\": 1", out));  // truncated
    EXPECT_FALSE(JsonValue::tryParse("{} trailing", out));
    EXPECT_FALSE(JsonValue::tryParse("{\"a\": tru", out));
    EXPECT_FALSE(JsonValue::tryParse("", out));
}

TEST(JsonWriterDeath, BuilderMisuseIsFatal)
{
    JsonValue array = JsonValue::makeArray();
    EXPECT_EXIT(array.set("k", JsonValue()),
                ::testing::ExitedWithCode(1), "set on non-object");
    JsonValue object = JsonValue::makeObject();
    EXPECT_EXIT(object.append(JsonValue()),
                ::testing::ExitedWithCode(1), "append on non-array");
}

TEST(JsonWriter, LayoutMatchesTheDumpFormat)
{
    std::string pretty;
    JsonWriter w(pretty, 2);
    w.beginObject();
    w.key("empty_array").beginArray().endArray();
    w.key("empty_object").beginObject().endObject();
    w.key("list").beginArray();
    w.number(1).null().beginObject().key("x").boolean(true).endObject();
    w.endArray();
    w.key("s").string("v");
    w.endObject();
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
    // The DOM dumps through the same writer, in all three modes.
    JsonValue doc = JsonValue::parse(pretty);
    EXPECT_EQ(doc.dump(2), pretty);
    EXPECT_EQ(doc.dump(-1), "{\"empty_array\":[],\"empty_object\":{},"
                            "\"list\":[1,null,{\"x\":true}],\"s\":\"v\"}");
    EXPECT_EQ(doc.dump(0), "{\n\"empty_array\": [],\n\"empty_object\": {},"
                           "\n\"list\": [\n1,\nnull,\n{\n\"x\": true\n}\n],"
                           "\n\"s\": \"v\"\n}");
    EXPECT_EQ(JsonValue::makeArray().dump(2), "[]");
    EXPECT_EQ(JsonValue::makeNumber(-0.0).dump(2), "-0");
}

TEST(JsonWriter, ControlCharactersAreEscapedAndRoundTrip)
{
    // Every byte below 0x20 without a short escape is written as
    // \u00XX, so the text stays valid JSON for any parser.
    for (int c = 0; c < 0x20; ++c) {
        std::string raw = "a";
        raw += (char)c;
        raw += "b";
        std::string text = JsonValue::makeString(raw).dump(-1);
        for (char ch : text)
            EXPECT_GE((unsigned char)ch, 0x20) << "byte " << c;
        EXPECT_EQ(JsonValue::parse(text).asString(), raw) << "byte " << c;
    }
    EXPECT_EQ(JsonValue::makeString(std::string("\0\x01\x1f\x7f", 4))
                  .dump(-1),
              "\"\\u0000\\u0001\\u001f\x7f\"");
    EXPECT_EQ(JsonValue::makeString("q\"b\\n\nt\tr\rb\bf\f").dump(-1),
              R"("q\"b\\n\nt\tr\rb\bf\f")");
    // UTF-8 passes through unchanged.
    EXPECT_EQ(JsonValue::makeString("\xc2\xb5s-cache").dump(-1),
              "\"\xc2\xb5s-cache\"");
}

TEST(Json, ParsesUnicodeEscapesToUtf8)
{
    // What Python's json.dump writes for non-ASCII names.
    EXPECT_EQ(JsonValue::parse(R"({"name": "\u00b5s-cache"})")
                  .at("name")
                  .asString(),
              "\xc2\xb5s-cache");
    EXPECT_EQ(JsonValue::parse(R"("\u00B5")").asString(), "\xc2\xb5");
    EXPECT_EQ(JsonValue::parse(R"("\u0041\u20ac")").asString(),
              "A\xe2\x82\xac");
    EXPECT_EQ(JsonValue::parse(R"("\ud834\udd1e")").asString(),
              "\xf0\x9d\x84\x9e");
    EXPECT_EQ(JsonValue::parse(R"("\u0000")").asString(),
              std::string(1, '\0'));
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
    JsonValue out;
    EXPECT_FALSE(JsonValue::tryParse(R"("\ud800")", out));
    EXPECT_FALSE(JsonValue::tryParse(R"("\u12)", out));
    EXPECT_FALSE(JsonValue::tryParse(R"("\u12")", out));
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

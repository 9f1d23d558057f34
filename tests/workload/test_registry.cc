/**
 * @file
 * Workload registry error paths and parameter-schema validation: the
 * satellite hardening tier for the plugin subsystem. Unknown names,
 * duplicate registrations, and every boundary of the parameter
 * validator must fail loudly (clean fatal) — never crash or silently
 * fall back to defaults.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/fixtures.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace {

using namespace workload;

class RegistryTest : public testsupport::QuietTest
{
};

TEST_F(RegistryTest, BuiltinsAreRegistered)
{
    auto names = WorkloadRegistry::instance().names();
    for (const char *expected :
         {"llc", "dnn", "graph", "kv-store", "wal", "intermittent"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(RegistryTest, FindReturnsNullForUnknown)
{
    EXPECT_EQ(WorkloadRegistry::instance().find("quantum-db"), nullptr);
    EXPECT_NE(WorkloadRegistry::instance().find("kv-store"), nullptr);
}

TEST_F(RegistryTest, RequireUnknownIsFatalAndListsNames)
{
    EXPECT_EXIT(WorkloadRegistry::instance().require("quantum-db"),
                ::testing::ExitedWithCode(1),
                "unknown workload 'quantum-db'.*kv-store");
}

TEST_F(RegistryTest, SpecWithoutNameIsFatal)
{
    TrafficContext context;
    EXPECT_EXIT(
        trafficFromWorkloadJson(JsonValue::parse(R"({"fps": 30})"),
                                context),
        ::testing::ExitedWithCode(1), "needs a \"name\" key");
    EXPECT_EXIT(trafficFromWorkloadJson(
                    JsonValue::parse(R"(["not", "an", "object"])"),
                    context),
                ::testing::ExitedWithCode(1), "needs a \"name\" key");
    // Escaped member names and values, which the reader unescapes into
    // one buffer, while the spec is searched for its "name".
    EXPECT_EXIT(trafficFromWorkloadJson(
                    JsonValue::parse(R"({"n\u0061me_": "\u0041)" +
                                     std::string(4096, 'x') + R"("})"),
                    context),
                ::testing::ExitedWithCode(1), "needs a \"name\" key");
    EXPECT_EQ(trafficFromWorkloadJson(
                  JsonValue::parse(R"({"\u006eame": "w\u0061l"})"),
                  context)
                  .size(),
              2u);
}

namespace {

/** Minimal custom workload for registration tests. */
class TestWorkload : public Workload
{
  public:
    explicit TestWorkload(std::string name) : name_(std::move(name)) {}
    std::string name() const override { return name_; }
    std::string description() const override { return "test"; }
    std::vector<ParamSpec>
    schema() const override
    {
        return {ParamSpec::number("rate", 100.0, "reads per second")
                    .min(1.0)
                    .max(1e6)};
    }
    std::vector<TrafficPattern>
    generateTraffic(const Params &params,
                    const TrafficContext &) const override
    {
        return {TrafficPattern::fromCounts(name_,
                                           params.number("rate"), 0.0,
                                           1.0)};
    }

  private:
    std::string name_;
};

} // namespace

TEST_F(RegistryTest, DuplicateRegistrationIsRejected)
{
    EXPECT_EXIT(WorkloadRegistry::instance().add(
                    std::make_unique<TestWorkload>("kv-store")),
                ::testing::ExitedWithCode(1), "registered twice");
    EXPECT_EXIT(
        WorkloadRegistry::instance().add(std::make_unique<TestWorkload>("")),
        ::testing::ExitedWithCode(1), "empty name");
}

TEST_F(RegistryTest, PluggedInWorkloadIsDispatchable)
{
    // Registering a new workload makes it reachable through the same
    // JSON dispatch path the built-ins use — the plugin promise. (The
    // registry is process-wide, so stay idempotent under
    // --gtest_repeat.)
    if (!WorkloadRegistry::instance().find("test-plugin")) {
        WorkloadRegistry::instance().add(
            std::make_unique<TestWorkload>("test-plugin"));
    }
    TrafficContext context;
    auto patterns = trafficFromWorkloadJson(
        JsonValue::parse(
            R"({"name": "test-plugin", "rate": 1234})"),
        context);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_DOUBLE_EQ(patterns[0].readsPerSec, 1234.0);
}

class ParamsTest : public testsupport::QuietTest
{
  protected:
    std::vector<ParamSpec>
    schema() const
    {
        return {
            ParamSpec::number("rate", 10.0, "a bounded number")
                .min(1.0).max(100.0),
            ParamSpec::string("mode", "fast", "a vocabulary string")
                .oneOf({"fast", "slow"}),
            ParamSpec::boolean("verify", false, "a flag"),
            ParamSpec::number("seed", 0.0, "an unbounded number"),
            ParamSpec::string("label", "", "a free-form string"),
            ParamSpec::object("inner", "a nested object"),
        };
    }

    Params
    parse(const char *json) const
    {
        return paramsOf(json, schema());
    }

    /** Params::read over the whole of `json`. */
    static Params
    paramsOf(const char *json, const std::vector<ParamSpec> &schema)
    {
        JsonReader reader(json);
        Params params = Params::read(reader, "unit", schema);
        reader.end();
        return params;
    }
};

TEST_F(ParamsTest, DefaultsAndExplicitValues)
{
    Params params = parse(R"({"rate": 42, "verify": true})");
    EXPECT_DOUBLE_EQ(params.number("rate"), 42.0);
    EXPECT_EQ(params.str("mode"), "fast");
    EXPECT_TRUE(params.flag("verify"));
    EXPECT_TRUE(params.provided("rate"));
    EXPECT_FALSE(params.provided("mode"));
    // The "name" key is reserved for registry dispatch and ignored by
    // validation.
    Params named = parse(R"({"name": "unit", "rate": 2})");
    EXPECT_DOUBLE_EQ(named.number("rate"), 2.0);
}

TEST_F(ParamsTest, BoundaryValuesAreInclusive)
{
    EXPECT_DOUBLE_EQ(parse(R"({"rate": 1})").number("rate"), 1.0);
    EXPECT_DOUBLE_EQ(parse(R"({"rate": 100})").number("rate"), 100.0);
}

TEST_F(ParamsTest, OutOfRangeNumbersAreFatal)
{
    EXPECT_EXIT(parse(R"({"rate": 0.999})"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parse(R"({"rate": 100.001})"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parse(R"({"rate": NaN})"),
                ::testing::ExitedWithCode(1), "NaN");
    // Unbounded numbers accept anything finite.
    EXPECT_DOUBLE_EQ(parse(R"({"seed": -1e300})").number("seed"),
                     -1e300);
}

TEST_F(ParamsTest, UnknownKeysAreFatal)
{
    EXPECT_EXIT(parse(R"({"rtae": 42})"), ::testing::ExitedWithCode(1),
                "unknown parameter 'rtae'");
}

TEST_F(ParamsTest, KindMismatchesAreFatal)
{
    EXPECT_EXIT(parse(R"({"rate": "42"})"),
                ::testing::ExitedWithCode(1), "must be a number");
    EXPECT_EXIT(parse(R"({"mode": 3})"), ::testing::ExitedWithCode(1),
                "must be a string");
    EXPECT_EXIT(parse(R"({"verify": "yes"})"),
                ::testing::ExitedWithCode(1), "must be a bool");
    EXPECT_EXIT(parse(R"({"inner": 3})"),
                ::testing::ExitedWithCode(1), "must be a object");
}

TEST_F(ParamsTest, VocabularyStringsAreEnforced)
{
    EXPECT_EQ(parse(R"({"mode": "slow"})").str("mode"), "slow");
    EXPECT_EXIT(parse(R"({"mode": "medium"})"),
                ::testing::ExitedWithCode(1),
                "expected one of: fast, slow");
    // Free-form strings accept anything.
    EXPECT_EQ(parse(R"({"label": "anything"})").str("label"),
              "anything");
}

TEST_F(ParamsTest, MissingRequiredParameterIsFatal)
{
    auto required = std::vector<ParamSpec>{
        ParamSpec::object("inner", "inner spec").mandatory()};
    EXPECT_EXIT(paramsOf("{}", required),
        ::testing::ExitedWithCode(1),
        "missing required parameter 'inner'");
}

TEST_F(ParamsTest, NonObjectSpecIsFatal)
{
    EXPECT_EXIT(paramsOf("[1, 2]", schema()),
                ::testing::ExitedWithCode(1), "must be an object");
}

} // namespace
} // namespace nvmexp

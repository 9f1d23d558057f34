/**
 * @file
 * nvmexp-raw-double-format: flags lossy double formatting in
 * artifact-writing modules.
 *
 * Default stream/printf formatting of a double is six significant
 * digits — it does not round-trip, and it is locale- and
 * flag-sensitive. The store's byte-identity contract (results.json /
 * results.csv / checkpoint.jsonl identical across jobs, batch sizes,
 * and shard counts, cached entries deserializing bit-identically)
 * exists because every double goes through util/json's exact
 * shortest-round-trip path (JsonWriter, JsonValue::formatNumber()). This
 * check bans the raw alternatives — `stream << someDouble`,
 * printf-family calls with floating arguments, std::to_string on a
 * floating value — inside the modules that write artifacts.
 */

#ifndef NVMEXP_TOOLS_TIDY_RAWDOUBLEFORMATCHECK_HH
#define NVMEXP_TOOLS_TIDY_RAWDOUBLEFORMATCHECK_HH

#include "NvmexpScopedCheck.hh"

namespace clang {
namespace tidy {
namespace nvmexp {

class RawDoubleFormatCheck : public NvmexpScopedCheck
{
  public:
    RawDoubleFormatCheck(StringRef Name, ClangTidyContext *Context)
        : NvmexpScopedCheck(Name, Context,
                            "src/store;src/campaign;src/serve")
    {
    }

    void registerMatchers(ast_matchers::MatchFinder *Finder) override;
    void check(
        const ast_matchers::MatchFinder::MatchResult &Result) override;
};

} // namespace nvmexp
} // namespace tidy
} // namespace clang

#endif // NVMEXP_TOOLS_TIDY_RAWDOUBLEFORMATCHECK_HH

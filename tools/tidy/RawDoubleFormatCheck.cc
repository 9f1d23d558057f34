#include "RawDoubleFormatCheck.hh"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchers.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace nvmexp {

void
RawDoubleFormatCheck::registerMatchers(MatchFinder *Finder)
{
    auto FloatingArg =
        expr(hasType(hasCanonicalType(realFloatingPointType())));

    // stream << someDouble: the member operator<< of basic_ostream
    // (argument 0 of the operator call is the stream itself).
    Finder->addMatcher(
        cxxOperatorCallExpr(
            hasOverloadedOperatorName("<<"),
            callee(cxxMethodDecl(
                ofClass(classTemplateSpecializationDecl(
                    hasName("::std::basic_ostream"))))),
            hasArgument(1, FloatingArg))
            .bind("stream"),
        this);
    // printf-family with any floating argument (floats reach the
    // varargs as doubles via default argument promotion, which the
    // canonical-type match still sees as floating).
    Finder->addMatcher(
        callExpr(callee(functionDecl(hasAnyName(
                     "::printf", "::fprintf", "::sprintf", "::snprintf",
                     "::vprintf", "::vfprintf", "::vsprintf",
                     "::vsnprintf", "::dprintf"))),
                 hasAnyArgument(FloatingArg))
            .bind("printf"),
        this);
    // std::to_string(double/float/long double): fixed six-digit
    // formatting, the least round-trippable of the three.
    Finder->addMatcher(
        callExpr(callee(functionDecl(hasName("::std::to_string"))),
                 hasArgument(0, FloatingArg))
            .bind("tostring"),
        this);
}

void
RawDoubleFormatCheck::check(const MatchFinder::MatchResult &Result)
{
    const Expr *Site = Result.Nodes.getNodeAs<Expr>("stream");
    const char *What = "operator<<";
    if (!Site) {
        Site = Result.Nodes.getNodeAs<Expr>("printf");
        What = "a printf-family call";
    }
    if (!Site) {
        Site = Result.Nodes.getNodeAs<Expr>("tostring");
        What = "std::to_string";
    }
    if (!Site || !inScope(*Result.SourceManager, Site->getBeginLoc()))
        return;
    diag(Site->getBeginLoc(),
         "formatting a double through %0 in an artifact-writing module "
         "does not round-trip; route it through util/json "
         "JsonWriter or JsonValue::formatNumber()")
        << What;
}

} // namespace nvmexp
} // namespace tidy
} // namespace clang

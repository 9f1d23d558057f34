#include "reliability/reliability.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fault/ecc.hh"
#include "fault/fault_model.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace reliability {

const std::vector<EccScheme> &
eccSchemes()
{
    static const std::vector<EccScheme> schemes = {
        {"none", "no correction: raw cell storage", 64, 64, 0},
        {"secded-72-64",
         "Hamming(72,64) SEC-DED: corrects 1, detects 2 "
         "(concrete codec in src/fault/ecc.hh)", 64, 72, 1},
        {"dec-78-64",
         "analytical BCH-style double-error correction "
         "(2 x 7-bit syndromes over 64 data bits)", 64, 78, 2},
        {"tec-85-64",
         "analytical BCH-style triple-error correction "
         "(3 x 7-bit syndromes over 64 data bits)", 64, 85, 3},
    };
    return schemes;
}

const EccScheme *
findEccScheme(const std::string &name)
{
    for (const auto &scheme : eccSchemes())
        if (scheme.name == name)
            return &scheme;
    return nullptr;
}

const EccScheme &
requireEccScheme(const std::string &name, const std::string &context)
{
    const EccScheme *scheme = findEccScheme(name);
    if (!scheme) {
        std::ostringstream known;
        for (const auto &entry : eccSchemes())
            known << " " << entry.name;
        fatal(context.empty() ? "ecc" : context + ": ecc", " scheme '",
              name, "' unknown (known schemes:", known.str(), ")");
    }
    return *scheme;
}

ReliabilityEvaluator::ReliabilityEvaluator(const ReliabilitySpec &spec,
                                           const std::string &context)
    : spec_(spec), scheme_(&requireEccScheme(spec.ecc, context))
{
    if (!(spec_.scrubIntervalSec >= 0.0) ||
        !std::isfinite(spec_.scrubIntervalSec)) {
        fatal(context.empty() ? "reliability" : context,
              ": scrub interval must be a finite non-negative number "
              "of seconds, got ", spec_.scrubIntervalSec);
    }
}

double
ReliabilityEvaluator::rawBitErrorRate(const ArrayResult &array)
{
    FaultModel model(array.cell);
    return model.bitErrorRate();
}

ReliabilityResult
ReliabilityEvaluator::evaluate(const ArrayResult &array) const
{
    return evaluate(array, rawBitErrorRate(array));
}

ReliabilityResult
ReliabilityEvaluator::evaluate(const ArrayResult &array,
                               double rawBer) const
{
    ReliabilityResult r;
    r.scheme = scheme_->name;
    r.scrubIntervalSec = spec_.scrubIntervalSec;
    r.eccOverhead = scheme_->overhead();
    r.rawBer = rawBer;

    // Retention drift accumulates between scrubs for non-volatile
    // cells (volatile arrays are powered and refreshed): linear
    // growth reaching kRetentionBer at the rated retention time,
    // composed independently with the instantaneous read BER.
    double drift = 0.0;
    if (array.cell.nonVolatile && spec_.scrubIntervalSec > 0.0 &&
        array.cell.retention > 0.0) {
        drift = kRetentionBer *
            std::min(1.0, spec_.scrubIntervalSec / array.cell.retention);
    }
    r.scrubbedBer = r.rawBer + drift - r.rawBer * drift;

    // Uncorrectable iff a codeword holds more than `correctable`
    // errors at the worst point of the scrub window.
    r.uncorrectableWordRate = binomialTailAtLeast(
        scheme_->codeBits, scheme_->correctable + 1, r.scrubbedBer);

    // Whole-image failure over every codeword the array stores. The
    // log1p/expm1 form stays exact for word rates far below 1e-16.
    double words = std::floor(array.capacityBytes * 8.0 /
                              (double)scheme_->codeBits);
    if (words > 0.0 && r.uncorrectableWordRate > 0.0) {
        r.uncorrectableImageRate = r.uncorrectableWordRate >= 1.0
            ? 1.0
            : -std::expm1(words * std::log1p(-r.uncorrectableWordRate));
    }
    return r;
}

} // namespace reliability
} // namespace nvmexp

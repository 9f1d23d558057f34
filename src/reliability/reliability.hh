/**
 * @file
 * Reliability as a first-class sweep axis (paper Sec. V-C).
 *
 * The paper's reliability study asks "does ECC rescue an otherwise
 * too-faulty MLC configuration?" (MaxNVM-style mitigation). This
 * module turns that question into a sweepable dimension: a
 * ReliabilitySpec selects an ECC scheme and scrub interval, and the
 * ReliabilityEvaluator composes the cell's FaultModel raw BER with the
 * scheme's analytical correction strength to produce the word/image
 * failure rates and code-overhead numbers the metric registry exposes
 * (raw_ber, uncorrectable_word_rate, ecc_overhead,
 * effective_density_mb_per_mm2, ...). Every swept configuration then
 * carries its full cross-layer cost vector, reliability included.
 */

#ifndef NVMEXP_RELIABILITY_RELIABILITY_HH
#define NVMEXP_RELIABILITY_RELIABILITY_HH

#include <string>
#include <vector>

#include "nvsim/array_model.hh"

namespace nvmexp {
namespace reliability {

/**
 * One analytical ECC scheme: a (codeBits, dataBits) block code that
 * corrects up to `correctable` bit errors per codeword. "none" and the
 * concrete Hamming SEC-DED code are the paper's Sec. V-C schemes; the
 * BCH-style multi-bit entries are the analytical extension (14-/21-bit
 * syndromes over GF(2^7) cover 64 data bits for t=2/t=3).
 */
struct EccScheme
{
    std::string name;         ///< config/CLI key, e.g. "secded-72-64"
    std::string description;  ///< one-liner for --list-ecc
    int dataBits = 64;        ///< data bits per codeword (k)
    int codeBits = 64;        ///< stored bits per codeword (n)
    int correctable = 0;      ///< correctable errors per codeword (t)

    /** Storage overhead ratio: stored bits / data bits. */
    double overhead() const
    {
        return (double)codeBits / (double)dataBits;
    }
};

/** The fixed scheme vocabulary, in listing order. */
const std::vector<EccScheme> &eccSchemes();

/** @return the scheme or nullptr when unknown. */
const EccScheme *findEccScheme(const std::string &name);

/** @return the scheme; fatal with the known-name list when unknown
 *  (`context` prefixes the message, e.g. "--filter"). */
const EccScheme &requireEccScheme(const std::string &name,
                                  const std::string &context = "");

/**
 * One point on the reliability sweep axis: which code protects the
 * array and how often stored data is scrubbed (re-read and
 * re-written, resetting retention drift). scrubIntervalSec == 0 means
 * no accumulation window: only the instantaneous read BER applies.
 */
struct ReliabilitySpec
{
    std::string ecc = "none";
    double scrubIntervalSec = 0.0;
};

/** Per-configuration reliability numbers attached to every
 *  EvalResult; defaults describe the un-protected, un-scrubbed case
 *  of a fault-free cell. */
struct ReliabilityResult
{
    std::string scheme = "none";
    double scrubIntervalSec = 0.0;
    /** Instantaneous per-bit raw error rate from the FaultModel. */
    double rawBer = 0.0;
    /** Per-bit error probability at the end of a scrub interval
     *  (raw BER plus retention drift for non-volatile cells). */
    double scrubbedBer = 0.0;
    /** Probability a codeword holds more errors than the scheme
     *  corrects. */
    double uncorrectableWordRate = 0.0;
    /** Probability any codeword of the full array is uncorrectable. */
    double uncorrectableImageRate = 0.0;
    /** Stored bits / data bits of the selected scheme. */
    double eccOverhead = 1.0;
};

/**
 * Evaluates one ReliabilitySpec against characterized arrays. The
 * scheme name is resolved (and validated) once at construction; the
 * per-array evaluation is purely analytical and deterministic, so
 * results are identical across worker counts.
 */
class ReliabilityEvaluator
{
  public:
    /** @param context prefixes validation errors (e.g. a config
     *  name). Fatal on unknown scheme or negative/non-finite scrub
     *  interval. */
    explicit ReliabilityEvaluator(const ReliabilitySpec &spec,
                                  const std::string &context = "");

    const ReliabilitySpec &spec() const { return spec_; }

    ReliabilityResult evaluate(const ArrayResult &array) const;

    /**
     * Spec-independent raw FaultModel BER of an array's cell — the
     * term every spec on the reliability axis shares. The batch
     * evaluation path computes it once per array and re-evaluates
     * only the ECC/scrub terms across the (innermost) spec axis.
     */
    static double rawBitErrorRate(const ArrayResult &array);

    /**
     * evaluate() with the raw BER already in hand:
     * evaluate(a) == evaluate(a, rawBitErrorRate(a)) bit for bit.
     */
    ReliabilityResult evaluate(const ArrayResult &array,
                               double rawBer) const;

    /**
     * Retention-drift model: a non-volatile cell left un-scrubbed for
     * its full rated retention accumulates this drift-induced BER;
     * shorter windows scale linearly. Volatile (powered, refreshed)
     * cells do not drift.
     */
    static constexpr double kRetentionBer = 1e-3;

  private:
    ReliabilitySpec spec_;
    const EccScheme *scheme_;  ///< registry entry, process lifetime
};

} // namespace reliability
} // namespace nvmexp

#endif // NVMEXP_RELIABILITY_RELIABILITY_HH

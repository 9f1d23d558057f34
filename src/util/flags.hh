/**
 * @file
 * Integer command-line flag values. Every integer flag of
 * nvmexplorer_cli (--jobs, --top K, serve --port and --jobs, campaign
 * --shards, --shard K/N and --jobs) is read through parseCount, so
 * each refuses the same malformed and out-of-range values with the
 * same message.
 */

#ifndef NVMEXP_UTIL_FLAGS_HH
#define NVMEXP_UTIL_FLAGS_HH

#include <string>

namespace nvmexp {

/**
 * The base-10 integer `text` spells, when it lies in [lo, hi]; fatal
 * otherwise, naming the flag (with its subcommand, e.g. "serve:
 * --port"), the value, and the range. Empty text, fractions,
 * exponents, trailing characters, NaN, infinities, and values past
 * the range of long are all refused.
 */
long parseCount(const std::string &flag, const char *text, long lo,
                long hi);

} // namespace nvmexp

#endif // NVMEXP_UTIL_FLAGS_HH

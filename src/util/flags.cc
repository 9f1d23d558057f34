#include "util/flags.hh"

#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace nvmexp {

long
parseCount(const std::string &flag, const char *text, long lo, long hi)
{
    errno = 0;
    char *end = nullptr;
    long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || value < lo ||
        value > hi) {
        fatal(flag, " '", text, "' must be an integer in [", lo, ", ",
              hi, "]");
    }
    return value;
}

} // namespace nvmexp

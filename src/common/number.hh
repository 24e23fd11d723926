/**
 * @file
 * Strict numbers from text: the numeric flags of rabsim and rabsweep
 * and the RAB_THREADS environment variable. The whole text must be one
 * number inside the documented range. std::from_chars takes no leading
 * '+', whitespace, suffix or hex prefix, and rejects a '-' for unsigned
 * types, so "1e5", "20k" and "-3" fail instead of silently truncating
 * to 1, 20 or 2^64-3.
 */

#ifndef RAB_COMMON_NUMBER_HH
#define RAB_COMMON_NUMBER_HH

#include <charconv>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "common/logging.hh"

namespace rab
{

/** @p text as a T in [lo, hi]; nullopt unless all of @p text is one
 *  such number. */
template <class T>
std::optional<T>
parseNumber(const char *text, T lo, T hi)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi))
        return std::nullopt;
    return value;
}

/** What parseNumber(text, lo, hi) accepts, for a usage message. */
template <class T>
std::string
numberRangeText(T lo, T hi)
{
    if constexpr (std::is_floating_point_v<T>) {
        return strprintf("a number in [%g, %g]", static_cast<double>(lo),
                         static_cast<double>(hi));
    } else if (hi == std::numeric_limits<T>::max()) {
        return "an integer >= " + std::to_string(lo);
    } else {
        return "an integer in [" + std::to_string(lo) + ", "
            + std::to_string(hi) + "]";
    }
}

} // namespace rab

#endif // RAB_COMMON_NUMBER_HH

/**
 * @file
 * The one checked parser for numeric command-line values.
 */

#ifndef SPK_SIM_PARSE_NUMBER_HH
#define SPK_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

#include "sim/logging.hh"

namespace spk
{

/**
 * Parse @p text as the value of option @p flag: all of it must be a
 * non-negative number that fits in T. Empty input, trailing junk,
 * signs, non-finite values and out-of-range values fatal().
 */
template <typename T>
T
parseNumber(const std::string &flag, const char *text)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range)
        fatal(flag + ": value out of range: '" + text + "'");
    bool ok = ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value) && value >= 0.0;
    if (!ok) {
        fatal(flag + ": expected a non-negative number, got '" + text +
              "'");
    }
    return value;
}

} // namespace spk

#endif // SPK_SIM_PARSE_NUMBER_HH

#ifndef TMARK_COMMON_STRING_UTIL_H_
#define TMARK_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tmark {

/// Splits `s` on the single character `sep`. Empty fields are preserved, so
/// `Split(",a,", ',')` yields {"", "a", ""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Strip(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats `value` with `digits` places after the decimal point (fixed).
std::string FormatDouble(double value, int digits);

}  // namespace tmark

#endif  // TMARK_COMMON_STRING_UTIL_H_

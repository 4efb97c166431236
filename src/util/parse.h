#ifndef TCDB_UTIL_PARSE_H_
#define TCDB_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "util/status.h"

namespace tcdb {

// Parses all of `text` as one number of type T: base-10 digits for an
// integer type (a leading '-' only for signed ones), decimal or
// scientific notation for a floating-point type. No whitespace, no '+'.
// InvalidArgument on empty or non-numeric text, trailing characters, a
// value that does not fit in T, or a non-finite floating-point value —
// where atoll/atof would read "abc" as 0 and "12x" as 12.
template <typename T>
Result<T> ParseNumber(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  auto error = [text](const char* what) {
    std::string message = "'";
    message.append(text);
    message.append("' ");
    message.append(what);
    return Status::InvalidArgument(std::move(message));
  };
  if (ec == std::errc::result_out_of_range) return error("is out of range");
  if (ec != std::errc() || ptr != end) return error("is not a number");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return error("is not a finite number");
  }
  return value;
}

}  // namespace tcdb

#endif  // TCDB_UTIL_PARSE_H_

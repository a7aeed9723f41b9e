#ifndef IDLOG_COMMON_STR_UTIL_H_
#define IDLOG_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>

namespace idlog {

/// `prefix` followed by the decimal digits of `n` ("n" and 7 give "n7").
/// Appending, unlike `"n" + std::to_string(7)`, stays clear of GCC 12's
/// -Wrestrict false positive on that concatenation.
inline std::string Numbered(std::string prefix, int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace idlog

#endif  // IDLOG_COMMON_STR_UTIL_H_

#ifndef TCDB_UTIL_LOWER_BOUND_H_
#define TCDB_UTIL_LOWER_BOUND_H_

#include <cstddef>

namespace tcdb {

// std::lower_bound over [first, first + count) without data-dependent
// branches: the first element for which `less(element)` is false, or
// first + count. Each halving step is a conditional move, so a search
// over a page-sized sorted array costs no branch mispredictions.
// `less(element)` must be true for a (possibly empty) prefix only.
template <typename T, typename Less>
const T* BranchlessLowerBound(const T* first, size_t count, Less less) {
  if (count == 0) return first;
  while (count > 1) {
    const size_t half = count / 2;
    first = less(first[half]) ? first + half : first;
    count -= half;
  }
  return less(*first) ? first + 1 : first;
}

}  // namespace tcdb

#endif  // TCDB_UTIL_LOWER_BOUND_H_

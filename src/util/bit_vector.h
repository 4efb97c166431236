#ifndef TCDB_UTIL_BIT_VECTOR_H_
#define TCDB_UTIL_BIT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace tcdb {

// Fixed-capacity bit set. The paper performs duplicate elimination during
// successor-list union with bit vectors (Section 6.1); this is the
// corresponding in-memory structure.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t size) { Resize(size); }

  void Resize(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  size_t size() const { return size_; }

  bool Test(size_t i) const {
    TCDB_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) {
    TCDB_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(size_t i) {
    TCDB_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Sets bit i and returns true iff it was previously unset.
  bool TestAndSet(size_t i) {
    TCDB_DCHECK(i < size_);
    const uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t& word = words_[i >> 6];
    const bool was_set = (word & mask) != 0;
    word |= mask;
    return !was_set;
  }

  // Clears every bit. O(size/64).
  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  // Number of set bits.
  size_t Count() const;

  // this |= other. Both vectors must have the same size.
  void UnionWith(const BitVector& other);

  // this &= other. Both vectors must have the same size.
  void IntersectWith(const BitVector& other);

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

// A set over [0, capacity) with O(1) clear, implemented with version stamps.
// Used where a membership structure is rebuilt once per expanded node; the
// epoch trick removes the O(n) reset that a plain bit vector would pay for
// each of the graph's n expansions.
class EpochSet {
 public:
  EpochSet() = default;
  explicit EpochSet(size_t capacity) { Resize(capacity); }

  void Resize(size_t capacity) {
    stamps_.assign(capacity, 0);
    epoch_ = 1;
  }

  size_t capacity() const { return stamps_.size(); }

  // Empties the set in O(1).
  void ClearAll() {
    ++epoch_;
    if (epoch_ == 0) {  // Wrapped: do the rare full reset.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  bool Contains(size_t i) const {
    TCDB_DCHECK(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

  void Insert(size_t i) {
    TCDB_DCHECK(i < stamps_.size());
    stamps_[i] = epoch_;
  }

  // Inserts i; returns true iff it was absent.
  bool InsertIfAbsent(size_t i) {
    TCDB_DCHECK(i < stamps_.size());
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
};

}  // namespace tcdb

#endif  // TCDB_UTIL_BIT_VECTOR_H_

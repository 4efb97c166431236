#ifndef TCDB_UTIL_CODEC_H_
#define TCDB_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace tcdb {
namespace codec {

// Fixed-width little-endian byte encoding, written and read one byte at a
// time so the on-disk image is identical on any host endianness. This is
// the wire format of every persistent structure (WAL records, checkpoint
// bodies, serialized label arrays); there is deliberately no varint — a
// record's size must be computable without parsing it, which is what makes
// torn-tail detection a length check plus a CRC.

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

// Bounds-checked reader over an encoded buffer. Every ReadX returns false
// (and reads nothing) once the buffer is exhausted or a previous read
// failed; callers check once at the end and report Corruption. The CRC
// framing upstream makes a failed read here a torn/forged image, never a
// programming error.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Reader(const char* data, size_t size)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (!Require(1)) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (!Require(4)) return false;
    *v = static_cast<uint32_t>(data_[pos_]) |
         (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
         (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
         (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadBytes(void* out, size_t n) {
    if (!Require(n)) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (!Require(n)) return false;
    pos_ += n;
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  // True when `count` items of `item_bytes` each fit in the bytes left,
  // without overflow. An item of zero bytes (a label array over zero
  // nodes) counts as one, so a decoder that checks a count here before
  // sizing a container from it never allocates beyond its image.
  bool Holds(uint64_t count, uint64_t item_bytes) const {
    return count <= remaining() / (item_bytes == 0 ? 1 : item_bytes);
  }
  // True once any read has run past the end of the buffer.
  bool failed() const { return failed_; }

 private:
  bool Require(size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace codec
}  // namespace tcdb

#endif  // TCDB_UTIL_CODEC_H_

#ifndef TCDB_STORAGE_REPLACEMENT_POLICY_H_
#define TCDB_STORAGE_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "util/random.h"

namespace tcdb {

// Page replacement policies studied by the paper (Section 5.1). The choice
// had a secondary effect on results; LRU is the default.
enum class PagePolicy {
  kLru,
  kMru,
  kFifo,
  kClock,
  kRandom,
};

const char* PagePolicyName(PagePolicy policy);

// Strategy interface used by the BufferManager to choose eviction victims.
// Frames are identified by index in [0, num_frames).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual const char* name() const = 0;

  // Called when a page is loaded into `frame`.
  virtual void OnInsert(size_t frame) = 0;

  // Called when the page in `frame` is requested again (buffer hit).
  virtual void OnAccess(size_t frame) = 0;

  // Called when the page leaves `frame` (eviction or discard).
  virtual void OnRemove(size_t frame) = 0;

  // Returns a victim frame among those whose `candidates` byte is nonzero
  // (i.e. valid and unpinned; one byte per frame), or nullopt if there is
  // none.
  virtual std::optional<size_t> PickVictim(
      std::span<const uint8_t> candidates) = 0;
};

// Creates a policy instance. `seed` is only used by the random policy.
std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(PagePolicy policy,
                                                         size_t num_frames,
                                                         uint64_t seed = 0x7c0ffee);

}  // namespace tcdb

#endif  // TCDB_STORAGE_REPLACEMENT_POLICY_H_

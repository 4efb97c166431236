#include "storage/replacement_policy.h"

#include <vector>

#include "util/check.h"

namespace tcdb {
namespace {

// LRU / MRU / FIFO via monotone stamps. With the pool sizes used in the
// study (10-50 frames) a linear victim scan is both simple and fast.
class StampPolicy : public ReplacementPolicy {
 public:
  enum class Kind { kLru, kMru, kFifo };

  StampPolicy(Kind kind, size_t num_frames)
      : kind_(kind), stamps_(num_frames, 0) {}

  const char* name() const override {
    switch (kind_) {
      case Kind::kLru:
        return "lru";
      case Kind::kMru:
        return "mru";
      case Kind::kFifo:
        return "fifo";
    }
    return "stamp";
  }

  void OnInsert(size_t frame) override {
    TCDB_DCHECK(frame < stamps_.size());
    stamps_[frame] = ++clock_;
  }

  void OnAccess(size_t frame) override {
    TCDB_DCHECK(frame < stamps_.size());
    if (kind_ != Kind::kFifo) stamps_[frame] = ++clock_;
  }

  void OnRemove(size_t frame) override {
    TCDB_DCHECK(frame < stamps_.size());
    stamps_[frame] = 0;
  }

  std::optional<size_t> PickVictim(
      std::span<const uint8_t> candidates) override {
    std::optional<size_t> best;
    for (size_t f = 0; f < stamps_.size(); ++f) {
      if (candidates[f] == 0) continue;
      if (!best.has_value()) {
        best = f;
        continue;
      }
      const bool better = kind_ == Kind::kMru ? stamps_[f] > stamps_[*best]
                                              : stamps_[f] < stamps_[*best];
      if (better) best = f;
    }
    return best;
  }

 private:
  Kind kind_;
  uint64_t clock_ = 0;
  std::vector<uint64_t> stamps_;
};

// Second-chance (clock) policy.
class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(size_t num_frames) : referenced_(num_frames, false) {}

  const char* name() const override { return "clock"; }

  void OnInsert(size_t frame) override { referenced_[frame] = true; }
  void OnAccess(size_t frame) override { referenced_[frame] = true; }
  void OnRemove(size_t frame) override { referenced_[frame] = false; }

  std::optional<size_t> PickVictim(
      std::span<const uint8_t> candidates) override {
    const size_t n = referenced_.size();
    // At most two sweeps: the first clears reference bits, the second must
    // find an unreferenced candidate if any candidate exists at all.
    bool any_candidate = false;
    for (size_t step = 0; step < 2 * n; ++step) {
      const size_t f = hand_;
      hand_ = (hand_ + 1) % n;
      if (candidates[f] == 0) continue;
      any_candidate = true;
      if (referenced_[f]) {
        referenced_[f] = false;
      } else {
        return f;
      }
    }
    if (!any_candidate) return std::nullopt;
    // All candidates had their bits cleared during the sweeps; take the next
    // candidate from the hand.
    for (size_t step = 0; step < n; ++step) {
      const size_t f = hand_;
      hand_ = (hand_ + 1) % n;
      if (candidates[f] != 0) return f;
    }
    return std::nullopt;
  }

 private:
  size_t hand_ = 0;
  std::vector<bool> referenced_;
};

class RandomPolicy : public ReplacementPolicy {
 public:
  RandomPolicy(size_t num_frames, uint64_t seed)
      : num_frames_(num_frames), rng_(seed) {
    eligible_.reserve(num_frames);
  }

  const char* name() const override { return "random"; }

  void OnInsert(size_t) override {}
  void OnAccess(size_t) override {}
  void OnRemove(size_t) override {}

  std::optional<size_t> PickVictim(
      std::span<const uint8_t> candidates) override {
    eligible_.clear();
    for (size_t f = 0; f < num_frames_; ++f) {
      if (candidates[f] != 0) eligible_.push_back(f);
    }
    if (eligible_.empty()) return std::nullopt;
    return eligible_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(eligible_.size()) - 1))];
  }

 private:
  size_t num_frames_;
  Rng rng_;
  std::vector<size_t> eligible_;  // scratch, reused across picks
};

}  // namespace

const char* PagePolicyName(PagePolicy policy) {
  switch (policy) {
    case PagePolicy::kLru:
      return "lru";
    case PagePolicy::kMru:
      return "mru";
    case PagePolicy::kFifo:
      return "fifo";
    case PagePolicy::kClock:
      return "clock";
    case PagePolicy::kRandom:
      return "random";
  }
  return "unknown";
}

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(PagePolicy policy,
                                                         size_t num_frames,
                                                         uint64_t seed) {
  switch (policy) {
    case PagePolicy::kLru:
      return std::make_unique<StampPolicy>(StampPolicy::Kind::kLru, num_frames);
    case PagePolicy::kMru:
      return std::make_unique<StampPolicy>(StampPolicy::Kind::kMru, num_frames);
    case PagePolicy::kFifo:
      return std::make_unique<StampPolicy>(StampPolicy::Kind::kFifo,
                                           num_frames);
    case PagePolicy::kClock:
      return std::make_unique<ClockPolicy>(num_frames);
    case PagePolicy::kRandom:
      return std::make_unique<RandomPolicy>(num_frames, seed);
  }
  TCDB_CHECK(false) << "unknown page policy";
  return nullptr;
}

}  // namespace tcdb

#include "dynamic/mutation_log.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/codec.h"

namespace tcdb {

void MutationLog::EncodeEntry(const Entry& entry, std::string* out) {
  codec::PutU8(out, entry.insert ? 1 : 0);
  codec::PutU32(out, static_cast<uint32_t>(entry.arc.src));
  codec::PutU32(out, static_cast<uint32_t>(entry.arc.dst));
}

Result<MutationLog::Entry> MutationLog::DecodeEntry(
    std::span<const uint8_t> bytes) {
  if (bytes.size() != kEncodedEntryBytes) {
    return Status::Corruption("mutation entry has " +
                              std::to_string(bytes.size()) +
                              " bytes, want " +
                              std::to_string(kEncodedEntryBytes));
  }
  codec::Reader reader(bytes.data(), bytes.size());
  uint8_t op = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  reader.ReadU8(&op);
  reader.ReadU32(&src);
  reader.ReadU32(&dst);
  TCDB_CHECK(!reader.failed());
  if (op > 1) {
    return Status::Corruption("mutation entry has unknown op byte " +
                              std::to_string(op));
  }
  Entry entry;
  entry.insert = op == 1;
  entry.arc.src = static_cast<int32_t>(src);
  entry.arc.dst = static_cast<int32_t>(dst);
  if (entry.arc.src < 0 || entry.arc.dst < 0) {
    return Status::Corruption("mutation entry has negative node id");
  }
  return entry;
}

Result<std::unique_ptr<MutationLog>> MutationLog::Open(
    const ArcList& base_arcs, NodeId num_nodes,
    const MutationLogOptions& options) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("negative node count");
  }
  if (options.base_epoch < 0) {
    return Status::InvalidArgument("negative base epoch");
  }
  auto log = std::unique_ptr<MutationLog>(
      new MutationLog(num_nodes, options.base_epoch));
  // Collapse duplicates, validate, and load the adjacency in (src, dst)
  // order.
  ArcList arcs;
  arcs.reserve(base_arcs.size());
  for (const Arc& arc : base_arcs) {
    TCDB_RETURN_IF_ERROR(log->ValidateEndpoints(arc.src, arc.dst));
    if (log->live_.insert(Key(arc.src, arc.dst)).second) {
      arcs.push_back(arc);
    }
  }
  std::sort(arcs.begin(), arcs.end());
  for (const Arc& arc : arcs) log->adj_.Insert(arc.src, arc.dst);
  return log;
}

Status MutationLog::ValidateEndpoints(NodeId src, NodeId dst) const {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::InvalidArgument(
        "arc endpoint out of range: (" + std::to_string(src) + ", " +
        std::to_string(dst) + ") with " + std::to_string(num_nodes_) +
        " nodes");
  }
  if (src == dst) {
    return Status::InvalidArgument("self-loop arc (" + std::to_string(src) +
                                   ", " + std::to_string(dst) + ")");
  }
  return Status::Ok();
}

Result<MutationLog::Epoch> MutationLog::InsertArc(NodeId src, NodeId dst) {
  TCDB_RETURN_IF_ERROR(ValidateEndpoints(src, dst));
  // The adjacency is touched outside mu_ — mutations are owner-thread
  // only; mu_ exists for the cross-thread readers of live_/entries_.
  Epoch epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!live_.insert(Key(src, dst)).second) {
      return Status::FailedPrecondition(
          "arc (" + std::to_string(src) + ", " + std::to_string(dst) +
          ") is already live");
    }
    entries_.push_back(Entry{Arc{src, dst}, /*insert=*/true});
    epoch = base_epoch_ + static_cast<Epoch>(entries_.size());
  }
  adj_.Insert(src, dst);
  return epoch;
}

Result<MutationLog::Epoch> MutationLog::DeleteArc(NodeId src, NodeId dst) {
  TCDB_RETURN_IF_ERROR(ValidateEndpoints(src, dst));
  Epoch epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (live_.erase(Key(src, dst)) == 0) {
      return Status::NotFound("arc (" + std::to_string(src) + ", " +
                              std::to_string(dst) + ") is not live");
    }
    entries_.push_back(Entry{Arc{src, dst}, /*insert=*/false});
    epoch = base_epoch_ + static_cast<Epoch>(entries_.size());
  }
  adj_.Delete(src, dst);
  return epoch;
}

bool MutationLog::HasArc(NodeId src, NodeId dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.contains(Key(src, dst));
}

Result<MutationLog::Epoch> MutationLog::Apply(const Entry& entry) {
  return entry.insert ? InsertArc(entry.arc.src, entry.arc.dst)
                      : DeleteArc(entry.arc.src, entry.arc.dst);
}

MutationLog::Epoch MutationLog::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_epoch_ + static_cast<Epoch>(entries_.size());
}

int64_t MutationLog::num_live_arcs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(live_.size());
}

MutationLog::ArcSnapshot MutationLog::SnapshotArcs() const {
  ArcSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.arcs.reserve(live_.size());
    for (const uint64_t key : live_) {
      snapshot.arcs.push_back(
          Arc{static_cast<int32_t>(key >> 32),
              static_cast<int32_t>(key & 0xffffffffu)});
    }
    snapshot.epoch = base_epoch_ + static_cast<Epoch>(entries_.size());
  }
  // Hash order is not deterministic; rebuild inputs must be.
  std::sort(snapshot.arcs.begin(), snapshot.arcs.end());
  return snapshot;
}

}  // namespace tcdb

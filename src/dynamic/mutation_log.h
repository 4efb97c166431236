#ifndef TCDB_DYNAMIC_MUTATION_LOG_H_
#define TCDB_DYNAMIC_MUTATION_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "dynamic/live_adjacency.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace tcdb {

struct MutationLogOptions {
  // Epoch of the base arc set. 0 for a fresh graph; recovery passes the
  // checkpoint epoch so post-restart epochs continue the pre-crash
  // numbering (current_epoch = base_epoch + accepted mutations).
  int64_t base_epoch = 0;
};

// The single source of truth for a fully dynamic graph: an append-only
// sequence of InsertArc/DeleteArc mutations over a base arc set, each
// stamped with a monotonically increasing epoch (epoch base_epoch + e is
// the state after the first e mutations; epoch base_epoch — 0 for a fresh
// graph, the checkpoint epoch after recovery — is the base arc set).
//
// Every accepted mutation is applied in two places at once:
//   1. the live arc set (cross-thread readable: HasArc, SnapshotArcs for
//      the index rebuilder),
//   2. the LiveAdjacency (out- and in-rows of the live graph: what the
//      incremental pivot trees repair against and the live BFS walks),
// so the adjacency never drifts from the log.
//
// Thread safety: mutations and adjacency() belong to the owner thread.
// HasArc / current_epoch / SnapshotArcs are safe from any thread — that
// is the surface the background IndexRebuilder reads.
class MutationLog {
 public:
  using Epoch = int64_t;
  using Options = MutationLogOptions;

  struct Entry {
    Arc arc;
    bool insert = true;  // false: delete

    bool operator==(const Entry&) const = default;
  };

  // On-disk entry encoding: u8 op (1 insert / 0 delete), u32 src, u32 dst,
  // all little-endian — 9 bytes, fixed width, endian-safe. This is the WAL
  // record payload (src/persist/wal.h frames it with an epoch, a length
  // and a CRC).
  static constexpr size_t kEncodedEntryBytes = 9;
  static void EncodeEntry(const Entry& entry, std::string* out);
  // Corruption on a wrong size, an unknown op byte, or a negative node id.
  static Result<Entry> DecodeEntry(std::span<const uint8_t> bytes);

  struct ArcSnapshot {
    ArcList arcs;  // sorted by (src, dst) — deterministic rebuild input
    Epoch epoch = 0;
  };

  // `base_arcs` may be cyclic and unsorted; duplicates collapse. Endpoint
  // range is validated. The adjacency is loaded in (src, dst) order.
  static Result<std::unique_ptr<MutationLog>> Open(
      const ArcList& base_arcs, NodeId num_nodes,
      const MutationLogOptions& options = {});

  // Appends one mutation and applies it everywhere. InsertArc fails with
  // FailedPrecondition when the arc is already live and InvalidArgument on
  // a self-loop or out-of-range endpoint; DeleteArc fails with NotFound
  // when the arc is not live. On success returns the new epoch.
  Result<Epoch> InsertArc(NodeId src, NodeId dst);
  Result<Epoch> DeleteArc(NodeId src, NodeId dst);

  // Replays one logged entry (the WAL recovery path). Exactly
  // entry.insert ? InsertArc(...) : DeleteArc(...).
  Result<Epoch> Apply(const Entry& entry);

  bool HasArc(NodeId src, NodeId dst) const;
  Epoch current_epoch() const;
  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_live_arcs() const;

  // Consistent (arc set, epoch) copy for an index rebuild. Safe from any
  // thread; never blocks mutations for longer than the copy.
  ArcSnapshot SnapshotArcs() const;

  // The live graph (owner thread). Rows start in (src, dst) order and
  // then follow the mutation history (a delete moves the row's last entry
  // into the hole), so row order is deterministic.
  const LiveAdjacency& adjacency() const { return adj_; }

 private:
  static uint64_t Key(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }

  Status ValidateEndpoints(NodeId src, NodeId dst) const;

  MutationLog(NodeId num_nodes, Epoch base_epoch)
      : num_nodes_(num_nodes), base_epoch_(base_epoch), adj_(num_nodes) {}

  NodeId num_nodes_ = 0;
  Epoch base_epoch_ = 0;

  LiveAdjacency adj_;  // owner thread

  // Cross-thread state: the live arc set, the entry log, the epoch.
  mutable std::mutex mu_;
  std::unordered_set<uint64_t> live_;
  // entries_[i] produced epoch base_epoch_ + i + 1.
  std::vector<Entry> entries_;
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_MUTATION_LOG_H_

#ifndef TCDB_CORE_RUN_CONTEXT_H_
#define TCDB_CORE_RUN_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/types.h"
#include "relation/relation_file.h"
#include "storage/buffer_manager.h"
#include "storage/pager.h"
#include "succ/successor_list_store.h"
#include "util/status.h"

namespace tcdb {

// Result of one query execution.
struct RunResult {
  RunMetrics metrics;
  // When ExecOptions::capture_answer is set: (node, sorted successors) for
  // every source node (PTC) or every node (CTC). Capture happens after the
  // metrics snapshot, so it does not perturb the measurements.
  std::vector<std::pair<NodeId, std::vector<NodeId>>> answer;
  // SPN only, when ExecOptions::capture_trees is set: the final successor
  // spanning trees of the answer nodes, each kept as its list was on disk
  // (the EncodeTree format: one entry per node plus one per parent, and
  // no per-tree node index). Every parent->child link in these trees is a
  // real arc of the input graph, so they witness one concrete path from
  // the root to each of its successors (the extra information the paper
  // notes "may justify the higher I/O cost" of SPN).
  std::vector<std::pair<NodeId, std::vector<int32_t>>> spanning_trees;
};

// Per-run environment: the simulated disk, its files, the buffer pool and
// the disk-resident structures. Each Execute() builds a fresh context, so
// runs are fully independent and start with a cold buffer pool.
struct RunContext {
  Pager pager;
  std::unique_ptr<BufferManager> buffers;

  FileId rel_data = 0;
  FileId rel_index = 0;
  FileId inv_data = 0;
  FileId inv_index = 0;
  FileId succ_file = 0;   // successor lists (or successor trees for SPN)
  FileId pred_file = 0;   // immediate-predecessor lists (JKB/JKB2)
  FileId tree_file = 0;   // predecessor trees (JKB/JKB2)
  FileId out_file = 0;    // output tuples (JKB/JKB2, Seminaive, Warren)

  std::unique_ptr<RelationFile> relation;
  std::unique_ptr<RelationFile> inverse;  // dual representation (JKB2)

  std::unique_ptr<SuccessorListStore> succ;
  std::unique_ptr<SuccessorListStore> pred;
  std::unique_ptr<SuccessorListStore> trees;

  ExecOptions options;
  NodeId num_nodes = 0;

  // Algorithm-maintained logical counters; page I/O and buffer statistics
  // are collected from pager/buffers at the end of the run.
  RunMetrics metrics;

  // Switches I/O attribution to `phase`. Phase boundaries are pin
  // barriers: in debug builds this audits that no page is pinned and that
  // the pool bookkeeping is consistent before switching.
  void BeginPhase(Phase phase);
};

// Sequential tuple writer over a fresh file: packs Arcs 256 to a page
// through the buffer manager. Used for materialized tuple output (JKB
// answers, Seminaive deltas).
class TupleWriter {
 public:
  TupleWriter(BufferManager* buffers, FileId file)
      : buffers_(buffers), file_(file) {}

  // Appends one tuple. Pages are not held pinned between calls.
  Status Append(const Arc& arc);

  int64_t count() const { return count_; }
  PageNumber num_pages() const {
    return current_page_ == kInvalidPageNumber ? 0 : current_page_ + 1;
  }

 private:
  BufferManager* buffers_;
  FileId file_;
  PageNumber current_page_ = kInvalidPageNumber;
  size_t slot_ = 0;
  int64_t count_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_CORE_RUN_CONTEXT_H_

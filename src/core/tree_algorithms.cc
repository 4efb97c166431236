#include <algorithm>
#include <utility>
#include <vector>

#include "core/algorithms.h"
#include "core/restructure.h"
#include "succ/tree_codec.h"
#include "util/bit_vector.h"
#include "util/timer.h"

namespace tcdb {
namespace {

// A pending subtree copy: the node at `src_index` of the tree being merged
// sits at `dst_index` of the tree being extended.
struct MergeItem {
  int32_t src_index;
  int32_t dst_index;
};

// ---------------------------------------------------------------------------
// SPN — successor spanning trees (paper Section 3.5).
// ---------------------------------------------------------------------------

// Merges the (complete) successor tree of child `c` into `tree` (the tree
// of the node being expanded). `seen` is the marking set: a node in `seen`
// has its entire closure present already, so its subtree is skipped — this
// is the structural-information saving of the Spanning Tree algorithm.
// `stack` is scratch.
void MergeSuccessorTree(const FlatTree& child_tree, FlatTree* tree,
                        EpochSet* seen, std::vector<MergeItem>* stack,
                        RunMetrics* m) {
  const int32_t root_dst = tree->IndexOf(child_tree.root());
  TCDB_CHECK_GE(root_dst, 0);  // The child is already a child of the root.
  stack->assign(1, MergeItem{0, root_dst});
  while (!stack->empty()) {
    const MergeItem item = stack->back();
    stack->pop_back();
    for (int32_t u = child_tree.FirstChild(item.src_index); u != -1;
         u = child_tree.NextSibling(u)) {
      const NodeId node = child_tree.NodeAt(u);
      ++m->tuples_generated;
      if (seen->Contains(node)) continue;  // Whole subtree already present.
      seen->Insert(node);
      int32_t dst = tree->IndexOf(node);
      if (dst == -1) {
        dst = tree->AddChild(item.dst_index, node);
        ++m->tuples_inserted;
      }
      stack->push_back({u, dst});
    }
  }
}

// Reads list `list` of `store` into `scratch` and decodes it into `out`
// over the run's node universe.
Status ReadTree(const RunContext& ctx, SuccessorListStore* store,
                int32_t list, std::vector<int32_t>* scratch, FlatTree* out) {
  scratch->clear();
  TCDB_RETURN_IF_ERROR(store->Read(list, scratch));
  return DecodeTreeInto(*scratch, ctx.num_nodes, out);
}

Status FinalizeTrees(RunContext* ctx, const QuerySpec& query,
                     const RestructureResult& rs, RunResult* result) {
  const int32_t num_lists = ctx->succ->num_lists();
  std::vector<bool> keep(static_cast<size_t>(num_lists), query.full_closure);
  for (int32_t pos = 0; pos < num_lists; ++pos) {
    if (rs.is_source[rs.topo_order[pos]]) keep[pos] = true;
  }
  ctx->succ->FinalizeKeepLists(keep);
  if (ctx->options.capture_answer || ctx->options.capture_trees) {
    ctx->BeginPhase(Phase::kSetup);
    std::vector<int32_t> scratch;
    FlatTree tree;
    for (int32_t pos = 0; pos < num_lists; ++pos) {
      const NodeId x = rs.topo_order[pos];
      if (!query.full_closure && !rs.is_source[x]) continue;
      TCDB_RETURN_IF_ERROR(
          ReadTree(*ctx, ctx->succ.get(), pos, &scratch, &tree));
      if (ctx->options.capture_answer) {
        std::vector<NodeId> successors(tree.nodes().begin() + 1,
                                       tree.nodes().end());
        std::sort(successors.begin(), successors.end());
        result->answer.emplace_back(x, std::move(successors));
      }
      if (ctx->options.capture_trees) {
        result->spanning_trees.emplace_back(x, scratch);
      }
    }
    std::sort(result->answer.begin(), result->answer.end());
    std::sort(result->spanning_trees.begin(), result->spanning_trees.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// JKB / JKB2 — Compute_Tree with special-node predecessor trees
// (paper Section 3.6).
// ---------------------------------------------------------------------------

// Merges the predecessor tree of immediate predecessor `p` into `tree`
// (rooted at the node being processed). Unlike SPN, subtrees are never
// skipped: the trees hold only *special* nodes, so a node's presence says
// nothing about its subtree — this is exactly why JKB "misses many
// opportunities to apply the marking optimization" (Section 6.3.3).
// `stack` is scratch.
void MergePredecessorTree(const FlatTree& pred_tree, FlatTree* tree,
                          std::vector<MergeItem>* stack, RunMetrics* m) {
  // The predecessor p itself hangs off the root of `tree`.
  ++m->tuples_generated;
  int32_t p_dst = tree->IndexOf(pred_tree.root());
  if (p_dst == -1) {
    p_dst = tree->AddChild(0, pred_tree.root());
    ++m->tuples_inserted;
  }
  stack->assign(1, MergeItem{0, p_dst});
  while (!stack->empty()) {
    const MergeItem item = stack->back();
    stack->pop_back();
    for (int32_t u = pred_tree.FirstChild(item.src_index); u != -1;
         u = pred_tree.NextSibling(u)) {
      const NodeId node = pred_tree.NodeAt(u);
      ++m->tuples_generated;
      int32_t dst = tree->IndexOf(node);
      if (dst == -1) {
        dst = tree->AddChild(item.dst_index, node);
        ++m->tuples_inserted;
      }
      stack->push_back({u, dst});
    }
  }
}

// Prunes `tree` down to its special nodes with respect to the root: the
// root itself, every source node, and every branching node (the nearest
// common ancestor of two unrelated sources). Non-special chain nodes are
// spliced out and non-source leaves dropped, bounding the tree size by
// ~2|S| (paper Section 3.6). The result replaces `*pruned`; `scratch` is
// reused storage.
void PruneToSpecial(const FlatTree& tree, const std::vector<bool>& is_source,
                    std::vector<int32_t>* scratch, FlatTree* pruned) {
  // passed_up[i]: how many surviving subtree roots node i hands to its
  // parent. A child's index exceeds its parent's, so a descending index
  // sweep visits every child before its parent.
  std::vector<int32_t>& passed_up = *scratch;
  passed_up.assign(static_cast<size_t>(tree.size()), 0);
  auto special = [&](int32_t i) {
    return is_source[tree.NodeAt(i)] || passed_up[i] >= 2;
  };
  for (int32_t i = tree.size() - 1; i > 0; --i) {
    passed_up[tree.ParentOf(i)] += special(i) ? 1 : passed_up[i];
  }
  // The pruned tree is the special nodes in the original pre-order, each
  // under its nearest special ancestor. Walking in pre-order, passed_up[i]
  // is overwritten (after special(i) has read it) with the pruned index
  // of i's nearest special ancestor-or-self.
  pruned->Reset(tree.root());
  passed_up[0] = 0;
  int32_t i = tree.FirstChild(0);
  while (i != -1) {
    const int32_t anchor = passed_up[tree.ParentOf(i)];
    passed_up[i] =
        special(i) ? pruned->AddChild(anchor, tree.NodeAt(i)) : anchor;
    if (tree.FirstChild(i) != -1) {
      i = tree.FirstChild(i);
      continue;
    }
    while (i != 0 && tree.NextSibling(i) == -1) i = tree.ParentOf(i);
    i = i == 0 ? -1 : tree.NextSibling(i);
  }
}

}  // namespace

Status RunSpn(RunContext* ctx, const QuerySpec& query, RunResult* result) {
  RestructureResult rs;
  {
    ctx->BeginPhase(Phase::kRestructuring);
    CpuTimer cpu;
    TCDB_RETURN_IF_ERROR(DiscoverAndSort(ctx, query, false, &rs));
    TCDB_RETURN_IF_ERROR(WriteInitialTrees(ctx, rs));
    ctx->metrics.restructure_cpu_s = cpu.ElapsedSeconds();
  }
  ctx->BeginPhase(Phase::kComputation);
  CpuTimer cpu;
  RunMetrics& m = ctx->metrics;
  EpochSet seen(static_cast<size_t>(ctx->num_nodes));
  // Per-run storage, reused by every node: the list as read or written,
  // the node's tree, a child's tree, the sorted children, the merge stack
  // and the encoder's queue.
  std::vector<int32_t> scratch;
  FlatTree tree;
  FlatTree child_tree;
  std::vector<NodeId> children;
  std::vector<MergeItem> stack;
  std::vector<int32_t> queue;
  for (int32_t pos = static_cast<int32_t>(rs.topo_order.size()) - 1; pos >= 0;
       --pos) {
    const NodeId x = rs.topo_order[pos];
    TCDB_RETURN_IF_ERROR(
        ReadTree(*ctx, ctx->succ.get(), pos, &scratch, &tree));
    seen.ClearAll();
    children.assign(tree.nodes().begin() + 1, tree.nodes().end());
    std::sort(children.begin(), children.end(), [&](NodeId a, NodeId b) {
      return rs.topo_pos[a] < rs.topo_pos[b];
    });
    for (const NodeId c : children) {
      ++m.arcs_processed;
      if (ctx->options.use_marking && seen.Contains(c)) {
        ++m.arcs_marked;
        continue;
      }
      ++m.list_unions;
      m.unmarked_locality_sum += rs.levels[x] - rs.levels[c];
      seen.Insert(c);
      TCDB_RETURN_IF_ERROR(ReadTree(*ctx, ctx->succ.get(), rs.topo_pos[c],
                                    &scratch, &child_tree));
      MergeSuccessorTree(child_tree, &tree, &seen, &stack, &m);
    }
    // The expanded tree's structure changed; rewrite it in place.
    ctx->succ->Truncate(pos);
    EncodeTreeInto(tree, &queue, &scratch);
    TCDB_RETURN_IF_ERROR(ctx->succ->AppendMany(pos, scratch));
    m.distinct_tuples += tree.size() - 1;
    if (rs.is_source[x]) m.selected_tuples += tree.size() - 1;
  }
  TCDB_RETURN_IF_ERROR(FinalizeTrees(ctx, query, rs, result));
  ctx->metrics.compute_cpu_s = cpu.ElapsedSeconds();
  return Status::Ok();
}

Status RunJkb(RunContext* ctx, const QuerySpec& query, bool dual,
              RunResult* result) {
  RestructureResult rs;
  std::vector<int32_t> pred_list_of;
  {
    ctx->BeginPhase(Phase::kRestructuring);
    CpuTimer cpu;
    TCDB_RETURN_IF_ERROR(DiscoverAndSort(ctx, query, false, &rs));
    TCDB_RETURN_IF_ERROR(
        BuildPredecessorLists(ctx, rs, dual, &pred_list_of));
    ctx->metrics.restructure_cpu_s = cpu.ElapsedSeconds();
  }
  ctx->BeginPhase(Phase::kComputation);
  CpuTimer cpu;
  RunMetrics& m = ctx->metrics;

  // Predecessor trees live in their own store, indexed by topological
  // position; the answer tuples stream into the output file.
  ctx->trees = std::make_unique<SuccessorListStore>(
      ctx->buffers.get(), ctx->tree_file, ctx->options.list_policy);
  ctx->trees->Reset(static_cast<int32_t>(rs.topo_order.size()));
  TupleWriter output(ctx->buffers.get(), ctx->out_file);

  std::vector<std::vector<NodeId>> captured;
  std::vector<int32_t> capture_index;
  if (ctx->options.capture_answer) {
    capture_index.assign(static_cast<size_t>(ctx->num_nodes), -1);
    std::vector<NodeId> sources = query.sources;
    if (query.full_closure) {
      sources.resize(static_cast<size_t>(ctx->num_nodes));
      for (NodeId v = 0; v < ctx->num_nodes; ++v) sources[v] = v;
    }
    captured.resize(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      capture_index[sources[i]] = static_cast<int32_t>(i);
    }
  }

  // Per-run storage, reused by every node: the list as read or written,
  // the sorted predecessors, the node's tree, a predecessor's tree, the
  // pruning target and scratch, the merge stack and the encoder's queue.
  std::vector<int32_t> scratch;
  std::vector<NodeId> preds;
  FlatTree tree;
  FlatTree pred_tree;
  FlatTree pruned;
  std::vector<int32_t> prune_scratch;
  std::vector<MergeItem> stack;
  std::vector<int32_t> queue;
  // Forward topological order: all immediate predecessors of a node are
  // final before the node is reached.
  for (size_t pos = 0; pos < rs.topo_order.size(); ++pos) {
    const NodeId x = rs.topo_order[pos];
    scratch.clear();
    TCDB_RETURN_IF_ERROR(ctx->pred->Read(pred_list_of[x], &scratch));
    preds.assign(scratch.begin(), scratch.end());
    // Nearest predecessors first (the analogue of the topological child
    // order in BTC).
    std::sort(preds.begin(), preds.end(), [&](NodeId a, NodeId b) {
      return rs.topo_pos[a] > rs.topo_pos[b];
    });
    tree.Reset(x);
    // The node's (initially trivial) tree lives on disk and is rewritten
    // after every union, as in the original Compute_Tree: trees are
    // maintained on their pages as they grow, they are not batched in
    // memory. The repeated rewrites are part of the algorithm's real cost.
    EncodeTreeInto(tree, &queue, &scratch);
    TCDB_RETURN_IF_ERROR(
        ctx->trees->AppendMany(static_cast<int32_t>(pos), scratch));
    for (const NodeId p : preds) {
      ++m.arcs_processed;
      if (ctx->options.use_marking && tree.Contains(p)) {
        // Marked: p already appears in the (special-node) tree. Because
        // non-special predecessors never appear, this almost never fires —
        // the poor marking utilization of Section 6.3.3.
        ++m.arcs_marked;
        continue;
      }
      ++m.list_unions;
      m.unmarked_locality_sum += rs.levels[p] - rs.levels[x];
      TCDB_RETURN_IF_ERROR(ReadTree(*ctx, ctx->trees.get(), rs.topo_pos[p],
                                    &scratch, &pred_tree));
      MergePredecessorTree(pred_tree, &tree, &stack, &m);
      // Copy only the nodes special with respect to x (bottom-up pruning),
      // then write the updated tree back. When every node is a source
      // (CTC) pruning is an identity and is skipped.
      if (!query.full_closure) {
        PruneToSpecial(tree, rs.is_source, &prune_scratch, &pruned);
        std::swap(tree, pruned);
      }
      ctx->trees->Truncate(static_cast<int32_t>(pos));
      EncodeTreeInto(tree, &queue, &scratch);
      TCDB_RETURN_IF_ERROR(
          ctx->trees->AppendMany(static_cast<int32_t>(pos), scratch));
    }
    const FlatTree& special = tree;
    m.distinct_tuples += special.size() - 1;
    // Emit the answer tuples (s, x) for every source s in the tree.
    for (const NodeId u : special.nodes()) {
      if (u == x || !rs.is_source[u]) continue;
      TCDB_RETURN_IF_ERROR(output.Append(Arc{u, x}));
      ++m.selected_tuples;
      if (ctx->options.capture_answer && capture_index[u] >= 0) {
        captured[capture_index[u]].push_back(x);
      }
    }
  }

  // Write-out: the answer tuples are flushed; the predecessor lists and
  // trees are intermediates and are dropped.
  ctx->buffers->FlushFile(ctx->out_file);
  ctx->trees->FinalizeKeepLists(
      std::vector<bool>(ctx->trees->num_lists(), false));
  ctx->pred->FinalizeKeepLists(
      std::vector<bool>(ctx->pred->num_lists(), false));

  if (ctx->options.capture_answer) {
    std::vector<NodeId> sources = query.sources;
    if (query.full_closure) {
      sources.resize(static_cast<size_t>(ctx->num_nodes));
      for (NodeId v = 0; v < ctx->num_nodes; ++v) sources[v] = v;
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      std::sort(captured[i].begin(), captured[i].end());
      result->answer.emplace_back(sources[i], std::move(captured[i]));
    }
    std::sort(result->answer.begin(), result->answer.end());
  }
  ctx->metrics.compute_cpu_s = cpu.ElapsedSeconds();
  return Status::Ok();
}

}  // namespace tcdb

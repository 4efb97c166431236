#include <algorithm>
#include <map>
#include <set>

#include "core/algorithms.h"
#include "core/restructure.h"
#include "graph/analyzer.h"
#include "storage/page_guard.h"
#include "succ/succ_bitset.h"
#include "util/bit_vector.h"
#include "util/timer.h"

namespace tcdb {
namespace {

// Sorts `children` by topological position, the order required by the
// marking optimization (paper Section 3.1).
void SortByTopoPosition(const RestructureResult& rs,
                        std::vector<int32_t>* children) {
  std::sort(children->begin(), children->end(), [&](int32_t a, int32_t b) {
    return rs.topo_pos[a] < rs.topo_pos[b];
  });
}

// Expands the flat successor list of the node at topological position
// `pos`, assuming every deeper node (higher position) is fully expanded.
// `seen` tracks nodes whose closure has been merged (the marking test);
// `in_list` tracks the on-disk list content (duplicate elimination, done
// with bit-vector-style structures in memory, as in the paper — here the
// chunked successor bitset, whose packed chunks keep the dedup working
// set 32x smaller than the stamp-per-node EpochSet it replaced; the
// tuple counters are per value scanned either way, so model metrics are
// unchanged by the swap).
Status ExpandFlatNode(RunContext* ctx, const RestructureResult& rs,
                      int32_t pos, SuccessorBitset* seen,
                      SuccessorBitset* in_list,
                      std::vector<int32_t>* content,
                      std::vector<int32_t>* child_content,
                      std::vector<int32_t>* batch) {
  RunMetrics& m = ctx->metrics;
  const NodeId x = rs.topo_order[pos];
  seen->ClearAll();
  in_list->ClearAll();
  content->clear();
  TCDB_RETURN_IF_ERROR(ctx->succ->Read(pos, content));
  in_list->InsertSpan(*content);
  std::vector<int32_t> children = *content;
  SortByTopoPosition(rs, &children);
  for (const NodeId c : children) {
    ++m.arcs_processed;
    if (ctx->options.use_marking && seen->Contains(c)) {
      ++m.arcs_marked;  // Redundant arc: c reached via an earlier child.
      continue;
    }
    ++m.list_unions;
    m.unmarked_locality_sum += rs.levels[x] - rs.levels[c];
    seen->Insert(c);
    child_content->clear();
    TCDB_RETURN_IF_ERROR(ctx->succ->Read(rs.topo_pos[c], child_content));
    batch->clear();
    seen->InsertSpan(*child_content);
    in_list->MergeNew(*child_content, batch);
    m.tuples_generated += static_cast<int64_t>(child_content->size());
    m.tuples_inserted += static_cast<int64_t>(batch->size());
    TCDB_RETURN_IF_ERROR(ctx->succ->AppendMany(pos, *batch));
  }
  return Status::Ok();
}

// Final write-out plus answer/statistics collection shared by the
// flat-list algorithms (and SPN supplies its own variant).
Status FinalizeFlat(RunContext* ctx, const QuerySpec& query,
                    const RestructureResult& rs, RunResult* result) {
  RunMetrics& m = ctx->metrics;
  const int32_t num_lists = ctx->succ->num_lists();
  std::vector<bool> keep(static_cast<size_t>(num_lists),
                         query.full_closure);
  for (int32_t pos = 0; pos < num_lists; ++pos) {
    const NodeId x = rs.topo_order[pos];
    const int64_t length = ctx->succ->ListLength(pos);
    m.distinct_tuples += length;
    if (rs.is_source[x]) {
      m.selected_tuples += length;
      keep[pos] = true;
    }
  }
  ctx->succ->FinalizeKeepLists(keep);
  if (ctx->options.capture_answer) {
    // Capture is not part of the measured run: attribute its I/O to setup.
    ctx->BeginPhase(Phase::kSetup);
    for (int32_t pos = 0; pos < num_lists; ++pos) {
      const NodeId x = rs.topo_order[pos];
      if (!query.full_closure && !rs.is_source[x]) continue;
      std::vector<int32_t> content;
      TCDB_RETURN_IF_ERROR(ctx->succ->Read(pos, &content));
      std::sort(content.begin(), content.end());
      result->answer.emplace_back(x, std::move(content));
    }
    std::sort(result->answer.begin(), result->answer.end());
  }
  return Status::Ok();
}

Status RunBtcLike(RunContext* ctx, const QuerySpec& query, bool single_parent,
                  RunResult* result) {
  RestructureResult rs;
  {
    ctx->BeginPhase(Phase::kRestructuring);
    CpuTimer cpu;
    TCDB_RETURN_IF_ERROR(DiscoverAndSort(ctx, query, single_parent, &rs));
    TCDB_RETURN_IF_ERROR(WriteInitialLists(ctx, rs));
    ctx->metrics.restructure_cpu_s = cpu.ElapsedSeconds();
  }
  {
    ctx->BeginPhase(Phase::kComputation);
    CpuTimer cpu;
    const NodeId n = ctx->num_nodes;
    SuccessorBitset seen(static_cast<size_t>(n));
    SuccessorBitset in_list(static_cast<size_t>(n));
    std::vector<int32_t> content, child_content, batch;
    for (int32_t pos = static_cast<int32_t>(rs.topo_order.size()) - 1;
         pos >= 0; --pos) {
      TCDB_RETURN_IF_ERROR(ExpandFlatNode(ctx, rs, pos, &seen, &in_list,
                                          &content, &child_content, &batch));
    }
    TCDB_RETURN_IF_ERROR(FinalizeFlat(ctx, query, rs, result));
    ctx->metrics.compute_cpu_s = cpu.ElapsedSeconds();
  }
  return Status::Ok();
}

}  // namespace

Status RunBtc(RunContext* ctx, const QuerySpec& query, RunResult* result) {
  return RunBtcLike(ctx, query, /*single_parent=*/false, result);
}

Status RunBj(RunContext* ctx, const QuerySpec& query, RunResult* result) {
  return RunBtcLike(ctx, query, /*single_parent=*/true, result);
}

Status RunHyb(RunContext* ctx, const QuerySpec& query, RunResult* result) {
  if (ctx->options.ilimit <= 0.0) {
    // No blocking: HYB degenerates to BTC (and indeed performed best that
    // way in the study, Figure 6).
    return RunBtc(ctx, query, result);
  }
  RestructureResult rs;
  {
    ctx->BeginPhase(Phase::kRestructuring);
    CpuTimer cpu;
    TCDB_RETURN_IF_ERROR(DiscoverAndSort(ctx, query, false, &rs));
    TCDB_RETURN_IF_ERROR(WriteInitialLists(ctx, rs));
    ctx->metrics.restructure_cpu_s = cpu.ElapsedSeconds();
  }
  ctx->BeginPhase(Phase::kComputation);
  CpuTimer cpu;
  RunMetrics& m = ctx->metrics;
  const NodeId n = ctx->num_nodes;
  const int32_t num_lists = ctx->succ->num_lists();
  // The reserved share never takes the whole pool: at least two frames
  // stay available for off-diagonal reads and appends, whatever ILIMIT
  // says.
  const size_t diag_budget = std::min(
      ctx->options.buffer_pages - 2,
      std::max<size_t>(
          1, static_cast<size_t>(ctx->options.ilimit *
                                 static_cast<double>(
                                     ctx->options.buffer_pages))));

  // Per-list expansion state, kept for the lists of the current block.
  // Chunked bitsets rather than EpochSets: HYB holds one pair per diagonal
  // list at once, so the packed chunks (lazily zeroed, never an O(n)
  // resize per block) bound the dedup working set by bits actually
  // touched, not by n times the block width.
  struct ListState {
    SuccessorBitset seen;
    SuccessorBitset in_list;
  };

  std::vector<int32_t> scratch, batch;
  int32_t next = num_lists - 1;
  while (next >= 0) {
    // --- Form the diagonal block: pin lists (reverse topological order)
    // until the reserved share of the pool (ILIMIT * M) is used.
    std::set<PageNumber> block_pages;
    std::vector<int32_t> block;  // positions, descending
    std::vector<PageGuard> pinned_pages;  // exact pins taken for the block
    while (next >= 0) {
      const std::vector<PageNumber> pages = ctx->succ->ListPages(next);
      size_t new_pages = 0;
      for (PageNumber p : pages) new_pages += block_pages.contains(p) ? 0 : 1;
      if (!block.empty() && block_pages.size() + new_pages > diag_budget) {
        break;
      }
      Status pin = Status::Ok();
      std::vector<PageGuard> newly_pinned;
      for (const PageNumber p : pages) {
        Result<PageGuard> fetched =
            PageGuard::Fetch(ctx->buffers.get(), {ctx->succ_file, p},
                             "RunHyb diagonal block");
        if (!fetched.ok()) {
          pin = fetched.status();
          break;
        }
        newly_pinned.push_back(std::move(fetched).value());
      }
      if (!pin.ok()) {
        newly_pinned.clear();  // release this list's partial pins
        if (pin.code() != StatusCode::kResourceExhausted) return pin;
        // Dynamic reblocking: the pool cannot take this list's pages.
        if (block.empty()) {
          // Even alone it does not fit pinned; expand it unpinned (BTC
          // style) so progress is always possible.
          block.push_back(next);
          --next;
        }
        break;
      }
      for (PageNumber p : pages) block_pages.insert(p);
      for (PageGuard& guard : newly_pinned) {
        pinned_pages.push_back(std::move(guard));
      }
      block.push_back(next);
      --next;
    }
    const int32_t block_hi = block.front();  // highest position in block
    const int32_t block_lo = block.back();   // lowest position in block

    // --- Load block lists and classify children.
    std::map<int32_t, ListState> state;   // position -> state
    std::map<NodeId, std::vector<int32_t>> off_diag;  // child -> positions
    std::map<int32_t, std::vector<int32_t>> diag_children;  // pos -> children
    for (const int32_t pos : block) {
      ListState& st = state[pos];
      st.seen.Resize(static_cast<size_t>(n));
      st.in_list.Resize(static_cast<size_t>(n));
      scratch.clear();
      TCDB_RETURN_IF_ERROR(ctx->succ->Read(pos, &scratch));
      st.in_list.InsertSpan(scratch);
      for (const NodeId c : scratch) {
        const int32_t cpos = rs.topo_pos[c];
        if (cpos > block_hi) {
          off_diag[c].push_back(pos);  // Child in a completed block.
        } else {
          TCDB_CHECK_GE(cpos, block_lo);
          diag_children[pos].push_back(c);
        }
      }
    }

    // --- Off-diagonal phase: each off-diagonal list is brought in once and
    // joined with every diagonal list that references it (Figure 2). The
    // off-diagonal parts are processed before the diagonal parts, which is
    // why HYB may expand arcs a strict topological order would have marked.
    // Children are visited deepest-first so the marking test still fires
    // when one off-diagonal child subsumes another.
    std::vector<std::pair<int32_t, NodeId>> off_sorted;
    for (const auto& [child, positions] : off_diag) {
      off_sorted.emplace_back(rs.topo_pos[child], child);
    }
    std::sort(off_sorted.rbegin(), off_sorted.rend());
    std::vector<int32_t> child_content;
    for (const auto& [cpos, c] : off_sorted) {
      std::vector<int32_t> needed;
      for (const int32_t pos : off_diag[c]) {
        ListState& st = state[pos];
        ++m.arcs_processed;
        if (ctx->options.use_marking && st.seen.Contains(c)) {
          ++m.arcs_marked;
          continue;
        }
        ++m.list_unions;
        m.unmarked_locality_sum +=
            rs.levels[rs.topo_order[pos]] - rs.levels[c];
        st.seen.Insert(c);
        needed.push_back(pos);
      }
      if (needed.empty()) continue;
      child_content.clear();
      TCDB_RETURN_IF_ERROR(ctx->succ->Read(cpos, &child_content));
      for (const int32_t pos : needed) {
        ListState& st = state[pos];
        batch.clear();
        st.seen.InsertSpan(child_content);
        st.in_list.MergeNew(child_content, &batch);
        m.tuples_generated += static_cast<int64_t>(child_content.size());
        m.tuples_inserted += static_cast<int64_t>(batch.size());
        TCDB_RETURN_IF_ERROR(ctx->succ->AppendMany(pos, batch));
      }
    }

    // --- Diagonal phase: expand within the block in reverse topological
    // order; diagonal children are complete by the time they are needed.
    for (const int32_t pos : block) {  // descending
      ListState& st = state[pos];
      const NodeId x = rs.topo_order[pos];
      std::vector<int32_t>& children = diag_children[pos];
      SortByTopoPosition(rs, &children);
      for (const NodeId d : children) {
        ++m.arcs_processed;
        if (ctx->options.use_marking && st.seen.Contains(d)) {
          ++m.arcs_marked;
          continue;
        }
        ++m.list_unions;
        m.unmarked_locality_sum += rs.levels[x] - rs.levels[d];
        st.seen.Insert(d);
        child_content.clear();
        TCDB_RETURN_IF_ERROR(ctx->succ->Read(rs.topo_pos[d], &child_content));
        batch.clear();
        st.seen.InsertSpan(child_content);
        st.in_list.MergeNew(child_content, &batch);
        m.tuples_generated += static_cast<int64_t>(child_content.size());
        m.tuples_inserted += static_cast<int64_t>(batch.size());
        TCDB_RETURN_IF_ERROR(ctx->succ->AppendMany(pos, batch));
      }
    }

    // --- Release the block.
    pinned_pages.clear();
  }

  TCDB_RETURN_IF_ERROR(FinalizeFlat(ctx, query, rs, result));
  ctx->metrics.compute_cpu_s = cpu.ElapsedSeconds();
  return Status::Ok();
}

Status RunSearch(RunContext* ctx, const QuerySpec& query, RunResult* result) {
  // The Search algorithm is implemented as an extension of the
  // preprocessing phase (paper Section 4.1); there is no computation phase.
  ctx->BeginPhase(Phase::kRestructuring);
  CpuTimer cpu;
  RunMetrics& m = ctx->metrics;
  const NodeId n = ctx->num_nodes;
  std::vector<NodeId> sources = query.sources;
  if (query.full_closure) {
    sources.resize(static_cast<size_t>(n));
    for (NodeId v = 0; v < n; ++v) sources[v] = v;
  }
  ctx->succ = std::make_unique<SuccessorListStore>(
      ctx->buffers.get(), ctx->succ_file, ctx->options.list_policy);
  ctx->succ->Reset(static_cast<int32_t>(sources.size()));

  // The adjacency of every node whose arcs were looked up, kept for the
  // magic-graph statistics (the lookups below are still performed on every
  // expansion, since each one is the page I/O the paper charges).
  std::vector<std::vector<NodeId>> adj(static_cast<size_t>(n));
  // How often each node was expanded across all searches. An expansion of
  // v processes every arc of v, so weighting v's arcs by this count
  // weights each arc exactly as often as it was processed.
  std::vector<int64_t> expansions(static_cast<size_t>(n), 0);

  EpochSet members(static_cast<size_t>(n));
  std::vector<NodeId> stack;
  std::vector<NodeId> imm;
  std::vector<int32_t> batch;
  for (size_t idx = 0; idx < sources.size(); ++idx) {
    const NodeId s = sources[idx];
    members.ClearAll();
    stack.assign(1, s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      // Union S_s with the *immediate* successor list of v (no
      // immediate-successor optimization). The first lookup of v lands
      // straight in its adjacency record; later ones in scratch.
      ++m.list_unions;
      std::vector<NodeId>* arcs = expansions[v]++ == 0 ? &adj[v] : &imm;
      arcs->clear();
      TCDB_RETURN_IF_ERROR(ctx->relation->LookupSrc(v, arcs));
      batch.clear();
      for (const NodeId w : *arcs) {
        if (w != s && members.InsertIfAbsent(w)) {
          batch.push_back(w);
          stack.push_back(w);
        }
      }
      m.arcs_processed += static_cast<int64_t>(arcs->size());
      m.tuples_generated += static_cast<int64_t>(arcs->size());
      m.tuples_inserted += static_cast<int64_t>(batch.size());
      TCDB_RETURN_IF_ERROR(
          ctx->succ->AppendMany(static_cast<int32_t>(idx), batch));
    }
    m.selected_tuples += ctx->succ->ListLength(static_cast<int32_t>(idx));
  }
  m.distinct_tuples = m.selected_tuples;

  // Magic-graph statistics and the locality metric (CPU-side bookkeeping;
  // no extra I/O is charged). The magic graph is the sources plus every
  // looked-up arc.
  {
    std::vector<bool> in_magic(static_cast<size_t>(n), false);
    for (const NodeId s : sources) in_magic[s] = true;
    ArcList arcs;
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : adj[v]) {
        arcs.push_back(Arc{v, w});
        in_magic[w] = true;
      }
    }
    Digraph magic(n, arcs);
    Result<std::vector<int32_t>> levels = ComputeNodeLevels(magic);
    if (levels.ok()) {
      // SRCH marks nothing, so every traversal contributes a locality term.
      const std::vector<int32_t>& level = levels.value();
      for (NodeId v = 0; v < n; ++v) {
        int64_t arc_sum = 0;
        for (const NodeId w : adj[v]) arc_sum += level[v] - level[w];
        m.unmarked_locality_sum += expansions[v] * arc_sum;
      }
    }
    m.magic_nodes = std::count(in_magic.begin(), in_magic.end(), true);
    m.magic_arcs = static_cast<int64_t>(arcs.size());
  }

  // Write out the source lists (they are the answer).
  std::vector<bool> keep(sources.size(), true);
  ctx->succ->FinalizeKeepLists(keep);

  if (ctx->options.capture_answer) {
    ctx->BeginPhase(Phase::kSetup);
    for (size_t idx = 0; idx < sources.size(); ++idx) {
      std::vector<int32_t> content;
      TCDB_RETURN_IF_ERROR(
          ctx->succ->Read(static_cast<int32_t>(idx), &content));
      std::sort(content.begin(), content.end());
      result->answer.emplace_back(sources[idx], std::move(content));
    }
    std::sort(result->answer.begin(), result->answer.end());
  }
  ctx->metrics.restructure_cpu_s = cpu.ElapsedSeconds();
  return Status::Ok();
}

}  // namespace tcdb

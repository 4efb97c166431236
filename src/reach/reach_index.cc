#include "reach/reach_index.h"

#include <algorithm>
#include <utility>

namespace tcdb {

namespace {

// The rules PivotRuleFor's 0, 1 and 2 report, for structural and for
// trained pivots.
constexpr ReachRule kStructuralPivotRules[3] = {
    ReachRule::kSupportiveThrough, ReachRule::kSupportiveFwdCut,
    ReachRule::kSupportiveBwdCut};
constexpr ReachRule kTrainedPivotRules[3] = {ReachRule::kObsPivotThrough,
                                             ReachRule::kObsPivotFwdCut,
                                             ReachRule::kObsPivotBwdCut};

// Sizes the scratch buffers for a graph of `n` nodes (no-op when already
// sized, so the buffers amortize across a service's queries).
void PrepareScratch(ReachIndex::SearchScratch* scratch, size_t n) {
  if (scratch->visited.capacity() != n) scratch->visited.Resize(n);
  if (scratch->target_slot.size() != n) scratch->target_slot.assign(n, -1);
}

}  // namespace

// Inline: on the PrunedBfs path it runs once per visited node.
inline ReachIndex::Verdict ReachIndex::DecideByPivots(
    size_t begin, size_t end, const ReachRule* rules, NodeId u, NodeId v,
    ReachRule* rule) const {
  for (size_t i = begin; i < end; ++i) {
    const int r = PivotRuleFor(pivot_fwd_[i], pivot_bwd_[i], u, v);
    if (r < 0) continue;
    if (rule != nullptr) *rule = rules[r];
    return r == 0 ? Verdict::kYes : Verdict::kNo;
  }
  return Verdict::kUnknown;
}

ReachIndex::Verdict ReachIndex::TryDecide(NodeId u, NodeId v,
                                          ReachRule* rule) const {
  TCDB_DCHECK(u >= 0 && u < num_nodes());
  TCDB_DCHECK(v >= 0 && v < num_nodes());
  auto decide = [&](Verdict verdict, ReachRule r) {
    if (rule != nullptr) *rule = r;
    return verdict;
  };
  if (u == v) {
    return decide(Verdict::kYes, ReachRule::kSelf);
  }
  const int32_t pu = base_order_.pos[u];
  const int32_t pv = base_order_.pos[v];
  if (pv < pu || pv > base_order_.max_reach[u] ||
      pu < base_order_.min_origin[v]) {
    return decide(Verdict::kNo, ReachRule::kTopoWindow);
  }
  if (pre_[u] <= pre_[v] && post_[v] <= post_[u]) {
    return decide(Verdict::kYes, ReachRule::kDfsInterval);
  }
  if (chain_id_[u] == chain_id_[v]) {
    // pv > pu already, and chain positions are topologically increasing.
    TCDB_DCHECK(chain_pos_[u] < chain_pos_[v]);
    return decide(Verdict::kYes, ReachRule::kChainStep);
  }
  const Verdict structural =
      DecideByPivots(0, static_cast<size_t>(num_structural_),
                     kStructuralPivotRules, u, v, rule);
  if (structural != Verdict::kUnknown || !has_observations()) {
    return structural;
  }
  return DecideByObservations(u, v, rule);
}

ReachIndex::Verdict ReachIndex::DecideByObservations(NodeId u, NodeId v,
                                                     ReachRule* rule) const {
  auto decide = [&](Verdict verdict, ReachRule r) {
    if (rule != nullptr) *rule = r;
    return verdict;
  };
  if (fwd_level_[u] >= fwd_level_[v] || bwd_level_[u] <= bwd_level_[v]) {
    return decide(Verdict::kNo, ReachRule::kObsLevel);
  }
  for (const TopoLabels& order : extra_orders_) {
    const int32_t tu = order.pos[u];
    const int32_t tv = order.pos[v];
    if (tv < tu) return decide(Verdict::kNo, ReachRule::kObsTopoOrder);
    if (tv > order.max_reach[u] || tu < order.min_origin[v]) {
      return decide(Verdict::kNo, ReachRule::kObsSandwich);
    }
  }
  for (const BitVector& cut : fwd_cuts_) {
    if (cut.Test(static_cast<size_t>(u)) &&
        !cut.Test(static_cast<size_t>(v))) {
      return decide(Verdict::kNo, ReachRule::kObsForwardCut);
    }
  }
  for (const BitVector& cut : bwd_cuts_) {
    if (cut.Test(static_cast<size_t>(v)) &&
        !cut.Test(static_cast<size_t>(u))) {
      return decide(Verdict::kNo, ReachRule::kObsBackwardCut);
    }
  }
  return DecideByPivots(static_cast<size_t>(num_structural_), pivots_.size(),
                        kTrainedPivotRules, u, v, rule);
}

ReachIndex::Verdict ReachIndex::PrunedBfs(const Digraph& dag, NodeId u,
                                          NodeId v, int64_t budget,
                                          SearchScratch* scratch,
                                          int64_t* expansions) const {
  TCDB_DCHECK(dag.NumNodes() == num_nodes());
  if (expansions != nullptr) *expansions = 0;
  if (u == v) return Verdict::kYes;
  PrepareScratch(scratch, static_cast<size_t>(num_nodes()));
  EpochSet& visited = scratch->visited;
  std::vector<NodeId>& frontier = scratch->frontier;
  const int32_t pv = base_order_.pos[v];
  visited.ClearAll();
  frontier.clear();
  frontier.push_back(u);
  visited.Insert(static_cast<size_t>(u));
  int64_t expanded = 0;
  Verdict result = Verdict::kNo;  // An exhausted frontier proves "no".
  while (!frontier.empty()) {
    if (expanded >= budget) {
      result = Verdict::kUnknown;
      break;
    }
    const NodeId w = frontier.back();
    frontier.pop_back();
    ++expanded;
    for (const NodeId s : dag.Successors(w)) {
      if (s == v) {
        if (expansions != nullptr) *expansions = expanded;
        return Verdict::kYes;
      }
      if (visited.Contains(static_cast<size_t>(s))) continue;
      visited.Insert(static_cast<size_t>(s));
      // Prune nodes whose labels prove they cannot lie on a u ~> v path,
      // and short-circuit when the labels prove s ~> v outright.
      const Verdict via_s = TryDecide(s, v);
      if (via_s == Verdict::kYes) {
        if (expansions != nullptr) *expansions = expanded;
        return Verdict::kYes;
      }
      if (via_s == Verdict::kNo) continue;
      TCDB_DCHECK(base_order_.pos[s] < pv);
      frontier.push_back(s);
    }
  }
  if (expansions != nullptr) *expansions = expanded;
  return result;
}

bool ReachIndex::PrunedMultiBfs(const Digraph& dag, NodeId u,
                                std::span<const NodeId> targets,
                                int64_t budget, std::vector<bool>* reached,
                                SearchScratch* scratch,
                                int64_t* expansions) const {
  TCDB_DCHECK(dag.NumNodes() == num_nodes());
  reached->assign(targets.size(), false);
  if (expansions != nullptr) *expansions = 0;
  if (targets.empty()) return true;
  PrepareScratch(scratch, static_cast<size_t>(num_nodes()));
  EpochSet& visited = scratch->visited;
  std::vector<NodeId>& frontier = scratch->frontier;
  std::vector<int32_t>& target_slot = scratch->target_slot;
  const TopoLabels& base = base_order_;
  int32_t min_pv = base.pos[targets.front()];
  int32_t max_pv = min_pv;
  for (size_t i = 0; i < targets.size(); ++i) {
    const NodeId t = targets[i];
    TCDB_DCHECK(t != u);
    TCDB_DCHECK(target_slot[t] < 0);
    target_slot[t] = static_cast<int32_t>(i);
    min_pv = std::min(min_pv, base.pos[t]);
    max_pv = std::max(max_pv, base.pos[t]);
  }
  size_t remaining = targets.size();

  visited.ClearAll();
  frontier.clear();
  frontier.push_back(u);
  visited.Insert(static_cast<size_t>(u));
  int64_t expanded = 0;
  bool complete = true;
  while (!frontier.empty() && remaining > 0) {
    if (expanded >= budget) {
      complete = false;
      break;
    }
    const NodeId w = frontier.back();
    frontier.pop_back();
    ++expanded;
    for (const NodeId s : dag.Successors(w)) {
      const int32_t slot = target_slot[s];
      if (slot >= 0 && !(*reached)[slot]) {
        (*reached)[slot] = true;
        if (--remaining == 0) break;
      }
      if (visited.Contains(static_cast<size_t>(s))) continue;
      visited.Insert(static_cast<size_t>(s));
      // A node positioned after every target, or whose forward reach ends
      // before the first one, cannot lead to any remaining target.
      if (base.pos[s] > max_pv || base.max_reach[s] < min_pv) continue;
      frontier.push_back(s);
    }
  }
  for (const NodeId t : targets) target_slot[t] = -1;
  if (expansions != nullptr) *expansions = expanded;
  return complete || remaining == 0;
}

namespace {

void AppendI32Vector(const std::vector<int32_t>& v, std::string* out) {
  for (const int32_t x : v) codec::PutI32(out, x);
}

bool ReadI32Vector(codec::Reader* reader, size_t n, std::vector<int32_t>* v) {
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!reader->ReadI32(&(*v)[i])) return false;
  }
  return true;
}

void AppendBitVector(const BitVector& bits, std::string* out) {
  for (const uint64_t w : bits.Words()) codec::PutU64(out, w);
}

bool ReadBitVector(codec::Reader* reader, size_t size, BitVector* bits) {
  std::vector<uint64_t> words((size + 63) / 64);
  for (uint64_t& w : words) {
    if (!reader->ReadU64(&w)) return false;
  }
  *bits = BitVector::FromWords(size, std::move(words));
  return true;
}

}  // namespace

// Image layout: u32 n | u8 observations | u32 orders | per order: pos,
// max_reach, min_origin | pre | post | chain_id | chain_pos | i32 chains |
// observations only: fwd_level, bwd_level | u32 cuts | fwd cuts | bwd
// cuts | u32 pivots | u32 structural pivots | pivot ids | per pivot: fwd,
// bwd. Label arrays are n i32s, bit-sets ceil(n / 64) u64 words.
void ReachIndex::SerializeAppend(std::string* out) const {
  codec::PutU32(out, static_cast<uint32_t>(n_));
  codec::PutU8(out, has_observations() ? 1 : 0);
  auto append_order = [out](const TopoLabels& order) {
    AppendI32Vector(order.pos, out);
    AppendI32Vector(order.max_reach, out);
    AppendI32Vector(order.min_origin, out);
  };
  codec::PutU32(out, static_cast<uint32_t>(num_orders()));
  append_order(base_order_);
  for (const TopoLabels& order : extra_orders_) append_order(order);
  AppendI32Vector(pre_, out);
  AppendI32Vector(post_, out);
  AppendI32Vector(chain_id_, out);
  AppendI32Vector(chain_pos_, out);
  codec::PutI32(out, num_chains_);
  AppendI32Vector(fwd_level_, out);
  AppendI32Vector(bwd_level_, out);
  codec::PutU32(out, static_cast<uint32_t>(fwd_cuts_.size()));
  for (const BitVector& cut : fwd_cuts_) AppendBitVector(cut, out);
  for (const BitVector& cut : bwd_cuts_) AppendBitVector(cut, out);
  codec::PutU32(out, static_cast<uint32_t>(pivots_.size()));
  codec::PutU32(out, static_cast<uint32_t>(num_structural_));
  AppendI32Vector(pivots_, out);
  for (size_t i = 0; i < pivots_.size(); ++i) {
    AppendBitVector(pivot_fwd_[i], out);
    AppendBitVector(pivot_bwd_[i], out);
  }
}

Result<ReachIndex> ReachIndex::Deserialize(codec::Reader* reader) {
  ReachIndex index;
  uint32_t n = 0;
  uint8_t observations = 0;
  uint32_t num_orders = 0;
  if (!reader->ReadU32(&n) || !reader->ReadU8(&observations) ||
      !reader->ReadU32(&num_orders)) {
    return Status::Corruption("reach index image truncated");
  }
  if (n > static_cast<uint32_t>(INT32_MAX) || observations > 1 ||
      (observations == 1 && n == 0) || num_orders == 0) {
    return Status::Corruption("reach index header invalid");
  }
  index.n_ = static_cast<NodeId>(n);
  // Every count is checked against the bytes left before anything is
  // sized from it: each node carries seven i32 labels (nine with the
  // observations), each order three.
  const uint64_t label_bytes = 4 * uint64_t{n};
  const uint64_t bitset_bytes = 8 * ((uint64_t{n} + 63) / 64);
  if (!reader->Holds(n, 4 * (7 + 2 * uint64_t{observations}))) {
    return Status::Corruption("reach index node count exceeds image");
  }
  if (!reader->Holds(num_orders, 3 * label_bytes)) {
    return Status::Corruption("reach index order count exceeds image");
  }
  auto read_order = [reader, n](TopoLabels* order) {
    return ReadI32Vector(reader, n, &order->pos) &&
           ReadI32Vector(reader, n, &order->max_reach) &&
           ReadI32Vector(reader, n, &order->min_origin);
  };
  bool ok = read_order(&index.base_order_);
  index.extra_orders_.resize(num_orders - 1);
  for (TopoLabels& order : index.extra_orders_) {
    ok = ok && read_order(&order);
  }
  ok = ok && ReadI32Vector(reader, n, &index.pre_) &&
       ReadI32Vector(reader, n, &index.post_) &&
       ReadI32Vector(reader, n, &index.chain_id_) &&
       ReadI32Vector(reader, n, &index.chain_pos_) &&
       reader->ReadI32(&index.num_chains_);
  if (ok && observations == 1) {
    ok = ReadI32Vector(reader, n, &index.fwd_level_) &&
         ReadI32Vector(reader, n, &index.bwd_level_);
  }
  uint32_t num_cuts = 0;
  ok = ok && reader->ReadU32(&num_cuts);
  if (ok && !reader->Holds(num_cuts, 2 * bitset_bytes)) {
    return Status::Corruption("reach index cut count exceeds image");
  }
  if (ok) {
    index.fwd_cuts_.resize(num_cuts);
    index.bwd_cuts_.resize(num_cuts);
    for (BitVector& cut : index.fwd_cuts_) {
      ok = ok && ReadBitVector(reader, n, &cut);
    }
    for (BitVector& cut : index.bwd_cuts_) {
      ok = ok && ReadBitVector(reader, n, &cut);
    }
  }
  uint32_t num_pivots = 0;
  uint32_t num_structural = 0;
  ok = ok && reader->ReadU32(&num_pivots) && reader->ReadU32(&num_structural);
  if (ok && !reader->Holds(num_pivots, 4 + 2 * bitset_bytes)) {
    return Status::Corruption("reach index pivot count exceeds image");
  }
  if (ok && num_structural > num_pivots) {
    return Status::Corruption("reach index structural pivot count invalid");
  }
  if (ok) {
    index.num_structural_ = static_cast<int32_t>(num_structural);
    ok = ReadI32Vector(reader, num_pivots, &index.pivots_);
    index.pivot_fwd_.resize(num_pivots);
    index.pivot_bwd_.resize(num_pivots);
    for (uint32_t i = 0; ok && i < num_pivots; ++i) {
      ok = ReadBitVector(reader, n, &index.pivot_fwd_[i]) &&
           ReadBitVector(reader, n, &index.pivot_bwd_[i]);
    }
  }
  if (!ok) return Status::Corruption("reach index image truncated");
  for (const NodeId p : index.pivots_) {
    if (p < 0 || static_cast<uint32_t>(p) >= n) {
      return Status::Corruption("reach index pivot out of range");
    }
  }
  return index;
}

}  // namespace tcdb

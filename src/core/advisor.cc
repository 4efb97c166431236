#include "core/advisor.h"

#include <algorithm>

namespace tcdb {

Advice RecommendAlgorithm(const RectangleModel& model, NodeId num_nodes,
                          const QuerySpec& query,
                          const AdvisorConfig& config) {
  Advice advice;
  if (query.full_closure) {
    // For CTC the study found BTC best overall: blocking hurts HYB,
    // trees cost extra page I/O, BJ degenerates to BTC.
    advice.algorithm = Algorithm::kBtc;
    advice.rationale =
        "full closure: BTC was the best CTC performer in the study "
        "(blocking and tree structures only add I/O)";
    return advice;
  }
  const double s = static_cast<double>(query.sources.size());
  const double n = static_cast<double>(num_nodes);
  const double search_limit = std::max(
      static_cast<double>(config.search_source_limit),
      config.search_fraction * n);
  if (s <= search_limit) {
    advice.algorithm = Algorithm::kSrch;
    advice.rationale =
        "very high selectivity: an independent search per source avoids "
        "expanding any non-source node";
    if (config.index_point_queries &&
        s <= static_cast<double>(config.search_source_limit)) {
      // Below the absolute limit the workload is point lookups, not
      // closure computation: a one-shot ReachIndex build answers most of
      // them in O(1) from its root words and a ReachService settles the
      // rest with the index's bidirectional search, so no closure run is
      // needed at all.
      advice.use_reach_index = true;
      advice.rationale +=
          "; at this scale prefer ReachService point queries against a "
          "prebuilt ReachIndex, whose root words decide most pairs and "
          "whose bidirectional search settles the rest";
    }
    return advice;
  }
  if (s <= config.selective_fraction * n &&
      model.width < config.narrow_width_limit) {
    advice.algorithm = Algorithm::kJkb2;
    advice.rationale =
        "selective query on a narrow graph (W(G) = " +
        std::to_string(static_cast<int64_t>(model.width)) +
        "): special-node predecessor trees avoid expanding non-source "
        "nodes and the low width keeps their extra unions cheap (Table 4)";
    return advice;
  }
  const double avg_degree =
      n == 0 ? 0.0 : static_cast<double>(model.num_arcs) / n;
  if (avg_degree <= config.sparse_avg_degree) {
    advice.algorithm = Algorithm::kBj;
    advice.rationale =
        "wide or low-selectivity workload on a sparse graph: the "
        "single-parent reduction gives BJ a small edge over BTC";
    return advice;
  }
  advice.algorithm = Algorithm::kBtc;
  advice.rationale =
      "wide graph (W(G) = " +
      std::to_string(static_cast<int64_t>(model.width)) +
      ") or low selectivity: BTC's marking utilization dominates";
  return advice;
}

}  // namespace tcdb

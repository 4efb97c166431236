#ifndef TCDB_DYNAMIC_DYNAMIC_STATS_H_
#define TCDB_DYNAMIC_DYNAMIC_STATS_H_

#include <cstdint>
#include <string>

namespace tcdb {

// Per-service observability of the dynamic layer: how mutations
// accumulate, how often queries are served from the snapshot, the
// incremental trees or the live graph, and what the rebuild/swap cadence
// looks like. Complements ReachStats (which attributes each answer to its
// rule — kIncremental and kLiveBfs are the dynamic rules); this struct
// carries the dynamic-only aggregates a rule breakdown cannot express.
// Owner-thread mutable, like ReachStats.
struct DynamicStats {
  // Mutation traffic accepted by the log through this service.
  int64_t arcs_inserted = 0;
  int64_t arcs_deleted = 0;

  // Query traffic by path. snapshot_served: no mutation since the
  // snapshot was built and the frozen-snapshot ladder answered.
  // incremental_served: the incrementally maintained reachability trees
  // decided (either polarity, exact at the live epoch). escalations: the
  // trees left the query undecided (always, with num_pivots = 0) and the
  // live graph was searched.
  int64_t queries = 0;
  int64_t snapshot_served = 0;
  int64_t incremental_served = 0;
  int64_t overlay_served = 0;  // always 0; kept for the benchmark's reader
  int64_t escalations = 0;

  // Incremental-tier maintenance: tree repairs applied by mutations,
  // their cumulative cost (arcs scanned — the unit the rebuild budget
  // is denominated in), and how often that cost estimate crossed the
  // budget and advised a full rebuild.
  int64_t incremental_repairs = 0;
  int64_t incremental_repair_cost = 0;
  int64_t incremental_rebuilds_advised = 0;

  // Rebuild/swap cadence: snapshots adopted by the query owner, rebuild
  // wall-clock totals as reported by the publisher.
  int64_t snapshots_adopted = 0;
  double rebuild_seconds_total = 0.0;
  double last_rebuild_seconds = 0.0;

  // Current positions (refreshed on every mutation/query/adoption).
  int64_t epoch = 0;
  int64_t snapshot_epoch = 0;

  double EscalationRate() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(escalations) /
                     static_cast<double>(queries);
  }

  std::string ToString() const;
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_DYNAMIC_STATS_H_

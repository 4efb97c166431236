#include "dynamic/dynamic_stats.h"

#include <sstream>

namespace tcdb {

std::string DynamicStats::ToString() const {
  std::ostringstream out;
  out << "epoch " << epoch << " (snapshot " << snapshot_epoch << "), "
      << arcs_inserted << " inserts / " << arcs_deleted << " deletes, "
      << queries << " queries (" << snapshot_served << " snapshot, "
      << incremental_served << " incremental, " << escalations
      << " escalated, rate " << EscalationRate() << "), "
      << incremental_repairs << " tree repairs ("
      << incremental_repair_cost << " arc scans, "
      << incremental_rebuilds_advised << " rebuilds advised), "
      << snapshots_adopted << " swaps, rebuilds "
      << rebuild_seconds_total << "s total / " << last_rebuild_seconds
      << "s last\n";
  return out.str();
}

}  // namespace tcdb

// Checkpoint-while-serving (ctest labels: `persist` and `concurrency`;
// check.sh reruns this binary under ThreadSanitizer). A background
// IndexRebuilder keeps publishing fresh cores into the durable service's
// DynamicReachService while the owner thread mutates, queries, and takes
// checkpoints — the checkpoint cut and the concurrent rebuilds must never
// race, and the state recovered afterwards must match the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/index_rebuilder.h"
#include "dynamic/reference_graph.h"
#include "graph/generator.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "util/random.h"

namespace tcdb {
namespace {

TEST(PersistServing, CheckpointsUnderBackgroundRebuilds) {
  GeneratorParams params;
  params.num_nodes = 120;
  params.avg_out_degree = 3;
  params.locality = 30;
  params.seed = 5;
  const NodeId n = params.num_nodes;
  const ArcList base = GenerateCyclicDigraph(params, /*num_back_arcs=*/6);

  MemFs fs;
  DurableOptions options;
  auto db = DurableDynamicService::Create(&fs, "db", base, n, options);
  ASSERT_TRUE(db.ok());

  ReferenceGraph reference(n);
  for (const Arc& arc : base) {
    if (!reference.HasArc(arc.src, arc.dst)) reference.Insert(arc.src, arc.dst);
  }

  DynamicReachService* service = db.value()->service();
  IndexRebuilderOptions rebuild_options;
  rebuild_options.mutations_per_rebuild = 16;
  rebuild_options.poll_interval = std::chrono::milliseconds(1);
  IndexRebuilder rebuilder(
      db.value()->log(),
      [service](std::shared_ptr<const ReachCore> core,
                MutationLog::Epoch epoch, double seconds) {
        service->PublishSnapshot(std::move(core), epoch, seconds);
      },
      rebuild_options);
  rebuilder.Start();

  Rng rng(17);
  int64_t checkpoints = 0;
  for (int op = 0; op < 600; ++op) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (s != d && rng.Bernoulli(0.6)) {
      if (reference.HasArc(s, d)) {
        ASSERT_TRUE(db.value()->DeleteArc(s, d).ok());
        reference.Delete(s, d);
      } else {
        ASSERT_TRUE(db.value()->InsertArc(s, d).ok());
        reference.Insert(s, d);
      }
    } else {
      auto answer = db.value()->Query(s, d);
      ASSERT_TRUE(answer.ok());
      ASSERT_EQ(answer.value().reachable, reference.Reaches(s, d))
          << "op " << op << " (" << s << ", " << d << ")";
    }
    if ((op + 1) % 50 == 0) {
      ASSERT_TRUE(db.value()->Checkpoint().ok());
      ++checkpoints;
      // Yield so the rebuilder actually gets to build and publish between
      // checkpoints — otherwise this loop outruns its poll interval.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  rebuilder.Stop();
  EXPECT_EQ(checkpoints, 12);
  const MutationLog::Epoch final_epoch = db.value()->epoch();
  db.value().reset();

  // What the concurrent run persisted must recover to the exact state.
  RecoveryReport report;
  auto recovered = DurableDynamicService::Recover(&fs, "db", options, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.recovered_epoch, final_epoch);
  EXPECT_EQ(report.replayed_entries,
            report.recovered_epoch - report.checkpoint_epoch);
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> row = recovered.value()->log()->adjacency().Out(v);
    std::sort(row.begin(), row.end());
    ASSERT_EQ(row, reference.SortedSuccessors(v)) << "node " << v;
  }
  for (int i = 0; i < 60; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    auto answer = recovered.value()->Query(s, d);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value().reachable, reference.Reaches(s, d));
  }
}

}  // namespace
}  // namespace tcdb

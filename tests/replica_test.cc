// WAL-shipping replication end-to-end (ctest labels: `replica` and
// `concurrency`; check.sh reruns this binary under ThreadSanitizer):
// follower bootstrap from a shipped checkpoint, multi-segment catch-up
// over a live rotated WAL, torn-shipped-segment re-fetch, the
// epoch-staleness bound under sustained mutations, restart catch-up
// (segments-only and checkpoint-shipped), promotion, and concurrent
// follower reads racing the primary's mutation stream.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/reference_graph.h"
#include "graph/generator.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "replica/follower.h"
#include "replica/primary.h"
#include "replica/transport.h"
#include "replica/wire.h"
#include "util/random.h"

namespace tcdb {
namespace {

constexpr std::chrono::milliseconds kWait{20000};

ArcList TestGraph(NodeId* num_nodes, uint64_t seed = 3) {
  GeneratorParams params;
  params.num_nodes = 100;
  params.avg_out_degree = 3;
  params.locality = 25;
  params.seed = seed;
  *num_nodes = params.num_nodes;
  return GenerateCyclicDigraph(params, /*num_back_arcs=*/5);
}

ReferenceGraph MirrorOf(const ArcList& arcs, NodeId n) {
  ReferenceGraph reference(n);
  for (const Arc& arc : arcs) {
    if (!reference.HasArc(arc.src, arc.dst)) {
      reference.Insert(arc.src, arc.dst);
    }
  }
  return reference;
}

std::unique_ptr<Primary> MakePrimary(MemFs* fs, const ArcList& base,
                                     NodeId n,
                                     const DurableOptions& options = {}) {
  auto db = DurableDynamicService::Create(fs, "db", base, n, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  return std::make_unique<Primary>(std::move(db).value());
}

std::unique_ptr<Follower> Attach(Primary* primary, Fs* fs,
                                 const FollowerOptions& options = {},
                                 size_t pipe_capacity = 1 << 16) {
  auto [primary_end, follower_end] = MakeInProcessPipe(pipe_capacity);
  auto follower =
      Follower::Start(fs, "replica", std::move(follower_end), options);
  EXPECT_TRUE(follower.ok()) << follower.status().ToString();
  if (!follower.ok()) return nullptr;
  const Status attached = primary->AttachFollower(std::move(primary_end));
  EXPECT_TRUE(attached.ok()) << attached.ToString();
  if (!attached.ok()) return nullptr;
  return std::move(follower).value();
}

// Applies `count` toggle mutations (delete when live, insert otherwise),
// mirrored into `reference`.
void Mutate(Primary* primary, ReferenceGraph* reference, NodeId n, Rng* rng,
            int count) {
  for (int i = 0; i < count; ++i) {
    const NodeId s = static_cast<NodeId>(rng->Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng->Uniform(0, n - 1));
    if (s == d) continue;
    if (reference->HasArc(s, d)) {
      ASSERT_TRUE(primary->DeleteArc(s, d).ok());
      reference->Delete(s, d);
    } else {
      ASSERT_TRUE(primary->InsertArc(s, d).ok());
      reference->Insert(s, d);
    }
  }
}

// Read barrier, then differential queries through the follower.
void ExpectFollowerMatches(Follower* follower, Primary* primary,
                           ReferenceGraph* reference, NodeId n, Rng* rng,
                           int count) {
  ASSERT_TRUE(follower->WaitCaughtUp(primary->epoch(), kWait))
      << follower->error().ToString();
  const Status refreshed = follower->RefreshSnapshot();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_GE(follower->Lag().served, primary->epoch());
  for (int i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng->Uniform(0, n - 1));
    auto answer = follower->Query(u, v);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().reachable, reference->Reaches(u, v))
        << "(" << u << ", " << v << ")";
  }
}

TEST(Replica, BootstrapsFromShippedCheckpointAndFollowsLiveRecords) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(11);

  // A checkpoint truncates the WAL, so a fresh follower cannot catch up
  // from segments alone — the bootstrap must ship the image.
  Mutate(primary.get(), &reference, n, &rng, 40);
  ASSERT_TRUE(primary->Checkpoint().ok());
  Mutate(primary.get(), &reference, n, &rng, 25);

  MemFs follower_disk;
  auto follower = Attach(primary.get(), &follower_disk);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(follower->stats().checkpoints_received, 1);
  EXPECT_EQ(follower->applied_epoch(), primary->epoch());
  ExpectFollowerMatches(follower.get(), primary.get(), &reference, n, &rng,
                        40);

  // Live records after the bootstrap flow through the same read path.
  Mutate(primary.get(), &reference, n, &rng, 50);
  ExpectFollowerMatches(follower.get(), primary.get(), &reference, n, &rng,
                        40);
  EXPECT_EQ(primary->stats().records_shipped, 50);
}

TEST(Replica, CatchesUpAcrossManyRotatedSegments) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n, /*seed=*/9);
  MemFs primary_disk;
  DurableOptions small_segments;
  small_segments.wal.segment_bytes = 200;  // a handful of records each
  auto primary = MakePrimary(&primary_disk, base, n, small_segments);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(13);
  Mutate(primary.get(), &reference, n, &rng, 60);

  MemFs follower_disk;
  auto follower = Attach(primary.get(), &follower_disk);
  ASSERT_NE(follower, nullptr);
  // The whole suffix arrived as shipped segment images, several of them.
  EXPECT_GE(follower->stats().segments_received, 3);
  EXPECT_EQ(follower->stats().records_applied, 60);
  ExpectFollowerMatches(follower.get(), primary.get(), &reference, n, &rng,
                        40);
}

TEST(Replica, RefetchesATornShippedSegment) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(17);
  Mutate(primary.get(), &reference, n, &rng, 30);

  // The first ship of the next segment loses its tail in transit; the
  // follower must detect the short image and ask again rather than
  // silently bootstrap to a truncated state.
  primary->TearNextSegmentShipForTesting(11);
  MemFs follower_disk;
  auto follower = Attach(primary.get(), &follower_disk);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(follower->stats().segment_resends_requested, 1);
  EXPECT_EQ(primary->stats().segment_resends_served, 1);
  EXPECT_EQ(follower->applied_epoch(), primary->epoch());
  ExpectFollowerMatches(follower.get(), primary.get(), &reference, n, &rng,
                        40);
}

TEST(Replica, ServedStalenessStaysWithinTheConfiguredBound) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(19);

  constexpr size_t kPipeCapacity = 1024;
  FollowerOptions options;
  options.max_apply_ahead = 16;
  MemFs follower_disk;
  auto follower =
      Attach(primary.get(), &follower_disk, options, kPipeCapacity);
  ASSERT_NE(follower, nullptr);

  // tip - served can never exceed the synchronous-refresh bound plus
  // what the bounded pipe can hold in flight.
  const int64_t bound =
      options.max_apply_ahead +
      static_cast<int64_t>(kPipeCapacity) / kRecordFrameBytes + 2;
  for (int op = 0; op < 400; ++op) {
    Mutate(primary.get(), &reference, n, &rng, 1);
    const int64_t staleness = primary->epoch() - follower->Lag().served;
    ASSERT_LE(staleness, bound) << "op " << op;
  }
  EXPECT_GT(follower->stats().forced_refreshes, 0);
  ExpectFollowerMatches(follower.get(), primary.get(), &reference, n, &rng,
                        40);
}

TEST(Replica, RestartedFollowerCatchesUpFromSegmentsAlone) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(23);

  MemFs follower_disk;
  auto follower = Attach(primary.get(), &follower_disk);
  ASSERT_NE(follower, nullptr);
  Mutate(primary.get(), &reference, n, &rng, 30);
  ASSERT_TRUE(follower->WaitCaughtUp(primary->epoch(), kWait));
  primary->DetachAll();
  follower->WaitForStreamEnd();
  ASSERT_TRUE(follower->error().ok()) << follower->error().ToString();
  follower.reset();  // release its WAL before a second appender opens it

  // The follower missed these; its own durable state plus the primary's
  // retained segments must cover the gap with no checkpoint shipped.
  Mutate(primary.get(), &reference, n, &rng, 20);
  auto restarted = Attach(primary.get(), &follower_disk);
  ASSERT_NE(restarted, nullptr);
  EXPECT_EQ(restarted->stats().checkpoints_received, 0);
  EXPECT_GT(restarted->stats().stale_records_skipped, 0);
  EXPECT_EQ(restarted->applied_epoch(), primary->epoch());
  ExpectFollowerMatches(restarted.get(), primary.get(), &reference, n, &rng,
                        40);
}

TEST(Replica, RestartedFollowerIsReseededAfterWalTruncation) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(29);

  MemFs follower_disk;
  auto follower = Attach(primary.get(), &follower_disk);
  ASSERT_NE(follower, nullptr);
  Mutate(primary.get(), &reference, n, &rng, 20);
  ASSERT_TRUE(follower->WaitCaughtUp(primary->epoch(), kWait));
  primary->DetachAll();
  follower->WaitForStreamEnd();
  follower.reset();

  // A checkpoint truncates the WAL past the follower's position: the
  // re-attach must fall back to shipping the newer image.
  Mutate(primary.get(), &reference, n, &rng, 40);
  ASSERT_TRUE(primary->Checkpoint().ok());
  Mutate(primary.get(), &reference, n, &rng, 10);
  auto restarted = Attach(primary.get(), &follower_disk);
  ASSERT_NE(restarted, nullptr);
  EXPECT_EQ(restarted->stats().checkpoints_received, 1);
  EXPECT_EQ(restarted->applied_epoch(), primary->epoch());
  ExpectFollowerMatches(restarted.get(), primary.get(), &reference, n, &rng,
                        40);
}

TEST(Replica, PromotedFollowerServesTheExactStateAndAcceptsWrites) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(31);

  MemFs follower_disk;
  FollowerOptions options;
  options.checkpoint_every = 16;  // promoted stack inherits local cuts
  auto follower = Attach(primary.get(), &follower_disk, options);
  ASSERT_NE(follower, nullptr);
  Mutate(primary.get(), &reference, n, &rng, 50);
  const auto last_epoch = primary->epoch();

  // Premature promotion is refused while the stream is live.
  auto premature = follower->Promote();
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);

  // "Kill" the primary.
  ASSERT_TRUE(follower->WaitCaughtUp(last_epoch, kWait));
  primary.reset();
  follower->WaitForStreamEnd();
  ASSERT_TRUE(follower->error().ok()) << follower->error().ToString();
  EXPECT_EQ(follower->applied_epoch(), last_epoch);
  EXPECT_GT(follower->stats().local_checkpoints, 0);

  auto promoted = follower->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value()->epoch(), last_epoch);
  // The husk stops serving; the promoted primary serves and writes.
  EXPECT_EQ(follower->Query(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(follower->RefreshSnapshot().code(),
            StatusCode::kFailedPrecondition);
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    auto answer = promoted.value()->Query(u, v);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value().reachable, reference.Reaches(u, v));
  }
  Rng post(37);
  Mutate(promoted.value().get(), &reference, n, &post, 30);
  EXPECT_EQ(promoted.value()->epoch(), last_epoch + 30);
  ASSERT_TRUE(promoted.value()->Checkpoint().ok());
}

TEST(Replica, FollowersServeConcurrentlyWithTheMutationStream) {
  NodeId n = 0;
  const ArcList base = TestGraph(&n);
  MemFs primary_disk;
  auto primary = MakePrimary(&primary_disk, base, n);
  ASSERT_NE(primary, nullptr);
  ReferenceGraph reference = MirrorOf(base, n);
  Rng rng(41);

  MemFs disk_a;
  MemFs disk_b;
  FollowerOptions options;
  options.max_apply_ahead = 32;
  options.server.num_shards = 2;
  auto follower_a = Attach(primary.get(), &disk_a, options);
  auto follower_b = Attach(primary.get(), &disk_b, options, /*pipe=*/2048);
  ASSERT_NE(follower_a, nullptr);
  ASSERT_NE(follower_b, nullptr);

  // Reader threads hammer both followers while the owner thread mutates
  // and heartbeats — TSan's view of the epoch-consistent swap discipline.
  std::vector<std::thread> clients;
  for (Follower* follower : {follower_a.get(), follower_b.get()}) {
    clients.emplace_back([follower, n] {
      Rng client_rng(reinterpret_cast<uintptr_t>(follower) | 1);
      std::vector<std::pair<NodeId, NodeId>> batch(16);
      for (int round = 0; round < 60; ++round) {
        for (auto& pair : batch) {
          pair.first = static_cast<NodeId>(client_rng.Uniform(0, n - 1));
          pair.second = static_cast<NodeId>(client_rng.Uniform(0, n - 1));
        }
        auto answers = follower->QueryBatch(batch);
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        ASSERT_EQ(answers.value().size(), batch.size());
      }
    });
  }
  for (int op = 0; op < 200; ++op) {
    Mutate(primary.get(), &reference, n, &rng, 1);
    if (op % 16 == 0) {
      ASSERT_TRUE(primary->Heartbeat().ok());
    }
  }
  for (std::thread& client : clients) client.join();

  ExpectFollowerMatches(follower_a.get(), primary.get(), &reference, n, &rng,
                        30);
  ExpectFollowerMatches(follower_b.get(), primary.get(), &reference, n, &rng,
                        30);
  EXPECT_EQ(primary->num_followers(), 2);
}

}  // namespace
}  // namespace tcdb

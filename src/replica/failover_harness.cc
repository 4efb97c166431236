#include "replica/failover_harness.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "dynamic/reference_graph.h"
#include "graph/generator.h"
#include "persist/fault_fs.h"
#include "persist/fs.h"
#include "replica/follower.h"
#include "replica/primary.h"
#include "replica/transport.h"
#include "util/random.h"

namespace tcdb {
namespace {

constexpr std::chrono::milliseconds kBarrierTimeout{20000};

struct PendingOp {
  NodeId src = 0;
  NodeId dst = 0;
  bool insert = true;
};

// Starts a follower over a fresh pipe and runs the primary-side
// bootstrap to completion.
Result<std::unique_ptr<Follower>> AttachOne(Primary* primary, Fs* fs,
                                            const std::string& dir,
                                            const FollowerOptions& options,
                                            size_t pipe_capacity) {
  auto [primary_end, follower_end] = MakeInProcessPipe(pipe_capacity);
  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Follower> follower,
      Follower::Start(fs, dir, std::move(follower_end), options));
  TCDB_RETURN_IF_ERROR(primary->AttachFollower(std::move(primary_end)));
  return follower;
}

// Read barrier + differential queries through one follower.
Status CheckFollower(Follower* follower, int64_t tip,
                     ReferenceGraph* reference, NodeId n, Rng* rng,
                     int32_t count, FailoverStressReport* report) {
  if (!follower->WaitCaughtUp(tip, kBarrierTimeout)) {
    return Status::Internal(
        "follower failed to apply up to epoch " + std::to_string(tip) +
        " (lag: applied=" + std::to_string(follower->Lag().applied) +
        ", error=" + follower->error().ToString() + ")");
  }
  TCDB_RETURN_IF_ERROR(follower->RefreshSnapshot());
  const FollowerLag lag = follower->Lag();
  if (lag.served < tip) {
    return Status::Internal("refreshed follower still serves epoch " +
                            std::to_string(lag.served) + " below tip " +
                            std::to_string(tip));
  }
  for (int32_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng->Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const Follower::Answer answer,
                          follower->Query(u, v));
    const bool expected = reference->Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "follower reaches(" + std::to_string(u) + ", " +
          std::to_string(v) + ") = " + (answer.reachable ? "true" : "false") +
          ", reference says " + (expected ? "true" : "false") +
          " at epoch " + std::to_string(tip));
    }
    ++report->queries_checked;
  }
  return Status::Ok();
}

// Differential queries + every successor list on a (promoted) primary.
Status CheckPrimary(Primary* primary, ReferenceGraph* reference, NodeId n,
                    Rng* rng, int32_t count, FailoverStressReport* report) {
  for (int32_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng->Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const Primary::Answer answer, primary->Query(u, v));
    const bool expected = reference->Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "promoted reaches(" + std::to_string(u) + ", " +
          std::to_string(v) + ") = " + (answer.reachable ? "true" : "false") +
          ", reference says " + (expected ? "true" : "false") +
          " at epoch " + std::to_string(primary->epoch()));
    }
    ++report->queries_checked;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> stored = primary->db()->log()->adjacency().Out(v);
    std::sort(stored.begin(), stored.end());
    if (stored != reference->SortedSuccessors(v)) {
      return Status::Internal("promoted successor row of node " +
                              std::to_string(v) +
                              " diverged from the reference");
    }
  }
  return Status::Ok();
}

Status RunOneSeed(const FailoverStressOptions& options, uint64_t seed,
                  const GeneratorParams& params, int32_t num_back_arcs,
                  int32_t num_followers, FailoverStressReport* report,
                  int64_t* op_index) {
  *op_index = -1;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 29);
  const NodeId n = params.num_nodes;
  const ArcList base =
      num_back_arcs > 0 ? GenerateCyclicDigraph(params, num_back_arcs)
                        : GenerateDag(params);

  // The primary "machine": a fault-injecting view over its disk image.
  MemFs primary_disk;
  FaultFs fault_fs(&primary_disk);
  DurableOptions primary_db_options;
  // Discarded draws: they keep each seed's trace unchanged.
  rng.Uniform(4, 24);
  rng.Uniform(64, 4096);
  primary_db_options.dynamic.cache_capacity =
      static_cast<size_t>(rng.Uniform(0, 256));
  primary_db_options.wal.sync_each_append = true;
  // Group commit on the primary must never cost a follower a record:
  // shipping is post-commit and independent of the primary's fsync
  // schedule, which this sweep pins by mixing batch sizes.
  primary_db_options.wal.group_commit_records =
      static_cast<int32_t>(rng.Uniform(1, 8));
  // Small segments force rotation, multi-segment bootstraps included.
  primary_db_options.wal.segment_bytes = rng.Uniform(256, 4096);

  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<DurableDynamicService> db,
                        DurableDynamicService::Create(
                            &fault_fs, "db", base, n, primary_db_options));
  auto primary = std::make_unique<Primary>(std::move(db));

  ReferenceGraph reference(n);
  for (const Arc& arc : base) {
    if (!reference.HasArc(arc.src, arc.dst)) {
      reference.Insert(arc.src, arc.dst);
    }
  }

  // Follower "machines": their own (never fault-injected) disks — the
  // whole point is that they survive the primary's death.
  std::vector<std::unique_ptr<MemFs>> follower_disks;
  std::vector<std::unique_ptr<Follower>> followers;
  std::vector<FollowerOptions> follower_options;
  std::vector<size_t> pipe_capacities;
  for (int32_t f = 0; f < num_followers; ++f) {
    follower_disks.push_back(std::make_unique<MemFs>());
    FollowerOptions fo;
    fo.durable.wal.segment_bytes = rng.Uniform(256, 4096);
    rng.Uniform(64, 4096);  // discarded: keeps each seed's trace unchanged
    fo.max_apply_ahead = rng.Uniform(8, 256);
    fo.checkpoint_every = rng.Bernoulli(0.5) ? rng.Uniform(24, 96) : 0;
    fo.server.num_shards = static_cast<int32_t>(rng.Uniform(1, 2));
    follower_options.push_back(fo);
    pipe_capacities.push_back(
        static_cast<size_t>(rng.Uniform(1 << 10, 1 << 16)));
  }
  // The second follower may join mid-trace, bootstrapping from a live,
  // already-rotated WAL (and possibly a shipped checkpoint).
  const bool second_joins_mid_trace =
      num_followers > 1 && rng.Bernoulli(0.5);
  const int64_t mid_attach_op = options.ops_per_seed / 2;
  const int32_t attach_now =
      second_joins_mid_trace ? num_followers - 1 : num_followers;
  for (int32_t f = 0; f < attach_now; ++f) {
    TCDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Follower> follower,
        AttachOne(primary.get(), follower_disks[static_cast<size_t>(f)].get(),
                  "replica", follower_options[static_cast<size_t>(f)],
                  pipe_capacities[static_cast<size_t>(f)]));
    followers.push_back(std::move(follower));
    ++report->followers_attached;
  }

  const int64_t crash_after =
      rng.Uniform(1, 3 * static_cast<int64_t>(options.ops_per_seed));
  const size_t torn_bytes = static_cast<size_t>(rng.Uniform(0, 20));
  fault_fs.Arm(crash_after, torn_bytes);

  MutationLog::Epoch last_ok_epoch = 0;
  std::optional<PendingOp> pending;
  bool crashed = false;
  for (int64_t op = 0; op < options.ops_per_seed && !crashed; ++op) {
    *op_index = op;
    if (second_joins_mid_trace && op == mid_attach_op) {
      const size_t f = followers.size();
      TCDB_ASSIGN_OR_RETURN(
          std::unique_ptr<Follower> follower,
          AttachOne(primary.get(), follower_disks[f].get(), "replica",
                    follower_options[f], pipe_capacities[f]));
      followers.push_back(std::move(follower));
      ++report->followers_attached;
      ++report->mid_trace_attaches;
    }
    const double roll =
        static_cast<double>(rng.Uniform(0, 1'000'000)) / 1'000'000.0;
    if (roll < options.insert_share) {
      NodeId src = -1;
      NodeId dst = -1;
      for (int attempt = 0; attempt < 16; ++attempt) {
        const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
        const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
        if (s == d || reference.HasArc(s, d)) continue;
        src = s;
        dst = d;
        break;
      }
      if (src >= 0) {
        const Result<MutationLog::Epoch> epoch = primary->InsertArc(src, dst);
        if (!epoch.ok()) {
          pending = PendingOp{src, dst, /*insert=*/true};
          crashed = true;
        } else {
          last_ok_epoch = epoch.value();
          reference.Insert(src, dst);
          ++report->ops_applied;
        }
        continue;
      }
    } else if (roll < options.insert_share + options.delete_share &&
               reference.num_arcs() > 0) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(reference.num_arcs()) - 1));
      const Arc arc = reference.arc(pick);
      const Result<MutationLog::Epoch> epoch =
          primary->DeleteArc(arc.src, arc.dst);
      if (!epoch.ok()) {
        pending = PendingOp{arc.src, arc.dst, /*insert=*/false};
        crashed = true;
      } else {
        last_ok_epoch = epoch.value();
        reference.Delete(arc.src, arc.dst);
        ++report->ops_applied;
      }
      continue;
    }
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const Primary::Answer answer, primary->Query(u, v));
    if (answer.reachable != reference.Reaches(u, v)) {
      return Status::Internal("pre-crash primary answer diverged at op " +
                              std::to_string(op));
    }

    if (options.heartbeat_every > 0 &&
        (op + 1) % options.heartbeat_every == 0) {
      TCDB_RETURN_IF_ERROR(primary->Heartbeat());
    }
    if (options.checkpoint_every > 0 &&
        (op + 1) % options.checkpoint_every == 0) {
      const Status checkpoint = primary->Checkpoint();
      if (!checkpoint.ok()) crashed = true;  // died mid-checkpoint
    }
    if (options.follower_check_every > 0 && !followers.empty() &&
        (op + 1) % options.follower_check_every == 0) {
      Follower* follower =
          followers[static_cast<size_t>(rng.Uniform(
                        0, static_cast<int64_t>(followers.size()) - 1))]
              .get();
      TCDB_RETURN_IF_ERROR(CheckFollower(follower, primary->epoch(),
                                         &reference, n, &rng,
                                         options.queries_per_check, report));
    }
  }
  *op_index = -1;
  if (crashed) {
    if (!fault_fs.crashed()) {
      return Status::Internal(
          "a durable call failed without an injected crash");
    }
    ++report->crashes_injected;
  }

  // Kill the primary: its process state vanishes, the pipes snap shut.
  // Every follower must drain to exactly the last acknowledged epoch —
  // the dying in-flight mutation was never shipped (post-commit
  // shipping), so nobody can be ahead of last_ok_epoch either.
  {
    const PrimaryStats& stats = primary->stats();
    report->records_shipped += stats.records_shipped;
    report->checkpoints_shipped += stats.checkpoints_shipped;
  }
  primary.reset();
  for (size_t f = 0; f < followers.size(); ++f) {
    followers[f]->WaitForStreamEnd();
    TCDB_RETURN_IF_ERROR(followers[f]->error());
    const MutationLog::Epoch applied = followers[f]->applied_epoch();
    if (applied != last_ok_epoch) {
      return Status::Internal(
          "after primary death, follower " + std::to_string(f) +
          " applied epoch " + std::to_string(applied) + ", expected " +
          std::to_string(last_ok_epoch));
    }
  }

  // Failover: promote follower 0; the others re-attach to it.
  for (const auto& follower : followers) {
    const FollowerStats stats = follower->stats();
    report->local_follower_checkpoints += stats.local_checkpoints;
    report->forced_refreshes += stats.forced_refreshes;
  }
  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<Primary> promoted,
                        followers[0]->Promote());
  ++report->promotions;
  if (promoted->epoch() != last_ok_epoch) {
    return Status::Internal("promotion landed at epoch " +
                            std::to_string(promoted->epoch()) +
                            ", expected " + std::to_string(last_ok_epoch));
  }
  TCDB_RETURN_IF_ERROR(CheckPrimary(promoted.get(), &reference, n, &rng,
                                    options.queries_per_check, report));

  std::unique_ptr<Follower> survivor;
  if (followers.size() > 1) {
    // The re-attach must be an empty catch-up from the follower's own
    // durable state: it is already at the promoted tip, so the promoted
    // primary ships no checkpoint.
    followers[1].reset();
    TCDB_ASSIGN_OR_RETURN(
        survivor,
        AttachOne(promoted.get(), follower_disks[1].get(), "replica",
                  follower_options[1], pipe_capacities[1]));
    ++report->followers_attached;
    ++report->reattaches;
    if (survivor->stats().checkpoints_received != 0) {
      return Status::Internal(
          "re-attach of an up-to-date follower shipped a checkpoint");
    }
  }

  // Life goes on: the remaining trace runs against the promoted primary.
  for (int64_t op = 0; op < options.ops_after_failover; ++op) {
    *op_index = options.ops_per_seed + op;
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (s != d) {
      if (reference.HasArc(s, d)) {
        TCDB_ASSIGN_OR_RETURN(last_ok_epoch, promoted->DeleteArc(s, d));
        reference.Delete(s, d);
      } else {
        TCDB_ASSIGN_OR_RETURN(last_ok_epoch, promoted->InsertArc(s, d));
        reference.Insert(s, d);
      }
      ++report->ops_applied;
    }
    if (options.checkpoint_every > 0 &&
        (op + 1) % options.checkpoint_every == 0) {
      TCDB_RETURN_IF_ERROR(promoted->Checkpoint());
    }
    if (options.heartbeat_every > 0 &&
        (op + 1) % options.heartbeat_every == 0) {
      TCDB_RETURN_IF_ERROR(promoted->Heartbeat());
    }
  }
  *op_index = -1;

  TCDB_RETURN_IF_ERROR(CheckPrimary(promoted.get(), &reference, n, &rng,
                                    options.queries_per_check, report));
  if (survivor != nullptr) {
    TCDB_RETURN_IF_ERROR(CheckFollower(survivor.get(), promoted->epoch(),
                                       &reference, n, &rng,
                                       options.queries_per_check, report));
    const FollowerStats stats = survivor->stats();
    report->local_follower_checkpoints += stats.local_checkpoints;
    report->forced_refreshes += stats.forced_refreshes;
  }
  {
    const PrimaryStats& stats = promoted->stats();
    report->records_shipped += stats.records_shipped;
    report->checkpoints_shipped += stats.checkpoints_shipped;
  }
  return Status::Ok();
}

}  // namespace

std::string FailoverStressFailure::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed << " n=" << num_nodes << " F=" << avg_out_degree
      << " l=" << locality << " back=" << num_back_arcs
      << " followers=" << num_followers;
  if (op_index >= 0) out << " op=" << op_index;
  out << ": " << diagnostic;
  return out.str();
}

Status RunFailoverStress(const FailoverStressOptions& options,
                         FailoverStressReport* report,
                         FailoverStressFailure* failure) {
  FailoverStressReport local_report;
  if (report == nullptr) report = &local_report;
  for (int32_t i = 0; i < options.num_seeds; ++i) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    Rng rng(seed);
    GeneratorParams params;
    params.num_nodes = options.node_counts[static_cast<size_t>(rng.Uniform(
        0, static_cast<int64_t>(options.node_counts.size()) - 1))];
    params.avg_out_degree =
        options.out_degrees[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(options.out_degrees.size()) - 1))];
    params.locality = options.localities[static_cast<size_t>(rng.Uniform(
        0, static_cast<int64_t>(options.localities.size()) - 1))];
    params.seed = seed;
    const int32_t num_back_arcs = static_cast<int32_t>(
        rng.Bernoulli(0.5) ? rng.Uniform(1, params.num_nodes / 10) : 0);
    const int32_t num_followers = static_cast<int32_t>(rng.Uniform(1, 2));

    int64_t op_index = -1;
    const Status status = RunOneSeed(options, seed, params, num_back_arcs,
                                     num_followers, report, &op_index);
    ++report->seeds;
    if (!status.ok()) {
      FailoverStressFailure local_failure;
      if (failure == nullptr) failure = &local_failure;
      failure->seed = seed;
      failure->num_nodes = params.num_nodes;
      failure->avg_out_degree = params.avg_out_degree;
      failure->locality = params.locality;
      failure->num_back_arcs = num_back_arcs;
      failure->num_followers = num_followers;
      failure->op_index = op_index;
      failure->diagnostic = status.ToString();
      return Status::Internal(failure->ToString());
    }
    if (options.log) {
      std::ostringstream line;
      line << "seed " << seed << ": n=" << params.num_nodes
           << " followers=" << num_followers
           << " ops=" << report->ops_applied
           << " shipped=" << report->records_shipped << " ("
           << report->crashes_injected << " crashed)";
      options.log(line.str());
    }
  }
  return Status::Ok();
}

}  // namespace tcdb

#include "persist/crash_harness.h"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "dynamic/reference_graph.h"
#include "graph/generator.h"
#include "persist/durable_service.h"
#include "persist/fault_fs.h"
#include "persist/fs.h"
#include "util/random.h"

namespace tcdb {
namespace {

struct PendingOp {
  NodeId src = 0;
  NodeId dst = 0;
  bool insert = true;
};

// Differentially checks `count` random queries (and every successor list)
// of `db` against `reference`.
Status CheckAgainstReference(DurableDynamicService* db,
                             ReferenceGraph* reference, NodeId n, Rng* rng,
                             int32_t count, CrashStressReport* report) {
  for (int32_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng->Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const DurableDynamicService::Answer answer,
                          db->Query(u, v));
    const bool expected = reference->Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "post-recovery reaches(" + std::to_string(u) + ", " +
          std::to_string(v) + ") = " + (answer.reachable ? "true" : "false") +
          ", reference says " + (expected ? "true" : "false") +
          " at epoch " + std::to_string(db->epoch()));
    }
    ++report->queries_checked;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> stored = db->log()->adjacency().Out(v);
    std::sort(stored.begin(), stored.end());
    if (stored != reference->SortedSuccessors(v)) {
      return Status::Internal("recovered successor row of node " +
                              std::to_string(v) +
                              " diverged from the reference");
    }
  }
  return Status::Ok();
}

Status RunOneSeed(const CrashStressOptions& options, uint64_t seed,
                  const GeneratorParams& params, int32_t num_back_arcs,
                  CrashStressReport* report, int64_t* op_index) {
  *op_index = -1;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 23);
  const NodeId n = params.num_nodes;
  const ArcList base =
      num_back_arcs > 0 ? GenerateCyclicDigraph(params, num_back_arcs)
                        : GenerateDag(params);

  MemFs disk;  // the surviving image: everything successfully written
  FaultFs fault_fs(&disk);
  const std::string dir = "db";

  DurableOptions db_options;
  // Discarded draws: they keep each seed's trace unchanged.
  rng.Uniform(4, 24);
  rng.Uniform(64, 4096);
  db_options.dynamic.cache_capacity =
      static_cast<size_t>(rng.Uniform(0, 256));
  db_options.wal.sync_each_append = true;
  // Small segments force rotation (and multi-segment replay) mid-trace.
  db_options.wal.segment_bytes = rng.Uniform(256, 4096);

  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableDynamicService> db,
      DurableDynamicService::Create(&fault_fs, dir, base, n, db_options));

  ReferenceGraph reference(n);
  for (const Arc& arc : base) {
    if (!reference.HasArc(arc.src, arc.dst)) {
      reference.Insert(arc.src, arc.dst);
    }
  }

  // Arm the crash somewhere inside the trace's syscall footprint (a
  // mutation is ~2 mutating syscalls; a checkpoint ~10). Large draws may
  // never fire — those seeds exercise clean recovery.
  const int64_t crash_after =
      rng.Uniform(1, 3 * static_cast<int64_t>(options.ops_per_seed));
  const size_t torn_bytes = static_cast<size_t>(rng.Uniform(0, 20));
  fault_fs.Arm(crash_after, torn_bytes);

  // The trace. All mutations are pre-validated draws, so the only error
  // any durable call can return is the injected crash.
  MutationLog::Epoch last_ok_epoch = 0;
  MutationLog::Epoch last_checkpoint_epoch = 0;
  std::optional<PendingOp> pending;  // mutation in flight when it died
  bool crashed = false;
  for (int64_t op = 0; op < options.ops_per_seed && !crashed; ++op) {
    *op_index = op;
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
        const Result<MutationLog::Epoch> epoch = db->InsertArc(src, dst);
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
          db->DeleteArc(arc.src, arc.dst);
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
    // Query op (and the fallthrough when a draw found nothing to do).
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const DurableDynamicService::Answer answer,
                          db->Query(u, v));
    const bool expected = reference.Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "pre-crash reaches(" + std::to_string(u) + ", " +
          std::to_string(v) + ") = " + (answer.reachable ? "true" : "false") +
          ", reference says " + (expected ? "true" : "false"));
    }

    if (options.checkpoint_every > 0 &&
        (op + 1) % options.checkpoint_every == 0) {
      const Status checkpoint = db->Checkpoint();
      if (!checkpoint.ok()) {
        crashed = true;  // died mid-checkpoint: no logical state lost
      } else {
        last_checkpoint_epoch = db->epoch();
        ++report->checkpoints_completed;
      }
    }
  }
  *op_index = -1;
  if (crashed) {
    if (!fault_fs.crashed()) {
      return Status::Internal(
          "a durable call failed without an injected crash");
    }
    ++report->crashes_injected;
    if (torn_bytes > 0) ++report->torn_writes;
  }

  // "Restart": the process state is gone; only `disk` survives. Recover
  // from the clean view and check the cut landed exactly.
  db.reset();
  RecoveryReport recovery;
  TCDB_ASSIGN_OR_RETURN(
      db, DurableDynamicService::Recover(&disk, dir, db_options, &recovery));
  report->replayed_entries += recovery.replayed_entries;
  report->stale_entries_skipped += recovery.stale_entries_skipped;
  if (recovery.torn_bytes_dropped > 0) ++report->torn_tails_repaired;

  if (recovery.recovered_epoch == last_ok_epoch + 1 && pending.has_value()) {
    // The dying mutation's WAL record was complete: it committed. Mirror
    // it in the reference — that is the other legal side of the cut.
    if (pending->insert) {
      reference.Insert(pending->src, pending->dst);
    } else {
      reference.Delete(pending->src, pending->dst);
    }
  } else if (recovery.recovered_epoch != last_ok_epoch) {
    return Status::Internal(
        "recovered to epoch " + std::to_string(recovery.recovered_epoch) +
        ", expected " + std::to_string(last_ok_epoch) +
        (pending.has_value() ? " (or +1 for the in-flight mutation)" : ""));
  }

  // Replay must cover exactly the suffix past a checkpoint no older than
  // the last one the trace completed — a full-history replay (or worse, a
  // rebuild from epoch 0 after checkpoints existed) fails here.
  if (recovery.checkpoint_epoch < last_checkpoint_epoch) {
    return Status::Internal(
        "recovery used checkpoint epoch " +
        std::to_string(recovery.checkpoint_epoch) + " although epoch " +
        std::to_string(last_checkpoint_epoch) + " was durably completed");
  }
  if (recovery.replayed_entries !=
      recovery.recovered_epoch - recovery.checkpoint_epoch) {
    return Status::Internal(
        "recovery replayed " + std::to_string(recovery.replayed_entries) +
        " entries for a suffix of " +
        std::to_string(recovery.recovered_epoch -
                       recovery.checkpoint_epoch));
  }

  TCDB_RETURN_IF_ERROR(CheckAgainstReference(
      db.get(), &reference, n, &rng, options.queries_after_recovery,
      report));

  // The recovered service must keep working: more mutations, then the
  // double-recovery idempotence check around a fresh checkpoint.
  for (int32_t op = 0; op < options.ops_after_recovery; ++op) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (s == d) continue;
    if (reference.HasArc(s, d)) {
      TCDB_RETURN_IF_ERROR(db->DeleteArc(s, d).status());
      reference.Delete(s, d);
    } else {
      TCDB_RETURN_IF_ERROR(db->InsertArc(s, d).status());
      reference.Insert(s, d);
    }
  }
  TCDB_RETURN_IF_ERROR(db->Checkpoint());
  const MutationLog::Epoch final_epoch = db->epoch();
  db.reset();

  RecoveryReport second;
  TCDB_ASSIGN_OR_RETURN(
      db, DurableDynamicService::Recover(&disk, dir, db_options, &second));
  if (second.recovered_epoch != final_epoch || second.replayed_entries != 0) {
    return Status::Internal(
        "double recovery reached epoch " +
        std::to_string(second.recovered_epoch) + " replaying " +
        std::to_string(second.replayed_entries) + " entries; expected " +
        std::to_string(final_epoch) + " with an empty suffix");
  }
  TCDB_RETURN_IF_ERROR(CheckAgainstReference(
      db.get(), &reference, n, &rng, options.queries_after_recovery / 2,
      report));
  return Status::Ok();
}

}  // namespace

std::string CrashStressFailure::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed << " n=" << num_nodes << " F=" << avg_out_degree
      << " l=" << locality << " back=" << num_back_arcs;
  if (op_index >= 0) out << " op=" << op_index;
  out << ": " << diagnostic;
  return out.str();
}

Status RunCrashStress(const CrashStressOptions& options,
                      CrashStressReport* report,
                      CrashStressFailure* failure) {
  CrashStressReport local_report;
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

    int64_t op_index = -1;
    const Status status =
        RunOneSeed(options, seed, params, num_back_arcs, report, &op_index);
    ++report->seeds;
    if (!status.ok()) {
      CrashStressFailure local_failure;
      if (failure == nullptr) failure = &local_failure;
      failure->seed = seed;
      failure->num_nodes = params.num_nodes;
      failure->avg_out_degree = params.avg_out_degree;
      failure->locality = params.locality;
      failure->num_back_arcs = num_back_arcs;
      failure->op_index = op_index;
      failure->diagnostic = status.ToString();
      return Status::Internal(failure->ToString());
    }
    if (options.log) {
      std::ostringstream line;
      line << "seed " << seed << ": n=" << params.num_nodes
           << " ops=" << report->ops_applied
           << (report->crashes_injected > 0 ? " (crashes so far: " : " (")
           << report->crashes_injected << " crashed)";
      options.log(line.str());
    }
  }
  return Status::Ok();
}

}  // namespace tcdb

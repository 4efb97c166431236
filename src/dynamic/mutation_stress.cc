#include "dynamic/mutation_stress.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/reference_graph.h"
#include "graph/generator.h"
#include "util/random.h"

namespace tcdb {
namespace {

// FNV-1a, folded 64 bits at a time byte-wise: the digest is a
// configuration-independent fingerprint of the answer stream, so it must
// be deterministic across platforms — no std::hash.
void FoldDigest(uint64_t* digest, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    *digest ^= (value >> shift) & 0xff;
    *digest *= 0x100000001b3ull;
  }
}

// One seed's trace. Returns Ok or the diagnostic of the first divergence
// (with *op_index set to the failing op, or -1 for setup/final checks).
Status RunOneSeed(const MutationStressOptions& options, uint64_t seed,
                  const GeneratorParams& params, int32_t num_back_arcs,
                  MutationStressReport* report, int64_t* op_index) {
  *op_index = -1;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const NodeId n = params.num_nodes;
  const ArcList base =
      num_back_arcs > 0 ? GenerateCyclicDigraph(params, num_back_arcs)
                        : GenerateDag(params);

  rng.Uniform(4, 24);  // discarded: keeps each seed's trace unchanged
  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<MutationLog> log,
                        MutationLog::Open(base, n));

  DynamicReachOptions service_options;
  rng.Uniform(64, 4096);  // discarded: keeps each seed's trace unchanged
  service_options.cache_capacity = static_cast<size_t>(rng.Uniform(0, 256));
  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<DynamicReachService> service,
      DynamicReachService::Create(log.get(), service_options));

  IndexRebuilder::Options rebuild_options;
  rebuild_options.index = service_options.index;
  DynamicReachService* service_ptr = service.get();
  IndexRebuilder rebuilder(
      log.get(),
      [service_ptr](std::shared_ptr<const ReachCore> core,
                    MutationLog::Epoch epoch, double seconds) {
        service_ptr->PublishSnapshot(std::move(core), epoch, seconds);
      },
      rebuild_options);

  ReferenceGraph reference(n);
  for (const Arc& arc : base) {
    if (!reference.HasArc(arc.src, arc.dst)) {
      reference.Insert(arc.src, arc.dst);
    }
  }

  // Epoch-boundary validation: its pair draws come from a dedicated
  // stream, so the cadence never perturbs the op trace above.
  Rng validate_rng(seed ^ 0xda7a5eedull);
  int64_t mutations_this_seed = 0;
  const auto validate_epoch = [&]() -> Status {
    ++report->epoch_validations;
    for (int32_t i = 0; i < options.validate_pairs; ++i) {
      const NodeId u = static_cast<NodeId>(validate_rng.Uniform(0, n - 1));
      const NodeId v = static_cast<NodeId>(validate_rng.Uniform(0, n - 1));
      TCDB_ASSIGN_OR_RETURN(const DynamicReachService::Answer answer,
                            service->Query(u, v));
      const bool expected = reference.Reaches(u, v);
      if (answer.reachable != expected) {
        return Status::Internal(
            "epoch-boundary validation: reaches(" + std::to_string(u) +
            ", " + std::to_string(v) + ") = " +
            (answer.reachable ? "true" : "false") + " via " +
            ReachRuleName(answer.rule) + ", reference says " +
            (expected ? "true" : "false") + " at epoch " +
            std::to_string(log->current_epoch()));
      }
    }
    return Status::Ok();
  };
  const auto after_mutation = [&]() -> Status {
    ++mutations_this_seed;
    if (options.validate_every > 0 &&
        mutations_this_seed % options.validate_every == 0) {
      return validate_epoch();
    }
    return Status::Ok();
  };

  for (int64_t op = 0; op < options.ops_per_seed; ++op) {
    *op_index = op;
    const double roll = static_cast<double>(rng.Uniform(0, 1'000'000)) /
                        1'000'000.0;
    if (roll < options.insert_share) {
      // Draw a non-live, non-loop arc (give up after a few tries on
      // dense graphs and fall through to a query).
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
        const Result<MutationLog::Epoch> epoch =
            service->InsertArc(src, dst);
        if (!epoch.ok()) {
          return Status::Internal("InsertArc(" + std::to_string(src) +
                                  ", " + std::to_string(dst) +
                                  ") failed: " + epoch.status().ToString());
        }
        reference.Insert(src, dst);
        ++report->inserts;
        TCDB_RETURN_IF_ERROR(after_mutation());
        continue;
      }
    } else if (roll < options.insert_share + options.delete_share &&
               reference.num_arcs() > 0) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(reference.num_arcs()) - 1));
      const Arc arc = reference.arc(pick);
      const Result<MutationLog::Epoch> epoch =
          service->DeleteArc(arc.src, arc.dst);
      if (!epoch.ok()) {
        return Status::Internal("DeleteArc(" + std::to_string(arc.src) +
                                ", " + std::to_string(arc.dst) +
                                ") failed: " + epoch.status().ToString());
      }
      reference.Delete(arc.src, arc.dst);
      ++report->deletes;
      TCDB_RETURN_IF_ERROR(after_mutation());
      continue;
    }
    // Query op (also the fallthrough when a draw found nothing to do).
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    TCDB_ASSIGN_OR_RETURN(const DynamicReachService::Answer answer,
                          service->Query(u, v));
    const bool expected = reference.Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "reaches(" + std::to_string(u) + ", " + std::to_string(v) +
          ") = " + (answer.reachable ? "true" : "false") + " via " +
          ReachRuleName(answer.rule) + ", reference says " +
          (expected ? "true" : "false") + " at epoch " +
          std::to_string(log->current_epoch()));
    }
    ++report->queries;
    FoldDigest(&report->answer_digest,
               (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
                   static_cast<uint32_t>(v));
    FoldDigest(&report->answer_digest, answer.reachable ? 1 : 0);

    if (options.rebuild_every > 0 &&
        (op + 1) % options.rebuild_every == 0) {
      TCDB_RETURN_IF_ERROR(rebuilder.RebuildNow());
    }
  }

  // Final structural check: the live adjacency must agree with the
  // reference arc-for-arc.
  *op_index = -1;
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> stored = log->adjacency().Out(v);
    std::sort(stored.begin(), stored.end());
    if (stored != reference.SortedSuccessors(v)) {
      return Status::Internal("live successor row of node " +
                              std::to_string(v) +
                              " diverged from the reference after the "
                              "trace (row length " +
                              std::to_string(stored.size()) + ")");
    }
  }

  const DynamicStats& stats = service->stats();
  report->snapshot_served += stats.snapshot_served;
  report->incremental_served += stats.incremental_served;
  report->escalations += stats.escalations;
  report->snapshots_adopted += stats.snapshots_adopted;
  return Status::Ok();
}

}  // namespace

std::string MutationStressFailure::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed << " n=" << num_nodes << " F=" << avg_out_degree
      << " l=" << locality << " back=" << num_back_arcs;
  if (op_index >= 0) out << " op=" << op_index;
  out << ": " << diagnostic;
  return out.str();
}

Status RunMutationStress(const MutationStressOptions& options,
                         MutationStressReport* report,
                         MutationStressFailure* failure) {
  MutationStressReport local_report;
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
    if (!status.ok()) {
      MutationStressFailure local_failure;
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
    ++report->seeds;
    if (options.log) {
      std::ostringstream line;
      line << "seed " << seed << ": n=" << params.num_nodes
           << " F=" << params.avg_out_degree << " l=" << params.locality
           << " back=" << num_back_arcs << " ok";
      options.log(line.str());
    }
  }
  return Status::Ok();
}

}  // namespace tcdb

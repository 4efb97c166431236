#ifndef TCDB_TESTS_DYNAMIC_TRACE_H_
#define TCDB_TESTS_DYNAMIC_TRACE_H_

// Deterministic trace-replay fixture for the dynamic stack: drives the
// full MutationLog -> DynamicReachService -> IndexRebuilder pipeline and
// a ReferenceGraph mirror through the same mutation trace, checking the
// served answers against the reference closure at EVERY epoch boundary
// (right after each accepted mutation) and again after every snapshot
// adoption — the two moments an incremental-repair bug can first surface.
//
// Verification granularity: all pairs when the node count is small
// enough to afford it, otherwise a per-boundary deterministic sample.
// Everything is seeded, so a failing trace replays bit-identically.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/reference_graph.h"
#include "relation/arc.h"
#include "util/random.h"
#include "util/status.h"

namespace tcdb {

struct DynamicTraceOptions {
  DynamicReachOptions service;
  // Mutations between synchronous RebuildNow + AdoptPublishedSnapshot
  // rounds (0 = never; the snapshot then stays at the base graph).
  int32_t rebuild_every = 64;
  // n <= threshold: every boundary checks all n*n pairs. Above it, each
  // boundary checks `sampled_pairs` seeded draws instead.
  NodeId all_pairs_threshold = 32;
  int32_t sampled_pairs = 16;
  // Pair-sampling stream; independent of the caller's op stream so that
  // toggling verification density never changes the trace itself.
  uint64_t seed = 0x7ace;
};

class DynamicTraceHarness {
 public:
  // The harness CHECK-fails on setup errors (bad base graph); trace-time
  // divergences come back as Status so tests can report the failing op.
  DynamicTraceHarness(const ArcList& base, NodeId num_nodes,
                      DynamicTraceOptions options = {})
      : options_(options),
        num_nodes_(num_nodes),
        reference_(num_nodes),
        verify_rng_(options.seed) {
    auto log = MutationLog::Open(base, num_nodes);
    TCDB_CHECK(log.ok()) << log.status().ToString();
    log_ = std::move(log.value());
    auto service = DynamicReachService::Create(log_.get(), options_.service);
    TCDB_CHECK(service.ok()) << service.status().ToString();
    service_ = std::move(service.value());
    IndexRebuilder::Options rebuild_options;
    rebuild_options.index = options_.service.index;
    rebuild_options.rebuild_advised = [this] {
      return service_->RebuildAdvised();
    };
    DynamicReachService* raw = service_.get();
    rebuilder_ = std::make_unique<IndexRebuilder>(
        log_.get(),
        [raw](std::shared_ptr<const ReachCore> core, MutationLog::Epoch epoch,
              double seconds) {
          raw->PublishSnapshot(std::move(core), epoch, seconds);
        },
        rebuild_options);
    for (const Arc& arc : base) {
      if (!reference_.HasArc(arc.src, arc.dst)) {
        reference_.Insert(arc.src, arc.dst);
      }
    }
  }

  // One mutation through both sides, then the epoch-boundary check (and
  // the rebuild/adopt/recheck round when the cadence hits). The arc must
  // be insertable / deletable — use reference() to pick valid arcs.
  Status Insert(NodeId src, NodeId dst) {
    TCDB_RETURN_IF_ERROR(Wrap("InsertArc", src, dst,
                              service_->InsertArc(src, dst).status()));
    reference_.Insert(src, dst);
    ++mutations_;
    return AfterMutation();
  }
  Status Delete(NodeId src, NodeId dst) {
    TCDB_RETURN_IF_ERROR(Wrap("DeleteArc", src, dst,
                              service_->DeleteArc(src, dst).status()));
    reference_.Delete(src, dst);
    ++mutations_;
    return AfterMutation();
  }

  // One random op from the shared family mix: insert_share draws a
  // non-live arc (falling back to a query when the graph is too dense),
  // delete_share deletes a uniform live arc, the rest are query pairs
  // checked directly. Drives `rng` (the caller's op stream) only.
  Status RandomOp(Rng* rng, double insert_share, double delete_share) {
    const double roll = rng->NextDouble();
    if (roll < insert_share) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const NodeId s = static_cast<NodeId>(rng->Uniform(0, num_nodes_ - 1));
        const NodeId d = static_cast<NodeId>(rng->Uniform(0, num_nodes_ - 1));
        if (s == d || reference_.HasArc(s, d)) continue;
        return Insert(s, d);
      }
    } else if (roll < insert_share + delete_share &&
               reference_.num_arcs() > 0) {
      const size_t pick = static_cast<size_t>(rng->Uniform(
          0, static_cast<int64_t>(reference_.num_arcs()) - 1));
      const Arc arc = reference_.arc(pick);
      return Delete(arc.src, arc.dst);
    }
    const NodeId u = static_cast<NodeId>(rng->Uniform(0, num_nodes_ - 1));
    const NodeId v = static_cast<NodeId>(rng->Uniform(0, num_nodes_ - 1));
    return CheckPair(u, v);
  }

  // Differential check of the current epoch (all pairs or a sample).
  Status VerifyEpoch() {
    ++epochs_verified_;
    if (num_nodes_ <= options_.all_pairs_threshold) {
      for (NodeId u = 0; u < num_nodes_; ++u) {
        for (NodeId v = 0; v < num_nodes_; ++v) {
          TCDB_RETURN_IF_ERROR(CheckPair(u, v));
        }
      }
      return Status::Ok();
    }
    for (int32_t i = 0; i < options_.sampled_pairs; ++i) {
      const NodeId u =
          static_cast<NodeId>(verify_rng_.Uniform(0, num_nodes_ - 1));
      const NodeId v =
          static_cast<NodeId>(verify_rng_.Uniform(0, num_nodes_ - 1));
      TCDB_RETURN_IF_ERROR(CheckPair(u, v));
    }
    return Status::Ok();
  }

  // Synchronous rebuild at the current epoch, adoption, and the
  // post-adoption differential check.
  Status RebuildAndAdopt() {
    TCDB_RETURN_IF_ERROR(rebuilder_->RebuildNow());
    if (service_->AdoptPublishedSnapshot()) ++adoptions_verified_;
    return VerifyEpoch();
  }

  // One served answer vs. the reference closure.
  Status CheckPair(NodeId u, NodeId v) {
    TCDB_ASSIGN_OR_RETURN(const DynamicReachService::Answer answer,
                          service_->Query(u, v));
    const bool expected = reference_.Reaches(u, v);
    if (answer.reachable != expected) {
      return Status::Internal(
          "reaches(" + std::to_string(u) + ", " + std::to_string(v) +
          ") = " + (answer.reachable ? "true" : "false") + " via " +
          ReachRuleName(answer.rule) + ", reference says " +
          (expected ? "true" : "false") + " at epoch " +
          std::to_string(log_->current_epoch()));
    }
    return Status::Ok();
  }

  DynamicReachService* service() { return service_.get(); }
  MutationLog* log() { return log_.get(); }
  IndexRebuilder* rebuilder() { return rebuilder_.get(); }
  ReferenceGraph& reference() { return reference_; }
  NodeId num_nodes() const { return num_nodes_; }
  int64_t mutations() const { return mutations_; }
  // Coverage meters: how many epoch boundaries / snapshot adoptions the
  // trace actually verified (tests assert these to prove the fixture ran
  // the checks it promises).
  int64_t epochs_verified() const { return epochs_verified_; }
  int64_t adoptions_verified() const { return adoptions_verified_; }

 private:
  Status AfterMutation() {
    TCDB_RETURN_IF_ERROR(VerifyEpoch());
    if (options_.rebuild_every > 0 &&
        mutations_ % options_.rebuild_every == 0) {
      TCDB_RETURN_IF_ERROR(RebuildAndAdopt());
    }
    return Status::Ok();
  }

  static Status Wrap(const char* what, NodeId src, NodeId dst,
                     const Status& status) {
    if (status.ok()) return status;
    return Status::Internal(std::string(what) + "(" + std::to_string(src) +
                            ", " + std::to_string(dst) +
                            ") failed: " + status.ToString());
  }

  DynamicTraceOptions options_;
  NodeId num_nodes_;
  std::unique_ptr<MutationLog> log_;
  std::unique_ptr<DynamicReachService> service_;
  std::unique_ptr<IndexRebuilder> rebuilder_;
  ReferenceGraph reference_;
  Rng verify_rng_;
  int64_t mutations_ = 0;
  int64_t epochs_verified_ = 0;
  int64_t adoptions_verified_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_TESTS_DYNAMIC_TRACE_H_

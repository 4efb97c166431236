// bench_dynamic — Serving throughput of the fully dynamic stack as the
// update ratio sweeps from read-only to update-heavy on a G5-style graph
// (n = 2000, F = 5, l = 200). Each row replays one mixed trace through a
// DynamicReachService with the background IndexRebuilder publishing
// snapshots, and reports where the queries were decided: pure frozen
// snapshot, the incremental pivot trees, or escalated to a live BFS over
// the in-memory adjacency (pruned by the same trees).
//
// The interesting shape: at ratio 0 every query is an O(1) snapshot
// answer; as updates appear, queries past the snapshot epoch move to the
// incremental trees, and the escalation share — the live searches the
// trees leave undecided — tracks the mutation traffic between rebuilds.
//
// --wal routes the same trace through the durable stack (WAL + checkpoint
// on the real filesystem, under a fresh mkdtemp directory), pricing the
// write-ahead logging against the in-memory rows; --no-sync keeps the WAL
// but drops the per-append fsync, isolating the fsync cost from the
// framing cost.
//
// --incremental runs the index-maintenance comparison instead: the same
// mutation-heavy trace priced under rebuild-per-batch (a synchronous
// ReachCore rebuild every B mutations, the pre-incremental regime) versus
// the incremental tier (per-pivot tree repair inside every mutation, full
// rebuild only when the repair-cost estimator advises it). Reports
// mutation throughput, repairs/sec, the rebuild-fallback rate, staleness
// (epochs-behind at query time) percentiles, and the speedup over the
// rebuild-every-mutation baseline.
//
// QUICK=1 shrinks the trace; DYNAMIC_OPS overrides it outright.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "graph/generator.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "util/env.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tcdb {
namespace {

constexpr NodeId kNodes = 2000;
constexpr int32_t kRebuildEvery = 256;

struct TraceResult {
  int64_t inserts = 0;
  int64_t deletes = 0;
  int64_t queries = 0;
  double seconds = 0.0;
};

int RunBench(bool wal_mode, bool sync_each_append) {
  const int64_t num_ops =
      GetEnvInt("DYNAMIC_OPS", GetEnvBool("QUICK") ? 8000 : 60000);
  const std::vector<double> update_ratios = {0.0, 0.001, 0.01, 0.05, 0.2};
  constexpr double kDeleteShare = 0.3;

  std::cout << "Dynamic reachability serving: G5-style graph (n = "
            << kNodes << ", F = 5, l = 200), " << num_ops
            << " ops per row, rebuild every " << kRebuildEvery
            << " mutations";
  if (wal_mode) {
    std::cout << ", WAL-logged (fsync per append: "
              << (sync_each_append ? "on" : "off") << ")";
  }
  std::cout << "\n\n";
  std::vector<std::string> headers = {
      "update ratio",  "inserts",     "deletes", "queries", "snapshot %",
      "incremental %", "escalated %", "swaps",   "ops/s",   "us/query"};
  if (wal_mode) {
    headers.push_back("wal KB");
    headers.push_back("us/mutation");
  }
  TablePrinter table(headers);

  for (const double ratio : update_ratios) {
    const ArcList arcs = GenerateDag({kNodes, 5, 200, 42});

    // One of the two stacks backs the trace; the serving surface and the
    // rebuild loop are identical either way.
    std::unique_ptr<MutationLog> plain_log;
    std::unique_ptr<DynamicReachService> plain_service;
    std::unique_ptr<DurableDynamicService> durable;
    std::string scratch_dir;
    MutationLog* log = nullptr;
    DynamicReachService* serving = nullptr;
    if (wal_mode) {
      char tmpl[] = "/tmp/tcdb_wal_XXXXXX";
      if (mkdtemp(tmpl) == nullptr) {
        std::cerr << "mkdtemp failed\n";
        return 1;
      }
      scratch_dir = tmpl;
      DurableOptions options;
      options.wal.sync_each_append = sync_each_append;
      auto db = DurableDynamicService::Create(
          PosixFs(), scratch_dir + "/db", arcs, kNodes, options);
      if (!db.ok()) {
        std::cerr << db.status().ToString() << "\n";
        return 1;
      }
      durable = std::move(db.value());
      log = durable->log();
      serving = durable->service();
    } else {
      auto opened = MutationLog::Open(arcs, kNodes);
      if (!opened.ok()) {
        std::cerr << opened.status().ToString() << "\n";
        return 1;
      }
      plain_log = std::move(opened.value());
      auto service = DynamicReachService::Create(plain_log.get());
      if (!service.ok()) {
        std::cerr << service.status().ToString() << "\n";
        return 1;
      }
      plain_service = std::move(service.value());
      log = plain_log.get();
      serving = plain_service.get();
    }

    IndexRebuilderOptions rebuild_options;
    rebuild_options.mutations_per_rebuild = kRebuildEvery;
    IndexRebuilder rebuilder(
        log,
        [serving](std::shared_ptr<const ReachCore> core,
                  MutationLog::Epoch epoch, double seconds) {
          serving->PublishSnapshot(std::move(core), epoch, seconds);
        },
        rebuild_options);
    rebuilder.Start();

    const auto insert_arc = [&](NodeId u, NodeId v) {
      return durable ? durable->InsertArc(u, v) : serving->InsertArc(u, v);
    };
    const auto delete_arc = [&](NodeId u, NodeId v) {
      return durable ? durable->DeleteArc(u, v) : serving->DeleteArc(u, v);
    };

    std::vector<Arc> live = log->SnapshotArcs().arcs;
    Rng rng(7);
    TraceResult result;
    double mutation_seconds = 0.0;
    WallTimer timer;
    for (int64_t op = 0; op < num_ops; ++op) {
      bool handled = false;
      if (rng.Bernoulli(ratio)) {
        if (!live.empty() && rng.Bernoulli(kDeleteShare)) {
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
          const Arc victim = live[pick];
          WallTimer mutation_timer;
          if (!delete_arc(victim.src, victim.dst).ok()) return 1;
          mutation_seconds += mutation_timer.ElapsedSeconds();
          live[pick] = live.back();
          live.pop_back();
          ++result.deletes;
          handled = true;
        } else {
          for (int attempt = 0; attempt < 32 && !handled; ++attempt) {
            const NodeId u =
                static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
            const NodeId v =
                static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
            if (u == v || log->HasArc(u, v)) continue;
            WallTimer mutation_timer;
            if (!insert_arc(u, v).ok()) return 1;
            mutation_seconds += mutation_timer.ElapsedSeconds();
            live.push_back(Arc{u, v});
            ++result.inserts;
            handled = true;
          }
        }
      }
      if (!handled) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
        const NodeId v = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
        if (!serving->Query(u, v).ok()) return 1;
        ++result.queries;
      }
    }
    result.seconds = timer.ElapsedSeconds();
    rebuilder.Stop();

    const DynamicStats& stats = serving->stats();
    const double q =
        std::max<double>(1.0, static_cast<double>(stats.queries));
    const double query_seconds = serving->serving_stats().TotalSeconds();
    auto& row = table.NewRow()
                    .AddCell(ratio, 3)
                    .AddCell(result.inserts)
                    .AddCell(result.deletes)
                    .AddCell(result.queries)
                    .AddCell(100.0 * stats.snapshot_served / q, 1)
                    .AddCell(100.0 * stats.incremental_served / q, 1)
                    .AddCell(100.0 * stats.escalations / q, 1)
                    .AddCell(stats.snapshots_adopted)
                    .AddCell(static_cast<double>(num_ops) / result.seconds,
                             0)
                    .AddCell(query_seconds * 1e6 / q, 2);
    if (wal_mode) {
      const double mutations = std::max<double>(
          1.0, static_cast<double>(result.inserts + result.deletes));
      row.AddCell(static_cast<double>(
                      durable->persist_stats().wal_bytes_appended) /
                      1024.0,
                  1)
          .AddCell(mutation_seconds * 1e6 / mutations, 2);
    }

    if (!scratch_dir.empty()) {
      durable.reset();
      std::error_code ec;
      std::filesystem::remove_all(scratch_dir, ec);
    }
  }
  table.Print(std::cout);
  table.WriteCsv(wal_mode ? "dynamic_update_sweep_wal"
                          : "dynamic_update_sweep");

  std::cout
      << "\nReading the table: \"snapshot %\" queries ran the pure frozen "
         "index ladder (no mutation since the snapshot was built); "
         "\"incremental %\" were decided by the per-pivot reachability "
         "trees; \"escalated %\" were left undecided by the trees and paid "
         "for a tree-pruned live BFS. Swaps count background rebuilds the "
         "serving thread adopted mid-trace.\n";
  if (wal_mode) {
    std::cout << "\"us/mutation\" is the full durable mutation path: "
                 "validate, WAL append"
              << (sync_each_append ? " + fsync" : " (no per-append fsync)")
              << ", then the in-memory apply.\n";
  }
  return 0;
}

// One maintenance regime of the --incremental comparison.
struct MaintenanceConfig {
  const char* label;
  bool trees;            // per-pivot tree repair on every mutation
  int32_t rebuild_batch; // > 0: synchronous full rebuild every B mutations
};

int64_t Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(samples->size() - 1) + 0.5);
  std::nth_element(samples->begin(),
                   samples->begin() + static_cast<int64_t>(rank),
                   samples->end());
  return (*samples)[rank];
}

// The index-maintenance comparison: rebuild-per-batch versus incremental
// repair on one mutation-heavy trace. Maintenance is synchronous in every
// row (the rebuild cost lands inside the mutation path, where the old
// regime actually paid it), so "mutations/s" prices exactly what each
// regime charges per update.
int RunIncrementalBench() {
  const int64_t num_ops =
      GetEnvInt("DYNAMIC_OPS", GetEnvBool("QUICK") ? 1200 : 8000);
  constexpr double kUpdateRatio = 0.5;
  constexpr double kDeleteShare = 0.3;
  const std::vector<MaintenanceConfig> configs = {
      {"rebuild B=1", false, 1},
      {"rebuild B=16", false, 16},
      {"rebuild B=64", false, 64},
      {"incremental", true, 0},
  };

  std::cout << "Index maintenance under updates: G5-style graph (n = "
            << kNodes << ", F = 5, l = 200), " << num_ops
            << " ops per row, update ratio " << kUpdateRatio
            << ". \"rebuild B=K\" rebuilds the full ReachCore every K "
               "mutations (the pre-incremental regime); \"incremental\" "
               "repairs the pivot trees in place and rebuilds only when "
               "the repair-cost estimator advises it.\n\n";
  TablePrinter table({"maintenance", "mutations", "queries", "mutations/s",
                      "repairs/s", "rebuilds", "fallback %", "stale p50",
                      "stale p90", "stale p99", "us/query", "speedup"});

  double baseline_rate = 0.0;
  double incremental_rate = 0.0;
  for (const MaintenanceConfig& config : configs) {
    const ArcList arcs = GenerateDag({kNodes, 5, 200, 42});
    auto opened = MutationLog::Open(arcs, kNodes);
    if (!opened.ok()) {
      std::cerr << opened.status().ToString() << "\n";
      return 1;
    }
    MutationLog* log = opened.value().get();
    DynamicReachOptions options;
    // The rebuild rows keep no pivot trees: past the snapshot epoch they
    // serve with an unpruned live BFS.
    if (!config.trees) options.incremental_options.num_pivots = 0;
    auto created = DynamicReachService::Create(log, options);
    if (!created.ok()) {
      std::cerr << created.status().ToString() << "\n";
      return 1;
    }
    DynamicReachService* serving = created.value().get();

    IndexRebuilderOptions rebuild_options;
    rebuild_options.index = options.index;
    IndexRebuilder rebuilder(
        log,
        [serving](std::shared_ptr<const ReachCore> core,
                  MutationLog::Epoch epoch, double seconds) {
          serving->PublishSnapshot(std::move(core), epoch, seconds);
        },
        rebuild_options);  // driven synchronously; never Start()ed

    std::vector<Arc> live = log->SnapshotArcs().arcs;
    Rng rng(7);
    int64_t mutations = 0;
    int64_t queries = 0;
    int64_t rebuilds = 0;
    double mutation_seconds = 0.0;  // mutation calls + their maintenance
    std::vector<int64_t> staleness;
    staleness.reserve(static_cast<size_t>(num_ops));

    const auto maintain = [&]() -> bool {
      const bool due =
          config.rebuild_batch > 0
              ? mutations % config.rebuild_batch == 0
              : serving->RebuildAdvised();
      if (!due) return true;
      if (!rebuilder.RebuildNow().ok()) return false;
      serving->AdoptPublishedSnapshot();
      ++rebuilds;
      return true;
    };

    for (int64_t op = 0; op < num_ops; ++op) {
      bool handled = false;
      if (rng.Bernoulli(kUpdateRatio)) {
        if (!live.empty() && rng.Bernoulli(kDeleteShare)) {
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
          const Arc victim = live[pick];
          WallTimer mutation_timer;
          if (!serving->DeleteArc(victim.src, victim.dst).ok()) return 1;
          ++mutations;
          if (!maintain()) return 1;
          mutation_seconds += mutation_timer.ElapsedSeconds();
          live[pick] = live.back();
          live.pop_back();
          handled = true;
        } else {
          for (int attempt = 0; attempt < 32 && !handled; ++attempt) {
            const NodeId u =
                static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
            const NodeId v =
                static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
            if (u == v || log->HasArc(u, v)) continue;
            WallTimer mutation_timer;
            if (!serving->InsertArc(u, v).ok()) return 1;
            ++mutations;
            if (!maintain()) return 1;
            mutation_seconds += mutation_timer.ElapsedSeconds();
            live.push_back(Arc{u, v});
            handled = true;
          }
        }
      }
      if (!handled) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
        const NodeId v = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
        staleness.push_back(log->current_epoch() -
                            serving->snapshot_epoch());
        if (!serving->Query(u, v).ok()) return 1;
        ++queries;
      }
    }

    const DynamicStats& stats = serving->stats();
    const double mutation_rate =
        mutation_seconds > 0
            ? static_cast<double>(mutations) / mutation_seconds
            : 0.0;
    if (config.rebuild_batch == 1) baseline_rate = mutation_rate;
    if (config.trees) incremental_rate = mutation_rate;
    const double query_seconds = serving->serving_stats().TotalSeconds();
    table.NewRow()
        .AddCell(config.label)
        .AddCell(mutations)
        .AddCell(queries)
        .AddCell(mutation_rate, 0)
        .AddCell(mutation_seconds > 0
                     ? static_cast<double>(stats.incremental_repairs) /
                           mutation_seconds
                     : 0.0,
                 0)
        .AddCell(rebuilds)
        .AddCell(mutations > 0 ? 100.0 * static_cast<double>(rebuilds) /
                                     static_cast<double>(mutations)
                               : 0.0,
                 2)
        .AddCell(Percentile(&staleness, 0.50))
        .AddCell(Percentile(&staleness, 0.90))
        .AddCell(Percentile(&staleness, 0.99))
        .AddCell(query_seconds * 1e6 /
                     std::max<double>(1.0, static_cast<double>(queries)),
                 2)
        .AddCell(baseline_rate > 0 ? mutation_rate / baseline_rate : 1.0,
                 1);
  }
  table.Print(std::cout);
  table.WriteCsv("dynamic_incremental_maintenance");

  std::cout
      << "\nReading the table: \"mutations/s\" is the update path priced "
         "WITH its index maintenance (tree repair, or the synchronous "
         "rebuild when one was due); \"fallback %\" is rebuilds per "
         "mutation — for the incremental row these are the estimator's "
         "advised rebuilds only. \"stale pXX\" is how many epochs the "
         "frozen snapshot trailed the live graph when a query arrived; "
         "the incremental tier answers at the live epoch regardless, so "
         "its staleness costs correctness nothing.\n";
  if (baseline_rate > 0 && incremental_rate > 0) {
    std::cout << "incremental vs rebuild-per-mutation speedup: "
              << incremental_rate / baseline_rate << "x (acceptance bar: "
              << ">= 10x)\n";
  }
  return 0;
}

}  // namespace
}  // namespace tcdb

int main(int argc, char** argv) {
  bool wal_mode = false;
  bool sync_each_append = true;
  bool incremental_bench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal") == 0) {
      wal_mode = true;
    } else if (std::strcmp(argv[i], "--no-sync") == 0) {
      sync_each_append = false;
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      incremental_bench = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_dynamic [--wal [--no-sync]] "
                   "[--incremental]\n"
                   "  --wal          route mutations through the durable "
                   "stack (WAL on the real filesystem)\n"
                   "  --no-sync      with --wal: skip the per-append "
                   "fsync\n"
                   "  --incremental  compare rebuild-per-batch index "
                   "maintenance against incremental tree repair\n");
      return 2;
    }
  }
  if (incremental_bench) return tcdb::RunIncrementalBench();
  return tcdb::RunBench(wal_mode, sync_each_append);
}

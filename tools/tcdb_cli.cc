// tcdb command-line driver: run any of the study's algorithms on a graph
// from a file or from the synthetic generator, print the answer and/or the
// full metric bundle, analyze workloads, and ask the advisor.
//
// Examples:
//   tcdb_cli --generate 2000,5,200,1 --algorithm btc --full
//   tcdb_cli --graph g.txt --algorithm jkb2 --sources 3,17,99 --answer
//   tcdb_cli --graph g.txt --analyze
//   tcdb_cli --generate 2000,50,200,1 --advise --sources 1,2,3,4,5

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_support/stress.h"
#include "core/advisor.h"
#include "graph/algorithms.h"
#include "graph/scale_generator.h"
#include "scale/chain_index.h"
#include "util/huge_page_allocator.h"
#include "util/timer.h"
#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/mutation_stress.h"
#include "core/cyclic.h"
#include "core/generalized.h"
#include "core/database.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "persist/crash_harness.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "reach/load_driver.h"
#include "replica/failover_harness.h"
#include "replica/replica_bench.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "relation/graph_io.h"
#include "util/parse.h"
#include "util/random.h"

namespace tcdb {
namespace {

void Usage() {
  std::fprintf(stderr, R"(usage: tcdb_cli [options]
       tcdb_cli reach <graph> <src> <dst> [--explain]
       tcdb_cli serve-bench <graph> [--clients N]
                [--queries N] [--batch N] [--seed S]
                [--workload W] [--trace FILE]
       tcdb_cli workload-bench <graph> [--workload W] [--queries N]
                [--seed S] [--check K]
                [--dump-trace FILE] [--replay FILE]
       tcdb_cli stress [--seeds N] [--base-seed S] [--verbose]
       tcdb_cli mutate-bench <graph> [--ops N] [--update-ratio R]
                [--delete-share D] [--rebuild-every K] [--seed S]
       tcdb_cli mutate-stress [--seeds N] [--base-seed S] [--ops N]
                [--validate-every K] [--verbose]
       tcdb_cli checkpoint <dir> [--graph <graph>] [--mutate N,SEED]
       tcdb_cli recover <dir> [--mutate N,SEED] [--query S,D] [--checkpoint]
       tcdb_cli crash-stress [--seeds N] [--base-seed S] [--ops N]
                [--verbose]
       tcdb_cli replicate-bench [--followers N] [--clients N] [--queries N]
                [--mutations N] [--apply-ahead N] [--pipe BYTES]
                [--group-commit N] [--seed S]
       tcdb_cli failover-stress [--seeds N] [--base-seed S] [--ops N]
                [--verbose]
       tcdb_cli scale-bench [--family F] [--n N] [--width W] [--degree D]
                [--locality L] [--cyclic B] [--queries Q] [--seed S]
                [--check K]

graph input (one of):
  --graph FILE             arc-list file ("src dst" lines, '# nodes N' header)
  --generate N,F,L,SEED    synthetic DAG (paper generator)

query (one of):
  --full                   full transitive closure (default)
  --sources A,B,C          partial closure of the listed nodes
  --random-sources K,SEED  partial closure of K random nodes

actions:
  --algorithm NAME         btc|hyb|bj|srch|spn|jkb|jkb2|seminaive|warren
                           (default btc)
  --analyze                print the rectangle model instead of running
  --advise                 print the advisor's recommendation, then run it
  --answer                 print the resulting successor lists
  --aggregate KIND         generalized closure instead of reachability:
                           min-length|max-length|path-count (acyclic
                           inputs only; runs on the BTC machinery)

system parameters:
  --buffer-pages M         buffer pool size (default 20)
  --page-policy P          lru|mru|fifo|clock|random (default lru)
  --list-policy P          move-self|move-largest|move-newest
  --ilimit X               HYB diagonal-block fraction (default 0.2)

reach subcommand (online point query via the src/reach/ index):
  tcdb_cli reach <graph> <src> <dst> [--explain]
    <graph>                arc-list file, or gen:N,F,L,SEED for a
                           synthetic DAG
    --explain              print the service's per-stage and per-rule
                           statistics tables
    prints the answer, the deciding rule, and the core's backend (chain
    or labels) with its chain count and frontier bytes against the budget

serve-bench subcommand (multi-threaded serving throughput):
  tcdb_cli serve-bench <graph> [flags]
    <graph>                arc-list file, or gen:N,F,L,SEED
    --clients N            client threads firing batches (default 4)
    --queries N            workload size (default 100000)
    --batch N              queries per QueryBatch call (default 256)
    --seed S               workload seed (default 42)
    --workload W           draw the mix from the traffic model instead of
                           the legacy fixed mix: uniform|zipf|hot-pair|
                           adversarial|mixed (adversarial mines pairs the
                           O(1) rules cannot decide)
    --trace FILE           replay the query mix from a trace file
                           (see workload-bench --dump-trace)
    prints queries/second, the cache hit rate, the merged per-stage and
    per-rule decision tables, the serving-latency histogram, and the
    core's backend and budget check

workload-bench subcommand (traffic-model mixes on the search core):
  tcdb_cli workload-bench <graph> [flags]
    <graph>                arc-list file, or gen:N,F,L,SEED
    --workload W           uniform|zipf|hot-pair|adversarial|mixed
                           (default adversarial)
    --queries N            workload size (default 20000)
    --seed S               traffic seed (default 42)
    --check K              differential smoke: serve K sampled pairs and
                           compare the answers against a BFS reference;
                           exits 1 on any mismatch. This is the sweep
                           check.sh runs under the sanitizers.
    --dump-trace FILE      write the generated mix as a replayable trace
    --replay FILE          serve a previously dumped trace instead of
                           generating (ignores --workload/--seed)
    prints one JSON line (decided rate, O(1)-label rate, cache hit rate,
    per-rule fractions) plus the miner's undecided ratio

stress subcommand (randomized differential storage stress):
  tcdb_cli stress [--seeds N] [--base-seed S] [--verbose]
    runs every algorithm x replacement policy on N randomized (graph,
    pool, query) configurations against the reference closure, with the
    buffer-pool audits armed; exits 1 with a shrunk repro on failure

mutate-bench subcommand (dynamic serving under a mixed update workload):
  tcdb_cli mutate-bench <graph> [flags]
    <graph>                arc-list file, or gen:N,F,L,SEED
    --ops N                total operations to replay (default 50000)
    --update-ratio R       fraction of ops that mutate the graph
                           (default 0.05); the rest are point queries
    --delete-share D       fraction of mutations that delete a live arc
                           (default 0.3); the rest insert a fresh one
    --rebuild-every K      background rebuild trigger: snapshot the log
                           and rebuild the index every K mutations
                           (default 256)
    --seed S               workload seed (default 42)
    prints ops/second, the dynamic counters (escalation rate, snapshots
    adopted, incremental repairs) and the per-stage and per-rule
    decision tables

mutate-stress subcommand (randomized differential mutation stress):
  tcdb_cli mutate-stress [--seeds N] [--base-seed S] [--ops N]
           [--validate-every K] [--verbose]
    replays N randomized mixed insert/delete/query traces across the
    generator's graph families, checking every answer bit-for-bit
    against a reference closure at that epoch, with background rebuilds
    racing the trace; exits 1 with a repro line on failure
    --validate-every K     also validate sampled pairs at every K-th
                           epoch boundary (default 1 = every mutation;
                           0 = only at trace query ops and trace end)

checkpoint subcommand (initialize a durable database on disk):
  tcdb_cli checkpoint <dir> [--graph <graph>] [--mutate N,SEED]
    creates (or reuses) <dir>, opens a durable serving stack over the
    graph (default gen:500,5,100,1), optionally applies N random logged
    mutations, and persists a checkpoint + rotated WAL; prints the
    persist counters

recover subcommand (restart the durable database under <dir>):
  tcdb_cli recover <dir> [--mutate N,SEED] [--query S,D] [--checkpoint]
    loads the newest valid checkpoint and replays exactly the WAL
    suffix past it, printing the recovery report; --mutate appends more
    WAL-logged mutations (durable without a checkpoint — a later
    recover replays them), --query answers reaches(S, D) point queries
    (repeatable), --checkpoint persists a fresh cut before exiting

crash-stress subcommand (randomized kill-and-recover differential):
  tcdb_cli crash-stress [--seeds N] [--base-seed S] [--ops N] [--verbose]
    per seed: runs a mixed mutate/query/checkpoint trace on a durable
    stack over a fault-injecting filesystem that kills the "process" at
    a random mutating syscall (optionally tearing the dying write),
    recovers from the surviving image, and checks the recovered epoch,
    the suffix-only replay invariant, every answer and every successor
    list against an in-memory reference — then keeps mutating and
    recovers a second time (idempotence); exits 1 with a repro line on
    failure. This is the sweep check.sh runs under ASan/UBSan.

replicate-bench subcommand (WAL-shipping replication throughput):
  tcdb_cli replicate-bench [flags]
    stands up a primary plus N followers over in-process pipes, fires
    the load_driver workload at every follower from client threads while
    the primary mutates and heartbeats, and prints follower read q/s,
    shipped-record counts, and the epoch-staleness percentiles against
    the configured bound
    --followers N          read replicas (default 2)
    --clients N            client threads per follower (default 2)
    --queries N            queries per follower (default 20000)
    --mutations N          primary mutations during the volley
                           (default 1500)
    --apply-ahead N        follower staleness bound (default 128)
    --pipe BYTES           per-direction transport buffer (default 16384)
    --group-commit N       primary WAL records per fsync (default 8)
    --seed S               workload seed (default 42)

failover-stress subcommand (randomized kill-primary-and-failover):
  tcdb_cli failover-stress [--seeds N] [--base-seed S] [--ops N] [--verbose]
    per seed: a primary on a fault-injecting filesystem ships its WAL to
    1-2 followers (one possibly attaching mid-trace) while a mixed
    mutate/query/checkpoint trace runs with periodic follower read
    barriers; the primary is killed at a random mutating syscall, every
    follower must drain to exactly the last acknowledged epoch, one is
    promoted and checked differentially against the reference (answers
    and successor lists), the rest re-attach to the promoted primary,
    and the trace continues; exits 1 with a repro line on failure. This
    is the sweep check.sh runs under ASan/UBSan.

scale-bench subcommand (chain-decomposition index over a streamed family):
  tcdb_cli scale-bench [--family F] [--n N] [--width W] [--degree D]
           [--locality L] [--cyclic B] [--queries Q] [--seed S] [--check K]
    streams one large-graph family (no arc list is materialized for the
    acyclic path), builds the ChainIndex — condensing first when --cyclic
    makes the input cyclic — times a uniform point-query volley and emits
    one JSON line with n, arcs, num_chains, build_s, bytes_per_node,
    query p50/p99 and the process's AnonHugePages bytes from
    /proc/self/smaps_rollup (-1 when unreadable). The build runs under
    the default frontier budget (1 KiB per node, at least 64 MiB); a
    family too wide for it exits 1 with a ResourceExhausted message
    naming the rank where it stopped
    --family F             layered | deep-narrow | wide-shallow |
                           scale-free | kronecker (default layered)
    --n N                  nodes (default 100000)
    --width W              layer size / lane count (default 64)
    --degree D             per-node arc budget (default 4)
    --locality L           scale-free forward window (default 64)
    --cyclic B             append B random back arcs; the build then runs
                           through the SCC-condensation front (default 0)
    --queries Q            query volley size (default 100000)
    --seed S               generator seed (default 1)
    --check K              verify the index against the exact BFS cones of
                           K sampled sources before reporting; exits 1 on
                           any mismatch. This is the differential smoke
                           check.sh runs under the sanitizers.
)");
}

// Parses a numeric operand or flag value into *out; a malformed or
// out-of-range value is a usage error (exit 2), never a silent 0.
template <typename T>
void ParseArgOrExit(const std::string& what, const char* text, T* out) {
  Result<T> value = ParseNumber<T>(text);
  if (!value.ok()) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(),
                 value.status().message().c_str());
    std::exit(2);
  }
  *out = value.value();
}

bool ParseCsvInts(const std::string& text, std::vector<int64_t>* out) {
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    Result<int64_t> value =
        ParseNumber<int64_t>(std::string_view(text).substr(pos, comma - pos));
    if (!value.ok()) return false;
    out->push_back(value.value());
    pos = comma + 1;
  }
  return !out->empty();
}

// Loads `<graph>` subcommand operands: an arc-list file, or
// gen:N,F,L,SEED for a synthetic DAG. Returns 0 on success, else the
// process exit code.
int LoadGraphSpec(const std::string& graph_spec, ArcList* arcs,
                  NodeId* num_nodes) {
  if (graph_spec.rfind("gen:", 0) == 0) {
    std::vector<int64_t> params;
    if (!ParseCsvInts(graph_spec.substr(4), &params) || params.size() != 4) {
      std::fprintf(stderr, "gen: expects gen:N,F,L,SEED\n");
      return 2;
    }
    GeneratorParams generator;
    generator.num_nodes = static_cast<NodeId>(params[0]);
    generator.avg_out_degree = static_cast<int32_t>(params[1]);
    generator.locality = static_cast<int32_t>(params[2]);
    generator.seed = static_cast<uint64_t>(params[3]);
    *arcs = GenerateDag(generator);
    *num_nodes = generator.num_nodes;
    return 0;
  }
  auto loaded = ReadArcFile(graph_spec);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  *arcs = std::move(loaded.value().arcs);
  *num_nodes = loaded.value().num_nodes;
  return 0;
}

// `tcdb_cli reach <graph> <src> <dst> [--explain]`: builds a ReachIndex
// over the input and answers one reaches(src, dst) point query, optionally
// explaining which rung of the serving ladder decided it.
int RunReach(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string graph_spec = argv[1];
  NodeId src = 0;
  NodeId dst = 0;
  ParseArgOrExit("<src>", argv[2], &src);
  ParseArgOrExit("<dst>", argv[3], &dst);
  bool explain = false;
  for (int i = 4; i < argc; ++i) {
    if (std::string(argv[i]) == "--explain") {
      explain = true;
    } else {
      std::fprintf(stderr, "unknown reach flag '%s'\n", argv[i]);
      return 2;
    }
  }

  ArcList arcs;
  NodeId num_nodes = 0;
  if (const int code = LoadGraphSpec(graph_spec, &arcs, &num_nodes)) {
    return code;
  }

  auto service = ReachService::Build(arcs, num_nodes);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  if (service.value()->condensed()) {
    std::printf("input is cyclic: serving on its condensation\n");
  }
  auto answer = service.value()->Query(src, dst);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("%d -> %d: %s (decided by %s)\n", src, dst,
              answer.value().reachable ? "reachable" : "unreachable",
              ReachRuleName(answer.value().rule));
  const ReachCore& core = service.value()->core();
  if (explain) {
    std::cout << service.value()->stats().ToString(&core);
  } else {
    std::printf("core %s\n", core.BackendSummary().c_str());
  }
  return 0;
}

// `tcdb_cli serve-bench <graph> [flags]`: stands up a ReachServer
// over the input, fires a reproducible workload at it from client threads
// (the legacy fixed mix, a traffic-model mix, or a replayed trace), and
// prints throughput plus the merged serving statistics.
int RunServeBench(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string graph_spec = argv[1];
  ReachServerOptions options;
  int32_t clients = 4;
  int64_t num_queries = 100000;
  size_t batch_size = 256;
  uint64_t seed = 42;
  std::string workload_name;
  std::string trace_file;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--clients") {
      ParseArgOrExit(flag, next(), &clients);
    } else if (flag == "--queries") {
      ParseArgOrExit(flag, next(), &num_queries);
    } else if (flag == "--batch") {
      ParseArgOrExit(flag, next(), &batch_size);
    } else if (flag == "--seed") {
      ParseArgOrExit(flag, next(), &seed);
    } else if (flag == "--workload") {
      workload_name = next();
    } else if (flag == "--trace") {
      trace_file = next();
    } else {
      std::fprintf(stderr, "unknown serve-bench flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  WorkloadKind kind = WorkloadKind::kMixed;
  if (!workload_name.empty() && !ParseWorkloadKind(workload_name, &kind)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }

  ArcList arcs;
  NodeId num_nodes = 0;
  if (const int code = LoadGraphSpec(graph_spec, &arcs, &num_nodes)) {
    return code;
  }
  const Digraph graph(num_nodes, arcs);

  auto built = ReachCore::Build(arcs, num_nodes);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const ReachCore> core = built.value();

  std::vector<std::pair<NodeId, NodeId>> workload;
  if (!trace_file.empty()) {
    std::ifstream in(trace_file);
    if (!in) {
      std::fprintf(stderr, "cannot open trace '%s'\n", trace_file.c_str());
      return 1;
    }
    auto trace = ReadTrace(in);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 1;
    }
    std::printf("replaying %zu-query %s trace (seed %llu)\n",
                trace.value().pairs.size(),
                WorkloadKindName(trace.value().kind),
                static_cast<unsigned long long>(trace.value().seed));
    workload = std::move(trace.value().pairs);
  } else if (!workload_name.empty()) {
    TrafficModelOptions traffic;
    traffic.kind = kind;
    traffic.seed = seed;
    workload =
        MakeModelWorkload(graph, traffic, num_queries, MakeLadderProbe(core));
  } else {
    workload = MakeServingWorkload(graph, num_queries, seed);
  }

  auto server = ReachServer::Start(core, options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  if (server.value()->condensed()) {
    std::printf("input is cyclic: serving on its condensation\n");
  }
  auto report = RunServingLoad(server.value().get(), workload, clients,
                               batch_size);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  server.value()->Stop();

  const ReachServerStats stats = server.value()->Snapshot();
  std::printf(
      "served %lld queries in %.3fs from %d clients: %.0f q/s\n",
      static_cast<long long>(report.value().queries),
      report.value().seconds, clients, report.value().QueriesPerSecond());
  std::printf("latency %s\n", stats.latency.Summary().c_str());
  std::printf("cache hit rate %.2f%%\n",
              100.0 * stats.merged.CacheHitRate());
  std::cout << stats.merged.ToString(core.get());
  return 0;
}

// `tcdb_cli workload-bench <graph> [flags]`: runs one traffic-model mix
// through a single-threaded ReachService over the search core (a pinned
// kLabels core), printing one JSON line. --check serves K sampled pairs
// and verifies the answers against a BFS reference (the sanitizer smoke
// in tools/check.sh); --dump-trace/--replay round the mix through the
// replayable trace format.
int RunWorkloadBench(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string graph_spec = argv[1];
  std::string workload_name = "adversarial";
  int64_t num_queries = 20000;
  uint64_t seed = 42;
  int64_t check_pairs = 0;
  std::string dump_file;
  std::string replay_file;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      workload_name = next();
    } else if (flag == "--queries") {
      ParseArgOrExit(flag, next(), &num_queries);
    } else if (flag == "--seed") {
      ParseArgOrExit(flag, next(), &seed);
    } else if (flag == "--check") {
      ParseArgOrExit(flag, next(), &check_pairs);
    } else if (flag == "--dump-trace") {
      dump_file = next();
    } else if (flag == "--replay") {
      replay_file = next();
    } else {
      std::fprintf(stderr, "unknown workload-bench flag '%s'\n",
                   flag.c_str());
      return 2;
    }
  }
  WorkloadKind kind = WorkloadKind::kAdversarial;
  if (!ParseWorkloadKind(workload_name, &kind)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }

  ArcList arcs;
  NodeId num_nodes = 0;
  if (const int code = LoadGraphSpec(graph_spec, &arcs, &num_nodes)) {
    return code;
  }
  const Digraph graph(num_nodes, arcs);

  ReachIndexOptions index_options;
  index_options.backend = ReachBackend::kLabels;
  auto built = ReachCore::Build(arcs, num_nodes, index_options);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const ReachCore> core = built.value();

  // The mix: generated by the model (mining against the core's ladder) or
  // replayed from a trace dumped earlier.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open trace '%s'\n", replay_file.c_str());
      return 1;
    }
    auto trace = ReadTrace(in);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 1;
    }
    kind = trace.value().kind;
    seed = trace.value().seed;
    pairs = std::move(trace.value().pairs);
  } else {
    TrafficModelOptions traffic;
    traffic.kind = kind;
    traffic.seed = seed;
    TrafficModel model(graph, traffic, MakeLadderProbe(core));
    pairs = model.Take(num_queries);
    if (model.mined_total() > 0) {
      std::printf("miner: %lld/%lld probes left undecided (%.1f%%)\n",
                  static_cast<long long>(model.mined_undecided()),
                  static_cast<long long>(model.mined_total()),
                  100.0 * static_cast<double>(model.mined_undecided()) /
                      static_cast<double>(model.mined_total()));
    }
  }
  if (!dump_file.empty()) {
    std::ofstream out(dump_file);
    if (!out) {
      std::fprintf(stderr, "cannot write trace '%s'\n", dump_file.c_str());
      return 1;
    }
    WorkloadTrace trace;
    trace.kind = kind;
    trace.seed = seed;
    trace.pairs = pairs;
    WriteTrace(out, trace);
    std::printf("trace: %zu queries -> %s\n", pairs.size(),
                dump_file.c_str());
  }

  // Serve the full mix through a private single-threaded service.
  std::unique_ptr<ReachService> service = ReachService::Create(core);
  auto answers = service->QueryBatch(pairs);
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
  const ReachStats& s = service->stats();
  const double total = static_cast<double>(std::max<int64_t>(s.queries, 1));
  std::printf(
      "{\"bench\": \"workload\", \"workload\": \"%s\", "
      "\"queries\": %lld, \"decided_rate\": %.4f, "
      "\"label_rate\": %.4f, \"cache_hit_rate\": %.4f, \"rules\": {",
      WorkloadKindName(kind), static_cast<long long>(s.queries),
      static_cast<double>(s.DecidedWithoutFallback()) / total,
      static_cast<double>(s.DecidedWithoutFallback() -
                          s.RuleDecided(ReachRule::kCacheHit)) /
          total,
      s.CacheHitRate());
  bool first = true;
  for (int r = 0; r < kNumReachRules; ++r) {
    if (s.rule_decided[r] == 0) continue;
    std::printf("%s\"%s\": %.4f", first ? "" : ", ",
                ReachRuleName(static_cast<ReachRule>(r)),
                static_cast<double>(s.rule_decided[r]) / total);
    first = false;
  }
  std::printf("}}\n");

  // Differential smoke: a fresh service and a BFS reference must agree
  // on a sampled subset.
  if (check_pairs > 0 && !pairs.empty()) {
    std::unique_ptr<ReachService> check_service = ReachService::Create(core);
    Rng rng(seed ^ 0x5bf03635u);
    std::vector<bool> cone(static_cast<size_t>(num_nodes));
    std::vector<NodeId> stack;
    int64_t checked = 0;
    for (int64_t i = 0; i < check_pairs; ++i) {
      const auto [src, dst] =
          pairs[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(pairs.size()) - 1))];
      // Reference: DFS cone of src on the input graph (reflexive).
      std::fill(cone.begin(), cone.end(), false);
      cone[static_cast<size_t>(src)] = true;
      stack.assign(1, src);
      while (!stack.empty()) {
        const NodeId at = stack.back();
        stack.pop_back();
        for (const NodeId succ : graph.Successors(at)) {
          if (!cone[static_cast<size_t>(succ)]) {
            cone[static_cast<size_t>(succ)] = true;
            stack.push_back(succ);
          }
        }
      }
      const bool expect = cone[static_cast<size_t>(dst)];
      auto answer = check_service->Query(src, dst);
      if (!answer.ok()) {
        std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
        return 1;
      }
      if (answer.value().reachable != expect) {
        std::fprintf(stderr, "CHECK FAIL %d->%d: got %d want %d\n", src,
                     dst, answer.value().reachable ? 1 : 0, expect ? 1 : 0);
        return 1;
      }
      ++checked;
    }
    std::printf("check: %lld sampled pairs agree with the reference\n",
                static_cast<long long>(checked));
  }
  return 0;
}

// `tcdb_cli stress [--seeds N] [--base-seed S] [--verbose]`: the
// randomized differential storage stress sweep (bench_support/stress.h).
int RunStress(int argc, char** argv) {
  StressOptions options;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--seeds") {
      ParseArgOrExit(flag, next(), &options.num_seeds);
    } else if (flag == "--base-seed") {
      ParseArgOrExit(flag, next(), &options.base_seed);
    } else if (flag == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown stress flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (verbose) {
    options.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  StressReport report;
  StressFailure failure;
  const Status status = RunStorageStress(options, &report, &failure);
  if (!status.ok()) {
    if (status.code() == StatusCode::kInternal) {
      std::fprintf(stderr, "FAIL %s\n", failure.ToString().c_str());
    } else {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return 1;
  }
  std::printf("stress: %lld seeds, %lld runs, all clean\n",
              static_cast<long long>(report.seeds),
              static_cast<long long>(report.runs));
  return 0;
}

// `tcdb_cli mutate-bench <graph> [flags]`: dynamic serving throughput — a
// DynamicReachService over a MutationLog, a background IndexRebuilder
// racing the trace, and a reproducible mixed query/insert/delete workload.
int RunMutateBench(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string graph_spec = argv[1];
  int64_t num_ops = 50000;
  double update_ratio = 0.05;
  double delete_share = 0.3;
  int64_t rebuild_every = 256;
  uint64_t seed = 42;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--ops") {
      ParseArgOrExit(flag, next(), &num_ops);
    } else if (flag == "--update-ratio") {
      ParseArgOrExit(flag, next(), &update_ratio);
    } else if (flag == "--delete-share") {
      ParseArgOrExit(flag, next(), &delete_share);
    } else if (flag == "--rebuild-every") {
      ParseArgOrExit(flag, next(), &rebuild_every);
    } else if (flag == "--seed") {
      ParseArgOrExit(flag, next(), &seed);
    } else {
      std::fprintf(stderr, "unknown mutate-bench flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (update_ratio < 0.0 || update_ratio > 1.0 || delete_share < 0.0 ||
      delete_share > 1.0 || rebuild_every < 1) {
    std::fprintf(stderr, "mutate-bench: ratios must be in [0,1] and "
                         "--rebuild-every >= 1\n");
    return 2;
  }

  ArcList arcs;
  NodeId num_nodes = 0;
  if (const int code = LoadGraphSpec(graph_spec, &arcs, &num_nodes)) {
    return code;
  }
  if (num_nodes < 2) {
    std::fprintf(stderr, "mutate-bench needs at least 2 nodes\n");
    return 2;
  }

  auto log = MutationLog::Open(arcs, num_nodes);
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    return 1;
  }
  auto service = DynamicReachService::Create(log.value().get());
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  DynamicReachService* serving = service.value().get();

  IndexRebuilderOptions rebuild_options;
  rebuild_options.mutations_per_rebuild = rebuild_every;
  rebuild_options.rebuild_advised = [serving] {
    return serving->RebuildAdvised();
  };
  IndexRebuilder rebuilder(
      log.value().get(),
      [serving](std::shared_ptr<const ReachCore> core,
                MutationLog::Epoch epoch, double seconds) {
        serving->PublishSnapshot(std::move(core), epoch, seconds);
      },
      rebuild_options);
  rebuilder.Start();

  // Uniform live-arc sampling for deletes: the deduplicated live set,
  // kept in sync by swap-pop.
  std::vector<Arc> live = log.value()->SnapshotArcs().arcs;
  Rng rng(seed);
  int64_t inserts = 0;
  int64_t deletes = 0;
  int64_t queries = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t op = 0; op < num_ops; ++op) {
    bool handled = false;
    if (rng.Bernoulli(update_ratio)) {
      if (!live.empty() && rng.Bernoulli(delete_share)) {
        const size_t pick = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
        const Arc victim = live[pick];
        auto epoch = serving->DeleteArc(victim.src, victim.dst);
        if (!epoch.ok()) {
          std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
          return 1;
        }
        live[pick] = live.back();
        live.pop_back();
        ++deletes;
        handled = true;
      } else {
        // A handful of draws almost always finds a non-live pair on the
        // sparse study graphs; fall through to a query when it does not.
        for (int attempt = 0; attempt < 32 && !handled; ++attempt) {
          const NodeId src =
              static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
          const NodeId dst =
              static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
          if (src == dst || log.value()->HasArc(src, dst)) continue;
          auto epoch = serving->InsertArc(src, dst);
          if (!epoch.ok()) {
            std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
            return 1;
          }
          live.push_back(Arc{src, dst});
          ++inserts;
          handled = true;
        }
      }
    }
    if (!handled) {
      const NodeId src = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
      const NodeId dst = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
      auto answer = serving->Query(src, dst);
      if (!answer.ok()) {
        std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
        return 1;
      }
      ++queries;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  rebuilder.Stop();
  serving->AdoptPublishedSnapshot();

  std::printf(
      "replayed %lld ops (%lld inserts, %lld deletes, %lld queries) in "
      "%.3fs: %.0f ops/s\n",
      static_cast<long long>(num_ops), static_cast<long long>(inserts),
      static_cast<long long>(deletes), static_cast<long long>(queries),
      seconds, seconds > 0 ? static_cast<double>(num_ops) / seconds : 0.0);
  std::printf("rebuilds published %lld\n",
              static_cast<long long>(rebuilder.rebuilds_published()));
  std::cout << serving->stats().ToString();
  std::cout << serving->serving_stats().ToString();
  return 0;
}

// `tcdb_cli mutate-stress [flags]`: the randomized differential mutation
// stress sweep (dynamic/mutation_stress.h).
int RunMutateStress(int argc, char** argv) {
  MutationStressOptions options;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--seeds") {
      ParseArgOrExit(flag, next(), &options.num_seeds);
    } else if (flag == "--base-seed") {
      ParseArgOrExit(flag, next(), &options.base_seed);
    } else if (flag == "--ops") {
      ParseArgOrExit(flag, next(), &options.ops_per_seed);
    } else if (flag == "--validate-every") {
      ParseArgOrExit(flag, next(), &options.validate_every);
    } else if (flag == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown mutate-stress flag '%s'\n",
                   flag.c_str());
      return 2;
    }
  }
  if (verbose) {
    options.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  MutationStressReport report;
  MutationStressFailure failure;
  const Status status = RunMutationStress(options, &report, &failure);
  if (!status.ok()) {
    if (status.code() == StatusCode::kInternal) {
      std::fprintf(stderr, "FAIL %s\n", failure.ToString().c_str());
    } else {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return 1;
  }
  std::printf(
      "mutate-stress: %lld seeds, %lld inserts, %lld deletes, %lld queries "
      "(%lld snapshot, %lld incremental, %lld escalated), "
      "%lld snapshots adopted, %lld epoch validations, all answers match\n",
      static_cast<long long>(report.seeds),
      static_cast<long long>(report.inserts),
      static_cast<long long>(report.deletes),
      static_cast<long long>(report.queries),
      static_cast<long long>(report.snapshot_served),
      static_cast<long long>(report.incremental_served),
      static_cast<long long>(report.escalations),
      static_cast<long long>(report.snapshots_adopted),
      static_cast<long long>(report.epoch_validations));
  // Configuration-independent fingerprint of the answer stream: check.sh
  // compares this line against the committed digest of the 50-seed sweep.
  std::printf("answer digest %016llx\n",
              static_cast<unsigned long long>(report.answer_digest));
  return 0;
}

// Applies `ops` random logged mutations (insert when the drawn pair is
// free, delete when it is live) to a durable service. Shared by the
// checkpoint and recover subcommands.
int ApplyRandomMutations(DurableDynamicService* db, int64_t ops,
                         uint64_t seed) {
  Rng rng(seed);
  const NodeId n = db->num_nodes();
  int64_t applied = 0;
  for (int64_t op = 0; op < ops; ++op) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (s == d) continue;
    const auto epoch = db->log()->HasArc(s, d) ? db->DeleteArc(s, d)
                                               : db->InsertArc(s, d);
    if (!epoch.ok()) {
      std::fprintf(stderr, "mutation failed: %s\n",
                   epoch.status().ToString().c_str());
      return 1;
    }
    ++applied;
  }
  std::printf("applied %lld logged mutations (epoch now %lld)\n",
              static_cast<long long>(applied),
              static_cast<long long>(db->epoch()));
  return 0;
}

int RunCheckpointCmd(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  std::string graph_spec = "gen:500,5,100,1";
  int64_t mutate_ops = 0;
  uint64_t mutate_seed = 42;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--graph") {
      graph_spec = next();
    } else if (flag == "--mutate") {
      std::vector<int64_t> params;
      if (!ParseCsvInts(next(), &params) || params.size() != 2) {
        std::fprintf(stderr, "--mutate expects N,SEED\n");
        return 2;
      }
      mutate_ops = params[0];
      mutate_seed = static_cast<uint64_t>(params[1]);
    } else {
      std::fprintf(stderr, "unknown checkpoint flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  ArcList arcs;
  NodeId num_nodes = 0;
  if (const int code = LoadGraphSpec(graph_spec, &arcs, &num_nodes);
      code != 0) {
    return code;
  }
  auto db = DurableDynamicService::Create(PosixFs(), dir, arcs, num_nodes);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  if (mutate_ops > 0) {
    if (const int code =
            ApplyRandomMutations(db.value().get(), mutate_ops, mutate_seed);
        code != 0) {
      return code;
    }
    if (const Status status = db.value()->Checkpoint(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  const PersistStats& stats = db.value()->persist_stats();
  std::printf(
      "checkpoint: %s at epoch %lld (%lld nodes, %lld checkpoints, "
      "%lld bytes newest, %lld WAL records / %lld bytes, %lld syncs)\n",
      dir.c_str(), static_cast<long long>(db.value()->epoch()),
      static_cast<long long>(num_nodes),
      static_cast<long long>(stats.checkpoints_written),
      static_cast<long long>(stats.last_checkpoint_bytes),
      static_cast<long long>(stats.wal_records_appended),
      static_cast<long long>(stats.wal_bytes_appended),
      static_cast<long long>(stats.wal_syncs));
  return 0;
}

int RunRecoverCmd(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  int64_t mutate_ops = 0;
  uint64_t mutate_seed = 42;
  bool take_checkpoint = false;
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--mutate") {
      std::vector<int64_t> params;
      if (!ParseCsvInts(next(), &params) || params.size() != 2) {
        std::fprintf(stderr, "--mutate expects N,SEED\n");
        return 2;
      }
      mutate_ops = params[0];
      mutate_seed = static_cast<uint64_t>(params[1]);
    } else if (flag == "--query") {
      std::vector<int64_t> params;
      if (!ParseCsvInts(next(), &params) || params.size() != 2) {
        std::fprintf(stderr, "--query expects S,D\n");
        return 2;
      }
      queries.emplace_back(static_cast<NodeId>(params[0]),
                           static_cast<NodeId>(params[1]));
    } else if (flag == "--checkpoint") {
      take_checkpoint = true;
    } else {
      std::fprintf(stderr, "unknown recover flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  RecoveryReport report;
  auto db = DurableDynamicService::Recover(PosixFs(), dir, {}, &report);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "recovered: %s at epoch %lld (checkpoint %lld + %lld replayed WAL "
      "records, %lld stale skipped, %lld torn bytes dropped, %lld damaged "
      "checkpoints passed over)\n",
      dir.c_str(), static_cast<long long>(report.recovered_epoch),
      static_cast<long long>(report.checkpoint_epoch),
      static_cast<long long>(report.replayed_entries),
      static_cast<long long>(report.stale_entries_skipped),
      static_cast<long long>(report.torn_bytes_dropped),
      static_cast<long long>(report.checkpoints_skipped));
  if (mutate_ops > 0) {
    if (const int code =
            ApplyRandomMutations(db.value().get(), mutate_ops, mutate_seed);
        code != 0) {
      return code;
    }
  }
  for (const auto& [src, dst] : queries) {
    auto answer = db.value()->Query(src, dst);
    if (!answer.ok()) {
      std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
      return 1;
    }
    std::printf("reaches(%d, %d) = %s\n", src, dst,
                answer.value().reachable ? "yes" : "no");
  }
  if (take_checkpoint) {
    if (const Status status = db.value()->Checkpoint(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed at epoch %lld\n",
                static_cast<long long>(db.value()->epoch()));
  }
  return 0;
}

int RunCrashStressCmd(int argc, char** argv) {
  CrashStressOptions options;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--seeds") {
      ParseArgOrExit(flag, next(), &options.num_seeds);
    } else if (flag == "--base-seed") {
      ParseArgOrExit(flag, next(), &options.base_seed);
    } else if (flag == "--ops") {
      ParseArgOrExit(flag, next(), &options.ops_per_seed);
    } else if (flag == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown crash-stress flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (verbose) {
    options.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  CrashStressReport report;
  CrashStressFailure failure;
  const Status status = RunCrashStress(options, &report, &failure);
  if (!status.ok()) {
    if (status.code() == StatusCode::kInternal) {
      std::fprintf(stderr, "FAIL %s\n", failure.ToString().c_str());
    } else {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return 1;
  }
  std::printf(
      "crash-stress: %lld seeds (%lld crashed, %lld torn), %lld mutations, "
      "%lld checkpoints, %lld WAL records replayed (%lld stale skipped, "
      "%lld torn tails repaired), %lld differential queries, all states "
      "match\n",
      static_cast<long long>(report.seeds),
      static_cast<long long>(report.crashes_injected),
      static_cast<long long>(report.torn_writes),
      static_cast<long long>(report.ops_applied),
      static_cast<long long>(report.checkpoints_completed),
      static_cast<long long>(report.replayed_entries),
      static_cast<long long>(report.stale_entries_skipped),
      static_cast<long long>(report.torn_tails_repaired),
      static_cast<long long>(report.queries_checked));
  return 0;
}

// `tcdb_cli replicate-bench [flags]`: one measured replication
// configuration (src/replica/replica_bench.h) — follower read q/s and
// staleness percentiles under a concurrent primary mutation stream.
int RunReplicateBench(int argc, char** argv) {
  ReplicaBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--followers") {
      ParseArgOrExit(flag, next(), &options.num_followers);
    } else if (flag == "--clients") {
      ParseArgOrExit(flag, next(), &options.clients_per_follower);
    } else if (flag == "--queries") {
      ParseArgOrExit(flag, next(), &options.queries_per_follower);
    } else if (flag == "--mutations") {
      ParseArgOrExit(flag, next(), &options.mutations);
    } else if (flag == "--apply-ahead") {
      ParseArgOrExit(flag, next(), &options.max_apply_ahead);
    } else if (flag == "--pipe") {
      ParseArgOrExit(flag, next(), &options.pipe_capacity_bytes);
    } else if (flag == "--group-commit") {
      ParseArgOrExit(flag, next(), &options.group_commit_records);
    } else if (flag == "--seed") {
      ParseArgOrExit(flag, next(), &options.seed);
    } else {
      std::fprintf(stderr, "unknown replicate-bench flag '%s'\n",
                   flag.c_str());
      return 2;
    }
  }
  auto result = RunReplicaBench(options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const ReplicaBenchResult& r = result.value();
  std::printf(
      "served %lld follower queries in %.3fs across %d followers x %d "
      "clients: %.0f q/s\n",
      static_cast<long long>(r.queries), r.query_seconds, r.num_followers,
      options.clients_per_follower, r.QueriesPerSecond());
  std::printf(
      "primary applied %lld mutations in %.3fs, shipped %lld records and "
      "%lld heartbeats\n",
      static_cast<long long>(r.mutations_applied), r.mutate_seconds,
      static_cast<long long>(r.records_shipped),
      static_cast<long long>(r.heartbeats_sent));
  std::printf(
      "staleness (epochs) over %lld samples: p50 %lld p90 %lld p99 %lld "
      "max %lld (bound %lld, %lld forced refreshes) %s\n",
      static_cast<long long>(r.lag_samples),
      static_cast<long long>(r.lag_p50), static_cast<long long>(r.lag_p90),
      static_cast<long long>(r.lag_p99), static_cast<long long>(r.lag_max),
      static_cast<long long>(r.lag_bound),
      static_cast<long long>(r.forced_refreshes),
      r.lag_within_bound ? "OK" : "EXCEEDED");
  return r.lag_within_bound ? 0 : 1;
}

// `tcdb_cli failover-stress [flags]`: the randomized
// kill-primary-and-failover differential sweep (src/replica/
// failover_harness.h).
int RunFailoverStressCmd(int argc, char** argv) {
  FailoverStressOptions options;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--seeds") {
      ParseArgOrExit(flag, next(), &options.num_seeds);
    } else if (flag == "--base-seed") {
      ParseArgOrExit(flag, next(), &options.base_seed);
    } else if (flag == "--ops") {
      ParseArgOrExit(flag, next(), &options.ops_per_seed);
    } else if (flag == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown failover-stress flag '%s'\n",
                   flag.c_str());
      return 2;
    }
  }
  if (verbose) {
    options.log = [](const std::string& line) {
      std::fprintf(stderr, "%s\n", line.c_str());
    };
  }
  FailoverStressReport report;
  FailoverStressFailure failure;
  const Status status = RunFailoverStress(options, &report, &failure);
  if (!status.ok()) {
    if (status.code() == StatusCode::kInternal) {
      std::fprintf(stderr, "FAIL %s\n", failure.ToString().c_str());
    } else {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return 1;
  }
  std::printf(
      "failover-stress: %lld seeds (%lld crashed), %lld followers attached "
      "(%lld mid-trace, %lld re-attached), %lld promotions, %lld mutations, "
      "%lld records shipped, %lld checkpoints shipped, %lld differential "
      "queries, all failovers exact\n",
      static_cast<long long>(report.seeds),
      static_cast<long long>(report.crashes_injected),
      static_cast<long long>(report.followers_attached),
      static_cast<long long>(report.mid_trace_attaches),
      static_cast<long long>(report.reattaches),
      static_cast<long long>(report.promotions),
      static_cast<long long>(report.ops_applied),
      static_cast<long long>(report.records_shipped),
      static_cast<long long>(report.checkpoints_shipped),
      static_cast<long long>(report.queries_checked));
  return 0;
}

// `tcdb_cli scale-bench [flags]`: streams one large-graph family, builds
// the ChainIndex over it (condensing first when --cyclic makes the input
// cyclic), times a uniform point-query volley and emits one JSON line.
// --check K first verifies the index against the exact BFS cones of K
// sampled sources and exits 1 on any mismatch — the sanitizer smoke in
// check.sh runs in this mode.
int RunScaleBench(int argc, char** argv) {
  ScaleGraphParams params;
  params.locality = 64;
  int64_t num_queries = 100000;
  int32_t check_sources = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--family") {
      auto parsed = ParseScaleFamily(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      params.family = parsed.value();
    } else if (flag == "--n") {
      ParseArgOrExit(flag, next(), &params.num_nodes);
    } else if (flag == "--width") {
      ParseArgOrExit(flag, next(), &params.width);
    } else if (flag == "--degree") {
      ParseArgOrExit(flag, next(), &params.degree);
    } else if (flag == "--locality") {
      ParseArgOrExit(flag, next(), &params.locality);
    } else if (flag == "--cyclic") {
      ParseArgOrExit(flag, next(), &params.num_back_arcs);
    } else if (flag == "--queries") {
      ParseArgOrExit(flag, next(), &num_queries);
    } else if (flag == "--seed") {
      ParseArgOrExit(flag, next(), &params.seed);
    } else if (flag == "--check") {
      ParseArgOrExit(flag, next(), &check_sources);
    } else {
      std::fprintf(stderr, "unknown scale-bench flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  WallTimer timer;
  const Digraph graph = BuildScaleGraph(params);
  const double gen_seconds = timer.ElapsedSeconds();
  const NodeId n = graph.NumNodes();

  // With back arcs the input is cyclic and the build runs through the
  // condensation front; the acyclic path indexes the graph directly so
  // build_s stays a pure ChainIndex number.
  timer.Restart();
  Condensation cond;
  const bool condensed = params.num_back_arcs > 0;
  if (condensed) cond = Condense(graph);
  auto built = ChainIndex::Build(condensed ? cond.dag : graph);
  const double build_seconds = timer.ElapsedSeconds();
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const ChainIndex& index = built.value();
  const auto reaches = [&](NodeId u, NodeId v) {
    return condensed ? index.Reaches(cond.node_map[u], cond.node_map[v])
                     : index.Reaches(u, v);
  };

  if (check_sources > 0 && n > 0) {
    const std::vector<NodeId> sources = SampleSourceNodes(
        n, std::min<NodeId>(check_sources, n), params.seed * 31 + 5);
    const auto cones = ReferencePartialClosure(graph, sources);
    for (size_t s = 0; s < sources.size(); ++s) {
      const NodeId src = sources[s];
      for (NodeId v = 0; v < n; ++v) {
        const bool expected =
            src == v ||
            std::binary_search(cones[s].begin(), cones[s].end(), v);
        if (reaches(src, v) != expected) {
          std::fprintf(stderr,
                       "scale-bench check FAILED: family=%s n=%d seed=%llu "
                       "cyclic=%d pair (%d, %d): index=%d reference=%d\n",
                       ScaleFamilyName(params.family), n,
                       static_cast<unsigned long long>(params.seed),
                       params.num_back_arcs, src, v, expected ? 0 : 1,
                       expected ? 1 : 0);
          return 1;
        }
      }
    }
  }

  // Per-query latency over uniform pairs, timed in 64-query blocks (the
  // block mean is the per-query cost at ~ns granularity). The positive
  // count is reported so the loop stays observable.
  double p50_s = 0;
  double p99_s = 0;
  int64_t positive = 0;
  if (n > 0 && num_queries > 0) {
    Rng rng(params.seed ^ 0xc0ffee);
    std::vector<std::pair<NodeId, NodeId>> pairs(
        static_cast<size_t>(num_queries));
    for (auto& [u, v] : pairs) {
      u = static_cast<NodeId>(rng.Uniform(0, n - 1));
      v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    }
    constexpr int64_t kBlock = 64;
    std::vector<double> block_s;
    block_s.reserve(static_cast<size_t>(num_queries / kBlock) + 1);
    for (int64_t begin = 0; begin < num_queries; begin += kBlock) {
      const int64_t end = std::min(begin + kBlock, num_queries);
      WallTimer block_timer;
      for (int64_t i = begin; i < end; ++i) {
        positive += reaches(pairs[static_cast<size_t>(i)].first,
                            pairs[static_cast<size_t>(i)].second)
                        ? 1
                        : 0;
      }
      block_s.push_back(block_timer.ElapsedSeconds() /
                        static_cast<double>(end - begin));
    }
    std::sort(block_s.begin(), block_s.end());
    p50_s = block_s[block_s.size() / 2];
    p99_s = block_s[block_s.size() * 99 / 100];
  }

  std::printf(
      "{\"family\": \"%s\", \"n\": %d, \"arcs\": %lld, \"cyclic\": %d, "
      "\"num_chains\": %d, \"gen_s\": %.6f, \"build_s\": %.6f, "
      "\"bytes_per_node\": %.2f, \"queries\": %lld, \"positive\": %lld, "
      "\"query_p50_s\": %.9f, \"query_p99_s\": %.9f, "
      "\"checked_sources\": %d, \"anon_huge_pages_bytes\": %lld}\n",
      ScaleFamilyName(params.family), n,
      static_cast<long long>(graph.NumArcs()), params.num_back_arcs,
      index.num_chains(), gen_seconds, build_seconds, index.BytesPerNode(),
      static_cast<long long>(num_queries), static_cast<long long>(positive),
      p50_s, p99_s, check_sources,
      static_cast<long long>(AnonHugePagesBytes()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "reach") == 0) {
    return RunReach(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve-bench") == 0) {
    return RunServeBench(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "workload-bench") == 0) {
    return RunWorkloadBench(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stress") == 0) {
    return RunStress(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "mutate-bench") == 0) {
    return RunMutateBench(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "mutate-stress") == 0) {
    return RunMutateStress(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "checkpoint") == 0) {
    return RunCheckpointCmd(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "recover") == 0) {
    return RunRecoverCmd(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "crash-stress") == 0) {
    return RunCrashStressCmd(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "replicate-bench") == 0) {
    return RunReplicateBench(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "scale-bench") == 0) {
    return RunScaleBench(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "failover-stress") == 0) {
    return RunFailoverStressCmd(argc - 1, argv + 1);
  }
  std::string graph_file;
  std::vector<int64_t> generate_params;
  std::vector<NodeId> sources;
  int32_t random_source_count = -1;
  uint64_t random_source_seed = 0;
  bool full = true;
  bool analyze = false;
  bool advise = false;
  bool print_answer = false;
  std::string algorithm_name = "btc";
  std::string aggregate_name;
  ExecOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--graph") {
      graph_file = next();
    } else if (flag == "--generate") {
      if (!ParseCsvInts(next(), &generate_params) ||
          generate_params.size() != 4) {
        std::fprintf(stderr, "--generate expects N,F,L,SEED\n");
        return 2;
      }
    } else if (flag == "--full") {
      full = true;
    } else if (flag == "--sources") {
      std::vector<int64_t> values;
      if (!ParseCsvInts(next(), &values)) {
        std::fprintf(stderr, "--sources expects a comma-separated list\n");
        return 2;
      }
      for (int64_t v : values) sources.push_back(static_cast<NodeId>(v));
      full = false;
    } else if (flag == "--random-sources") {
      std::vector<int64_t> values;
      if (!ParseCsvInts(next(), &values) || values.size() != 2) {
        std::fprintf(stderr, "--random-sources expects K,SEED\n");
        return 2;
      }
      // Resolved after the graph is loaded (needs the node count).
      random_source_count = static_cast<int32_t>(values[0]);
      random_source_seed = static_cast<uint64_t>(values[1]);
      full = false;
    } else if (flag == "--algorithm") {
      algorithm_name = next();
    } else if (flag == "--aggregate") {
      aggregate_name = next();
    } else if (flag == "--analyze") {
      analyze = true;
    } else if (flag == "--advise") {
      advise = true;
    } else if (flag == "--answer") {
      print_answer = true;
    } else if (flag == "--buffer-pages") {
      ParseArgOrExit(flag, next(), &options.buffer_pages);
    } else if (flag == "--ilimit") {
      ParseArgOrExit(flag, next(), &options.ilimit);
    } else if (flag == "--page-policy") {
      const std::string name = next();
      bool found = false;
      for (const PagePolicy policy :
           {PagePolicy::kLru, PagePolicy::kMru, PagePolicy::kFifo,
            PagePolicy::kClock, PagePolicy::kRandom}) {
        if (name == PagePolicyName(policy)) {
          options.page_policy = policy;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown page policy '%s'\n", name.c_str());
        return 2;
      }
    } else if (flag == "--list-policy") {
      const std::string name = next();
      bool found = false;
      for (const ListPolicy policy :
           {ListPolicy::kMoveSelf, ListPolicy::kMoveLargest,
            ListPolicy::kMoveNewest}) {
        if (name == ListPolicyName(policy)) {
          options.list_policy = policy;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown list policy '%s'\n", name.c_str());
        return 2;
      }
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      Usage();
      return 2;
    }
  }

  // --- Load the graph.
  ArcList arcs;
  NodeId num_nodes = 0;
  if (!graph_file.empty()) {
    auto loaded = ReadArcFile(graph_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    arcs = std::move(loaded.value().arcs);
    num_nodes = loaded.value().num_nodes;
  } else if (generate_params.size() == 4) {
    GeneratorParams params;
    params.num_nodes = static_cast<NodeId>(generate_params[0]);
    params.avg_out_degree = static_cast<int32_t>(generate_params[1]);
    params.locality = static_cast<int32_t>(generate_params[2]);
    params.seed = static_cast<uint64_t>(generate_params[3]);
    arcs = GenerateDag(params);
    num_nodes = params.num_nodes;
  } else {
    std::fprintf(stderr, "need --graph or --generate\n");
    Usage();
    return 2;
  }

  // Resolve deferred random sources.
  if (!full && random_source_count >= 0) {
    sources = SampleSourceNodes(num_nodes, random_source_count,
                                random_source_seed);
  }

  // --- Cyclic inputs are condensed transparently.
  auto closure = CyclicClosure::Create(arcs, num_nodes);
  if (!closure.ok()) {
    std::fprintf(stderr, "%s\n", closure.status().ToString().c_str());
    return 1;
  }
  const TcDatabase& db = closure.value()->condensation();
  if (db.num_nodes() != num_nodes) {
    std::printf("input is cyclic: condensed %d nodes into %d components\n",
                num_nodes, db.num_nodes());
  }

  auto model = db.Analyze();
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  if (analyze) {
    const RectangleModel& m = model.value();
    std::printf("nodes %d  arcs %lld\n", db.num_nodes(),
                static_cast<long long>(m.num_arcs));
    std::printf("H(G) %.1f  W(G) %.1f  max level %d\n", m.height, m.width,
                m.max_level);
    std::printf("avg locality %.1f  avg irredundant locality %.1f\n",
                m.avg_arc_locality, m.avg_irredundant_locality);
    std::printf("redundant arcs %lld  |TC(G)| %lld\n",
                static_cast<long long>(m.num_redundant_arcs),
                static_cast<long long>(m.closure_size));
    return 0;
  }

  const QuerySpec query =
      full ? QuerySpec::Full() : QuerySpec::Partial(sources);

  if (!aggregate_name.empty()) {
    PathAggregate aggregate;
    if (aggregate_name == "min-length") {
      aggregate = PathAggregate::kMinLength;
    } else if (aggregate_name == "max-length") {
      aggregate = PathAggregate::kMaxLength;
    } else if (aggregate_name == "path-count") {
      aggregate = PathAggregate::kPathCount;
    } else {
      std::fprintf(stderr, "unknown aggregate '%s'\n",
                   aggregate_name.c_str());
      return 2;
    }
    if (db.num_nodes() != num_nodes) {
      std::fprintf(stderr,
                   "--aggregate requires an acyclic input (path aggregates "
                   "over cycles are unbounded)\n");
      return 2;
    }
    options.capture_answer = print_answer;
    auto aggregate_db = TcDatabase::Create(arcs, num_nodes);
    if (!aggregate_db.ok()) {
      std::fprintf(stderr, "%s\n",
                   aggregate_db.status().ToString().c_str());
      return 1;
    }
    auto run =
        aggregate_db.value()->ExecuteAggregate(aggregate, query, options);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    if (print_answer) {
      for (const auto& [node, pairs] : run.value().answer) {
        std::printf("%d:", node);
        for (const auto& [successor, value] : pairs) {
          std::printf(" %d=%lld", successor,
                      static_cast<long long>(value));
        }
        std::printf("\n");
      }
    }
    std::fprintf(stderr, "[%s] %s\n", PathAggregateName(aggregate),
                 run.value().metrics.ToString().c_str());
    return 0;
  }

  Algorithm algorithm;
  if (advise) {
    const Advice advice =
        RecommendAlgorithm(model.value(), db.num_nodes(), query);
    std::printf("advisor: %s — %s\n", AlgorithmName(advice.algorithm),
                advice.rationale.c_str());
    algorithm = advice.algorithm;
  } else {
    auto parsed = AlgorithmFromName(algorithm_name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    algorithm = parsed.value();
  }

  options.capture_answer = print_answer;
  auto run = closure.value()->Execute(algorithm, query, options);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  if (print_answer) {
    for (const auto& [node, successors] : run.value().answer) {
      std::printf("%d:", node);
      for (const NodeId successor : successors) {
        std::printf(" %d", successor);
      }
      std::printf("\n");
    }
  }
  const RunMetrics& m = run.value().metrics;
  std::fprintf(stderr, "[%s] %s\n", AlgorithmName(algorithm),
               m.ToString().c_str());
  std::fprintf(stderr, "[%s] est. I/O time at %.0fms/page: %.2fs\n",
               AlgorithmName(algorithm), options.io_latency_s * 1000,
               m.EstimatedIoSeconds(options.io_latency_s));
  return 0;
}

}  // namespace
}  // namespace tcdb

int main(int argc, char** argv) { return tcdb::Run(argc, argv); }

// Microbenchmarks of the substrates (google-benchmark): buffer pool,
// B+-tree, successor-list store, bit sets, tree codec, graph toolkit, the
// label path of the serving stack on chain cores, and the layers of the
// dynamic tier on G5 (pivot decide, escalated live BFS, label-core and
// pivot-tree builds, rebuild input).
// These quantify the constants behind the simulator's CPU cost (the
// paper's Table 3 shows CPU is dominated by successor-list operations).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "core/bit_matrix.h"
#include "core/database.h"
#include "dynamic/dynamic_reach_service.h"
#include "dynamic/incremental.h"
#include "dynamic/mutation_log.h"
#include "graph/algorithms.h"
#include "graph/analyzer.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "index/bplus_tree.h"
#include "reach/reach_service.h"
#include "relation/relation_file.h"
#include "storage/page_guard.h"
#include "succ/successor_list_store.h"
#include "succ/tree_codec.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace tcdb {
namespace {

void BM_BufferFetchHit(benchmark::State& state) {
  Pager pager;
  const FileId file = pager.CreateFile("f");
  pager.AllocatePage(file);
  BufferManager buffers(&pager, 8, PagePolicy::kLru);
  for (auto _ : state) {
    PageGuard page = PageGuard::Fetch(&buffers, {file, 0}).value();
    benchmark::DoNotOptimize(page.get());
  }
}
BENCHMARK(BM_BufferFetchHit);

void BM_BufferFetchMissEvict(benchmark::State& state) {
  Pager pager;
  const FileId file = pager.CreateFile("f");
  for (int i = 0; i < 64; ++i) pager.AllocatePage(file);
  BufferManager buffers(&pager, 8, PagePolicy::kLru);
  PageNumber next = 0;
  for (auto _ : state) {
    PageGuard page = PageGuard::Fetch(&buffers, {file, next}).value();
    benchmark::DoNotOptimize(page.get());
    page.Release();
    next = (next + 9) % 64;  // never hits with 8 frames
  }
}
BENCHMARK(BM_BufferFetchMissEvict);

// A hit on a full 20-frame pool (the closure workload's size), cycling
// over the resident pages of two files so each fetch names a different
// frame, as the algorithms' interleaved relation and list reads do.
void BM_PageGuardFetchHit(benchmark::State& state) {
  Pager pager;
  const FileId files[2] = {pager.CreateFile("a"), pager.CreateFile("b")};
  for (const FileId file : files) {
    for (int i = 0; i < 10; ++i) pager.AllocatePage(file);
  }
  BufferManager buffers(&pager, 20, PagePolicy::kLru);
  uint32_t next = 0;
  for (auto _ : state) {
    PageGuard page =
        PageGuard::Fetch(&buffers, {files[next & 1], next >> 1}).value();
    benchmark::DoNotOptimize(page.get());
    next = (next + 7) % 20;
  }
}
BENCHMARK(BM_PageGuardFetchHit);

// RelationFile::LookupSrc over the G9 relation (n=2000, F=20, l=2000)
// through a 20-frame LRU pool: one index descent plus the data pages of
// the node's tuples. The Hit variant repeats one node, so every access is
// a pool hit; the Random variant walks the nodes in a scattered order, so
// the data pages miss and evict as SRCH's lookups do.
std::unique_ptr<RelationFile> BuildG9Relation(Pager* pager,
                                              BufferManager* buffers) {
  ArcList arcs = GenerateDag(CatalogParams(FamilyByName("G9"), 0));
  std::sort(arcs.begin(), arcs.end());
  std::unique_ptr<RelationFile> relation;
  TCDB_CHECK(RelationFile::Build(buffers, pager->CreateFile("rel"),
                                 pager->CreateFile("idx"), arcs, &relation)
                 .ok());
  return relation;
}

void BM_LookupSrcHit(benchmark::State& state) {
  Pager pager;
  BufferManager buffers(&pager, 20, PagePolicy::kLru);
  const std::unique_ptr<RelationFile> relation =
      BuildG9Relation(&pager, &buffers);
  std::vector<int32_t> out;
  for (auto _ : state) {
    out.clear();
    TCDB_CHECK(relation->LookupSrc(1000, &out).ok());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LookupSrcHit);

void BM_LookupSrcRandom(benchmark::State& state) {
  Pager pager;
  BufferManager buffers(&pager, 20, PagePolicy::kLru);
  const std::unique_ptr<RelationFile> relation =
      BuildG9Relation(&pager, &buffers);
  std::vector<int32_t> out;
  int32_t src = 0;
  for (auto _ : state) {
    out.clear();
    TCDB_CHECK(relation->LookupSrc(src, &out).ok());
    benchmark::DoNotOptimize(out.data());
    src = (src + 769) % kCatalogNumNodes;
  }
}
BENCHMARK(BM_LookupSrcRandom);

void BM_BitVectorUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitVector a(n), b(n);
  for (size_t i = 0; i < n; i += 3) b.Set(i);
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorUnion)->Arg(2000)->Arg(20000);

void BM_EpochSetInsertClear(benchmark::State& state) {
  EpochSet set(2000);
  for (auto _ : state) {
    for (size_t i = 0; i < 2000; i += 7) set.Insert(i);
    set.ClearAll();
  }
}
BENCHMARK(BM_EpochSetInsertClear);

void BM_ListAppend(benchmark::State& state) {
  Pager pager;
  BufferManager buffers(&pager, 64, PagePolicy::kLru);
  SuccessorListStore store(&buffers, pager.CreateFile("s"));
  store.Reset(1);
  std::vector<int32_t> batch(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    state.PauseTiming();
    store.Truncate(0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.AppendMany(0, batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ListAppend)->Arg(15)->Arg(450)->Arg(4500);

void BM_ListRead(benchmark::State& state) {
  Pager pager;
  BufferManager buffers(&pager, 64, PagePolicy::kLru);
  SuccessorListStore store(&buffers, pager.CreateFile("s"));
  store.Reset(1);
  std::vector<int32_t> batch(static_cast<size_t>(state.range(0)), 7);
  TCDB_CHECK(store.AppendMany(0, batch).ok());
  std::vector<int32_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(store.Read(0, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ListRead)->Arg(450)->Arg(4500);

void BM_BTreeSearch(benchmark::State& state) {
  Pager pager;
  BufferManager buffers(&pager, 64, PagePolicy::kLru);
  BPlusTree tree(&buffers, pager.CreateFile("i"));
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 100000; ++k) entries.emplace_back(k, k);
  TCDB_CHECK(tree.BulkLoad(entries).ok());
  uint32_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Search(key));
    key = (key + 7919) % 100000;
  }
}
BENCHMARK(BM_BTreeSearch);

void BM_GenerateDag(benchmark::State& state) {
  GeneratorParams params{2000, static_cast<int32_t>(state.range(0)), 200, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateDag(params));
    ++params.seed;
  }
}
BENCHMARK(BM_GenerateDag)->Arg(5)->Arg(50);

void BM_TopologicalSort(benchmark::State& state) {
  const Digraph graph(2000, GenerateDag({2000, 20, 200, 3}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopologicalSort(graph));
  }
}
BENCHMARK(BM_TopologicalSort);

void BM_AnalyzeDag(benchmark::State& state) {
  const Digraph graph(2000, GenerateDag({2000, 20, 200, 3}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeDag(graph));
  }
}
BENCHMARK(BM_AnalyzeDag);

// The tree benches take the algorithms' path: decode into a reused tree,
// encode into a reused buffer.
void BM_TreeCodecRoundTrip(benchmark::State& state) {
  Rng rng(9);
  FlatTree tree(0);
  for (NodeId node = 1; node < 500; ++node) {
    tree.AddChild(static_cast<int32_t>(rng.Uniform(0, tree.size() - 1)),
                  node);
  }
  FlatTree decoded;
  std::vector<int32_t> queue;
  std::vector<int32_t> encoded;
  for (auto _ : state) {
    EncodeTreeInto(tree, &queue, &encoded);
    benchmark::DoNotOptimize(DecodeTreeInto(encoded, 500, &decoded));
    benchmark::DoNotOptimize(decoded.nodes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TreeCodecRoundTrip);

void BM_FlatTreeBuildAndEncode(benchmark::State& state) {
  Rng rng(4);
  FlatTree tree;
  std::vector<int32_t> queue;
  std::vector<int32_t> encoded;
  for (auto _ : state) {
    tree.Reset(0);
    for (NodeId node = 1; node < 300; ++node) {
      tree.AddChild(static_cast<int32_t>(rng.Uniform(0, tree.size() - 1)),
                    node);
    }
    EncodeTreeInto(tree, &queue, &encoded);
    benchmark::DoNotOptimize(encoded.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlatTreeBuildAndEncode);

// --- Bit-matrix kernels (the dense matrix family's CPU substrate) ---
//
// Each bench pins one backend; kAvx2 registrations skip themselves when
// the backend is not compiled in or the CPU lacks it, so one binary runs
// everywhere. The scalar per-bit backend is the denominator the kernel
// speedup acceptance criterion divides by.

bool SkipUnlessAvailable(benchmark::State& state, BitKernelBackend backend) {
  if (backend == BitKernelBackend::kAvx2 && !Avx2Supported()) {
    state.SkipWithError("AVX2 backend unavailable");
    for (auto _ : state) {
    }
    return true;
  }
  return false;
}

// One packed-row union, the innermost matrix-family operation: row i of
// an n-column matrix ORed into an accumulator.
void BM_BitRowUnion(benchmark::State& state, BitKernelBackend backend) {
  if (SkipUnlessAvailable(state, backend)) return;
  const NodeId n = static_cast<NodeId>(state.range(0));
  const BitKernelOps* ops = backend == BitKernelBackend::kScalar
                                ? ScalarKernelOps()
                                : ResolveBitKernels(backend);
  const size_t words = BitRowWords(n);
  std::vector<uint64_t> dst(words, 0), src(words, 0);
  for (NodeId j = 0; j < n; j += 3) BitRowSet(src.data(), j);
  src[words - 1] &= BitRowTailMask(n);
  for (auto _ : state) {
    ops->union_words(dst.data(), src.data(), words);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK_CAPTURE(BM_BitRowUnion, scalar, BitKernelBackend::kScalar)
    ->Arg(2000);
BENCHMARK_CAPTURE(BM_BitRowUnion, uint64, BitKernelBackend::kUint64)
    ->Arg(2000)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_BitRowUnion, avx2, BitKernelBackend::kAvx2)
    ->Arg(2000)
    ->Arg(20000);

// Full in-memory closure of a dense catalog core (G12: F = 50, the
// densest family of Table 2) at the study's n = 2000. Graph generation
// and adjacency packing are SETUP and stay outside the kernel window:
// the pristine adjacency matrix is built once, and each iteration's
// working-copy restore runs under PauseTiming so the timed region is
// exactly the closure kernel.
enum class MatrixVariant { kWarshall, kWarren, kWarrenBlocked };

void BM_BitClosure(benchmark::State& state, MatrixVariant variant,
                   BitKernelBackend backend) {
  if (SkipUnlessAvailable(state, backend)) return;
  const NodeId n = static_cast<NodeId>(state.range(0));
  GeneratorParams params = CatalogParams(FamilyByName("G12"), 0);
  params.num_nodes = n;
  const Digraph graph(n, GenerateDag(params));
  const BitMatrix pristine = BitMatrix::FromDigraph(graph);
  BitMatrix work = pristine;
  for (auto _ : state) {
    state.PauseTiming();
    work = pristine;
    state.ResumeTiming();
    switch (variant) {
      case MatrixVariant::kWarshall: work.Warshall(backend); break;
      case MatrixVariant::kWarren: work.Warren(backend); break;
      case MatrixVariant::kWarrenBlocked:
        work.WarrenBlocked(backend, 256);
        break;
    }
    benchmark::DoNotOptimize(work.Row(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) *
                          static_cast<int64_t>(n));
}
#define TCDB_BIT_CLOSURE_BENCH(variant)                                    \
  BENCHMARK_CAPTURE(BM_BitClosure, variant##_scalar,                       \
                    MatrixVariant::k##variant, BitKernelBackend::kScalar)  \
      ->Arg(512);                                                          \
  BENCHMARK_CAPTURE(BM_BitClosure, variant##_uint64,                       \
                    MatrixVariant::k##variant, BitKernelBackend::kUint64)  \
      ->Arg(512)                                                           \
      ->Arg(2000);                                                         \
  BENCHMARK_CAPTURE(BM_BitClosure, variant##_avx2,                         \
                    MatrixVariant::k##variant, BitKernelBackend::kAvx2)    \
      ->Arg(512)                                                           \
      ->Arg(2000)
TCDB_BIT_CLOSURE_BENCH(Warshall);
TCDB_BIT_CLOSURE_BENCH(Warren);
TCDB_BIT_CLOSURE_BENCH(WarrenBlocked);
#undef TCDB_BIT_CLOSURE_BENCH

// End-to-end system benchmarks: one full query through the simulated
// disk. The reported time is the KERNEL window only — the algorithm's
// computation-phase CPU, via manual timing — while restructuring (index
// build / graph load into the simulated disk) is reported separately as
// the setup_s counter. Folding setup into the kernel number previously
// overstated kernel cost for exactly the algorithms with the most
// restructuring, which is the comparison the study cares about.
void BM_ExecuteFullClosure(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  auto db = TcDatabase::Create(GenerateDag({n, 5, n / 10, 2}), n).value();
  ExecOptions options;
  options.buffer_pages = 20;
  double setup_s = 0.0;
  for (auto _ : state) {
    const RunResult result =
        db->Execute(Algorithm::kBtc, QuerySpec::Full(), options).value();
    state.SetIterationTime(result.metrics.compute_cpu_s);
    setup_s += result.metrics.restructure_cpu_s;
  }
  state.counters["setup_s"] = benchmark::Counter(
      setup_s, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExecuteFullClosure)->Arg(200)->Arg(1000)->UseManualTime();

void BM_ExecutePartialJkb2(benchmark::State& state) {
  const NodeId n = 1000;
  auto db = TcDatabase::Create(GenerateDag({n, 5, 50, 3}), n).value();
  const QuerySpec query = QuerySpec::Partial(SampleSourceNodes(n, 5, 1));
  ExecOptions options;
  options.buffer_pages = 10;
  double setup_s = 0.0;
  for (auto _ : state) {
    const RunResult result =
        db->Execute(Algorithm::kJkb2, query, options).value();
    state.SetIterationTime(result.metrics.compute_cpu_s);
    setup_s += result.metrics.restructure_cpu_s;
  }
  state.counters["setup_s"] = benchmark::Counter(
      setup_s, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExecutePartialJkb2)->UseManualTime();

void BM_ExecuteAggregateMinLength(benchmark::State& state) {
  const NodeId n = 500;
  auto db = TcDatabase::Create(GenerateDag({n, 5, 50, 4}), n).value();
  ExecOptions options;
  options.buffer_pages = 20;
  double setup_s = 0.0;
  for (auto _ : state) {
    const AggregateResult result =
        db->ExecuteAggregate(PathAggregate::kMinLength, QuerySpec::Full(),
                             options)
            .value();
    state.SetIterationTime(result.metrics.compute_cpu_s);
    setup_s += result.metrics.restructure_cpu_s;
  }
  state.counters["setup_s"] = benchmark::Counter(
      setup_s, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExecuteAggregateMinLength)->UseManualTime();

// The label path on chain cores: ReachService::QueryBatch (batches of 256)
// against a raw loop of ReachCore::Decide over the same pairs. The
// target is a batch within 2x of the raw loop. Pairs are uniform over the
// input ids and walked in order through a pool of 2^20, so on the
// 10^6-node core (~360 MB of labels) nearly every query misses the
// last-level cache, as in perfbench's chain_1m.
struct ChainServing {
  std::shared_ptr<const ReachCore> core;
  std::vector<std::pair<NodeId, NodeId>> pool;
};

constexpr size_t kServingBatch = 256;

ChainServing MakeChainServing(const ArcList& arcs, NodeId num_nodes) {
  ReachIndexOptions options;
  options.backend = ReachBackend::kChain;
  ChainServing serving;
  serving.core = ReachCore::Build(arcs, num_nodes, options).value();
  Rng rng(7);
  serving.pool.resize(size_t{1} << 20);
  for (auto& [src, dst] : serving.pool) {
    src = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
    dst = static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
  }
  return serving;
}

// Built on first use, so a run filtered to other benchmarks pays nothing.
const ChainServing& G12Chain() {
  static const ChainServing serving = [] {
    const GeneratorParams params = CatalogParams(FamilyByName("G12"), 0);
    return MakeChainServing(GenerateDag(params), params.num_nodes);
  }();
  return serving;
}

const ChainServing& Layered1MChain() {
  static const ChainServing serving = [] {
    ScaleGraphParams params;  // layered, width 64, in-degree 4
    params.num_nodes = 1000000;
    return MakeChainServing(ScaleArcList(params), params.num_nodes);
  }();
  return serving;
}

void SetPerQueryCounter(benchmark::State& state) {
  state.counters["per_query"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kServingBatch),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_ChainQueryBatch(benchmark::State& state,
                        const ChainServing& (*fixture)()) {
  const ChainServing& serving = fixture();
  std::unique_ptr<ReachService> service = ReachService::Create(serving.core);
  const std::span<const std::pair<NodeId, NodeId>> pool(serving.pool);
  size_t offset = 0;
  for (auto _ : state) {
    auto answers = service->QueryBatch(pool.subspan(offset, kServingBatch));
    benchmark::DoNotOptimize(answers);
    offset = (offset + kServingBatch) % pool.size();
  }
  SetPerQueryCounter(state);
}
BENCHMARK_CAPTURE(BM_ChainQueryBatch, g12, G12Chain);
BENCHMARK_CAPTURE(BM_ChainQueryBatch, layered_1m, Layered1MChain);

void BM_ChainDecide(benchmark::State& state,
                    const ChainServing& (*fixture)()) {
  const ChainServing& serving = fixture();
  size_t offset = 0;
  for (auto _ : state) {
    for (size_t i = offset; i < offset + kServingBatch; ++i) {
      benchmark::DoNotOptimize(serving.core->Decide(serving.pool[i].first,
                                                    serving.pool[i].second));
    }
    offset = (offset + kServingBatch) % serving.pool.size();
  }
  SetPerQueryCounter(state);
}
BENCHMARK_CAPTURE(BM_ChainDecide, g12, G12Chain);
BENCHMARK_CAPTURE(BM_ChainDecide, layered_1m, Layered1MChain);

// The dynamic tier's layers on G5 (instance 0, n = 2000), the label
// family perfbench's mutate workload serves: the pivot trees' decide, a
// query the trees leave to the live BFS, and the builds a rebuild runs.
struct G5Dynamic {
  ArcList arcs;
  NodeId num_nodes = 0;
  std::unique_ptr<MutationLog> log;
  std::vector<std::pair<NodeId, NodeId>> pairs;  // uniform, u != v
};

const G5Dynamic& G5() {
  static const G5Dynamic fixture = [] {
    G5Dynamic g;
    const GeneratorParams params = CatalogParams(FamilyByName("G5"), 0);
    g.arcs = GenerateDag(params);
    g.num_nodes = params.num_nodes;
    g.log = MutationLog::Open(g.arcs, g.num_nodes).value();
    Rng rng(11);
    while (g.pairs.size() < 4096) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(0, g.num_nodes - 1));
      const NodeId v = static_cast<NodeId>(rng.Uniform(0, g.num_nodes - 1));
      if (u != v) g.pairs.emplace_back(u, v);
    }
    return g;
  }();
  return fixture;
}

void BM_IncrementalDecide(benchmark::State& state) {
  const G5Dynamic& g = G5();
  const std::unique_ptr<IncrementalIndex> index =
      IncrementalIndex::Build(g.log->adjacency());
  size_t offset = 0;
  for (auto _ : state) {
    for (size_t i = offset; i < offset + kServingBatch; ++i) {
      benchmark::DoNotOptimize(index->Decide(g.pairs[i].first,
                                             g.pairs[i].second));
    }
    offset = (offset + kServingBatch) % g.pairs.size();
  }
  SetPerQueryCounter(state);
}
BENCHMARK(BM_IncrementalDecide);

// Queries past the snapshot epoch that the pivot trees leave undecided,
// with the answer cache off: each one is a pruned BFS over the live graph.
void BM_LiveReachesEscalated(benchmark::State& state) {
  const G5Dynamic& g = G5();
  std::unique_ptr<MutationLog> log =
      MutationLog::Open(g.arcs, g.num_nodes).value();
  DynamicReachOptions options;
  options.cache_capacity = 0;
  std::unique_ptr<DynamicReachService> service =
      DynamicReachService::Create(log.get(), options).value();
  // One delete makes the snapshot stale without changing the pivots.
  const Arc arc = g.arcs.front();
  if (!service->DeleteArc(arc.src, arc.dst).ok()) {
    state.SkipWithError("delete failed");
    return;
  }
  std::vector<std::pair<NodeId, NodeId>> escalated;
  for (const auto& [u, v] : g.pairs) {
    if (service->incremental().Decide(u, v) ==
        ReachIndex::Verdict::kUnknown) {
      escalated.emplace_back(u, v);
    }
  }
  if (escalated.empty()) {
    state.SkipWithError("no escalated pair");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service->Query(escalated[i].first, escalated[i].second));
    i = (i + 1) % escalated.size();
  }
  state.counters["escalated_share"] =
      static_cast<double>(escalated.size()) /
      static_cast<double>(g.pairs.size());
}
BENCHMARK(BM_LiveReachesEscalated);

// Arg 0: the plain label core; Arg 1: with the oreach observations.
void BM_ReachCoreBuildLabels(benchmark::State& state) {
  const G5Dynamic& g = G5();
  ReachIndexOptions options;
  options.backend = ReachBackend::kLabels;
  options.oreach = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReachCore::Build(g.arcs, g.num_nodes, options));
  }
}
BENCHMARK(BM_ReachCoreBuildLabels)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);

void BM_IncrementalIndexBuild(benchmark::State& state) {
  const G5Dynamic& g = G5();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncrementalIndex::Build(g.log->adjacency()));
  }
}
BENCHMARK(BM_IncrementalIndexBuild)->Unit(benchmark::kMicrosecond);

void BM_SnapshotArcs(benchmark::State& state) {
  const G5Dynamic& g = G5();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.log->SnapshotArcs());
  }
}
BENCHMARK(BM_SnapshotArcs)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tcdb

BENCHMARK_MAIN();

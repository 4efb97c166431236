// Golden-metrics regression suite: exact page-I/O and tuple counts for
// three catalog families — G5 (F=5, l=200, the paper's center point),
// sparse G2 (F=2, l=200) and dense G11 (F=50, l=200) — across closure
// algorithms plus one partial query each, pinned at the default
// execution parameters (M=20, LRU). Every counter here is deterministic
// by construction (see determinism_test.cc), so any drift — a changed
// replacement decision, a lost marking, an extra restructuring pass — is
// a behavior change that must be explained and re-pinned, not noise.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "core/database.h"
#include "graph/generator.h"

namespace tcdb {
namespace {

struct Golden {
  const char* name;
  Algorithm algorithm;
  bool full_closure;
  int64_t restructure_reads;
  int64_t restructure_writes;
  int64_t compute_reads;
  int64_t compute_writes;
  int64_t tuples_generated;
  int64_t distinct_tuples;
  int64_t selected_tuples;
};

// Values recorded from the seed implementation on G5 instance 0
// (n=2000, F=5, l=200, generator seed per CatalogParams) at M=20/LRU.
const Golden kGoldens[] = {
    {"BTC", Algorithm::kBtc, true,
     39, 41, 16059, 4490, 4945070, 1497673, 1497673},
    {"JKB2", Algorithm::kJkb2, true,
     78, 55, 21895, 23790, 4940471, 1497673, 1497673},
    {"SRCH", Algorithm::kSrch, true,
     37805, 4070, 0, 0, 7227219, 1497673, 1497673},
    {"BTC_PTC_s10", Algorithm::kBtc, false,
     43, 24, 8196, 2419, 2316952, 742122, 4812},
};

// The tree algorithms on G5 instance 0 at M=20/LRU: SPN's successor
// spanning trees and JKB/JKB2's special-node predecessor trees. The PTC
// row drives JKB2's PruneToSpecial path, which CTC skips. Recorded
// before the tree kernels moved to a dense node index with reused
// storage; that rewrite had to leave every count here unchanged.
const Golden kGoldensTrees[] = {
    {"SPN", Algorithm::kSpn, true,
     39, 47, 21696, 6153, 1558488, 1497673, 1497673},
    {"JKB", Algorithm::kJkb, true,
     78, 57, 22438, 23794, 4940471, 1497673, 1497673},
    {"JKB2_PTC_s10", Algorithm::kJkb2, false,
     85, 40, 51, 76, 43163, 7770, 4812},
};

// Recorded from the seed implementation on G2 instance 0 (n=2000, F=2,
// l=200) at M=20/LRU — the sparse end of the locality-200 column.
const Golden kGoldensG2[] = {
    {"BTC", Algorithm::kBtc, true,
     16, 34, 4602, 2405, 1214529, 706694, 706694},
    {"JKB2", Algorithm::kJkb2, true,
     32, 42, 6919, 8677, 1304789, 706694, 706694},
    {"BTC_PTC_s10", Algorithm::kBtc, false,
     21, 6, 1183, 776, 232024, 147804, 3106},
};

// Recorded from the seed implementation on G11 instance 0 (n=2000, F=50,
// l=200) at M=20/LRU — the dense end, where restructuring dominates the
// I/O profile.
const Golden kGoldensG11[] = {
    {"BTC", Algorithm::kBtc, true,
     322, 325, 9216, 5403, 4410654, 1950170, 1950170},
    {"JKB2", Algorithm::kJkb2, true,
     644, 333, 16263, 23199, 4302338, 1950170, 1950170},
    {"BTC_PTC_s10", Algorithm::kBtc, false,
     282, 257, 5921, 3690, 2913268, 1268040, 8730},
};

// The dense matrix family on G5 instance 0 at M=20/LRU, recorded with the
// default (kAuto) kernel backend — the backend is irrelevant by
// construction, which MatrixBackendSwapKeepsGoldenCounters pins below.
// distinct_tuples matches the BTC/JKB2/SRCH rows above: all full-closure
// algorithms compute the same closure. The matrix family generates no
// tuples (it flips bits), so tuples_generated is 0 by definition.
const Golden kGoldensMatrix[] = {
    {"WARSHALL", Algorithm::kWarshall, true,
     289, 233, 501930, 231089, 0, 1497673, 1497673},
    {"WARREN", Algorithm::kWarren, true,
     289, 233, 208590, 1630, 0, 1497673, 1497673},
    {"WARREN_BLOCKED", Algorithm::kWarrenBlocked, true,
     289, 233, 202062, 267, 0, 1497673, 1497673},
};

void CheckGoldens(const char* family_name,
                  std::span<const Golden> goldens) {
  const GraphFamily& family = FamilyByName(family_name);
  auto db = MakeCatalogDatabase(family, 0);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ExecOptions options;
  options.buffer_pages = 20;

  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::string(family_name) + "/" + golden.name);
    const QuerySpec query =
        golden.full_closure
            ? QuerySpec::Full()
            : QuerySpec::Partial(CatalogSources(family, 0, 0, 10));
    auto run = db.value()->Execute(golden.algorithm, query, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const RunMetrics& m = run.value().metrics;
    EXPECT_EQ(m.restructure_reads, golden.restructure_reads);
    EXPECT_EQ(m.restructure_writes, golden.restructure_writes);
    EXPECT_EQ(m.compute_reads, golden.compute_reads);
    EXPECT_EQ(m.compute_writes, golden.compute_writes);
    EXPECT_EQ(m.tuples_generated, golden.tuples_generated);
    EXPECT_EQ(m.distinct_tuples, golden.distinct_tuples);
    EXPECT_EQ(m.selected_tuples, golden.selected_tuples);
  }
}

TEST(GoldenMetricsTest, G5CountersAreExactlyPinned) {
  CheckGoldens("G5", kGoldens);
}

TEST(GoldenMetricsTest, G5TreeCountersAreExactlyPinned) {
  CheckGoldens("G5", kGoldensTrees);
}

TEST(GoldenMetricsTest, G2CountersAreExactlyPinned) {
  CheckGoldens("G2", kGoldensG2);
}

TEST(GoldenMetricsTest, G11CountersAreExactlyPinned) {
  CheckGoldens("G11", kGoldensG11);
}

TEST(GoldenMetricsTest, G5MatrixCountersAreExactlyPinned) {
  CheckGoldens("G5", kGoldensMatrix);
}

// The kernel backend (uint64 words vs AVX2 vs auto) may change only CPU
// time. Every golden counter — page I/O, unions, tuple counts — is a
// model quantity and must be bit-identical across backends at full
// catalog scale. (The scalar per-bit backend is checked the same way at
// smaller n in baselines_test, where its runtime is affordable.)
TEST(GoldenMetricsTest, MatrixBackendSwapKeepsGoldenCounters) {
  const GraphFamily& family = FamilyByName("G5");
  auto db = MakeCatalogDatabase(family, 0);
  ASSERT_TRUE(db.ok());
  for (const Golden& golden : kGoldensMatrix) {
    ExecOptions options;
    options.buffer_pages = 20;
    options.matrix_backend = BitKernelBackend::kUint64;
    auto reference =
        db.value()->Execute(golden.algorithm, QuerySpec::Full(), options);
    ASSERT_TRUE(reference.ok());
    const RunMetrics& ref = reference.value().metrics;
    for (const BitKernelBackend backend :
         {BitKernelBackend::kAvx2, BitKernelBackend::kAuto}) {
      SCOPED_TRACE(std::string(golden.name) + "/" +
                   BitKernelBackendName(backend));
      options.matrix_backend = backend;
      auto run =
          db.value()->Execute(golden.algorithm, QuerySpec::Full(), options);
      ASSERT_TRUE(run.ok());
      const RunMetrics& m = run.value().metrics;
      EXPECT_EQ(m.restructure_reads, ref.restructure_reads);
      EXPECT_EQ(m.restructure_writes, ref.restructure_writes);
      EXPECT_EQ(m.compute_reads, ref.compute_reads);
      EXPECT_EQ(m.compute_writes, ref.compute_writes);
      EXPECT_EQ(m.list_unions, ref.list_unions);
      EXPECT_EQ(m.tuples_generated, ref.tuples_generated);
      EXPECT_EQ(m.distinct_tuples, ref.distinct_tuples);
      EXPECT_EQ(m.selected_tuples, ref.selected_tuples);
    }
  }
}

// SRCH's statistics that the page counters above do not see: the
// magic-graph size, the arcs walked, the tuples kept and the locality sum
// weighted by how often each arc was processed. Recorded on G5 instance 0
// at M=20/LRU before the search loop counted expansions per node instead
// of traversals per arc; that rewrite had to leave every value unchanged.
struct SrchGolden {
  const char* name;
  bool full_closure;
  int64_t unmarked_locality_sum;
  int64_t magic_nodes;
  int64_t magic_arcs;
  int64_t arcs_processed;
  int64_t tuples_inserted;
};

const SrchGolden kSrchGoldens[] = {
    {"SRCH", true, 74145215, 2000, 9758, 7227219, 1497673},
    {"SRCH_PTC_s10", false, 226320, 1445, 6997, 23025, 4812},
};

TEST(GoldenMetricsTest, G5SrchStatisticsAreExactlyPinned) {
  const GraphFamily& family = FamilyByName("G5");
  auto db = MakeCatalogDatabase(family, 0);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExecOptions options;
  options.buffer_pages = 20;
  for (const SrchGolden& golden : kSrchGoldens) {
    SCOPED_TRACE(golden.name);
    const QuerySpec query =
        golden.full_closure
            ? QuerySpec::Full()
            : QuerySpec::Partial(CatalogSources(family, 0, 0, 10));
    auto run = db.value()->Execute(Algorithm::kSrch, query, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const RunMetrics& m = run.value().metrics;
    EXPECT_EQ(m.unmarked_locality_sum, golden.unmarked_locality_sum);
    EXPECT_EQ(m.magic_nodes, golden.magic_nodes);
    EXPECT_EQ(m.magic_arcs, golden.magic_arcs);
    EXPECT_EQ(m.arcs_processed, golden.arcs_processed);
    EXPECT_EQ(m.tuples_inserted, golden.tuples_inserted);
  }
}

TEST(GoldenMetricsTest, FullClosureRowsAgreeOnClosureSize) {
  EXPECT_EQ(kGoldens[0].distinct_tuples, kGoldens[1].distinct_tuples);
  EXPECT_EQ(kGoldens[0].distinct_tuples, kGoldens[2].distinct_tuples);
  EXPECT_EQ(kGoldens[0].selected_tuples, kGoldens[0].distinct_tuples);
}

}  // namespace
}  // namespace tcdb

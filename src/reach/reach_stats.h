#ifndef TCDB_REACH_REACH_STATS_H_
#define TCDB_REACH_REACH_STATS_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "reach/reach_index.h"
#include "util/table_printer.h"

namespace tcdb {

struct ReachCore;

// Per-service observability counters: how many queries each rule of the
// serving ladder decided and how much wall time it consumed. The point is
// not just "queries were fast" but *why* — benches and the CLI's --explain
// print this block so regressions in index coverage show up as shifted
// decision counts, not just as slower averages.
struct ReachStats {
  int64_t queries = 0;           // single queries + batch members
  int64_t batches = 0;           // QueryBatch calls
  int64_t positive_answers = 0;  // queries answered "reachable"

  // rule_decided[r]: queries whose final answer came from rule r.
  // rule_seconds[r]: cumulative wall time of those queries (a searched
  // query charges its whole latency, labels included, to its search
  // rule; the label pass is timed per batch, and each of its queries is
  // charged the batch mean). Every owner attributes every query, so
  // sum(rule_decided) == queries; per-stage figures are sums over rules
  // (StageOf).
  int64_t rule_decided[kNumReachRules] = {};
  double rule_seconds[kNumReachRules] = {};

  int64_t cache_insertions = 0;
  int64_t bfs_expansions = 0;    // total search node expansions

  void Record(ReachRule rule, bool reachable, double elapsed_seconds) {
    Count(rule, reachable);
    rule_seconds[static_cast<int>(rule)] += elapsed_seconds;
  }
  // Record without the time, for an owner that charges it per rule once
  // the batch is timed (ReachService::LabelPass).
  void Count(ReachRule rule, bool reachable) {
    ++queries;
    positive_answers += reachable ? 1 : 0;
    rule_decided[static_cast<int>(rule)] += 1;
  }

  int64_t RuleDecided(ReachRule rule) const {
    return rule_decided[static_cast<int>(rule)];
  }

  // Queries decided by the rules of `stage`.
  int64_t Decided(ReachStage stage) const;

  // Share of all queries served straight from the answer cache.
  double CacheHitRate() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(RuleDecided(ReachRule::kCacheHit)) /
                     static_cast<double>(queries);
  }

  // Queries answered without a search — everything except the kPrunedBfs
  // (the search core's search) and kLiveBfs rules.
  int64_t DecidedWithoutFallback() const {
    return queries - RuleDecided(ReachRule::kPrunedBfs) -
           RuleDecided(ReachRule::kLiveBfs);
  }

  double TotalSeconds() const {
    double total = 0;
    for (int r = 0; r < kNumReachRules; ++r) total += rule_seconds[r];
    return total;
  }

  // One row per stage: decided count, share of all queries, cumulative and
  // mean latency.
  TablePrinter ToTable() const;
  // One row per populated rule: decided count and share of all queries.
  TablePrinter RuleTable() const;
  // The tables and totals; with a non-null `core`, closed by the line
  // naming its backend and why it was chosen (ReachCore::BackendSummary).
  void Print(std::ostream& out, const ReachCore* core = nullptr) const;
  std::string ToString(const ReachCore* core = nullptr) const;

  // Adds `other`'s counters into this one. ReachServer snapshots merge
  // every lane's stats through this, and the benches merge per-family
  // blocks the same way.
  void Merge(const ReachStats& other);

  void Reset() { *this = ReachStats{}; }
};

// Fixed-bucket latency histogram with power-of-two microsecond buckets:
// bucket 0 holds samples below 1 us, bucket i holds [2^(i-1), 2^i) us.
// Small (a few hundred bytes), mergeable, and quantile-queryable — each
// ReachServer lane keeps one so a stats snapshot can report the aggregate
// p50/p99 without retaining per-query samples.
class LatencyHistogram {
 public:
  // Covers up to ~2^26 us ≈ 67 s; slower samples clamp to the last bucket.
  static constexpr int kNumBuckets = 28;

  void Record(double seconds) { Record(seconds, 1); }
  // `count` samples of `seconds` each, as `count` single calls would
  // record them (a batch charged its mean per query costs one call).
  void Record(double seconds, int64_t count);
  void Merge(const LatencyHistogram& other);

  int64_t count() const { return count_; }
  double total_seconds() const { return total_seconds_; }
  double MeanSeconds() const {
    return count_ == 0 ? 0.0 : total_seconds_ / static_cast<double>(count_);
  }

  // Upper bound (seconds) of the bucket containing the q-quantile sample,
  // q in [0, 1]; 0 when empty. Bucket granularity makes this exact to
  // within a factor of two, which is plenty for p50/p99 regression lines.
  double QuantileSeconds(double q) const;

  // "n=1234 mean=13us p50=8us p99=211us" (for logs and bench tables).
  std::string Summary() const;

 private:
  int64_t buckets_[kNumBuckets] = {};
  int64_t count_ = 0;
  double total_seconds_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_STATS_H_

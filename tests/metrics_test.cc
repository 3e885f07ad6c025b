// Tests for common/metrics: the counter/timer registry, thread-local shard
// merging under concurrent writers, and the snapshot JSON round-trip.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_repair.h"
#include "core/repair.h"
#include "test_fixtures.h"

namespace detective::metrics {
namespace {

// The registry is process-global, so every test starts from a clean epoch.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Global().Reset(); }
};

TEST_F(MetricsTest, CounterIdsAreDenseAndStable) {
  Registry& registry = Registry::Global();
  uint32_t a = registry.CounterId("test.ids.a");
  uint32_t b = registry.CounterId("test.ids.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.CounterId("test.ids.a"));
  EXPECT_EQ(b, registry.CounterId("test.ids.b"));
  // Counter and timer namespaces are independent: the same name may exist
  // in both without clashing.
  uint32_t t = registry.TimerId("test.ids.a");
  EXPECT_EQ(t, registry.TimerId("test.ids.a"));
}

TEST_F(MetricsTest, CountsAccumulateIntoSnapshot) {
  DETECTIVE_COUNT("test.acc.hits");
  DETECTIVE_COUNT("test.acc.hits");
  DETECTIVE_COUNT_N("test.acc.bytes", 40);
  DETECTIVE_COUNT_N("test.acc.bytes", 2);

  MetricsSnapshot snapshot = Registry::Global().Snapshot();
#if DETECTIVE_METRICS_ENABLED
  EXPECT_EQ(snapshot.counter("test.acc.hits"), 2u);
  EXPECT_EQ(snapshot.counter("test.acc.bytes"), 42u);
#else
  EXPECT_EQ(snapshot.counter("test.acc.hits"), 0u);
#endif
  EXPECT_EQ(snapshot.counter("test.acc.never_recorded"), 0u);
}

TEST_F(MetricsTest, ScopedTimerRecordsCountAndNonZeroTime) {
  for (int i = 0; i < 3; ++i) {
    DETECTIVE_SCOPED_TIMER("test.timer.scope");
    // A little real work so even a coarse clock ticks.
    volatile uint64_t sink = 0;
    for (int j = 0; j < 10000; ++j) sink = sink + j;
  }
  MetricsSnapshot snapshot = Registry::Global().Snapshot();
#if DETECTIVE_METRICS_ENABLED
  EXPECT_EQ(snapshot.timer("test.timer.scope").count, 3u);
  EXPECT_GT(snapshot.timer("test.timer.scope").total_ns, 0u);
#else
  EXPECT_EQ(snapshot.timer("test.timer.scope").count, 0u);
#endif
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  DETECTIVE_COUNT("test.reset.counter");
  { DETECTIVE_SCOPED_TIMER("test.reset.timer"); }
  Registry::Global().Reset();
  MetricsSnapshot snapshot = Registry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("test.reset.counter"), 0u);
  EXPECT_EQ(snapshot.timer("test.reset.timer").count, 0u);
}

// The core thread-safety contract: N threads hammering the same counters
// through their private shards merge to exact totals, including threads
// that have already exited by snapshot time (their shards fold into the
// registry's retired totals).
TEST_F(MetricsTest, ConcurrentWritersMergeExactly) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kIncrements; ++i) {
        DETECTIVE_COUNT("test.mt.shared");
        DETECTIVE_COUNT_N("test.mt.weighted", t + 1);
      }
      DETECTIVE_SCOPED_TIMER("test.mt.worker");
    });
  }
  for (std::thread& worker : workers) worker.join();

  MetricsSnapshot snapshot = Registry::Global().Snapshot();
#if DETECTIVE_METRICS_ENABLED
  EXPECT_EQ(snapshot.counter("test.mt.shared"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  // sum over t of (t+1) * kIncrements = kIncrements * kThreads*(kThreads+1)/2
  EXPECT_EQ(snapshot.counter("test.mt.weighted"),
            static_cast<uint64_t>(kIncrements) * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(snapshot.timer("test.mt.worker").count,
            static_cast<uint64_t>(kThreads));
#endif
}

// Snapshotting while writers are live must be safe (TSan-clean) and must
// never observe values beyond what has been written.
TEST_F(MetricsTest, SnapshotDuringWritesIsSafeAndBounded) {
  constexpr uint64_t kTotal = 50000;
  std::thread writer([] {
    for (uint64_t i = 0; i < kTotal; ++i) DETECTIVE_COUNT("test.race.counter");
  });
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    uint64_t now = Registry::Global().Snapshot().counter("test.race.counter");
    EXPECT_GE(now, last);  // monotone across snapshots
    EXPECT_LE(now, kTotal);
    last = now;
  }
  writer.join();
#if DETECTIVE_METRICS_ENABLED
  EXPECT_EQ(Registry::Global().Snapshot().counter("test.race.counter"), kTotal);
#endif
}

TEST_F(MetricsTest, ToJsonFromJsonRoundTrip) {
  MetricsSnapshot original;
  original.counters["kb.label_lookups"] = 123;
  original.counters["repair.rule_checks"] = 0;
  original.counters["weird \"name\" \\ with escapes"] = 7;
  original.timers["repair.relation"] = {4, 987654321};
  original.timers["kb.freeze"] = {1, 0};

  std::string json = original.ToJson();
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(*parsed, original);
}

TEST_F(MetricsTest, EmptySnapshotRoundTrips) {
  MetricsSnapshot empty;
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(empty.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(*parsed, empty);
}

TEST_F(MetricsTest, LiveSnapshotRoundTripsThroughJson) {
  DETECTIVE_COUNT_N("test.json.counter", 99);
  { DETECTIVE_SCOPED_TIMER("test.json.timer"); }
  MetricsSnapshot live = Registry::Global().Snapshot();
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(live.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(*parsed, live);
}

TEST_F(MetricsTest, FromJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("[]").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"counters\": {\"a\": -1}}").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"counters\": {\"a\": 1}").ok());
  EXPECT_FALSE(
      MetricsSnapshot::FromJson("{\"counters\": {}, \"bogus\": {}}").ok());
  EXPECT_FALSE(
      MetricsSnapshot::FromJson(
          "{\"timers\": {\"t\": {\"count\": 1, \"wrong_field\": 2}}}")
          .ok());
  // Trailing garbage after a valid document.
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"counters\": {}} x").ok());
}

TEST(HistogramMathTest, BucketIndexAndUpperBoundsAgree) {
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(UINT64_MAX), kNumHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketUpperNs(0), 0u);
  EXPECT_EQ(HistogramBucketUpperNs(1), 1u);
  EXPECT_EQ(HistogramBucketUpperNs(2), 3u);
  EXPECT_EQ(HistogramBucketUpperNs(3), 7u);
  // Every duration is <= the upper bound of its own bucket and > the upper
  // bound of the previous one (the invariant percentile reporting rests on).
  for (uint64_t ns : {uint64_t{1}, uint64_t{100}, uint64_t{4096},
                      uint64_t{1} << 30}) {
    size_t bucket = HistogramBucket(ns);
    EXPECT_LE(ns, HistogramBucketUpperNs(bucket)) << ns;
    EXPECT_GT(ns, HistogramBucketUpperNs(bucket - 1)) << ns;
  }
}

TEST(HistogramMathTest, PercentilesReportBucketUpperBounds) {
  MetricsSnapshot::Timer timer;
  EXPECT_EQ(timer.PercentileNs(0.5), 0u);  // empty timer

  // Four scopes: 0ns, 1ns, 100ns, ~1ms. Ranks are ceil(p * count).
  for (uint64_t ns : {uint64_t{0}, uint64_t{1}, uint64_t{100}, uint64_t{1} << 20}) {
    ++timer.buckets[HistogramBucket(ns)];
    ++timer.count;
    timer.total_ns += ns;
  }
  EXPECT_EQ(timer.PercentileNs(0.25), 0u);
  EXPECT_EQ(timer.p50_ns(), HistogramBucketUpperNs(HistogramBucket(1)));
  EXPECT_EQ(timer.p95_ns(), HistogramBucketUpperNs(HistogramBucket(uint64_t{1} << 20)));
  EXPECT_EQ(timer.p99_ns(), timer.p95_ns());
  EXPECT_EQ(timer.PercentileNs(1.0), timer.p95_ns());
}

#if DETECTIVE_METRICS_ENABLED

TEST_F(MetricsTest, TimerScopesLandInHistogramBuckets) {
  Registry& registry = Registry::Global();
  uint32_t id = registry.TimerId("test.hist.timer");
  ThisThreadShard().AddTimer(id, 0);
  ThisThreadShard().AddTimer(id, 100);
  ThisThreadShard().AddTimer(id, 100);
  ThisThreadShard().AddTimer(id, uint64_t{1} << 20);

  MetricsSnapshot::Timer timer =
      registry.Snapshot().timer("test.hist.timer");
  EXPECT_EQ(timer.count, 4u);
  EXPECT_EQ(timer.buckets[0], 1u);
  EXPECT_EQ(timer.buckets[HistogramBucket(100)], 2u);
  EXPECT_EQ(timer.buckets[HistogramBucket(uint64_t{1} << 20)], 1u);
  uint64_t sum = 0;
  for (uint64_t b : timer.buckets) sum += b;
  EXPECT_EQ(sum, timer.count);
  EXPECT_EQ(timer.p50_ns(), HistogramBucketUpperNs(HistogramBucket(100)));
}

TEST_F(MetricsTest, HistogramSurvivesJsonRoundTrip) {
  uint32_t id = Registry::Global().TimerId("test.hist.json");
  ThisThreadShard().AddTimer(id, 7);
  ThisThreadShard().AddTimer(id, 3000);
  MetricsSnapshot live = Registry::Global().Snapshot();

  std::string json = live.ToJson();
  // The percentile fields are derived and emitted for consumers.
  EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);

  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->timer("test.hist.json").buckets,
            live.timer("test.hist.json").buckets);
  EXPECT_EQ(*parsed, live);
}

TEST_F(MetricsTest, SnapshotAndResetDrainsExactlyOnce) {
  DETECTIVE_COUNT_N("test.sar.counter", 5);
  uint32_t id = Registry::Global().TimerId("test.sar.timer");
  ThisThreadShard().AddTimer(id, 100);

  MetricsSnapshot first = Registry::Global().SnapshotAndReset();
  EXPECT_EQ(first.counter("test.sar.counter"), 5u);
  EXPECT_EQ(first.timer("test.sar.timer").count, 1u);
  EXPECT_EQ(first.timer("test.sar.timer").buckets[HistogramBucket(100)], 1u);

  // The first call drained everything: a second snapshot starts from zero.
  MetricsSnapshot second = Registry::Global().SnapshotAndReset();
  EXPECT_EQ(second.counter("test.sar.counter"), 0u);
  EXPECT_EQ(second.timer("test.sar.timer").count, 0u);
}

// The exactness property Reset() cannot give: with a writer racing the
// drain, every increment lands in exactly one epoch, so the epoch deltas
// sum to the true total with nothing lost or double-counted.
TEST_F(MetricsTest, SnapshotAndResetEpochsSumExactlyUnderRacingWriter) {
  constexpr uint64_t kTotal = 200000;
  std::thread writer([] {
    for (uint64_t i = 0; i < kTotal; ++i) DETECTIVE_COUNT("test.sar.race");
  });
  uint64_t sum = 0;
  for (int i = 0; i < 100; ++i) {
    sum += Registry::Global().SnapshotAndReset().counter("test.sar.race");
  }
  writer.join();
  sum += Registry::Global().SnapshotAndReset().counter("test.sar.race");
  EXPECT_EQ(sum, kTotal);
}

// The non-destructive read contract /metrics and /metrics.json rest on:
// concurrent Snapshot() readers never steal deltas from each other or from
// a later SnapshotAndReset(), so the final drain still sees every
// increment the writers made.
TEST_F(MetricsTest, ConcurrentSnapshotReadersAreNonDestructive) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 30000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        DETECTIVE_COUNT("test.ndr.counter");
        if (i % 1024 == 0) { DETECTIVE_SCOPED_TIMER("test.ndr.timer"); }
      }
    });
  }
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&stop] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        MetricsSnapshot live = Registry::Global().Snapshot();
        uint64_t now = live.counter("test.ndr.counter");
        EXPECT_GE(now, last);  // monotone: nothing drained between reads
        EXPECT_LE(now, kWriters * kPerWriter);
        last = now;
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // The readers above stole nothing: a final destructive drain still
  // accounts for every increment.
  MetricsSnapshot drained = Registry::Global().SnapshotAndReset();
  EXPECT_EQ(drained.counter("test.ndr.counter"), kWriters * kPerWriter);
  EXPECT_EQ(drained.timer("test.ndr.timer").count,
            static_cast<uint64_t>(kWriters) * ((kPerWriter + 1023) / 1024));
}

// --list-metrics and the OpenMetrics renderer iterate these; they must be
// sorted and cover every registered name without draining anything.
TEST_F(MetricsTest, RegisteredNamesAreSortedAndComplete) {
  DETECTIVE_COUNT("test.names.zeta");
  DETECTIVE_COUNT("test.names.alpha");
  { DETECTIVE_SCOPED_TIMER("test.names.timer"); }

  std::vector<std::string> counters = Registry::Global().CounterNames();
  std::vector<std::string> timers = Registry::Global().TimerNames();
  EXPECT_TRUE(std::is_sorted(counters.begin(), counters.end()));
  EXPECT_TRUE(std::is_sorted(timers.begin(), timers.end()));
  EXPECT_NE(std::find(counters.begin(), counters.end(), "test.names.alpha"),
            counters.end());
  EXPECT_NE(std::find(counters.begin(), counters.end(), "test.names.zeta"),
            counters.end());
  EXPECT_NE(std::find(timers.begin(), timers.end(), "test.names.timer"),
            timers.end());
  // Listing names is a pure read.
  EXPECT_EQ(Registry::Global().Snapshot().counter("test.names.alpha"), 1u);
}

// Parallel repair over the shared match plan and private value memos must
// still sum its thread-local metric shards to exactly the sequential run's
// repair totals — and the memo counters must account for every node check.
TEST_F(MetricsTest, ParallelRepairWithSharedStateSumsToSequential) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  std::vector<DetectiveRule> rules = testing::BuildFigure4Rules();

  Relation sequential = testing::BuildTableI();
  FastRepairer repairer(kb, sequential.schema(), rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&sequential);
  MetricsSnapshot seq = Registry::Global().SnapshotAndReset();

  Relation parallel = testing::BuildTableI();
  ParallelRepairOptions options;
  options.num_threads = 4;
  options.chunk_rows = 1;
  auto stats = ParallelRepair(kb, rules, &parallel, options);
  ASSERT_TRUE(stats.ok());
  MetricsSnapshot par = Registry::Global().SnapshotAndReset();

  ASSERT_GT(seq.counter("repair.tuples_processed"), 0u);
  for (const char* name :
       {"repair.tuples_processed", "repair.rule_checks",
        "repair.rule_applications", "repair.cell_repairs", "repair.cells_marked",
        "repair.chase_rounds", "matcher.node_queries"}) {
    EXPECT_EQ(par.counter(name), seq.counter(name)) << name;
  }
  // Sharing bookkeeping: every node check is a memo hit or one candidate
  // computation (a label-index lookup for equality nodes, a signature-index
  // lookup otherwise), the plan built its indexes exactly once, workers
  // built none, and the steal counter mirrors the merged stats.
  EXPECT_EQ(par.counter("matcher.memo_hits") +
                par.counter("matcher.label_index_lookups") +
                par.counter("matcher.signature_lookups"),
            par.counter("matcher.node_queries"));
  EXPECT_GT(par.counter("matchplan.indexes_built"), 0u);
  EXPECT_EQ(par.counter("matcher.index_builds"), 0u);
  EXPECT_EQ(par.counter("steal.count"), stats->chunks_stolen);
}

#endif  // DETECTIVE_METRICS_ENABLED

}  // namespace
}  // namespace detective::metrics

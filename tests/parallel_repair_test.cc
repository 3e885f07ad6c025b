// Tests for core/parallel_repair, the one relation-level fRepair driver:
// work-stealing chunked repair must be bit-identical to the sequential
// reference loops — repaired CSV bytes, provenance log, and quarantine
// ledger — at every thread count, under the plain and the guarded per-row
// policy, over all rows or a row subset.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "core/match_plan.h"
#include "core/parallel_repair.h"
#include "datagen/uis_gen.h"
#include "test_fixtures.h"

namespace detective {
namespace {

/// A dirty UIS relation plus everything needed to repair it.
struct UisCase {
  Dataset dataset;
  KnowledgeBase kb;
  Relation dirty;
};

UisCase BuildUisCase(size_t tuples) {
  UisCase c;
  UisOptions options;
  options.num_tuples = tuples;
  c.dataset = GenerateUis(options);
  c.kb = c.dataset.world.ToKb(YagoProfile(), c.dataset.key_entities);
  c.dirty = c.dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.12;
  InjectErrors(&c.dirty, spec, c.dataset.alternatives);
  return c;
}

TEST(ParallelRepairTest, MatchesSequentialOnTableI) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  std::vector<DetectiveRule> rules = testing::BuildFigure4Rules();
  Relation sequential = testing::BuildTableI();
  FastRepairer repairer(kb, sequential.schema(), rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&sequential);

  for (size_t threads : {1u, 2u, 3u, 8u}) {
    Relation parallel = testing::BuildTableI();
    ParallelRepairOptions options;
    options.num_threads = threads;
    auto stats = ParallelRepair(kb, rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->tuples_processed, parallel.num_tuples());
    for (size_t row = 0; row < parallel.num_tuples(); ++row) {
      EXPECT_EQ(parallel.tuple(row).values(), sequential.tuple(row).values())
          << "threads=" << threads << " row=" << row;
      EXPECT_EQ(parallel.tuple(row).CountPositive(),
                sequential.tuple(row).CountPositive());
    }
  }
}

class ParallelEquivalenceProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelEquivalenceProperty, MatchesSequentialOnNoisyUis) {
  UisOptions options;
  options.num_tuples = 400;
  Dataset dataset = GenerateUis(options);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.12;
  InjectErrors(&dirty, spec, dataset.alternatives);

  Relation sequential = dirty;
  FastRepairer repairer(kb, dirty.schema(), dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&sequential);

  Relation parallel = dirty;
  ParallelRepairOptions popts;
  popts.num_threads = GetParam();
  auto stats = ParallelRepair(kb, dataset.rules, &parallel, popts);
  ASSERT_TRUE(stats.ok());
  for (size_t row = 0; row < parallel.num_tuples(); ++row) {
    EXPECT_EQ(parallel.tuple(row).values(), sequential.tuple(row).values())
        << "row " << row;
  }
  // Merged stats match the sequential engine's totals for tuple-level work.
  EXPECT_EQ(stats->tuples_processed, repairer.stats().tuples_processed);
  EXPECT_EQ(stats->repairs, repairer.stats().repairs);
  EXPECT_EQ(stats->cells_marked, repairer.stats().cells_marked);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceProperty,
                         ::testing::Values(1, 2, 4, 7));

class ArmedPlan {
 public:
  explicit ArmedPlan(std::string_view spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) fault::Injector::Global().Arm(*plan);
  }
  ~ArmedPlan() { fault::Injector::Global().Disarm(); }
};

// The differential matrix: {1, 2, 8 threads} x {plain, guarded under a
// seeded fault plan} x {all rows, a row subset}, provenance on. Every cell
// must reproduce the sequential reference byte for byte: the repaired CSV,
// the provenance JSONL, and the quarantine JSONL. A subset run's reference
// is the full reference restricted to the subset: its rows as repaired,
// every other row untouched, and only the subset's records.
TEST(ParallelRepairTest, DifferentialMatrixMatchesSequentialReference) {
  // chunk_rows=3 puts several chunks on every worker, so claims interleave.
  constexpr size_t kChunkRows = 3;
  constexpr std::string_view kPlan = "seed=13; site=kb.lookup, p=0.01";
  UisCase c = BuildUisCase(200);
  std::vector<size_t> subset;
  for (size_t row = 0; row < c.dirty.num_tuples(); row += 3) subset.push_back(row);

  struct Expected {
    std::string csv;
    std::string provenance;
    std::string quarantine;
  };
  for (const bool guarded : {false, true}) {
    // The sequential reference over every row.
    Relation full = c.dirty;
    ProvenanceLog full_provenance;
    QuarantineLog full_quarantine;
    {
      std::optional<ArmedPlan> armed;
      if (guarded) armed.emplace(kPlan);
      FastRepairer repairer(c.kb, c.dirty.schema(), c.dataset.rules);
      ASSERT_TRUE(repairer.Init().ok());
      repairer.engine().set_provenance(&full_provenance);
      if (guarded) {
        testing::GuardedSequentialRepair(repairer, &full, &full_quarantine);
      } else {
        repairer.RepairRelation(&full);
      }
    }
    ASSERT_FALSE(full_provenance.empty());
#if DETECTIVE_FAULT_ENABLED
    EXPECT_EQ(full_quarantine.empty(), !guarded);  // seed 13 trips at least once
#endif

    for (const bool use_subset : {false, true}) {
      Expected want{full.ToCsv(), full_provenance.ToJsonLines(),
                    full_quarantine.ToJsonLines()};
      if (use_subset) {
        Relation partial = c.dirty;
        ProvenanceLog partial_provenance;
        QuarantineLog partial_quarantine;
        for (size_t row : subset) partial.CommitRow(row, full.tuple(row));
        auto in_subset = [&subset](uint64_t row) {
          return std::binary_search(subset.begin(), subset.end(), row);
        };
        for (const RepairProvenance& record : full_provenance.records()) {
          if (in_subset(record.row)) partial_provenance.Add(record);
        }
        for (const QuarantineRecord& record : full_quarantine.records()) {
          if (in_subset(record.row)) partial_quarantine.Add(record);
        }
        want = {partial.ToCsv(), partial_provenance.ToJsonLines(),
                partial_quarantine.ToJsonLines()};
      }

      for (size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " guarded=" << guarded
                     << " subset=" << use_subset);
        std::optional<ArmedPlan> armed;
        if (guarded) armed.emplace(kPlan);
        Relation parallel = c.dirty;
        ProvenanceLog provenance;
        QuarantineLog quarantine;
        ParallelRepairOptions options;
        options.num_threads = threads;
        options.chunk_rows = kChunkRows;
        options.provenance = &provenance;
        options.quarantine = guarded ? &quarantine : nullptr;
        options.row_subset = use_subset ? &subset : nullptr;
        auto stats = ParallelRepair(c.kb, c.dataset.rules, &parallel, options);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(stats->tuples_processed,
                  use_subset ? subset.size() : c.dirty.num_tuples());
        EXPECT_EQ(parallel.ToCsv(), want.csv);
        EXPECT_EQ(provenance.ToJsonLines(), want.provenance);
        EXPECT_EQ(quarantine.ToJsonLines(), want.quarantine);
      }
    }
  }
}
#if DETECTIVE_METRICS_ENABLED
// The per-worker thread-local metric shards must merge to the same totals
// the sequential repairer produces: parallel repair shards the relation, so
// the summed per-tuple work is identical even though it happened on many
// threads. Only the repair.* counters are compared — matcher memo counters
// legitimately differ because each worker owns a private memo.
TEST(ParallelRepairTest, WorkerMetricsSumToSequentialRun) {
  UisOptions options;
  options.num_tuples = 300;
  Dataset dataset = GenerateUis(options);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.12;
  InjectErrors(&dirty, spec, dataset.alternatives);

  metrics::Registry& registry = metrics::Registry::Global();

  registry.Reset();
  Relation sequential = dirty;
  FastRepairer repairer(kb, dirty.schema(), dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&sequential);
  metrics::MetricsSnapshot seq = registry.Snapshot();

  registry.Reset();
  Relation parallel = dirty;
  ParallelRepairOptions popts;
  popts.num_threads = 4;
  ASSERT_TRUE(ParallelRepair(kb, dataset.rules, &parallel, popts).ok());
  metrics::MetricsSnapshot par = registry.Snapshot();

  ASSERT_GT(seq.counter("repair.tuples_processed"), 0u);
  for (const char* name :
       {"repair.tuples_processed", "repair.rule_checks", "repair.rule_applications",
        "repair.cell_repairs", "repair.cells_marked", "repair.chase_rounds"}) {
    EXPECT_EQ(par.counter(name), seq.counter(name)) << name;
  }
  EXPECT_EQ(par.counter("parallel.workers_launched"), 4u);
  EXPECT_EQ(par.timer("parallel.worker").count, 4u);
}
#endif  // DETECTIVE_METRICS_ENABLED

// chunk_rows=1 maximizes scheduling freedom: every row is claimed off the
// atomic counter independently, so chunks land on "wrong" workers constantly
// — and the output, provenance log included, must not care.
TEST(ParallelRepairTest, WorkStealingIsInvisibleInOutputAndProvenance) {
  UisCase c = BuildUisCase(200);

  Relation sequential = c.dirty;
  ProvenanceLog sequential_log;
  FastRepairer repairer(c.kb, c.dirty.schema(), c.dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.engine().set_provenance(&sequential_log);
  repairer.RepairRelation(&sequential);

  size_t total_steals = 0;
  for (size_t threads : {2u, 3u, 8u}) {
    Relation parallel = c.dirty;
    ProvenanceLog parallel_log;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.chunk_rows = 1;
    options.provenance = &parallel_log;
    auto stats = ParallelRepair(c.kb, c.dataset.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    total_steals += stats->chunks_stolen;
    EXPECT_EQ(parallel_log, sequential_log) << "threads=" << threads;
    for (size_t row = 0; row < parallel.num_tuples(); ++row) {
      EXPECT_EQ(parallel.tuple(row).values(), sequential.tuple(row).values())
          << "threads=" << threads << " row=" << row;
    }
  }
  // 600 one-row chunks across three runs: some always land off their static
  // owner (a zero here would mean the claims exactly reproduced contiguous
  // sharding three times over).
  EXPECT_GT(total_steals, 0u);
}

#if DETECTIVE_FAULT_ENABLED
// The PR 4 determinism contract under work stealing: fault decisions are
// keyed by (seed, site, row, hit), never by which worker or chunk reached
// the row, so the repaired cells, the provenance log, and the quarantine
// ledger match the sequential guarded run bit for bit at every thread count.
TEST(ParallelRepairTest, WorkStealingPreservesFaultDeterminism) {
  constexpr std::string_view kPlan = "seed=13; site=kb.lookup, p=0.01";
  UisCase c = BuildUisCase(200);

  Relation sequential = c.dirty;
  ProvenanceLog sequential_log;
  QuarantineLog sequential_quarantine;
  {
    ArmedPlan armed(kPlan);
    FastRepairer repairer(c.kb, c.dirty.schema(), c.dataset.rules);
    ASSERT_TRUE(repairer.Init().ok());
    repairer.engine().set_provenance(&sequential_log);
    testing::GuardedSequentialRepair(repairer, &sequential,
                                     &sequential_quarantine);
  }
  EXPECT_FALSE(sequential_quarantine.empty());  // seed 13 trips at least once

  for (size_t threads : {2u, 3u, 8u}) {
    ArmedPlan armed(kPlan);
    Relation parallel = c.dirty;
    ProvenanceLog parallel_log;
    QuarantineLog parallel_quarantine;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.chunk_rows = 1;  // maximal stealing
    options.provenance = &parallel_log;
    options.quarantine = &parallel_quarantine;
    auto stats = ParallelRepair(c.kb, c.dataset.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(parallel_quarantine, sequential_quarantine)
        << "threads=" << threads;
    EXPECT_EQ(parallel_log, sequential_log) << "threads=" << threads;
    for (size_t row = 0; row < parallel.num_tuples(); ++row) {
      EXPECT_EQ(parallel.tuple(row).values(), sequential.tuple(row).values())
          << "threads=" << threads << " row=" << row;
    }
  }
}
#endif  // DETECTIVE_FAULT_ENABLED

#if DETECTIVE_METRICS_ENABLED
// The whole point of the plan: across an 8-worker run, each (type, sim)
// signature index is built exactly once — by the plan — and never lazily by
// a worker's matcher.
TEST(ParallelRepairTest, SignatureIndexesBuiltExactlyOncePerPair) {
  UisCase c = BuildUisCase(128);

  // The expected pair count, from an out-of-band plan over the same rules.
  RuleEngine probe(c.kb, c.dirty.schema(), c.dataset.rules, RepairOptions{});
  ASSERT_TRUE(probe.Init().ok());
  MatchPlan expected = MatchPlan::Build(c.kb, probe.bound_rules(), 1);
  ASSERT_GT(expected.num_indexes(), 0u);  // UIS rules use ED,2 nodes

  metrics::Registry& registry = metrics::Registry::Global();
  registry.Reset();
  Relation parallel = c.dirty;
  ParallelRepairOptions options;
  options.num_threads = 8;
  options.chunk_rows = 4;
  ASSERT_TRUE(ParallelRepair(c.kb, c.dataset.rules, &parallel, options).ok());
  metrics::MetricsSnapshot par = registry.Snapshot();

  EXPECT_EQ(par.counter("matchplan.indexes_built"), expected.num_indexes());
  EXPECT_EQ(par.counter("matcher.index_builds"), 0u);
}
#endif  // DETECTIVE_METRICS_ENABLED

// With the columnar relation, workers chase detached row copies and the main
// thread commits them in row order — so the *serialized* repaired relation,
// not just the per-row values, must be byte-identical at every thread count.
TEST(ParallelRepairTest, RepairedCsvBytesIdenticalAcrossThreadCounts) {
  UisCase c = BuildUisCase(200);
  std::string reference;
  for (size_t threads : {1u, 2u, 8u}) {
    Relation parallel = c.dirty;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.chunk_rows = 3;
    auto stats = ParallelRepair(c.kb, c.dataset.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::string csv = parallel.ToCsv();
    if (threads == 1u) {
      reference = std::move(csv);
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

#if DETECTIVE_FAULT_ENABLED
// Same bar under an armed fault plan: quarantined rollbacks included, the
// committed bytes cannot depend on the thread count.
TEST(ParallelRepairTest, GuardedCsvBytesIdenticalAcrossThreadCounts) {
  constexpr std::string_view kPlan = "seed=13; site=kb.lookup, p=0.01";
  UisCase c = BuildUisCase(200);
  std::string reference;
  for (size_t threads : {1u, 2u, 8u}) {
    ArmedPlan armed(kPlan);
    Relation parallel = c.dirty;
    QuarantineLog quarantine;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.chunk_rows = 1;
    options.quarantine = &quarantine;
    auto stats = ParallelRepair(c.kb, c.dataset.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::string csv = parallel.ToCsv();
    if (threads == 1u) {
      reference = std::move(csv);
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}
#endif  // DETECTIVE_FAULT_ENABLED

TEST(ParallelRepairTest, EmptyRelationIsFine) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  std::vector<DetectiveRule> rules = testing::BuildFigure4Rules();
  Relation empty{testing::BuildTableI().schema()};
  auto stats = ParallelRepair(kb, rules, &empty);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tuples_processed, 0u);
}

TEST(ParallelRepairTest, BindingErrorsSurface) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  std::vector<DetectiveRule> rules = testing::BuildFigure4Rules();
  Relation wrong{Schema({"A", "B"})};
  ASSERT_TRUE(wrong.Append({"x", "y"}).ok());
  EXPECT_FALSE(ParallelRepair(kb, rules, &wrong).ok());
}

// A caller's long-lived repairer (serve's worker) chases inline: the output
// equals the sequential reference on every call, the returned stats count
// only that call, and the repairer's memo stays warm across calls.
TEST(ParallelRepairTest, CallerRepairerChasesInlineAndStaysWarm) {
  UisCase c = BuildUisCase(200);
  Relation reference = c.dirty;
  FastRepairer sequential(c.kb, reference.schema(), c.dataset.rules);
  ASSERT_TRUE(sequential.Init().ok());
  sequential.RepairRelation(&reference);

  FastRepairer repairer(c.kb, c.dirty.schema(), c.dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  ParallelRepairOptions options;
  options.num_threads = 1;
  options.repairer = &repairer;
  for (int call = 0; call < 2; ++call) {
    const MatcherStats before = repairer.engine().matcher().stats();
    Relation table = c.dirty;
    auto stats = ParallelRepair(c.kb, c.dataset.rules, &table, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->tuples_processed, table.num_tuples()) << "call " << call;
    EXPECT_EQ(table.ToCsv(), reference.ToCsv()) << "call " << call;
    EXPECT_EQ(repairer.stats().tuples_processed,
              (call + 1) * table.num_tuples());
    if (call == 1) {
      // Every value the second call checks was memoized by the first.
      const MatcherStats& after = repairer.engine().matcher().stats();
      EXPECT_GT(after.node_checks, before.node_checks);
      EXPECT_EQ(after.memo_hits - before.memo_hits,
                after.node_checks - before.node_checks);
    }
  }

  options.num_threads = 2;
  Relation table = c.dirty;
  EXPECT_FALSE(ParallelRepair(c.kb, c.dataset.rules, &table, options).ok());
}

}  // namespace
}  // namespace detective

// Chaos tests for the fault-tolerant pipeline (docs/robustness.md): the
// guarded repair path must never crash, must quarantine deterministically
// under a fixed seed, must leave set-aside tuples bit-identical to their
// input bytes, and must reconcile (every row is either repaired/clean or
// quarantined). Sequential and parallel guarded repair must agree exactly
// under the same fault plan.

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "core/parallel_repair.h"
#include "core/quarantine.h"
#include "core/repair.h"
#include "test_fixtures.h"

namespace detective {
namespace {

/// Arms the global injector for one test body and always disarms on exit so
/// tests cannot leak faults into each other.
class ArmedPlan {
 public:
  explicit ArmedPlan(std::string_view spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) fault::Injector::Global().Arm(*plan);
  }
  ~ArmedPlan() { fault::Injector::Global().Disarm(); }
};

/// Runs a guarded sequential repair of Table I under `options`, returning the
/// repaired relation and the quarantine ledger.
struct GuardedRun {
  Relation relation = testing::BuildTableI();
  QuarantineLog quarantine;
  RepairStats stats;
  size_t disabled_rules = 0;
};

GuardedRun RunGuarded(const RepairOptions& options) {
  GuardedRun run;
  KnowledgeBase kb = testing::BuildFigure1Kb();
  FastRepairer repairer(kb, run.relation.schema(), testing::BuildFigure4Rules(),
                        options);
  EXPECT_TRUE(repairer.Init().ok());
  testing::GuardedSequentialRepair(repairer, &run.relation, &run.quarantine);
  run.stats = repairer.stats();
  run.disabled_rules = repairer.engine().num_disabled_rules();
  return run;
}

// ---- Fault-plan grammar -----------------------------------------------------

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  auto plan = fault::FaultPlan::Parse(
      "seed=7; site=kb.load, hit=1; "
      "site=kb.*, kind=latency, latency_ms=50, p=0.25");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->clauses.size(), 2u);
  EXPECT_EQ(plan->clauses[0].site_glob, "kb.load");
  EXPECT_EQ(plan->clauses[0].kind, fault::FaultKind::kStatus);
  EXPECT_EQ(plan->clauses[0].nth_hit, 1u);
  EXPECT_EQ(plan->clauses[1].kind, fault::FaultKind::kLatency);
  EXPECT_EQ(plan->clauses[1].latency_ms, 50u);
  EXPECT_DOUBLE_EQ(plan->clauses[1].probability, 0.25);

  auto reparsed = fault::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*plan, *reparsed);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::FaultPlan::Parse("bogus").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("site=x, p=1.5").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("site=x, p=-0.1").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("kind=status").ok());  // no site
  EXPECT_FALSE(fault::FaultPlan::Parse("site=x, frequency=2").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("site=x, kind=sparks").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("seed=banana").ok());
}

TEST(FaultPlanTest, GlobMatching) {
  EXPECT_TRUE(fault::GlobMatch("kb.lookup", "kb.lookup"));
  EXPECT_TRUE(fault::GlobMatch("kb.*", "kb.lookup"));
  EXPECT_TRUE(fault::GlobMatch("*", "anything"));
  EXPECT_TRUE(fault::GlobMatch("*.load", "csv.load"));
  EXPECT_FALSE(fault::GlobMatch("kb.*", "csv.load"));
  EXPECT_FALSE(fault::GlobMatch("kb.lookup", "kb.look"));
  EXPECT_TRUE(fault::GlobMatch("a*b*c", "axxbyyc"));
  EXPECT_FALSE(fault::GlobMatch("a*b*c", "axxbyy"));
}

// ---- Deadlines and tokens ---------------------------------------------------

TEST(DeadlineTest, ZeroExpiresInfiniteNever) {
  EXPECT_TRUE(Deadline::AfterMs(0).Expired());
  EXPECT_FALSE(Deadline::Infinite().Expired());
  EXPECT_TRUE(Deadline::Infinite().infinite());
}

TEST(DeadlineTest, FirstTripWins) {
  CancelToken token;
  token.Trip(CancelReason::kFault, "kb.lookup", "first");
  token.Trip(CancelReason::kRunDeadline, "elsewhere", "second");
  EXPECT_TRUE(token.tripped());
  EXPECT_EQ(token.reason(), CancelReason::kFault);
  EXPECT_EQ(token.site(), "kb.lookup");
  EXPECT_EQ(token.detail(), "first");
  token.BlameOnce("phi1", 2);
  token.BlameOnce("phi9", 9);
  EXPECT_EQ(token.blamed_rule(), "phi1");
  EXPECT_EQ(token.blamed_round(), 2u);
  token.Reset();
  EXPECT_FALSE(token.tripped());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(DeadlineTest, ExpiredTupleBudgetTripsOnPoll) {
  CancelToken token;
  token.ArmDeadlines(Deadline::Infinite(), Deadline::AfterMs(0));
  EXPECT_TRUE(token.CheckNow());
  EXPECT_EQ(token.reason(), CancelReason::kTupleBudget);
}

// ---- Quarantine serialization ----------------------------------------------

TEST(QuarantineTest, RecordJsonRoundTrip) {
  QuarantineRecord record{3, "phi1", "kb.lookup", CancelReason::kFault, 2,
                          "injected fault at kb.lookup (hit 4)"};
  auto parsed = QuarantineRecord::FromJson(record.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, record);
}

TEST(QuarantineTest, RecordParserRejectsBadDocuments) {
  EXPECT_FALSE(QuarantineRecord::FromJson("{}").ok());  // row+reason required
  EXPECT_FALSE(QuarantineRecord::FromJson("{\"row\": 1}").ok());
  EXPECT_FALSE(
      QuarantineRecord::FromJson("{\"row\": 1, \"reason\": \"gremlins\"}").ok());
  EXPECT_FALSE(QuarantineRecord::FromJson(
                   "{\"row\": 1, \"reason\": \"fault\", \"surprise\": 1}")
                   .ok());
  EXPECT_TRUE(
      QuarantineRecord::FromJson("{\"row\": 1, \"reason\": \"tuple_budget\"}")
          .ok());
}

TEST(QuarantineTest, LogJsonLinesRoundTripAndCanonicalOrder) {
  QuarantineLog log;
  log.Add({5, "phi2", "", CancelReason::kTupleBudget, 1, ""});
  log.Add({1, "", "repair.tuple", CancelReason::kFault, 0, "boom"});
  log.Add({5, "phi1", "", CancelReason::kRunDeadline, 0, ""});

  auto parsed = QuarantineLog::FromJsonLines(log.ToJsonLines() + "\n\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, log);

  log.Canonicalize();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.records()[0].row, 1u);
  EXPECT_EQ(log.records()[1].row, 5u);
  EXPECT_EQ(log.records()[1].round, 0u);  // stable sort by (row, round)
  EXPECT_EQ(log.records()[2].round, 1u);
  EXPECT_EQ(log.Rows(), (std::vector<uint64_t>{1, 5}));

  EXPECT_FALSE(QuarantineLog::FromJsonLines("not json\n").ok());
}

// ---- Guarded repair semantics ----------------------------------------------

TEST(ChaosTest, GuardedWithNothingArmedMatchesUnguarded) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  Relation expected = testing::BuildTableI();
  FastRepairer plain(kb, expected.schema(), testing::BuildFigure4Rules());
  ASSERT_TRUE(plain.Init().ok());
  plain.RepairRelation(&expected);

  GuardedRun guarded = RunGuarded(RepairOptions{});
  EXPECT_TRUE(guarded.quarantine.empty());
  EXPECT_EQ(guarded.stats.tuples_quarantined, 0u);
  ASSERT_EQ(guarded.relation.num_tuples(), expected.num_tuples());
  for (size_t row = 0; row < expected.num_tuples(); ++row) {
    EXPECT_EQ(guarded.relation.tuple(row).values(), expected.tuple(row).values())
        << "row " << row;
  }
}

// The remaining chaos scenarios need probes that actually fire; under
// DETECTIVE_FAULT=OFF the macros are empty statements, which is exactly the
// compile-out contract — so they only run in probed builds. (Guarded repair
// itself stays covered above either way.)
#if DETECTIVE_FAULT_ENABLED

TEST(ChaosTest, FixedSeedFaultsAreDeterministic) {
  constexpr std::string_view kPlan = "seed=7; site=repair.tuple, p=0.5";
  GuardedRun first = [&] {
    ArmedPlan armed(kPlan);
    return RunGuarded(RepairOptions{});
  }();
  GuardedRun second = [&] {
    ArmedPlan armed(kPlan);
    return RunGuarded(RepairOptions{});
  }();
  EXPECT_FALSE(first.quarantine.empty());  // seed 7 quarantines at least one
  EXPECT_EQ(first.quarantine, second.quarantine);
  for (size_t row = 0; row < first.relation.num_tuples(); ++row) {
    EXPECT_EQ(first.relation.tuple(row).values(),
              second.relation.tuple(row).values());
  }
}

TEST(ChaosTest, QuarantinedTuplesAreBitIdenticalToInputAndRunsReconcile) {
  ArmedPlan armed("seed=11; site=kb.lookup, p=0.02");
  GuardedRun run = RunGuarded(RepairOptions{});
  Relation input = testing::BuildTableI();

  // Reference repair without faults, for the rows that were not set aside.
  Relation reference = testing::BuildTableI();
  KnowledgeBase kb = testing::BuildFigure1Kb();
  FastRepairer plain(kb, reference.schema(), testing::BuildFigure4Rules());
  ASSERT_TRUE(plain.Init().ok());
  plain.RepairRelation(&reference);

  std::vector<uint64_t> quarantined = run.quarantine.Rows();
  for (size_t row = 0; row < run.relation.num_tuples(); ++row) {
    const bool set_aside =
        std::find(quarantined.begin(), quarantined.end(), row) !=
        quarantined.end();
    if (set_aside) {
      // Pristine bytes: values, original values, and no repair marks.
      EXPECT_EQ(run.relation.tuple(row).values(), input.tuple(row).values());
      EXPECT_EQ(run.relation.tuple(row).CountPositive(),
                input.tuple(row).CountPositive());
      for (ColumnIndex c = 0; c < run.relation.tuple(row).size(); ++c) {
        EXPECT_FALSE(run.relation.tuple(row).WasRepaired(c));
      }
    } else {
      EXPECT_EQ(run.relation.tuple(row).values(), reference.tuple(row).values());
    }
  }
  // Reconciliation: every row is accounted for exactly once.
  EXPECT_EQ(quarantined.size() +
                (run.relation.num_tuples() - quarantined.size()),
            run.relation.num_tuples());
  EXPECT_LE(quarantined.size(), run.relation.num_tuples());
}

TEST(ChaosTest, SequentialAndParallelGuardedRunsAgree) {
  constexpr std::string_view kPlan = "seed=13; site=kb.lookup, p=0.01";
  GuardedRun sequential = [&] {
    ArmedPlan armed(kPlan);
    return RunGuarded(RepairOptions{});
  }();

  KnowledgeBase kb = testing::BuildFigure1Kb();
  std::vector<DetectiveRule> rules = testing::BuildFigure4Rules();
  for (size_t threads : {2u, 3u, 8u}) {
    ArmedPlan armed(kPlan);
    Relation parallel = testing::BuildTableI();
    QuarantineLog quarantine;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.quarantine = &quarantine;
    auto stats = ParallelRepair(kb, rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(quarantine, sequential.quarantine) << "threads=" << threads;
    EXPECT_EQ(stats->tuples_quarantined, sequential.stats.tuples_quarantined);
    for (size_t row = 0; row < parallel.num_tuples(); ++row) {
      EXPECT_EQ(parallel.tuple(row).values(),
                sequential.relation.tuple(row).values())
          << "threads=" << threads << " row=" << row;
    }
  }
}

TEST(ChaosTest, TupleBudgetQuarantinesSlowTuples) {
  // Every KB lookup sleeps well past the per-tuple budget, so every tuple
  // that consults the KB is set aside — with the budget as the reason.
  ArmedPlan armed("seed=1; site=kb.lookup, kind=latency, latency_ms=30");
  RepairOptions options;
  options.tuple_budget_ms = 5;
  GuardedRun run = RunGuarded(options);
  ASSERT_FALSE(run.quarantine.empty());
  Relation input = testing::BuildTableI();
  for (const QuarantineRecord& record : run.quarantine.records()) {
    EXPECT_EQ(record.reason, CancelReason::kTupleBudget);
    EXPECT_EQ(run.relation.tuple(record.row).values(),
              input.tuple(record.row).values());
  }
}

TEST(ChaosTest, ExpiredRunDeadlineQuarantinesEveryRow) {
  RepairOptions options;
  options.deadline_ms = 0;  // 0 = off ...
  GuardedRun clean = RunGuarded(options);
  EXPECT_TRUE(clean.quarantine.empty());

  options.deadline_ms = 1;  // ... but 1ms expires before any chase finishes
  ArmedPlan armed("seed=1; site=kb.lookup, kind=latency, latency_ms=30");
  GuardedRun run = RunGuarded(options);
  Relation input = testing::BuildTableI();
  EXPECT_EQ(run.quarantine.Rows().size(), input.num_tuples());
  for (const QuarantineRecord& record : run.quarantine.records()) {
    EXPECT_EQ(record.reason, CancelReason::kRunDeadline);
  }
  for (size_t row = 0; row < run.relation.num_tuples(); ++row) {
    EXPECT_EQ(run.relation.tuple(row).values(), input.tuple(row).values());
  }
}

TEST(ChaosTest, CircuitBreakerDisablesBlamedRulesAndRechasesVictims) {
  // Every KB lookup fails, so each chase is abandoned blaming the rule in
  // flight. With a threshold of one failure the breaker disables that rule
  // and re-chases; the fixpoint ends with every KB-powered rule disabled,
  // the re-chases completing without faults, and the ledger empty — the
  // degraded-but-deterministic endpoint.
  ArmedPlan armed("seed=1; site=kb.lookup");
  RepairOptions options;
  options.max_rule_failures = 1;
  GuardedRun run = RunGuarded(options);
  EXPECT_TRUE(run.quarantine.empty());
  EXPECT_GE(run.disabled_rules, 1u);
  EXPECT_GT(run.stats.tuples_quarantined, 0u);  // events before the breaker
  Relation input = testing::BuildTableI();
  for (size_t row = 0; row < run.relation.num_tuples(); ++row) {
    EXPECT_EQ(run.relation.tuple(row).values(), input.tuple(row).values());
  }
}

TEST(ChaosTest, BreakerOffKeepsBlamedRuleRecords) {
  ArmedPlan armed("seed=1; site=kb.lookup");
  GuardedRun run = RunGuarded(RepairOptions{});  // breaker off
  Relation input = testing::BuildTableI();
  EXPECT_EQ(run.quarantine.Rows().size(), input.num_tuples());
  EXPECT_EQ(run.disabled_rules, 0u);
  for (const QuarantineRecord& record : run.quarantine.records()) {
    EXPECT_EQ(record.reason, CancelReason::kFault);
    EXPECT_EQ(record.site, "kb.lookup");
    EXPECT_FALSE(record.rule.empty());
  }
}

#endif  // DETECTIVE_FAULT_ENABLED

// ---- Transient retry --------------------------------------------------------

TEST(TransientRetryTest, RetriesIoErrorsUntilSuccess) {
  int attempts = 0;
  auto result = fault::RetryTransient([&]() -> Result<int> {
    if (++attempts < 3) return Status::IOError("flaky");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(attempts, 3);
}

TEST(TransientRetryTest, PermanentErrorsAreNotRetried) {
  int attempts = 0;
  auto result = fault::RetryTransient([&]() -> Result<int> {
    ++attempts;
    return Status::ParseError("broken for good");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(attempts, 1);
}

TEST(TransientRetryTest, GivesUpAfterTheLadder) {
  int attempts = 0;
  auto result = fault::RetryTransient([&]() -> Result<int> {
    ++attempts;
    return Status::IOError("always down");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(attempts, 1 + fault::kTransientRetries);
}

#if DETECTIVE_FAULT_ENABLED
TEST(TransientRetryTest, LoaderSurvivesSingleShotFault) {
  std::string path = ::testing::TempDir() + "/chaos_retry.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "a,b\n1,2\n";
  }
  ArmedPlan armed("seed=1; site=csv.load, hit=1");
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_GT(fault::Injector::Global().fires(), 0u);
}

TEST(TransientRetryTest, LoaderGivesUpUnderPersistentFault) {
  std::string path = ::testing::TempDir() + "/chaos_retry2.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "a,b\n";
  }
  ArmedPlan armed("seed=1; site=csv.load");
  auto rows = ReadCsvFile(path);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsIOError());
}
#endif  // DETECTIVE_FAULT_ENABLED

}  // namespace
}  // namespace detective

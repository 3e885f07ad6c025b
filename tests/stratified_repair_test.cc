// The stratified chase (RepairOptions::schedule) must be byte-identical to
// the classic unstratified sequential chase — cell values, positive marks,
// provenance, quarantine — at every thread count and under a fault plan,
// while actually eliding confirming fixpoint sweeps on workloads whose
// interaction cycles the analyzer refutes (docs/static_analysis.md).

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analysis/stratification.h"
#include "common/fault.h"
#include "core/parallel_repair.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "datagen/error_injector.h"
#include "datagen/nobel_gen.h"
#include "datagen/world.h"
#include "kb/ntriples_parser.h"
#include "test_fixtures.h"

namespace detective {
namespace {

/// The elision workload: the Nobel set with the mutually-exclusive
/// City/Country pair and without nobel_prize (so the Prize witness column
/// stays stable and the analyzer can refute the pair's nominal cycle).
struct StrataCase {
  Dataset dataset;
  KnowledgeBase kb;
  std::vector<DetectiveRule> rules;
  Relation dirty;
  analysis::Stratification strata;
};

StrataCase BuildStrataCase(size_t laureates = 160) {
  StrataCase c;
  NobelOptions options;
  options.num_laureates = laureates;
  options.exclusive_strata_rules = true;
  c.dataset = GenerateNobel(options);
  c.kb = c.dataset.world.ToKb(YagoProfile(), c.dataset.key_entities);
  for (const DetectiveRule& rule : c.dataset.rules) {
    if (rule.name() != "nobel_prize") c.rules.push_back(rule);
  }
  c.dirty = c.dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.12;
  InjectErrors(&c.dirty, spec, c.dataset.alternatives);
  auto strata = analysis::ComputeStratification(c.rules, c.kb);
  strata.status().Abort("BuildStrataCase");
  c.strata = std::move(*strata);
  return c;
}

void ExpectIdenticalRelations(const Relation& actual, const Relation& expected,
                              const std::string& label) {
  ASSERT_EQ(actual.num_tuples(), expected.num_tuples()) << label;
  for (size_t row = 0; row < actual.num_tuples(); ++row) {
    EXPECT_EQ(actual.tuple(row).values(), expected.tuple(row).values())
        << label << " row=" << row;
    EXPECT_EQ(actual.tuple(row).CountPositive(),
              expected.tuple(row).CountPositive())
        << label << " row=" << row;
  }
}

TEST(StratifiedRepairTest, SequentialElisionIsByteIdentical) {
  StrataCase c = BuildStrataCase();

  Relation classic = c.dirty;
  ProvenanceLog classic_log;
  FastRepairer classic_repairer(c.kb, c.dirty.schema(), c.rules);
  ASSERT_TRUE(classic_repairer.Init().ok());
  classic_repairer.engine().set_provenance(&classic_log);
  classic_repairer.RepairRelation(&classic);
  EXPECT_EQ(classic_repairer.stats().rounds_skipped, 0u);

  Relation stratified = c.dirty;
  ProvenanceLog stratified_log;
  RepairOptions options;
  options.schedule = &c.strata.schedule;
  FastRepairer stratified_repairer(c.kb, c.dirty.schema(), c.rules, options);
  ASSERT_TRUE(stratified_repairer.Init().ok());
  stratified_repairer.engine().set_provenance(&stratified_log);
  stratified_repairer.RepairRelation(&stratified);

  ExpectIdenticalRelations(stratified, classic, "sequential");
  // Provenance identity is the strong form of "byte-identical": every cell
  // change carries the same rule, round number, and witness either way.
  EXPECT_EQ(stratified_log, classic_log);
  // The schedule must actually pay for itself: the refuted City <-> Country
  // cycle makes the classic confirming sweep provably futile on every tuple
  // where one of the demo pair fired.
  EXPECT_GT(stratified_repairer.stats().rounds_skipped, 0u);
  EXPECT_EQ(stratified_repairer.stats().rule_applications,
            classic_repairer.stats().rule_applications);
  EXPECT_LT(stratified_repairer.stats().rule_checks,
            classic_repairer.stats().rule_checks);
}

TEST(StratifiedRepairTest, ParallelStratifiedMatchesClassicSequential) {
  StrataCase c = BuildStrataCase();

  Relation classic = c.dirty;
  ProvenanceLog classic_log;
  FastRepairer repairer(c.kb, c.dirty.schema(), c.rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.engine().set_provenance(&classic_log);
  repairer.RepairRelation(&classic);

  for (size_t threads : {1u, 2u, 8u}) {
    Relation parallel = c.dirty;
    ProvenanceLog parallel_log;
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.provenance = &parallel_log;
    options.repair.schedule = &c.strata.schedule;
    auto stats = ParallelRepair(c.kb, c.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectIdenticalRelations(parallel, classic,
                             "threads=" + std::to_string(threads));
    EXPECT_EQ(parallel_log, classic_log) << "threads=" << threads;
    EXPECT_GT(stats->rounds_skipped, 0u) << "threads=" << threads;
  }
}

TEST(StratifiedRepairTest, ExampleRuleSetElidesOnTableI) {
  // The shipped showcase pair (examples/rules/nobel_strata.dr) against the
  // Fig. 1 KB and Table I: certified with two refuted-unification
  // separations, byte-identical output, sweeps elided.
  auto rules = ParseRulesFile(DETECTIVE_SOURCE_DIR
                              "/examples/rules/nobel_strata.dr");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  auto kb = LoadKbFile(DETECTIVE_SOURCE_DIR "/data/figure1.nt");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  auto table = Relation::FromCsvFile(DETECTIVE_SOURCE_DIR "/data/table1.csv");
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  auto strata = analysis::ComputeStratification(*rules, *kb);
  ASSERT_TRUE(strata.ok()) << strata.status().ToString();
  EXPECT_EQ(strata->pairs_refuted, 1u);
  EXPECT_EQ(strata->certificate.num_cyclic_strata(), 0u);

  Relation classic = *table;
  FastRepairer classic_repairer(*kb, table->schema(), *rules);
  ASSERT_TRUE(classic_repairer.Init().ok());
  classic_repairer.RepairRelation(&classic);

  Relation stratified = *table;
  RepairOptions options;
  options.schedule = &strata->schedule;
  FastRepairer stratified_repairer(*kb, table->schema(), *rules, options);
  ASSERT_TRUE(stratified_repairer.Init().ok());
  stratified_repairer.RepairRelation(&stratified);

  ExpectIdenticalRelations(stratified, classic, "table1");
  EXPECT_GT(stratified_repairer.stats().rounds_skipped, 0u);
}

#if DETECTIVE_FAULT_ENABLED
/// Arms a fault plan for one scope (the chaos_test idiom).
class ArmedPlan {
 public:
  explicit ArmedPlan(std::string_view spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    plan.status().Abort("ArmedPlan");
    fault::Injector::Global().Arm(*plan);
  }
  ~ArmedPlan() { fault::Injector::Global().Disarm(); }
};

// Under an armed PR 4 fault plan the guarded chase runs instead, elision
// self-disables (a skipped sweep would skip the fault probes inside
// Evaluate, which is observable), and the schedule must change nothing:
// same cells, same quarantine ledger, at every thread count.
TEST(StratifiedRepairTest, FaultPlanDisablesElisionButNotIdentity) {
  StrataCase c = BuildStrataCase(/*laureates=*/120);
  constexpr std::string_view kPlan = "seed=7; site=repair.tuple, p=0.5";

  Relation classic = c.dirty;
  QuarantineLog classic_quarantine;
  {
    ArmedPlan armed(kPlan);
    FastRepairer repairer(c.kb, c.dirty.schema(), c.rules);
    ASSERT_TRUE(repairer.Init().ok());
    testing::GuardedSequentialRepair(repairer, &classic, &classic_quarantine);
  }
  EXPECT_GT(classic_quarantine.size(), 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    Relation parallel = c.dirty;
    QuarantineLog parallel_quarantine;
    ArmedPlan armed(kPlan);
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.quarantine = &parallel_quarantine;
    options.repair.schedule = &c.strata.schedule;
    auto stats = ParallelRepair(c.kb, c.rules, &parallel, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectIdenticalRelations(parallel, classic,
                             "faulted threads=" + std::to_string(threads));
    EXPECT_EQ(parallel_quarantine, classic_quarantine)
        << "threads=" << threads;
    EXPECT_EQ(stats->rounds_skipped, 0u) << "threads=" << threads;
  }
}
#endif  // DETECTIVE_FAULT_ENABLED

}  // namespace
}  // namespace detective

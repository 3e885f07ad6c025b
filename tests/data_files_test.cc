// Keeps the shipped data/ files (the paper's running example as loadable
// artifacts) valid: they must parse, be mutually consistent, and repair
// Table I to its ground truth — the same guarantee the README quickstart
// relies on.

#include <gtest/gtest.h>

#include <fstream>

#include "core/consistency.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "test_fixtures.h"

namespace detective {
namespace {

// Tests run from the build tree; data/ lives at the repository root. The
// source dir baked in at configure time covers out-of-tree builds; the
// relative fallbacks keep direct binary invocation working from odd cwds.
std::string DataPath(const std::string& name) {
  for (const char* prefix : {
#ifdef DETECTIVE_SOURCE_DIR
           DETECTIVE_SOURCE_DIR "/data/",
#endif
           "../data/", "data/", "../../data/"}) {
    std::string candidate = prefix + name;
    if (std::ifstream(candidate).good()) return candidate;
  }
  return "data/" + name;
}

TEST(DataFilesTest, Figure1KbParses) {
  auto kb = LoadKbFile(DataPath("figure1.nt"));
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_EQ(kb->num_entities(), testing::BuildFigure1Kb().num_entities());
  EXPECT_EQ(kb->num_edges(), testing::BuildFigure1Kb().num_edges());
}

TEST(DataFilesTest, Figure4RulesParse) {
  auto rules = ParseRulesFile(DataPath("figure4.dr"));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 4u);
  // They are exactly the fixture rules.
  std::vector<DetectiveRule> expected = testing::BuildFigure4Rules();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*rules)[i], expected[i]) << expected[i].name();
  }
}

TEST(DataFilesTest, Table1Parses) {
  auto table = Relation::FromCsvFile(DataPath("table1.csv"));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_tuples(), 4u);
  EXPECT_EQ(table->schema(), testing::BuildTableI().schema());
}

TEST(DataFilesTest, ShippedArtifactsRepairTableI) {
  auto kb = LoadKbFile(DataPath("figure1.nt"));
  auto rules = ParseRulesFile(DataPath("figure4.dr"));
  auto table = Relation::FromCsvFile(DataPath("table1.csv"));
  ASSERT_TRUE(kb.ok() && rules.ok() && table.ok());

  auto report = CheckConsistency(*kb, *rules, *table);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent) << report->ToString();

  FastRepairer repairer(*kb, table->schema(), *rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&*table);
  Relation clean = testing::BuildTableIClean();
  for (size_t row = 0; row < table->num_tuples(); ++row) {
    EXPECT_EQ(table->tuple(row).values(), clean.tuple(row).values()) << row;
  }
}

}  // namespace
}  // namespace detective

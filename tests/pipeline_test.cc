// Pipeline-level regression tests:
//   - the evidence-normalization Church-Rosser regression (a two-error tuple
//     where a repair marks fuzzy-matched evidence must still converge to one
//     fixpoint under every rule order);
//   - the full file round trip: world -> KB -> N-Triples -> parse -> repair
//     must behave identically to repairing against the in-memory KB.

#include <gtest/gtest.h>

#include <fstream>

#include "core/consistency.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "datagen/nobel_gen.h"
#include "eval/metrics.h"
#include "kb/ntriples_parser.h"

namespace detective {
namespace {

TEST(NormalizationRegressionTest, RepairPathNormalizesFuzzyEvidence) {
  // A tuple with a semantic Country error AND a City typo. The country rule
  // (which uses City as fuzzy evidence) must normalize the typo when it
  // fires first, or the fixpoint depends on rule order.
  NobelOptions options;
  options.num_laureates = 50;
  Dataset dataset = GenerateNobel(options);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);

  Relation dirty{dataset.clean.schema()};
  size_t planted = 0;
  for (size_t row = 0; row < dataset.clean.num_tuples() && planted < 10; ++row) {
    if (dataset.alternatives[row][2].empty()) continue;
    Tuple t = dataset.clean.tuple(row);
    t.SetValue(2, dataset.alternatives[row][2][0]);  // semantic Country error
    std::string city = t.value(5);
    city[city.size() / 2] = city[city.size() / 2] == 'x' ? 'y' : 'x';  // typo
    t.SetValue(5, city);
    dirty.Append(std::move(t));
    ++planted;
  }
  ASSERT_GT(planted, 0u);

  // Every rule-application order must reach the same fixpoint.
  ConsistencyOptions copts;
  copts.max_orders = 120;
  auto report = CheckConsistency(kb, dataset.rules, dirty, copts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent) << report->ToString();
  EXPECT_TRUE(report->exhaustive);

  // And the fixpoint actually fixes both cells.
  FastRepairer repairer(kb, dirty.schema(), dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  Relation repaired = dirty;
  repairer.RepairRelation(&repaired);
  size_t both_fixed = 0;
  size_t checked = 0;
  for (size_t row = 0; row < repaired.num_tuples(); ++row) {
    // Identify the source row through the (unique) Name key.
    for (size_t src = 0; src < dataset.clean.num_tuples(); ++src) {
      if (dataset.clean.tuple(src).value(0) != repaired.tuple(row).value(0)) continue;
      ++checked;
      if (repaired.tuple(row).value(2) == dataset.clean.tuple(src).value(2) &&
          repaired.tuple(row).value(5) == dataset.clean.tuple(src).value(5)) {
        ++both_fixed;
      }
      break;
    }
  }
  EXPECT_EQ(checked, planted);
  // Coverage gaps can block individual repairs, but most must go through.
  EXPECT_GE(both_fixed * 2, planted);
}

TEST(NormalizationRegressionTest, MarkedCellsAlwaysHoldProvenValues) {
  // Invariant behind the fix: once a cell is marked positive, its value is a
  // KB label (never a typo'd spelling).
  NobelOptions options;
  options.num_laureates = 120;
  Dataset dataset = GenerateNobel(options);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.2;
  spec.typo_fraction = 0.8;
  InjectErrors(&dirty, spec, dataset.alternatives);

  FastRepairer repairer(kb, dirty.schema(), dataset.rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&dirty);
  for (size_t row = 0; row < dirty.num_tuples(); ++row) {
    const Tuple& tuple = dirty.tuple(row);
    for (ColumnIndex c = 0; c < tuple.size(); ++c) {
      if (!tuple.IsPositive(c)) continue;
      EXPECT_FALSE(kb.ItemsWithLabel(tuple.value(c)).empty())
          << "row " << row << " col " << c << " marked positive but '"
          << tuple.value(c) << "' is not a KB label";
    }
  }
}

class FilePipelineTest : public ::testing::Test {
 protected:
  static std::string WriteTemp(const std::string& name, const std::string& text) {
    std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
  }
};

TEST_F(FilePipelineTest, RepairThroughFilesMatchesInMemory) {
  NobelOptions options;
  options.num_laureates = 80;
  Dataset dataset = GenerateNobel(options);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.1;
  InjectErrors(&dirty, spec, dataset.alternatives);

  // Serialize everything, read it back.
  std::string kb_path = WriteTemp("pipeline_kb.nt", ToNTriples(kb));
  std::string rules_path = ::testing::TempDir() + "/pipeline_rules.dr";
  ASSERT_TRUE(WriteRulesFile(rules_path, dataset.rules).ok());
  std::string csv_path = ::testing::TempDir() + "/pipeline_dirty.csv";
  ASSERT_TRUE(dirty.ToCsvFile(csv_path).ok());

  auto kb2 = LoadKbFile(kb_path);
  ASSERT_TRUE(kb2.ok()) << kb2.status().ToString();
  auto rules2 = ParseRulesFile(rules_path);
  ASSERT_TRUE(rules2.ok()) << rules2.status().ToString();
  auto dirty2 = Relation::FromCsvFile(csv_path);
  ASSERT_TRUE(dirty2.ok()) << dirty2.status().ToString();

  // Repair via memory and via files; results must agree cell for cell.
  Relation via_memory = dirty;
  {
    FastRepairer repairer(kb, dirty.schema(), dataset.rules);
    ASSERT_TRUE(repairer.Init().ok());
    repairer.RepairRelation(&via_memory);
  }
  Relation via_files = *dirty2;
  {
    FastRepairer repairer(*kb2, dirty2->schema(), *rules2);
    ASSERT_TRUE(repairer.Init().ok());
    repairer.RepairRelation(&via_files);
  }
  ASSERT_EQ(via_files.num_tuples(), via_memory.num_tuples());
  for (size_t row = 0; row < via_memory.num_tuples(); ++row) {
    EXPECT_EQ(via_files.tuple(row).values(), via_memory.tuple(row).values())
        << "row " << row;
  }
}

TEST_F(FilePipelineTest, TsvKbPipelineWorksToo) {
  // Express the Fig. 1-style facts as TSV triples and repair a mini table.
  std::string tsv =
      "Avram_Hershko\trdf:type\tlaureate\n"
      "Avram_Hershko\tworksAt\tTechnion\n"
      "Avram_Hershko\twasBornIn\tKarcag\n"
      "Technion\trdf:type\torganization\n"
      "Technion\tlocatedIn\tHaifa\n"
      "Haifa\trdf:type\tcity\n"
      "Karcag\trdf:type\tcity\n";
  auto kb = ParseTsvTriples(tsv);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();

  auto rules = ParseRules(R"(
RULE city
NODE a col=Name type=laureate sim="="
NODE b col=Institution type=organization sim="ED,2"
POS  p col=City type=city sim="="
NEG  n col=City type=city sim="="
EDGE a worksAt b
EDGE b locatedIn p
EDGE a wasBornIn n
END
)");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  Relation table{Schema({"Name", "Institution", "City"})};
  ASSERT_TRUE(table.Append({"Avram Hershko", "Technion", "Karcag"}).ok());
  FastRepairer repairer(*kb, table.schema(), *rules);
  ASSERT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&table);
  EXPECT_EQ(table.tuple(0).value(2), "Haifa");
}

}  // namespace
}  // namespace detective

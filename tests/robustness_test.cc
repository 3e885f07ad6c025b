// Robustness ("fuzz-lite") tests: every parser must reject arbitrary input
// with a Status — never crash, never accept garbage silently — and parsing
// must be deterministic. Inputs are seeded random byte strings plus mutated
// valid documents.

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/fault.h"
#include "common/json_util.h"
#include "common/random.h"
#include "core/provenance.h"
#include "core/quarantine.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "kb/kb_stats.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"
#include "test_fixtures.h"
#include "text/similarity.h"

namespace detective {
namespace {

std::string RandomBytes(Rng* rng, size_t max_length, bool printable) {
  size_t length = rng->NextIndex(max_length + 1);
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (printable) {
      // Bias toward structural characters that stress the parsers.
      static constexpr char kAlphabet[] =
          "<>\"\\.,#=\n\t abcdefgRULENODEPOSEDGEXIST0123_:";
      out.push_back(kAlphabet[rng->NextIndex(sizeof(kAlphabet) - 1)]);
    } else {
      out.push_back(static_cast<char>(rng->NextUint64(256)));
    }
  }
  return out;
}

std::string Mutate(const std::string& input, Rng* rng, size_t mutations) {
  std::string out = input;
  for (size_t i = 0; i < mutations && !out.empty(); ++i) {
    size_t pos = rng->NextIndex(out.size());
    switch (rng->NextUint64(3)) {
      case 0:
        out[pos] = static_cast<char>(rng->NextUint64(256));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      default:
        out.insert(pos, 1, static_cast<char>(rng->NextUint64(256)));
        break;
    }
  }
  return out;
}

class ParserRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustness, CsvNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = RandomBytes(&rng, 200, trial % 2 == 0);
    auto result = ParseCsv(input);
    if (result.ok()) {
      // Accepted input must round-trip through the formatter.
      auto again = ParseCsv(FormatCsv(*result));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *result);
    }
  }
}

TEST_P(ParserRobustness, NTriplesNeverCrashes) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = RandomBytes(&rng, 200, trial % 2 == 0);
    (void)ParseNTriples(input);  // must return, OK or error
  }
}

TEST_P(ParserRobustness, TsvTriplesNeverCrashes) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 300; ++trial) {
    (void)ParseTsvTriples(RandomBytes(&rng, 200, trial % 2 == 0));
  }
}

TEST_P(ParserRobustness, RuleDslNeverCrashes) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 300; ++trial) {
    auto result = ParseRules(RandomBytes(&rng, 300, trial % 2 == 0));
    if (result.ok()) {
      // Anything accepted must be valid and format/parse round-trippable.
      for (const DetectiveRule& rule : *result) {
        EXPECT_TRUE(rule.Validate().ok());
      }
      EXPECT_TRUE(ParseRules(FormatRules(*result)).ok());
    }
  }
}

TEST_P(ParserRobustness, MutatedValidRulesNeverCrash) {
  Rng rng(GetParam() + 400);
  std::string valid = FormatRules(testing::BuildFigure4Rules());
  for (int trial = 0; trial < 300; ++trial) {
    (void)ParseRules(Mutate(valid, &rng, 1 + rng.NextIndex(8)));
  }
}

TEST_P(ParserRobustness, MutatedValidNTriplesNeverCrash) {
  Rng rng(GetParam() + 500);
  std::string valid = ToNTriples(testing::BuildFigure1Kb());
  for (int trial = 0; trial < 100; ++trial) {
    (void)ParseNTriples(Mutate(valid, &rng, 1 + rng.NextIndex(12)));
  }
}

TEST_P(ParserRobustness, KbSnapshotNeverCrashes) {
  Rng rng(GetParam() + 800);
  for (int trial = 0; trial < 300; ++trial) {
    (void)ParseKbSnapshot(RandomBytes(&rng, 512, false));
  }
}

TEST_P(ParserRobustness, MutatedValidKbSnapshotNeverCrashes) {
  Rng rng(GetParam() + 900);
  std::string valid = SerializeKbSnapshot(testing::BuildFigure1Kb());
  for (int trial = 0; trial < 200; ++trial) {
    auto result = ParseKbSnapshot(Mutate(valid, &rng, 1 + rng.NextIndex(16)));
    if (result.ok()) {
      // Anything that slipped past every validator must still be usable.
      (void)result->DebugSummary();
    }
  }
}

TEST_P(ParserRobustness, SimilarityParseNeverCrashes) {
  Rng rng(GetParam() + 600);
  for (int trial = 0; trial < 500; ++trial) {
    (void)Similarity::Parse(RandomBytes(&rng, 24, trial % 2 == 0));
  }
}

TEST_P(ParserRobustness, JsonCursorNeverCrashes) {
  Rng rng(GetParam() + 700);
  for (int trial = 0; trial < 500; ++trial) {
    // Drive the cursor the way the schema readers do; every method must
    // return a Status/Result on arbitrary bytes. The cursor views its
    // input, so the bytes must outlive it.
    const std::string bytes = RandomBytes(&rng, 100, trial % 2 == 0);
    JsonCursor cursor(bytes);
    if (cursor.TryConsume('{')) {
      while (true) {
        if (!cursor.TakeString().ok()) break;
        if (!cursor.Expect(':').ok()) break;
        if (!cursor.TakeUint().ok() && !cursor.TakeString().ok()) break;
        if (!cursor.TryConsume(',')) break;
      }
      (void)cursor.Expect('}');
    } else {
      (void)cursor.TakeString();
      (void)cursor.TakeUint();
    }
    (void)cursor.ExpectEnd();
  }
}

TEST_P(ParserRobustness, ProvenanceJsonLinesNeverCrash) {
  // A real provenance log from the paper's worked example, then mutated.
  KnowledgeBase kb = testing::BuildFigure1Kb();
  Relation table = testing::BuildTableI();
  ProvenanceLog log;
  FastRepairer repairer(kb, table.schema(), testing::BuildFigure4Rules());
  ASSERT_TRUE(repairer.Init().ok());
  repairer.engine().set_provenance(&log);
  repairer.RepairRelation(&table);
  std::string valid = log.ToJsonLines();
  ASSERT_FALSE(valid.empty());
  auto round = ProvenanceLog::FromJsonLines(valid);
  ASSERT_TRUE(round.ok()) << round.status().ToString();

  Rng rng(GetParam() + 800);
  for (int trial = 0; trial < 200; ++trial) {
    (void)ProvenanceLog::FromJsonLines(Mutate(valid, &rng, 1 + rng.NextIndex(8)));
    (void)ProvenanceLog::FromJsonLines(RandomBytes(&rng, 200, trial % 2 == 0));
  }
}

/// Checks ProvenanceLineScanner against RepairProvenance::FromJson on one
/// line: same acceptance, same error, same replay fields, and a verbatim
/// line must be exactly what ToJson() writes for its record. Returns
/// whether the scanner took the verbatim path.
bool ExpectScannerAgreesWithFromJson(const std::string& line) {
  ProvenanceLineScanner scanner;
  auto view = scanner.Scan(line);
  auto record = RepairProvenance::FromJson(line);
  EXPECT_EQ(view.ok(), record.ok()) << line;
  if (!view.ok() || !record.ok()) {
    if (!view.ok() && !record.ok()) {
      EXPECT_EQ(view.status().message(), record.status().message()) << line;
    }
    return false;
  }
  const ProvenanceLineView& v = **view;
  EXPECT_EQ(v.row, record->row) << line;
  EXPECT_EQ(v.column_index, record->column_index) << line;
  EXPECT_EQ(v.kind, record->kind) << line;
  EXPECT_EQ(v.new_value, record->new_value) << line;
  EXPECT_EQ(std::vector<std::string>(v.marked_columns.begin(),
                                     v.marked_columns.end()),
            record->marked_columns)
      << line;
  if (v.verbatim) {
    EXPECT_EQ(line, record->ToJson());
  }
  return v.verbatim;
}

TEST_P(ParserRobustness, ProvenanceLineScannerMatchesFromJson) {
  // Real lines from the paper's worked example, plus one whose strings hold
  // every escape AppendJsonString emits, raw non-ASCII bytes and a kb_item
  // at the integer limit.
  KnowledgeBase kb = testing::BuildFigure1Kb();
  Relation table = testing::BuildTableI();
  ProvenanceLog log;
  FastRepairer repairer(kb, table.schema(), testing::BuildFigure4Rules());
  ASSERT_TRUE(repairer.Init().ok());
  repairer.engine().set_provenance(&log);
  repairer.RepairRelation(&table);
  RepairProvenance escaped;
  escaped.row = 7;
  escaped.column_index = 4294967295u;
  escaped.column = "Ci\"ty";
  escaped.kind = ProvenanceKind::kNormalization;
  escaped.old_value = std::string("a\\b\n\x01\x1f\x7f", 8) + "\xc3\xa9";
  escaped.new_value = "q\"\\\t";
  escaped.bindings.push_back({"Name", "person", "x\ny", "X \"Y\"", UINT64_MAX});
  escaped.evidence_edges.push_back({"s\\", "r", "o\x02"});
  escaped.marked_columns = {"Ci\"ty", "Name"};
  log.Add(escaped);

  std::vector<std::string> lines;
  for (const RepairProvenance& record : log.records()) {
    lines.push_back(record.ToJson());
    EXPECT_TRUE(ExpectScannerAgreesWithFromJson(lines.back()))
        << "a ToJson() line must take the verbatim path: " << lines.back();
  }

  // Hand-made edits at the edges of the ToJson() form: each line either
  // fails both parsers or is accepted without the verbatim path.
  const std::string base = escaped.ToJson();
  const std::pair<std::string, std::string> edits[] = {
      {"{\"row\": 7", "{\"row\": 07"},
      {"4294967295", "4294967296"},
      {"4294967295", "18446744073709551616"},
      {"\\u000a", "\\u000A"},
      {"\\u0009", "\\t"},
      {"\"normalization\"", "\"normaliz\\u0061tion\""},
      {", \"rule\": ", ",\"rule\": "},
      {", \"rule\": ", ", \"rule\" : "},
      {"\"marked_columns\": [", "\"marked_columns\": [], \"marked_columns\": ["},
      {"{\"row\": 7, \"column_index\": 4294967295",
       "{\"column_index\": 4294967295, \"row\": 7"},
      {"]}", "], \"extra\": 1}"},
      {"]}", "]} "},
      {"]}", "]}\r"},
  };
  for (const auto& [from, to] : edits) {
    std::string line = base;
    const size_t at = line.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    line.replace(at, from.size(), to);
    EXPECT_FALSE(ExpectScannerAgreesWithFromJson(line)) << line;
  }

  // Byte mutations biased toward the grammar's structural characters.
  static constexpr char kAlphabet[] = "\"\\u0{}[],: \t\r01afx";
  Rng rng(GetParam() + 1100);
  size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string line = lines[rng.NextIndex(lines.size())];
    const size_t mutations = 1 + rng.NextIndex(3);
    for (size_t i = 0; i < mutations && !line.empty(); ++i) {
      const size_t pos = rng.NextIndex(line.size());
      const char c = rng.NextUint64(4) == 0
                         ? static_cast<char>(rng.NextUint64(256))
                         : kAlphabet[rng.NextIndex(sizeof(kAlphabet) - 1)];
      switch (rng.NextUint64(3)) {
        case 0:
          line[pos] = c;
          break;
        case 1:
          line.erase(pos, 1);
          break;
        default:
          line.insert(pos, 1, c);
          break;
      }
    }
    ExpectScannerAgreesWithFromJson(line);
    if (RepairProvenance::FromJson(line).ok()) ++accepted;
  }
  // The mutations must reach accepted-but-changed lines too, not only
  // rejections.
  EXPECT_GT(accepted, 0u);
}

TEST_P(ParserRobustness, FaultPlanParseNeverCrashes) {
  Rng rng(GetParam() + 900);
  std::string valid =
      "seed=7; site=kb.load, hit=1; site=kb.*, kind=latency, latency_ms=5, p=0.5";
  for (int trial = 0; trial < 500; ++trial) {
    (void)fault::FaultPlan::Parse(RandomBytes(&rng, 120, trial % 2 == 0));
    auto mutated = fault::FaultPlan::Parse(Mutate(valid, &rng, 1 + rng.NextIndex(6)));
    if (mutated.ok()) {
      // Anything accepted must round-trip through ToString.
      auto again = fault::FaultPlan::Parse(mutated->ToString());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *mutated);
    }
  }
}

TEST_P(ParserRobustness, QuarantineJsonLinesNeverCrash) {
  QuarantineLog log;
  log.Add({1, "phi1", "kb.lookup", CancelReason::kFault, 2, "injected"});
  log.Add({3, "", "", CancelReason::kRunDeadline, 0, ""});
  std::string valid = log.ToJsonLines();
  auto round = QuarantineLog::FromJsonLines(valid);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, log);

  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 300; ++trial) {
    (void)QuarantineLog::FromJsonLines(Mutate(valid, &rng, 1 + rng.NextIndex(8)));
    (void)QuarantineLog::FromJsonLines(RandomBytes(&rng, 200, trial % 2 == 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Values(1, 7, 42));

// ---- Resource-exhaustion limits ---------------------------------------------

TEST(ResourceLimitsTest, CsvFieldLimitRejectsOversizedFields) {
  CsvOptions options;
  options.max_field_bytes = 8;
  auto result = ParseCsv("a,bbbbbbbbbbbbbbbb\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("field limit"), std::string::npos);
  EXPECT_TRUE(ParseCsv("a,bbbb\n", options).ok());
  options.max_field_bytes = 0;  // 0 = unlimited
  EXPECT_TRUE(ParseCsv("a,bbbbbbbbbbbbbbbb\n", options).ok());
}

TEST(ResourceLimitsTest, CsvRowLimitRejectsOversizedFiles) {
  CsvOptions options;
  options.max_rows = 2;
  auto result = ParseCsv("a\nb\nc\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("row limit"), std::string::npos);
  EXPECT_TRUE(ParseCsv("a\nb\n", options).ok());
}

TEST(ResourceLimitsTest, KbLineLimitRejectsOversizedLines) {
  // One triple whose literal pushes the line past kMaxKbLineBytes must be
  // rejected with a descriptive error, in both triple formats.
  std::string huge(kMaxKbLineBytes + 16, 'x');
  auto nt = ParseNTriples("<s> <label> \"" + huge + "\" .\n");
  ASSERT_FALSE(nt.ok());
  EXPECT_NE(nt.status().ToString().find("line limit"), std::string::npos);

  auto tsv = ParseTsvTriples("s\tlabel\t\"" + huge + "\"\n");
  ASSERT_FALSE(tsv.ok());
  EXPECT_NE(tsv.status().ToString().find("line limit"), std::string::npos);

  // At the boundary everything still parses.
  EXPECT_TRUE(ParseNTriples("<s> <label> \"small\" .\n").ok());
  EXPECT_TRUE(ParseTsvTriples("s\tlabel\t\"small\"\n").ok());
}

TEST(ParserDeterminism, SameInputSameOutcome) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::string input = RandomBytes(&rng, 150, true);
    auto a = ParseRules(input);
    auto b = ParseRules(input);
    EXPECT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
  }
}

// ---- KbStats (exercised here since it feeds reports) -------------------------

TEST(KbStatsTest, CountsMatchTheKb) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  KbStats stats = ComputeKbStats(kb);
  EXPECT_EQ(stats.num_entities, kb.num_entities());
  EXPECT_EQ(stats.num_edges, kb.num_edges());
  EXPECT_EQ(stats.num_classes, kb.num_classes());
  EXPECT_EQ(stats.num_relations, kb.num_relations());
  EXPECT_GT(stats.mean_out_degree, 0.0);
  EXPECT_GE(stats.max_out_degree, 8u);  // each laureate has >= 8 out-edges

  // Relation edge counts must sum to the total edge count.
  size_t sum = 0;
  for (const auto& relation : stats.relations) sum += relation.edges;
  EXPECT_EQ(sum, stats.num_edges);

  // Classes are sorted by descending closure size.
  for (size_t i = 1; i < stats.classes.size(); ++i) {
    EXPECT_GE(stats.classes[i - 1].closure_instances,
              stats.classes[i].closure_instances);
  }
  EXPECT_NE(stats.ToString().find("top classes:"), std::string::npos);
}

TEST(KbStatsTest, EmptyKb) {
  KnowledgeBase kb = KbBuilder().Freeze();
  KbStats stats = ComputeKbStats(kb);
  EXPECT_EQ(stats.num_entities, 0u);
  EXPECT_EQ(stats.num_edges, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 0.0);
}

}  // namespace
}  // namespace detective

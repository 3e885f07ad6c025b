// Tests for core/incremental.h: the byte-identity contract (incremental
// re-clean of a delta == full re-clean of the delta-applied relation, for
// CSV, provenance, and quarantine, at every thread count, with and without
// an armed fault plan, including deltas that move cells to values other
// rows hold), the streamed splice over a log file, plus delta parsing and
// the documented rejections.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/incremental.h"
#include "core/parallel_repair.h"
#include "datagen/uis_gen.h"
#include "eval/experiment.h"
#include "test_fixtures.h"

namespace detective {
namespace {

/// Arms the global injector for one test body and always disarms on exit.
class ArmedPlan {
 public:
  explicit ArmedPlan(std::string_view spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) fault::Injector::Global().Arm(*plan);
  }
  ~ArmedPlan() { fault::Injector::Global().Disarm(); }
};

/// A small UIS world with injected errors: enough rows that a 2% delta and
/// its closure are a strict subset, small enough to chase many times.
struct World {
  Dataset dataset;
  Relation dirty;
  KnowledgeBase kb;

  World() : dataset(GenerateUis(MakeOptions())) {
    dirty = dataset.clean;
    ErrorSpec spec;
    spec.error_rate = 0.10;
    InjectErrors(&dirty, spec, dataset.alternatives);
    kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  }

  static UisOptions MakeOptions() {
    UisOptions options;
    options.num_tuples = 400;
    return options;
  }
};

/// Every 50th row gets a rewritten (row-unique) Name cell.
RelationDelta MakeDelta(const Relation& relation) {
  RelationDelta delta;
  const Schema& schema = relation.schema();
  for (size_t row = 0; row < relation.num_tuples(); row += 50) {
    DeltaChange change;
    change.row = row;
    for (ColumnIndex c = 0; c < schema.num_columns(); ++c) {
      change.values.push_back(std::string(relation.value(row, c)));
    }
    change.values[0] = "Delta Person " + std::to_string(row);
    delta.changes.push_back(std::move(change));
    ++delta.num_updates;
  }
  return delta;
}

/// Every 40th row moves City, State and Zip to the values three other rows
/// hold, so every changed value is shared with rows the delta leaves alone.
/// Per-tuple independence (§V) says those rows still replay unchanged.
RelationDelta MakeSharedValueDelta(const Relation& relation) {
  RelationDelta delta;
  const Schema& schema = relation.schema();
  const size_t rows = relation.num_tuples();
  const struct {
    const char* column;
    size_t offset;
  } moves[] = {{"City", 7}, {"State", 13}, {"Zip", 29}};
  for (size_t row = 3; row < rows; row += 40) {
    DeltaChange change;
    change.row = row;
    for (ColumnIndex c = 0; c < schema.num_columns(); ++c) {
      change.values.push_back(std::string(relation.value(row, c)));
    }
    for (const auto& move : moves) {
      const ColumnIndex c = schema.FindColumn(move.column);
      EXPECT_NE(c, kInvalidColumn) << move.column;
      change.values[c] = std::string(relation.value((row + move.offset) % rows, c));
    }
    delta.changes.push_back(std::move(change));
    ++delta.num_updates;
  }
  return delta;
}

struct RunLogs {
  Relation relation;
  ProvenanceLog provenance;
  QuarantineLog quarantine;

  explicit RunLogs(Relation r) : relation(std::move(r)) {}
};

/// Full clean of `input` through the parallel driver.
RunLogs FullClean(const World& world, const Relation& input, size_t threads,
                  bool guarded) {
  RunLogs run(input);
  ParallelRepairOptions options;
  options.num_threads = threads;
  options.provenance = &run.provenance;
  options.quarantine = guarded ? &run.quarantine : nullptr;
  auto stats = ParallelRepair(world.kb, world.dataset.rules, &run.relation,
                              options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return run;
}

/// Incremental re-clean of `input` + `delta`, replaying `prev`'s logs.
RunLogs Incremental(const World& world, const Relation& input,
                    const RelationDelta& delta, const RunLogs& prev,
                    size_t threads, bool guarded) {
  RunLogs run(input);
  auto plan = PlanIncremental(delta, &run.relation, prev.provenance,
                              guarded ? &prev.quarantine : nullptr);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  IncrementalOptions options;
  options.num_threads = threads;
  options.provenance = &run.provenance;
  options.quarantine = guarded ? &run.quarantine : nullptr;
  ProvenanceLog prev_provenance = prev.provenance;  // consumed by the call
  auto stats = IncrementalRepair(world.kb, world.dataset.rules, &run.relation,
                                 *plan, std::move(prev_provenance),
                                 guarded ? &prev.quarantine : nullptr, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok()) {
    EXPECT_EQ(stats->rows_rechased, plan->affected_rows.size());
    EXPECT_EQ(stats->rows_rechased + stats->rows_replayed,
              run.relation.num_tuples());
  }
  return run;
}

Relation ApplyDelta(const Relation& relation, const RelationDelta& delta) {
  Relation out = relation;
  for (const DeltaChange& change : delta.changes) {
    if (change.insert) {
      EXPECT_TRUE(out.Append(change.values).ok());
      continue;
    }
    for (ColumnIndex c = 0; c < out.schema().num_columns(); ++c) {
      out.SetValue(change.row, c, change.values[c]);
    }
  }
  return out;
}

void ExpectByteIdentity(const RunLogs& full, const RunLogs& incremental) {
  EXPECT_EQ(full.relation.ToCsv(), incremental.relation.ToCsv());
  EXPECT_EQ(full.provenance.ToJsonLines(), incremental.provenance.ToJsonLines());
  EXPECT_EQ(full.quarantine.ToJsonLines(), incremental.quarantine.ToJsonLines());
}

// ---- Byte-identity at every thread count ------------------------------------

TEST(IncrementalByteIdentityTest, MatchesFullRecleanAcrossThreadCounts) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, /*guarded=*/false);
  RelationDelta delta = MakeDelta(world.dirty);
  Relation delta_applied = ApplyDelta(world.dirty, delta);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    RunLogs full = FullClean(world, delta_applied, threads, false);
    RunLogs inc =
        Incremental(world, world.dirty, delta, first, threads, false);
    ExpectByteIdentity(full, inc);
  }
}

TEST(IncrementalByteIdentityTest, HoldsUnderAnArmedFaultPlan) {
  // The per-tuple fault scope keys off the row index, so a quarantining
  // plan fires identically under a full re-clean and an incremental one —
  // including for the previously quarantined rows the plan re-chases.
  constexpr std::string_view kPlan = "seed=11; site=repair.tuple, p=0.1";
  World world;
  RelationDelta delta = MakeDelta(world.dirty);
  Relation delta_applied = ApplyDelta(world.dirty, delta);

  RunLogs first(world.dirty);
  {
    ArmedPlan armed(kPlan);
    first = FullClean(world, world.dirty, 1, /*guarded=*/true);
  }
  EXPECT_FALSE(first.quarantine.empty()) << "fault plan quarantined nothing";
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ArmedPlan armed(kPlan);
    RunLogs full = FullClean(world, delta_applied, threads, true);
    RunLogs inc = Incremental(world, world.dirty, delta, first, threads, true);
    ExpectByteIdentity(full, inc);
  }
}

TEST(IncrementalByteIdentityTest, InsertsAreChasedAsNewRows) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  RelationDelta delta;
  DeltaChange insert;
  insert.insert = true;
  for (ColumnIndex c = 0; c < world.dirty.schema().num_columns(); ++c) {
    insert.values.push_back(std::string(world.dirty.value(3, c)));
  }
  delta.changes.push_back(insert);
  ++delta.num_inserts;
  Relation delta_applied = ApplyDelta(world.dirty, delta);
  RunLogs full = FullClean(world, delta_applied, 1, false);
  RunLogs inc = Incremental(world, world.dirty, delta, first, 1, false);
  EXPECT_EQ(inc.relation.num_tuples(), world.dirty.num_tuples() + 1);
  ExpectByteIdentity(full, inc);
}

TEST(IncrementalByteIdentityTest, SharedValueDeltasMatchFullReclean) {
  constexpr std::string_view kPlan = "seed=11; site=repair.tuple, p=0.1";
  World world;
  RelationDelta delta = MakeSharedValueDelta(world.dirty);
  Relation delta_applied = ApplyDelta(world.dirty, delta);
  for (const bool guarded : {false, true}) {
    RunLogs first(world.dirty);
    {
      std::optional<ArmedPlan> armed;
      if (guarded) armed.emplace(kPlan);
      first = FullClean(world, world.dirty, 1, guarded);
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << "guarded=" << guarded
                                      << " threads=" << threads);
      std::optional<ArmedPlan> armed;
      if (guarded) armed.emplace(kPlan);
      RunLogs full = FullClean(world, delta_applied, threads, guarded);
      RunLogs inc =
          Incremental(world, world.dirty, delta, first, threads, guarded);
      ExpectByteIdentity(full, inc);
      EXPECT_NE(full.provenance.ToJsonLines(), first.provenance.ToJsonLines())
          << "the delta changed no provenance";
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(IncrementalStreamTest, StreamedSpliceMatchesFullReclean) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  const std::string prev_path = ::testing::TempDir() + "/inc_stream_prev.jsonl";
  const std::string out_path = ::testing::TempDir() + "/inc_stream_out.jsonl";
  ASSERT_TRUE(first.provenance.WriteJsonLines(prev_path).ok());
  RelationDelta delta = MakeSharedValueDelta(world.dirty);
  RunLogs full = FullClean(world, ApplyDelta(world.dirty, delta), 2, false);

  Relation relation = world.dirty;
  auto plan = PlanIncremental(delta, &relation, ProvenanceLog(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->affected_rows.size(), delta.changes.size());
  ProvenanceFileReader reader;
  ASSERT_TRUE(reader.Open(prev_path).ok());
  ProvenanceWriter writer;
  ASSERT_TRUE(writer.Open(out_path).ok());
  IncrementalOptions options;
  options.num_threads = 2;
  auto stats = IncrementalRepair(world.kb, world.dataset.rules, &relation,
                                 *plan, &reader, nullptr, options, &writer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(reader.records(), first.provenance.size());
  EXPECT_EQ(full.relation.ToCsv(), relation.ToCsv());
  EXPECT_EQ(full.provenance.ToJsonLines(), ReadFile(out_path));
  EXPECT_EQ(writer.lines(), full.provenance.size());
}

TEST(IncrementalStreamTest, RowsGoingBackwardsAreRejected) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  std::vector<RepairProvenance> records = first.provenance.records();
  ASSERT_GT(records.size(), 2u);
  ASSERT_LT(records.front().row, records.back().row);
  std::swap(records.front(), records.back());
  ProvenanceLog unsorted;
  for (RepairProvenance& record : records) unsorted.Add(std::move(record));

  // In memory: the record is named by its position.
  Relation relation = world.dirty;
  auto plan = PlanIncremental(RelationDelta{}, &relation, ProvenanceLog(),
                              nullptr);
  ASSERT_TRUE(plan.ok());
  auto stats = IncrementalRepair(world.kb, world.dataset.rules, &relation,
                                 *plan, unsorted, nullptr, IncrementalOptions{});
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("previous provenance record 2"),
            std::string::npos)
      << stats.status().ToString();

  // Streamed: the line is named, and the reader keeps the failure.
  const std::string path = ::testing::TempDir() + "/inc_backwards.jsonl";
  ASSERT_TRUE(unsorted.WriteJsonLines(path).ok());
  Relation streamed = world.dirty;
  ProvenanceFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  auto streamed_stats =
      IncrementalRepair(world.kb, world.dataset.rules, &streamed, *plan,
                        &reader, nullptr, IncrementalOptions{}, nullptr);
  ASSERT_FALSE(streamed_stats.ok());
  EXPECT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("provenance JSONL line 2: row"),
            std::string::npos)
      << reader.status().ToString();
}

// ---- Plan construction -------------------------------------------------------

TEST(IncrementalPlanTest, EmptyDeltaAffectsNothing) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  Relation relation = world.dirty;
  auto plan = PlanIncremental(RelationDelta{}, &relation, first.provenance,
                              nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->affected_rows.empty());
  EXPECT_EQ(plan->delta_rows, 0u);
}

TEST(IncrementalPlanTest, OutOfRangeUpdateIsRejected) {
  World world;
  Relation relation = world.dirty;
  RelationDelta delta;
  DeltaChange change;
  change.row = relation.num_tuples() + 5;
  change.values.assign(relation.schema().num_columns(), "x");
  delta.changes.push_back(change);
  ++delta.num_updates;
  auto plan = PlanIncremental(delta, &relation, ProvenanceLog(), nullptr);
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST(IncrementalPlanTest, PreviouslyQuarantinedRowsAreRechased) {
  World world;
  RunLogs first(world.dirty);
  {
    ArmedPlan armed("seed=11; site=repair.tuple, p=0.1");
    first = FullClean(world, world.dirty, 1, true);
  }
  ASSERT_FALSE(first.quarantine.empty());
  Relation relation = world.dirty;
  auto plan = PlanIncremental(RelationDelta{}, &relation, first.provenance,
                              &first.quarantine);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->quarantined_rows, plan->affected_rows.size());
  EXPECT_GT(plan->quarantined_rows, 0u);
}

// ---- Documented rejections ---------------------------------------------------

TEST(IncrementalRejectionTest, CircuitBreakerAndDeadlineAreRejected) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  RelationDelta delta = MakeDelta(world.dirty);
  for (const bool breaker : {true, false}) {
    Relation relation = world.dirty;
    auto plan = PlanIncremental(delta, &relation, first.provenance, nullptr);
    ASSERT_TRUE(plan.ok());
    IncrementalOptions options;
    if (breaker) {
      options.repair.max_rule_failures = 3;
    } else {
      options.repair.deadline_ms = 1000;
    }
    auto stats =
        IncrementalRepair(world.kb, world.dataset.rules, &relation, *plan,
                          ProvenanceLog(first.provenance), nullptr, options);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsInvalidArgument());
  }
}

TEST(IncrementalRejectionTest, PlanRelationMismatchIsRejected) {
  World world;
  RunLogs first = FullClean(world, world.dirty, 1, false);
  Relation relation = world.dirty;
  auto plan = PlanIncremental(RelationDelta{}, &relation, first.provenance,
                              nullptr);
  ASSERT_TRUE(plan.ok());
  IncrementalPlan truncated = *plan;
  truncated.is_affected.pop_back();
  auto stats = IncrementalRepair(world.kb, world.dataset.rules, &relation,
                                 truncated, ProvenanceLog(first.provenance),
                                 nullptr, IncrementalOptions{});
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

// ---- Delta CSV parsing -------------------------------------------------------

Schema UisSchema() {
  return Schema({"Name", "University", "City", "State", "Zip"});
}

TEST(DeltaCsvTest, ParsesUpdatesAndInserts) {
  auto delta = ParseDeltaCsv(
      "row,Name,University,City,State,Zip\n"
      "4,Ada Lovelace,Technion,Haifa,HA,31000\n"
      ",New Person,MIT,Cambridge,MA,02139\n",
      UisSchema());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->num_updates, 1u);
  EXPECT_EQ(delta->num_inserts, 1u);
  ASSERT_EQ(delta->changes.size(), 2u);
  EXPECT_EQ(delta->changes[0].row, 4u);
  EXPECT_FALSE(delta->changes[0].insert);
  EXPECT_TRUE(delta->changes[1].insert);
  EXPECT_EQ(delta->changes[1].values[0], "New Person");
}

TEST(DeltaCsvTest, RejectsMissingRowHeader) {
  auto delta = ParseDeltaCsv("Name,University,City,State,Zip\n", UisSchema());
  ASSERT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsParseError());
}

TEST(DeltaCsvTest, RejectsSchemaMismatch) {
  auto delta = ParseDeltaCsv("row,Name,College\n1,a,b\n", UisSchema());
  ASSERT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsParseError());
}

TEST(DeltaCsvTest, RejectsShortRecordAndBadRowIndex) {
  const Schema schema = UisSchema();
  auto short_record = ParseDeltaCsv(
      "row,Name,University,City,State,Zip\n1,only-two\n", schema);
  ASSERT_FALSE(short_record.ok());
  EXPECT_TRUE(short_record.status().IsParseError());

  auto bad_row = ParseDeltaCsv(
      "row,Name,University,City,State,Zip\nxyz,a,b,c,d,e\n", schema);
  ASSERT_FALSE(bad_row.ok());
  EXPECT_TRUE(bad_row.status().IsParseError());
}

TEST(DeltaCsvTest, RejectsEmptyInput) {
  auto delta = ParseDeltaCsv("", UisSchema());
  ASSERT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsParseError());
}

}  // namespace
}  // namespace detective

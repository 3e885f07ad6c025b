#include "core/incremental.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/parallel_repair.h"

namespace detective {
Result<RelationDelta> ParseDeltaCsv(std::string_view text, const Schema& schema) {
  ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty()) {
    return Status::ParseError("delta CSV is empty (expected a header row)");
  }
  const std::vector<std::string>& header = rows.front();
  if (header.empty() || header.front() != "row") {
    return Status::ParseError(
        "delta CSV header must start with a 'row' column, got '",
        header.empty() ? std::string() : header.front(), "'");
  }
  if (header.size() != schema.num_columns() + 1) {
    return Status::ParseError("delta CSV header has ", header.size() - 1,
                              " data column(s); the relation schema has ",
                              schema.num_columns());
  }
  for (ColumnIndex c = 0; c < schema.num_columns(); ++c) {
    if (header[c + 1] != schema.column_name(c)) {
      return Status::ParseError("delta CSV column ", c + 1, " is '",
                                header[c + 1], "'; the relation schema expects '",
                                schema.column_name(c), "'");
    }
  }

  RelationDelta delta;
  delta.changes.reserve(rows.size() - 1);
  for (size_t i = 1; i < rows.size(); ++i) {
    const std::vector<std::string>& record = rows[i];
    if (record.size() != header.size()) {
      return Status::ParseError("delta CSV record ", i, " has ", record.size(),
                                " field(s), expected ", header.size());
    }
    DeltaChange change;
    change.values.assign(record.begin() + 1, record.end());
    if (record.front().empty()) {
      change.insert = true;
      ++delta.num_inserts;
    } else {
      uint64_t row = 0;
      if (!ParseUint64(record.front(), &row)) {
        return Status::ParseError("delta CSV record ", i,
                                  " has a non-numeric row index '",
                                  record.front(), "'");
      }
      change.row = static_cast<size_t>(row);
      ++delta.num_updates;
    }
    delta.changes.push_back(std::move(change));
  }
  return delta;
}

Result<RelationDelta> LoadDeltaFile(const std::string& path, const Schema& schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open delta file '", path, "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("error reading delta file '", path, "'");
  }
  return ParseDeltaCsv(buffer.str(), schema);
}

Result<IncrementalPlan> PlanIncremental(const RelationDelta& delta,
                                        Relation* relation,
                                        const ProvenanceLog& /*prev_provenance*/,
                                        const QuarantineLog* prev_quarantine) {
  DETECTIVE_SCOPED_TIMER("incremental.plan");
  const size_t pre_delta_rows = relation->num_tuples();
  const size_t num_columns = relation->schema().num_columns();

  std::vector<char> is_affected(pre_delta_rows, 0);
  size_t delta_rows = 0;
  for (const DeltaChange& change : delta.changes) {
    if (change.insert) {
      RETURN_NOT_OK(relation->Append(change.values));
      is_affected.push_back(1);
      ++delta_rows;
      continue;
    }
    if (change.row >= pre_delta_rows) {
      return Status::InvalidArgument("delta updates row ", change.row,
                                     " but the relation has only ",
                                     pre_delta_rows, " row(s)");
    }
    for (ColumnIndex c = 0; c < num_columns; ++c) {
      if (relation->value(change.row, c) != change.values[c]) {
        relation->SetValue(change.row, c, change.values[c]);
      }
    }
    if (is_affected[change.row] == 0) {
      is_affected[change.row] = 1;
      ++delta_rows;
    }
  }

  // Previously quarantined rows re-chase so their ledger records regenerate
  // (deterministically, under the same fault plan) instead of replaying.
  size_t quarantined_rows = 0;
  if (prev_quarantine != nullptr) {
    for (uint64_t row : prev_quarantine->Rows()) {
      if (row >= is_affected.size() || is_affected[row] != 0) continue;
      is_affected[static_cast<size_t>(row)] = 1;
      ++quarantined_rows;
    }
  }

  IncrementalPlan plan;
  plan.is_affected = std::move(is_affected);
  plan.delta_rows = delta_rows;
  plan.quarantined_rows = quarantined_rows;
  for (size_t row = 0; row < plan.is_affected.size(); ++row) {
    if (plan.is_affected[row] != 0) plan.affected_rows.push_back(row);
  }
  DETECTIVE_COUNT_N("incremental.rows_affected", plan.affected_rows.size());
  return plan;
}

namespace {

/// The one replay-and-splice pass over a previous log, shared by the
/// in-memory log and the streamed file. Records arrive in log order, sorted
/// by row. A record of an unaffected row is replayed onto the relation, and
/// the caller copies it to the output; a record of an affected row is
/// dropped, and that row's fresh records take its place in row order. The
/// merged log therefore equals a full re-clean's, byte for byte.
class Splice {
 public:
  Splice(Relation* relation, const IncrementalPlan& plan,
         std::vector<RepairProvenance> fresh, IncrementalStats* stats)
      : relation_(relation), plan_(plan), fresh_(std::move(fresh)),
        stats_(stats) {}

  /// Replays `record` (a RepairProvenance or a ProvenanceLineView) and
  /// returns whether its row is replayed, after handing `emit` every fresh
  /// record of an earlier row.
  template <typename Record, typename Emit>
  Result<bool> Visit(const Record& record, Emit&& emit) {
    EmitFreshBefore(record.row, emit);
    const size_t num_rows = relation_->num_tuples();
    if (record.row >= num_rows) return false;
    const auto row = static_cast<size_t>(record.row);
    if (plan_.is_affected[row] != 0) return false;
    const Schema& schema = relation_->schema();
    if (record.column_index >= schema.num_columns()) {
      return Status::InvalidArgument(
          "previous provenance record for row ", row, " names column index ",
          record.column_index, "; the relation has ", schema.num_columns(),
          " column(s) (wrong --prev-provenance file?)");
    }
    // Repairs and normalizations rewrite the cell; proofs only mark.
    if (record.kind != ProvenanceKind::kProofPositive) {
      relation_->RepairCell(row, record.column_index, record.new_value);
    }
    for (const auto& marked : record.marked_columns) {
      const ColumnIndex c = schema.FindColumn(marked);
      if (c != kInvalidColumn) relation_->MarkPositive(row, c);
    }
    ++stats_->replayed_records;
    return true;
  }

  size_t fresh_records() const { return fresh_.size(); }

  /// Hands `emit` the fresh records after the last previous record.
  template <typename Emit>
  void Finish(Emit&& emit) {
    EmitFreshBefore(UINT64_MAX, emit);
  }

 private:
  template <typename Emit>
  void EmitFreshBefore(uint64_t row, Emit& emit) {
    while (next_fresh_ < fresh_.size() && fresh_[next_fresh_].row < row) {
      emit(fresh_[next_fresh_++]);
    }
  }

  Relation* relation_;
  const IncrementalPlan& plan_;
  std::vector<RepairProvenance> fresh_;  // row-sorted, affected rows only
  size_t next_fresh_ = 0;
  IncrementalStats* stats_;
};

/// Re-chases the plan's affected rows, then runs `splice_previous` (the
/// pass over the previous provenance log) and merges the quarantine
/// ledgers. `capture` says whether the caller keeps provenance.
template <typename SplicePrevious>
Result<IncrementalStats> RechaseAndSplice(
    const KnowledgeBase& kb, const std::vector<DetectiveRule>& rules,
    Relation* relation, const IncrementalPlan& plan,
    const QuarantineLog* prev_quarantine, const IncrementalOptions& options,
    bool capture, SplicePrevious&& splice_previous) {
  DETECTIVE_SCOPED_TIMER("incremental.repair");
  DETECTIVE_TRACE_SPAN(
      "incremental.repair",
      {"rechased", static_cast<int64_t>(plan.affected_rows.size())});
  if (options.repair.max_rule_failures > 0) {
    return Status::InvalidArgument(
        "incremental repair cannot run with a rule circuit breaker "
        "(--max-rule-failures couples rows across the whole run)");
  }
  if (options.repair.deadline_ms > 0) {
    return Status::InvalidArgument(
        "incremental repair cannot run under a whole-run deadline "
        "(--deadline-ms quarantines by wall clock, not per row)");
  }
  const size_t num_rows = relation->num_tuples();
  if (plan.is_affected.size() != num_rows) {
    return Status::InvalidArgument("incremental plan covers ",
                                   plan.is_affected.size(),
                                   " row(s) but the relation has ", num_rows);
  }

  IncrementalStats stats;
  stats.rows_rechased = plan.affected_rows.size();
  stats.rows_replayed = num_rows - plan.affected_rows.size();

  // Re-chase the affected subset through the shared driver, with original
  // row indexes keying fault scopes and provenance rows. Its logs come out
  // sorted by row.
  ProvenanceLog fresh_provenance;
  QuarantineLog fresh_quarantine;
  {
    ParallelRepairOptions parallel_options;
    parallel_options.repair = options.repair;
    parallel_options.num_threads = options.num_threads;
    parallel_options.provenance = capture ? &fresh_provenance : nullptr;
    parallel_options.quarantine =
        options.quarantine != nullptr ? &fresh_quarantine : nullptr;
    parallel_options.row_subset = &plan.affected_rows;
    parallel_options.plan = options.plan;
    ASSIGN_OR_RETURN(stats.repair,
                     ParallelRepair(kb, rules, relation, parallel_options));
  }

  {
    DETECTIVE_SCOPED_TIMER("incremental.replay");
    Splice splice(relation, plan, fresh_provenance.TakeRecords(), &stats);
    RETURN_NOT_OK(splice_previous(splice));
  }

  if (options.quarantine != nullptr) {
    // Each row's records come from one ledger: the previous one for
    // replayed rows, the re-chase's for affected rows.
    std::vector<QuarantineRecord> merged;
    if (prev_quarantine != nullptr) {
      for (const QuarantineRecord& record : prev_quarantine->records()) {
        if (record.row < num_rows &&
            plan.is_affected[static_cast<size_t>(record.row)] == 0) {
          merged.push_back(record);
        }
      }
    }
    for (QuarantineRecord& record : fresh_quarantine.mutable_records()) {
      merged.push_back(std::move(record));
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const QuarantineRecord& a, const QuarantineRecord& b) {
                       return a.row < b.row;
                     });
    for (QuarantineRecord& record : merged) {
      options.quarantine->Add(std::move(record));
    }
  }
  DETECTIVE_COUNT_N("incremental.rows_replayed", stats.rows_replayed);
  DETECTIVE_COUNT_N("incremental.records_replayed", stats.replayed_records);
  return stats;
}

}  // namespace

Result<IncrementalStats> IncrementalRepair(
    const KnowledgeBase& kb, const std::vector<DetectiveRule>& rules,
    Relation* relation, const IncrementalPlan& plan,
    ProvenanceLog prev_provenance, const QuarantineLog* prev_quarantine,
    const IncrementalOptions& options) {
  ProvenanceLog* sink = options.provenance;
  auto emit = [sink](RepairProvenance& record) {
    if (sink != nullptr) sink->Add(std::move(record));
  };
  return RechaseAndSplice(
      kb, rules, relation, plan, prev_quarantine, options, sink != nullptr,
      [&](Splice& splice) -> Status {
        std::vector<RepairProvenance> prev = prev_provenance.TakeRecords();
        if (sink != nullptr) {
          sink->Reserve(sink->size() + prev.size() + splice.fresh_records());
        }
        for (size_t i = 0; i < prev.size(); ++i) {
          if (i > 0 && prev[i].row < prev[i - 1].row) {
            return Status::InvalidArgument(
                "previous provenance record ", i + 1, ": row ", prev[i].row,
                " comes after row ", prev[i - 1].row,
                "; the log must be sorted by row");
          }
          ASSIGN_OR_RETURN(bool replayed, splice.Visit(prev[i], emit));
          if (replayed) emit(prev[i]);
        }
        splice.Finish(emit);
        return Status::OK();
      });
}

Result<IncrementalStats> IncrementalRepair(
    const KnowledgeBase& kb, const std::vector<DetectiveRule>& rules,
    Relation* relation, const IncrementalPlan& plan,
    ProvenanceFileReader* prev_provenance, const QuarantineLog* prev_quarantine,
    const IncrementalOptions& options, ProvenanceWriter* provenance_out) {
  if (options.provenance != nullptr) {
    return Status::InvalidArgument(
        "a streamed incremental repair writes provenance to its writer, "
        "not to IncrementalOptions::provenance");
  }
  auto emit = [provenance_out](const RepairProvenance& record) {
    if (provenance_out != nullptr) provenance_out->Append(record);
  };
  return RechaseAndSplice(
      kb, rules, relation, plan, prev_quarantine, options,
      provenance_out != nullptr, [&](Splice& splice) -> Status {
        DETECTIVE_TRACE_NAMED_SPAN(span, "incremental.splice");
        while (true) {
          ASSIGN_OR_RETURN(bool more, prev_provenance->Next());
          if (!more) break;
          const ProvenanceLineView& view = prev_provenance->view();
          ASSIGN_OR_RETURN(bool replayed, splice.Visit(view, emit));
          if (!replayed || provenance_out == nullptr) continue;
          if (view.verbatim) {
            provenance_out->AppendLine(prev_provenance->line());
          } else {
            provenance_out->Append(prev_provenance->parsed());
          }
        }
        splice.Finish(emit);
        span.SetArgs(
            {"bytes", static_cast<int64_t>(prev_provenance->bytes_read())},
            {"lines", static_cast<int64_t>(prev_provenance->records())});
        return Status::OK();
      });
}

}  // namespace detective

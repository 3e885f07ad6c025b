#include "core/incremental.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/parallel_repair.h"

namespace detective {
namespace {

/// Bucketing of log records by row, preserving in-row order; what the merge
/// steps below walk in ascending row order. Pointer constness follows the
/// container's: buckets over a mutable log can move records out of it.
template <typename Records>
auto BucketByRow(Records& records, size_t num_rows) {
  using Ptr = decltype(&records.front());
  std::vector<std::vector<Ptr>> buckets(num_rows);
  for (auto& record : records) {
    if (record.row < num_rows) {
      buckets[static_cast<size_t>(record.row)].push_back(&record);
    }
  }
  return buckets;
}

/// Cheap 16-bit signature of a value: length (6 bits, saturating) plus the
/// low bits of the first and last byte. The plan's overlap scan tests a
/// 64Kbit bitmap of the delta's changed-value signatures before paying for
/// a full hash lookup — the scan touches every string of every provenance
/// record, and almost none of them match.
uint16_t ValueSignature(std::string_view value) {
  const unsigned first = value.empty() ? 0u : (unsigned char)value.front();
  const unsigned last = value.empty() ? 0u : (unsigned char)value.back();
  return static_cast<uint16_t>((std::min<size_t>(value.size(), 63)) |
                               ((first & 31u) << 6) | ((last & 31u) << 11));
}

class SignatureFilter {
 public:
  explicit SignatureFilter(const std::unordered_set<std::string>& values)
      : bits_(1024, 0) {
    for (const std::string& value : values) {
      const uint16_t sig = ValueSignature(value);
      bits_[sig >> 6] |= uint64_t{1} << (sig & 63);
    }
  }

  bool MayContain(std::string_view value) const {
    const uint16_t sig = ValueSignature(value);
    return ((bits_[sig >> 6] >> (sig & 63)) & 1) != 0;
  }

 private:
  std::vector<uint64_t> bits_;
};

}  // namespace

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
                                        const ProvenanceLog& prev_provenance,
                                        const QuarantineLog* prev_quarantine) {
  DETECTIVE_SCOPED_TIMER("incremental.plan");
  const size_t pre_delta_rows = relation->num_tuples();
  const size_t num_columns = relation->schema().num_columns();

  // Apply the delta, collecting the values its updates touched (both the
  // replaced and the replacing content) — the overlap keys of the closure.
  std::unordered_set<std::string> changed_values;
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
      std::string_view old_value = relation->value(change.row, c);
      if (old_value == change.values[c]) continue;
      changed_values.insert(std::string(old_value));
      changed_values.insert(change.values[c]);
      relation->SetValue(change.row, c, change.values[c]);
    }
    if (is_affected[change.row] == 0) {
      is_affected[change.row] = 1;
      ++delta_rows;
    }
  }

  // Evidence/cell-overlap closure: re-chase any row whose previous repairs
  // cite a value the delta changed. Redundant under per-tuple independence,
  // but cheap, and it keeps the byte-identity promise robust by
  // construction rather than by argument.
  size_t closure_rows = 0;
  if (!changed_values.empty()) {
    const SignatureFilter filter(changed_values);
    auto hits = [&](const std::string& value) {
      return filter.MayContain(value) && changed_values.count(value) != 0;
    };
    auto overlaps = [&](const RepairProvenance& record) {
      if (hits(record.old_value) || hits(record.new_value)) return true;
      for (const ProvenanceBinding& binding : record.bindings) {
        if (hits(binding.cell_value) || hits(binding.kb_label)) return true;
      }
      for (const ProvenanceEdge& edge : record.evidence_edges) {
        if (hits(edge.subject) || hits(edge.object)) return true;
      }
      return false;
    };
    for (const RepairProvenance& record : prev_provenance.records()) {
      const size_t row = static_cast<size_t>(record.row);
      if (row >= is_affected.size() || is_affected[row] != 0) continue;
      if (overlaps(record)) {
        is_affected[row] = 1;
        ++closure_rows;
      }
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
  plan.closure_rows = closure_rows;
  plan.quarantined_rows = quarantined_rows;
  for (size_t row = 0; row < plan.is_affected.size(); ++row) {
    if (plan.is_affected[row] != 0) plan.affected_rows.push_back(row);
  }
  DETECTIVE_COUNT_N("incremental.rows_affected", plan.affected_rows.size());
  return plan;
}

Result<IncrementalStats> IncrementalRepair(
    const KnowledgeBase& kb, const std::vector<DetectiveRule>& rules,
    Relation* relation, const IncrementalPlan& plan,
    ProvenanceLog prev_provenance, const QuarantineLog* prev_quarantine,
    const IncrementalOptions& options) {
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

  // Replay the previous run's recorded repairs onto the unaffected rows:
  // apply each cell change in log order (repairs and normalizations rewrite
  // the cell; proofs only mark), reproducing the chase's final values and
  // marks without touching the KB.
  {
    DETECTIVE_SCOPED_TIMER("incremental.replay");
    const Schema& schema = relation->schema();
    for (const RepairProvenance& record : prev_provenance.records()) {
      const size_t row = static_cast<size_t>(record.row);
      if (row >= num_rows || plan.is_affected[row] != 0) continue;
      if (record.column_index >= schema.num_columns()) {
        return Status::InvalidArgument(
            "previous provenance record for row ", row, " names column index ",
            record.column_index, "; the relation has ", schema.num_columns(),
            " column(s) (wrong --prev-provenance file?)");
      }
      if (record.kind != ProvenanceKind::kProofPositive) {
        relation->RepairCell(row, record.column_index, record.new_value);
      }
      for (const std::string& marked : record.marked_columns) {
        ColumnIndex c = schema.FindColumn(marked);
        if (c != kInvalidColumn) relation->MarkPositive(row, c);
      }
      ++stats.replayed_records;
    }
  }

  // Re-chase the affected subset through the shared drivers, with original
  // row indexes keying fault scopes and provenance rows.
  ProvenanceLog fresh_provenance;
  QuarantineLog fresh_quarantine;
  {
    ParallelRepairOptions parallel_options;
    parallel_options.repair = options.repair;
    parallel_options.num_threads = options.num_threads;
    parallel_options.provenance =
        options.provenance != nullptr ? &fresh_provenance : nullptr;
    parallel_options.quarantine =
        options.quarantine != nullptr ? &fresh_quarantine : nullptr;
    parallel_options.row_subset = &plan.affected_rows;
    parallel_options.plan = options.plan;
    ASSIGN_OR_RETURN(stats.repair,
                     ParallelRepair(kb, rules, relation, parallel_options));
  }

  // Interleave previous (replayed) and fresh (re-chased) records in
  // ascending row order — each row's records come from exactly one source,
  // so the merged logs equal a full re-clean's byte for byte. Both source
  // logs are owned here (prev_provenance was passed by value), so records
  // move into the sink instead of deep-copying — at a 1% delta the previous
  // log holds ~99% of the merged output, and copying it used to dwarf the
  // re-chase itself.
  if (options.provenance != nullptr) {
    std::vector<RepairProvenance>& prev = prev_provenance.mutable_records();
    std::vector<RepairProvenance>& fresh = fresh_provenance.mutable_records();
    auto row_sorted = [](const std::vector<RepairProvenance>& records) {
      return std::is_sorted(records.begin(), records.end(),
                            [](const RepairProvenance& a,
                               const RepairProvenance& b) { return a.row < b.row; });
    };
    if (row_sorted(prev) && row_sorted(fresh)) {
      // Fast path: both logs come out of the drivers row-sorted, so the
      // merge is a single pass moving contiguous per-row runs — no buckets,
      // no reallocation. Runs for rows the chase dropped (row >= num_rows)
      // are skipped, matching the bucket path.
      std::vector<RepairProvenance>& sink =
          options.provenance->mutable_records();
      sink.reserve(sink.size() + prev.size() + fresh.size());
      size_t p = 0, f = 0;
      for (size_t row = 0; row < num_rows; ++row) {
        size_t p_end = p;
        while (p_end < prev.size() && prev[p_end].row == row) ++p_end;
        size_t f_end = f;
        while (f_end < fresh.size() && fresh[f_end].row == row) ++f_end;
        if (plan.is_affected[row] != 0) {
          sink.insert(sink.end(), std::make_move_iterator(fresh.begin() + f),
                      std::make_move_iterator(fresh.begin() + f_end));
        } else {
          sink.insert(sink.end(), std::make_move_iterator(prev.begin() + p),
                      std::make_move_iterator(prev.begin() + p_end));
        }
        p = p_end;
        f = f_end;
      }
    } else {
      auto prev_buckets = BucketByRow(prev, num_rows);
      auto fresh_buckets = BucketByRow(fresh, num_rows);
      for (size_t row = 0; row < num_rows; ++row) {
        const auto& bucket =
            plan.is_affected[row] != 0 ? fresh_buckets[row] : prev_buckets[row];
        for (RepairProvenance* record : bucket) {
          options.provenance->Add(std::move(*record));
        }
      }
    }
  }
  if (options.quarantine != nullptr) {
    // Previous quarantine records stay copied: the ledger is small (faults
    // are rare) and the caller may still want to diff it.
    std::vector<std::vector<const QuarantineRecord*>> prev_buckets(num_rows);
    if (prev_quarantine != nullptr) {
      prev_buckets = BucketByRow(prev_quarantine->records(), num_rows);
    }
    auto fresh_buckets =
        BucketByRow(fresh_quarantine.mutable_records(), num_rows);
    for (size_t row = 0; row < num_rows; ++row) {
      if (plan.is_affected[row] != 0) {
        for (QuarantineRecord* record : fresh_buckets[row]) {
          options.quarantine->Add(std::move(*record));
        }
      } else {
        for (const QuarantineRecord* record : prev_buckets[row]) {
          options.quarantine->Add(*record);
        }
      }
    }
  }
  DETECTIVE_COUNT_N("incremental.rows_replayed", stats.rows_replayed);
  DETECTIVE_COUNT_N("incremental.records_replayed", stats.replayed_records);
  return stats;
}

}  // namespace detective

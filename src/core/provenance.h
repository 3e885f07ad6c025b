#ifndef DETECTIVE_CORE_PROVENANCE_H_
#define DETECTIVE_CORE_PROVENANCE_H_

// Repair provenance: a machine-readable explanation for every cell a
// detective rule touches. Each record answers "why did this cell change?"
// with the rule that fired, the fixpoint round, the instance-level node
// bindings of the witnessing assignment, and the KB edges those bindings
// satisfy — the paper's evidence chain (§II-B matching graphs), captured at
// the moment RuleEngine::Apply commits the change.
//
// Records serialize one-per-line as JSON (JSONL) through
// `detective_clean --explain-json=FILE` and are queried by the
// `detective_explain` tool; the schema is documented in
// docs/observability.md. Capture is opt-in (RuleEngine::set_provenance) and
// costs nothing when no sink is installed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace detective {

/// What a provenance record explains.
enum class ProvenanceKind : uint8_t {
  kRepair = 0,         // the target cell was rewritten (proof negative)
  kNormalization = 1,  // a fuzzily-matched cell was standardized to its label
  kProofPositive = 2,  // cells were marked correct, nothing was rewritten
};

/// Stable wire name ("repair" | "normalization" | "proof_positive").
std::string_view ProvenanceKindName(ProvenanceKind kind);
Result<ProvenanceKind> ProvenanceKindFromName(std::string_view name);

/// One rule node of the witnessing assignment: which KB instance the node
/// matched and, for column-bearing nodes, the cell it matched against.
struct ProvenanceBinding {
  std::string column;      // empty for existential (edge-only) nodes
  std::string type;        // KB class the node ranges over
  std::string cell_value;  // cell content at match time; empty if no column
  std::string kb_label;    // label of the matched KB instance
  uint64_t kb_item = 0;    // its KB item id

  friend bool operator==(const ProvenanceBinding&,
                         const ProvenanceBinding&) = default;
};

/// One KB relationship the witnessing assignment satisfies — the actual
/// evidence edges (subject --relation--> object, by label).
struct ProvenanceEdge {
  std::string subject;
  std::string relation;
  std::string object;

  friend bool operator==(const ProvenanceEdge&, const ProvenanceEdge&) = default;
};

/// The full explanation of one rule application's effect on one cell.
struct RepairProvenance {
  uint64_t row = 0;            // row of the affected cell
  uint32_t column_index = 0;   // schema position of the affected cell
  std::string column;          // schema name of the affected cell
  ProvenanceKind kind = ProvenanceKind::kRepair;
  std::string rule;            // name of the rule that fired
  uint64_t round = 0;          // 1-based fixpoint round of the chase
  std::string old_value;       // cell content before the change
  std::string new_value;       // cell content after (== old for proofs)
  std::vector<ProvenanceBinding> bindings;    // witnessing assignment
  std::vector<ProvenanceEdge> evidence_edges; // KB edges it satisfies
  std::vector<std::string> marked_columns;    // columns newly marked positive

  /// One-line JSON object (no interior newlines — JSONL-safe). Schema:
  ///   {"row": 2, "column_index": 3, "column": "Institution",
  ///    "kind": "repair", "rule": "phi1", "round": 1,
  ///    "old_value": "UCL", "new_value": "Pasteur Institute",
  ///    "bindings": [{"column": "Name", "type": "person",
  ///                  "cell_value": "Marie Curie", "kb_label": "Marie Curie",
  ///                  "kb_item": 17}, ...],
  ///    "evidence_edges": [{"subject": "Marie Curie", "relation": "worksAt",
  ///                        "object": "Pasteur Institute"}, ...],
  ///    "marked_columns": ["Institution", "Name"]}
  std::string ToJson() const;

  /// Appends ToJson() to `out`, with no std::string per record.
  void AppendJson(std::string* out) const;

  /// Parses a ToJson() document. Fields may appear in any order; unknown
  /// fields are rejected.
  static Result<RepairProvenance> FromJson(std::string_view json);

  /// Multi-line human-readable rendering (what `detective_explain` prints).
  std::string ToText() const;

  friend bool operator==(const RepairProvenance&,
                         const RepairProvenance&) = default;
};

/// An append-only sequence of provenance records for one relation. Not
/// thread-safe: ParallelRepair gives each worker a private log and merges
/// them in row order afterwards.
class ProvenanceLog {
 public:
  void Add(RepairProvenance record) { records_.push_back(std::move(record)); }

  const std::vector<RepairProvenance>& records() const { return records_; }

  /// Moves every record out, leaving the log empty.
  std::vector<RepairProvenance> TakeRecords() {
    std::vector<RepairProvenance> out;
    out.swap(records_);
    return out;
  }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }
  /// Sizes the log for `records` in total, so appending them never
  /// reallocates (a reallocation holds the old and new arrays at once).
  void Reserve(size_t records) { records_.reserve(records); }

  /// Appends every record of `other` and releases its storage, so a merge
  /// of many shards never holds a merged record twice.
  void Merge(ProvenanceLog&& other);

  /// Stable-sorts records by (row, column_index, round) so logs assembled
  /// from per-worker shards compare equal to a sequential run's log.
  void Canonicalize();

  /// Records touching one cell, in log order. `column` matches the schema
  /// name or its decimal index.
  std::vector<const RepairProvenance*> ForCell(uint64_t row,
                                               std::string_view column) const;

  /// One ToJson() line per record, each terminated by '\n'.
  std::string ToJsonLines() const;
  /// Writes ToJsonLines() through a ProvenanceWriter.
  Status WriteJsonLines(const std::string& path) const;

  /// Parses a ToJsonLines() document (blank lines are skipped).
  static Result<ProvenanceLog> FromJsonLines(std::string_view text);

  friend bool operator==(const ProvenanceLog&, const ProvenanceLog&) = default;

 private:
  std::vector<RepairProvenance> records_;
};

/// The fields of one provenance JSONL line that replaying it needs. Views
/// point into the line, or into ProvenanceLineScanner's own storage.
struct ProvenanceLineView {
  uint64_t row = 0;
  uint32_t column_index = 0;
  ProvenanceKind kind = ProvenanceKind::kRepair;
  std::string_view new_value;
  std::vector<std::string_view> marked_columns;
  /// The line is byte for byte ToJson(FromJson(line)), so it may be copied
  /// to an output log verbatim.
  bool verbatim = false;
};

/// Decodes provenance JSONL lines for replay without building records.
/// A line in ToJson() form (key order, ", " separators, only the escapes
/// AppendJsonString emits) is decoded in place; escaped values are
/// unescaped into the scanner's scratch. Any other line goes through
/// RepairProvenance::FromJson, so the scanner accepts exactly the lines
/// FromJson accepts and fails with FromJson's status.
class ProvenanceLineScanner {
 public:
  /// Scans one line; the view stays valid until the next call.
  Result<const ProvenanceLineView*> Scan(std::string_view line);

  /// The FromJson record of the last line scanned when it was not
  /// verbatim (what an output log re-serializes).
  const RepairProvenance& parsed() const { return parsed_; }

 private:
  bool ScanVerbatim(std::string_view line);

  ProvenanceLineView view_;
  std::string scratch_;
  RepairProvenance parsed_;
};

/// Streams a provenance JSONL file: one read() per fixed-size block, lines
/// split with memchr and scanned by ProvenanceLineScanner, blank lines
/// skipped as FromJsonLines skips them. The log must be sorted by row, as
/// every log detective_clean writes is; a row that goes backwards fails.
/// The first failure sticks in status(), message-compatible with
/// FromJsonLines ("provenance JSONL line N: ...").
class ProvenanceFileReader {
 public:
  ProvenanceFileReader() = default;
  ~ProvenanceFileReader();
  ProvenanceFileReader(const ProvenanceFileReader&) = delete;
  ProvenanceFileReader& operator=(const ProvenanceFileReader&) = delete;

  Status Open(const std::string& path);

  /// Advances to the next record. Returns false at the end of the file.
  Result<bool> Next();

  /// The current record's line (without its '\n') and its decoded view.
  std::string_view line() const { return line_; }
  const ProvenanceLineView& view() const { return *view_; }
  const RepairProvenance& parsed() const { return scanner_.parsed(); }

  const Status& status() const { return status_; }
  uint64_t bytes_read() const { return bytes_read_; }
  size_t records() const { return records_; }

 private:
  Result<bool> NextLine();
  Status Fail(Status status);

  static constexpr size_t kBlockBytes = size_t{1} << 20;

  int fd_ = -1;
  std::string path_;
  std::vector<char> buffer_;
  size_t begin_ = 0;     // unconsumed bytes are [begin_, end_)
  size_t end_ = 0;
  size_t searched_ = 0;  // bytes after begin_ known to hold no '\n'
  bool eof_ = false;
  std::string_view line_;
  size_t line_number_ = 0;
  uint64_t bytes_read_ = 0;
  size_t records_ = 0;
  uint64_t last_row_ = 0;
  ProvenanceLineScanner scanner_;
  const ProvenanceLineView* view_ = nullptr;
  Status status_;
};

/// Writes provenance JSONL through a fixed buffer that is flushed to the
/// file whenever it fills: records serialize straight into the buffer
/// (AppendJson), verbatim lines are copied in.
class ProvenanceWriter {
 public:
  ProvenanceWriter() = default;
  ~ProvenanceWriter();
  ProvenanceWriter(const ProvenanceWriter&) = delete;
  ProvenanceWriter& operator=(const ProvenanceWriter&) = delete;

  Status Open(const std::string& path);
  void Append(const RepairProvenance& record);
  /// Copies `line` and a '\n'.
  void AppendLine(std::string_view line);
  /// Flushes and closes; fails if any write failed.
  Status Close();

  uint64_t bytes() const { return bytes_ + buffer_.size(); }
  size_t lines() const { return lines_; }

 private:
  void EndLine();
  void Flush();

  static constexpr size_t kFlushBytes = size_t{1} << 20;

  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  bool failed_ = false;
  uint64_t bytes_ = 0;
  size_t lines_ = 0;
};

}  // namespace detective

#endif  // DETECTIVE_CORE_PROVENANCE_H_

#include "core/provenance.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/json_util.h"
#include "common/string_util.h"

namespace detective {

std::string_view ProvenanceKindName(ProvenanceKind kind) {
  switch (kind) {
    case ProvenanceKind::kRepair:
      return "repair";
    case ProvenanceKind::kNormalization:
      return "normalization";
    case ProvenanceKind::kProofPositive:
      return "proof_positive";
  }
  return "unknown";
}

Result<ProvenanceKind> ProvenanceKindFromName(std::string_view name) {
  if (name == "repair") return ProvenanceKind::kRepair;
  if (name == "normalization") return ProvenanceKind::kNormalization;
  if (name == "proof_positive") return ProvenanceKind::kProofPositive;
  return Status::InvalidArgument("unknown provenance kind \"", name, "\"");
}

// ---- RepairProvenance --------------------------------------------------------

namespace {

void AppendUint(uint64_t value, std::string* out) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, result.ptr);
}

}  // namespace

std::string RepairProvenance::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

void RepairProvenance::AppendJson(std::string* out) const {
  out->append("{\"row\": ");
  AppendUint(row, out);
  out->append(", \"column_index\": ");
  AppendUint(column_index, out);
  out->append(", \"column\": ");
  AppendJsonString(column, out);
  out->append(", \"kind\": ");
  AppendJsonString(ProvenanceKindName(kind), out);
  out->append(", \"rule\": ");
  AppendJsonString(rule, out);
  out->append(", \"round\": ");
  AppendUint(round, out);
  out->append(", \"old_value\": ");
  AppendJsonString(old_value, out);
  out->append(", \"new_value\": ");
  AppendJsonString(new_value, out);
  out->append(", \"bindings\": [");
  for (size_t i = 0; i < bindings.size(); ++i) {
    const ProvenanceBinding& binding = bindings[i];
    out->append(i == 0 ? "{" : ", {");
    out->append("\"column\": ");
    AppendJsonString(binding.column, out);
    out->append(", \"type\": ");
    AppendJsonString(binding.type, out);
    out->append(", \"cell_value\": ");
    AppendJsonString(binding.cell_value, out);
    out->append(", \"kb_label\": ");
    AppendJsonString(binding.kb_label, out);
    out->append(", \"kb_item\": ");
    AppendUint(binding.kb_item, out);
    out->push_back('}');
  }
  out->append("], \"evidence_edges\": [");
  for (size_t i = 0; i < evidence_edges.size(); ++i) {
    const ProvenanceEdge& edge = evidence_edges[i];
    out->append(i == 0 ? "{" : ", {");
    out->append("\"subject\": ");
    AppendJsonString(edge.subject, out);
    out->append(", \"relation\": ");
    AppendJsonString(edge.relation, out);
    out->append(", \"object\": ");
    AppendJsonString(edge.object, out);
    out->push_back('}');
  }
  out->append("], \"marked_columns\": [");
  for (size_t i = 0; i < marked_columns.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendJsonString(marked_columns[i], out);
  }
  out->append("]}");
}

namespace {

Result<ProvenanceBinding> ParseBinding(JsonCursor* cursor) {
  ProvenanceBinding binding;
  RETURN_NOT_OK(cursor->Expect('{'));
  if (!cursor->TryConsume('}')) {
    do {
      ASSIGN_OR_RETURN(std::string field, cursor->TakeString());
      RETURN_NOT_OK(cursor->Expect(':'));
      if (field == "kb_item") {
        ASSIGN_OR_RETURN(binding.kb_item, cursor->TakeUint());
        continue;
      }
      ASSIGN_OR_RETURN(std::string value, cursor->TakeString());
      if (field == "column") {
        binding.column = std::move(value);
      } else if (field == "type") {
        binding.type = std::move(value);
      } else if (field == "cell_value") {
        binding.cell_value = std::move(value);
      } else if (field == "kb_label") {
        binding.kb_label = std::move(value);
      } else {
        return Status::InvalidArgument("provenance JSON: unknown binding field \"",
                                       field, "\"");
      }
    } while (cursor->TryConsume(','));
    RETURN_NOT_OK(cursor->Expect('}'));
  }
  return binding;
}

Result<ProvenanceEdge> ParseEdge(JsonCursor* cursor) {
  ProvenanceEdge edge;
  RETURN_NOT_OK(cursor->Expect('{'));
  if (!cursor->TryConsume('}')) {
    do {
      ASSIGN_OR_RETURN(std::string field, cursor->TakeString());
      RETURN_NOT_OK(cursor->Expect(':'));
      ASSIGN_OR_RETURN(std::string value, cursor->TakeString());
      if (field == "subject") {
        edge.subject = std::move(value);
      } else if (field == "relation") {
        edge.relation = std::move(value);
      } else if (field == "object") {
        edge.object = std::move(value);
      } else {
        return Status::InvalidArgument("provenance JSON: unknown edge field \"",
                                       field, "\"");
      }
    } while (cursor->TryConsume(','));
    RETURN_NOT_OK(cursor->Expect('}'));
  }
  return edge;
}

}  // namespace

Result<RepairProvenance> RepairProvenance::FromJson(std::string_view json) {
  RepairProvenance record;
  JsonCursor cursor(json);
  RETURN_NOT_OK(cursor.Expect('{'));
  bool saw_row = false;
  bool saw_column = false;
  bool saw_kind = false;
  if (!cursor.TryConsume('}')) {
    do {
      ASSIGN_OR_RETURN(std::string field, cursor.TakeString());
      RETURN_NOT_OK(cursor.Expect(':'));
      if (field == "row") {
        ASSIGN_OR_RETURN(record.row, cursor.TakeUint());
        saw_row = true;
      } else if (field == "column_index") {
        ASSIGN_OR_RETURN(uint64_t value, cursor.TakeUint());
        record.column_index = static_cast<uint32_t>(value);
      } else if (field == "round") {
        ASSIGN_OR_RETURN(record.round, cursor.TakeUint());
      } else if (field == "column") {
        ASSIGN_OR_RETURN(record.column, cursor.TakeString());
        saw_column = true;
      } else if (field == "kind") {
        ASSIGN_OR_RETURN(std::string name, cursor.TakeString());
        ASSIGN_OR_RETURN(record.kind, ProvenanceKindFromName(name));
        saw_kind = true;
      } else if (field == "rule") {
        ASSIGN_OR_RETURN(record.rule, cursor.TakeString());
      } else if (field == "old_value") {
        ASSIGN_OR_RETURN(record.old_value, cursor.TakeString());
      } else if (field == "new_value") {
        ASSIGN_OR_RETURN(record.new_value, cursor.TakeString());
      } else if (field == "bindings") {
        RETURN_NOT_OK(cursor.Expect('['));
        if (!cursor.TryConsume(']')) {
          do {
            ASSIGN_OR_RETURN(ProvenanceBinding binding, ParseBinding(&cursor));
            record.bindings.push_back(std::move(binding));
          } while (cursor.TryConsume(','));
          RETURN_NOT_OK(cursor.Expect(']'));
        }
      } else if (field == "evidence_edges") {
        RETURN_NOT_OK(cursor.Expect('['));
        if (!cursor.TryConsume(']')) {
          do {
            ASSIGN_OR_RETURN(ProvenanceEdge edge, ParseEdge(&cursor));
            record.evidence_edges.push_back(std::move(edge));
          } while (cursor.TryConsume(','));
          RETURN_NOT_OK(cursor.Expect(']'));
        }
      } else if (field == "marked_columns") {
        RETURN_NOT_OK(cursor.Expect('['));
        if (!cursor.TryConsume(']')) {
          do {
            ASSIGN_OR_RETURN(std::string name, cursor.TakeString());
            record.marked_columns.push_back(std::move(name));
          } while (cursor.TryConsume(','));
          RETURN_NOT_OK(cursor.Expect(']'));
        }
      } else {
        return Status::InvalidArgument("provenance JSON: unknown field \"", field,
                                       "\"");
      }
    } while (cursor.TryConsume(','));
    RETURN_NOT_OK(cursor.Expect('}'));
  }
  RETURN_NOT_OK(cursor.ExpectEnd());
  if (!saw_row || !saw_column || !saw_kind) {
    return Status::InvalidArgument(
        "provenance JSON: missing required field (row, column, kind)");
  }
  return record;
}

std::string RepairProvenance::ToText() const {
  std::string out = "row " + std::to_string(row) + ", column \"" + column +
                    "\" [" + std::string(ProvenanceKindName(kind)) + " by rule " +
                    rule + ", round " + std::to_string(round) + "]\n";
  if (kind == ProvenanceKind::kProofPositive) {
    out += "  value \"" + old_value + "\" proven correct\n";
  } else {
    out += "  \"" + old_value + "\" -> \"" + new_value + "\"\n";
  }
  if (!bindings.empty()) {
    out += "  evidence:\n";
    for (const ProvenanceBinding& binding : bindings) {
      out += "    ";
      if (binding.column.empty()) {
        out += "(existential)";
      } else {
        out += binding.column + " = \"" + binding.cell_value + "\"";
      }
      out += " matched " + binding.type + " \"" + binding.kb_label +
             "\" (kb item " + std::to_string(binding.kb_item) + ")\n";
    }
  }
  if (!evidence_edges.empty()) {
    out += "  kb edges:\n";
    for (const ProvenanceEdge& edge : evidence_edges) {
      out += "    \"" + edge.subject + "\" --" + edge.relation + "--> \"" +
             edge.object + "\"\n";
    }
  }
  if (!marked_columns.empty()) {
    out += "  marked positive:";
    for (size_t i = 0; i < marked_columns.size(); ++i) {
      out += i == 0 ? " " : ", ";
      out += marked_columns[i];
    }
    out += "\n";
  }
  return out;
}

// ---- ProvenanceLog -----------------------------------------------------------

void ProvenanceLog::Merge(ProvenanceLog&& other) {
  records_.insert(records_.end(),
                  std::make_move_iterator(other.records_.begin()),
                  std::make_move_iterator(other.records_.end()));
  std::vector<RepairProvenance>().swap(other.records_);
}

void ProvenanceLog::Canonicalize() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const RepairProvenance& a, const RepairProvenance& b) {
                     if (a.row != b.row) return a.row < b.row;
                     if (a.column_index != b.column_index) {
                       return a.column_index < b.column_index;
                     }
                     return a.round < b.round;
                   });
}

std::vector<const RepairProvenance*> ProvenanceLog::ForCell(
    uint64_t row, std::string_view column) const {
  std::vector<const RepairProvenance*> out;
  for (const RepairProvenance& record : records_) {
    if (record.row != row) continue;
    if (record.column == column ||
        std::to_string(record.column_index) == column) {
      out.push_back(&record);
    }
  }
  return out;
}

std::string ProvenanceLog::ToJsonLines() const {
  std::string out;
  for (const RepairProvenance& record : records_) {
    record.AppendJson(&out);
    out.push_back('\n');
  }
  return out;
}

Status ProvenanceLog::WriteJsonLines(const std::string& path) const {
  ProvenanceWriter writer;
  RETURN_NOT_OK(writer.Open(path));
  for (const RepairProvenance& record : records_) writer.Append(record);
  return writer.Close();
}

namespace {

/// FromJsonLines skips lines of only spaces, tabs and carriage returns.
bool IsBlankLine(std::string_view line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

Status LineError(size_t line_number, std::string_view message) {
  return Status::InvalidArgument("provenance JSONL line ",
                                 std::to_string(line_number), ": ", message);
}

}  // namespace

Result<ProvenanceLog> ProvenanceLog::FromJsonLines(std::string_view text) {
  ProvenanceLog log;
  size_t line_number = 0;
  while (!text.empty()) {
    size_t end = text.find('\n');
    std::string_view line =
        end == std::string_view::npos ? text : text.substr(0, end);
    text = end == std::string_view::npos ? std::string_view{} : text.substr(end + 1);
    ++line_number;
    if (IsBlankLine(line)) continue;
    auto record = RepairProvenance::FromJson(line);
    if (!record.ok()) return LineError(line_number, record.status().message());
    log.Add(std::move(*record));
  }
  return log;
}

// ---- ProvenanceLineScanner ---------------------------------------------------

namespace {

bool IsLowerHex(char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); }

unsigned HexValue(char c) {
  return c <= '9' ? static_cast<unsigned>(c - '0')
                  : static_cast<unsigned>(c - 'a' + 10);
}

/// Cursor that matches only the exact bytes RepairProvenance::AppendJson
/// emits; any other byte fails the match.
class VerbatimCursor {
 public:
  explicit VerbatimCursor(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Literal(std::string_view literal) {
    if (static_cast<size_t>(end_ - p_) < literal.size() ||
        std::memcmp(p_, literal.data(), literal.size()) != 0) {
      return false;
    }
    p_ += literal.size();
    return true;
  }

  /// std::to_chars form: digits only, no leading zero, no overflow.
  bool Uint(uint64_t* value) {
    const char* start = p_;
    const auto result = std::from_chars(p_, end_, *value);
    if (result.ec != std::errc() || (*start == '0' && result.ptr - start > 1)) {
      return false;
    }
    p_ = result.ptr;
    return true;
  }

  /// An AppendJsonString string: bytes >= 0x20 other than '"' and '\',
  /// or the escapes \" \\ and \u00XX (XX < 0x20, lowercase hex). `body` is
  /// the raw text between the quotes.
  bool String(std::string_view* body, bool* escaped) {
    if (p_ == end_ || *p_ != '"') return false;
    const char* start = ++p_;
    *escaped = false;
    while (p_ != end_) {
      const auto c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        *body = std::string_view(start, static_cast<size_t>(p_ - start));
        ++p_;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') {
        ++p_;
        continue;
      }
      *escaped = true;
      if (end_ - p_ >= 2 && (p_[1] == '"' || p_[1] == '\\')) {
        p_ += 2;
      } else if (end_ - p_ >= 6 && p_[1] == 'u' && p_[2] == '0' && p_[3] == '0' &&
                 (p_[4] == '0' || p_[4] == '1') && IsLowerHex(p_[5])) {
        p_ += 6;
      } else {
        return false;
      }
    }
    return false;
  }

  bool Skip() {
    std::string_view body;
    bool escaped = false;
    return String(&body, &escaped);
  }

  /// `items` joined by ", " inside brackets (the list's "[" already matched).
  template <typename Item>
  bool List(Item&& item) {
    if (Literal("]")) return true;
    do {
      if (!item()) return false;
    } while (Literal(", "));
    return Literal("]");
  }

  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

/// Decodes a String() body that holds escapes.
void Unescape(std::string_view body, std::string* out) {
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '\\') {
      out->push_back(body[i]);
    } else if (body[++i] == 'u') {
      out->push_back(static_cast<char>(HexValue(body[i + 3]) * 16 +
                                       HexValue(body[i + 4])));
      i += 4;
    } else {
      out->push_back(body[i]);
    }
  }
}

}  // namespace

bool ProvenanceLineScanner::ScanVerbatim(std::string_view line) {
  VerbatimCursor in(line);
  view_.marked_columns.clear();
  // Unescaped values never outgrow the line, so views into scratch_ stay put.
  scratch_.clear();
  scratch_.reserve(line.size());
  auto value = [&](std::string_view* out) {
    bool escaped = false;
    if (!in.String(out, &escaped)) return false;
    if (escaped) {
      const size_t start = scratch_.size();
      Unescape(*out, &scratch_);
      *out = std::string_view(scratch_).substr(start);
    }
    return true;
  };
  auto kind = [&] {
    std::string_view name;
    bool escaped = false;
    if (!in.String(&name, &escaped) || escaped) return false;
    auto parsed = ProvenanceKindFromName(name);
    if (!parsed.ok()) return false;
    view_.kind = *parsed;
    return true;
  };
  auto binding = [&] {
    uint64_t kb_item = 0;
    return in.Literal("{\"column\": ") && in.Skip() &&
           in.Literal(", \"type\": ") && in.Skip() &&
           in.Literal(", \"cell_value\": ") && in.Skip() &&
           in.Literal(", \"kb_label\": ") && in.Skip() &&
           in.Literal(", \"kb_item\": ") && in.Uint(&kb_item) && in.Literal("}");
  };
  auto edge = [&] {
    return in.Literal("{\"subject\": ") && in.Skip() &&
           in.Literal(", \"relation\": ") && in.Skip() &&
           in.Literal(", \"object\": ") && in.Skip() && in.Literal("}");
  };
  auto marked = [&] {
    std::string_view name;
    if (!value(&name)) return false;
    view_.marked_columns.push_back(name);
    return true;
  };
  uint64_t column_index = 0;
  uint64_t round = 0;
  if (!(in.Literal("{\"row\": ") && in.Uint(&view_.row) &&
        in.Literal(", \"column_index\": ") && in.Uint(&column_index) &&
        column_index <= UINT32_MAX && in.Literal(", \"column\": ") && in.Skip() &&
        in.Literal(", \"kind\": ") && kind() && in.Literal(", \"rule\": ") &&
        in.Skip() && in.Literal(", \"round\": ") && in.Uint(&round) &&
        in.Literal(", \"old_value\": ") && in.Skip() &&
        in.Literal(", \"new_value\": ") && value(&view_.new_value) &&
        in.Literal(", \"bindings\": [") && in.List(binding) &&
        in.Literal(", \"evidence_edges\": [") && in.List(edge) &&
        in.Literal(", \"marked_columns\": [") && in.List(marked) &&
        in.Literal("}") && in.AtEnd())) {
    return false;
  }
  view_.column_index = static_cast<uint32_t>(column_index);
  return true;
}

Result<const ProvenanceLineView*> ProvenanceLineScanner::Scan(
    std::string_view line) {
  view_.verbatim = ScanVerbatim(line);
  if (view_.verbatim) return &view_;
  ASSIGN_OR_RETURN(parsed_, RepairProvenance::FromJson(line));
  view_.row = parsed_.row;
  view_.column_index = parsed_.column_index;
  view_.kind = parsed_.kind;
  view_.new_value = parsed_.new_value;
  view_.marked_columns.assign(parsed_.marked_columns.begin(),
                              parsed_.marked_columns.end());
  return &view_;
}

// ---- ProvenanceFileReader ----------------------------------------------------

ProvenanceFileReader::~ProvenanceFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status ProvenanceFileReader::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return status_ = Status::IOError("cannot open '", path, "': ",
                                     std::strerror(errno));
  }
  buffer_.resize(kBlockBytes);
  return Status::OK();
}

Status ProvenanceFileReader::Fail(Status status) {
  status_ = status;
  return status;
}

Result<bool> ProvenanceFileReader::NextLine() {
  while (true) {
    const char* start = buffer_.data() + begin_;
    const size_t available = end_ - begin_;
    const void* newline =
        std::memchr(start + searched_, '\n', available - searched_);
    if (newline != nullptr) {
      const auto length =
          static_cast<size_t>(static_cast<const char*>(newline) - start);
      line_ = std::string_view(start, length);
      begin_ += length + 1;
      searched_ = 0;
      ++line_number_;
      return true;
    }
    if (eof_) {
      if (available == 0) return false;
      line_ = std::string_view(start, available);
      begin_ = end_;
      searched_ = 0;
      ++line_number_;
      return true;
    }
    // Slide the partial line to the front and read the next block after it;
    // a line longer than the buffer doubles it.
    searched_ = available;
    std::memmove(buffer_.data(), start, available);
    begin_ = 0;
    end_ = available;
    if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
    ssize_t n;
    do {
      n = ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return Fail(Status::IOError("error reading '", path_, "': ",
                                  std::strerror(errno)));
    }
    if (n == 0) eof_ = true;
    end_ += static_cast<size_t>(n);
    bytes_read_ += static_cast<uint64_t>(n);
  }
}

Result<bool> ProvenanceFileReader::Next() {
  RETURN_NOT_OK(status_);
  while (true) {
    ASSIGN_OR_RETURN(bool more, NextLine());
    if (!more) return false;
    if (IsBlankLine(line_)) continue;
    auto view = scanner_.Scan(line_);
    if (!view.ok()) return Fail(LineError(line_number_, view.status().message()));
    if (records_ > 0 && (*view)->row < last_row_) {
      return Fail(LineError(
          line_number_, "row " + std::to_string((*view)->row) +
                            " comes after row " + std::to_string(last_row_) +
                            "; the log must be sorted by row"));
    }
    view_ = *view;
    last_row_ = view_->row;
    ++records_;
    return true;
  }
}

// ---- ProvenanceWriter --------------------------------------------------------

ProvenanceWriter::~ProvenanceWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status ProvenanceWriter::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return Status::IOError("error writing provenance JSONL to ", path);
  buffer_.reserve(kFlushBytes + kFlushBytes / 4);
  return Status::OK();
}

void ProvenanceWriter::Append(const RepairProvenance& record) {
  record.AppendJson(&buffer_);
  EndLine();
}

void ProvenanceWriter::AppendLine(std::string_view line) {
  buffer_.append(line);
  EndLine();
}

void ProvenanceWriter::EndLine() {
  buffer_.push_back('\n');
  ++lines_;
  if (buffer_.size() >= kFlushBytes) Flush();
}

void ProvenanceWriter::Flush() {
  size_t written = 0;
  while (!failed_ && written < buffer_.size()) {
    const ssize_t n =
        ::write(fd_, buffer_.data() + written, buffer_.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      failed_ = true;
    } else {
      written += static_cast<size_t>(n);
    }
  }
  bytes_ += buffer_.size();
  buffer_.clear();
}

Status ProvenanceWriter::Close() {
  if (fd_ < 0) return Status::IOError("error writing provenance JSONL to ", path_);
  Flush();
  if (::close(fd_) != 0) failed_ = true;
  fd_ = -1;
  if (failed_) return Status::IOError("error writing provenance JSONL to ", path_);
  return Status::OK();
}

}  // namespace detective

#include "kb/ntriples_parser.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <span>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace detective {

namespace {

/// Shared per-line guard for both triple formats (kMaxKbLineBytes /
/// kMaxKbLines, ntriples_parser.h).
Status CheckLineLimits(std::string_view line, size_t line_number) {
  if (line.size() > kMaxKbLineBytes) {
    return Status::ParseError("line ", line_number, " exceeds the line limit of ",
                              kMaxKbLineBytes, " bytes");
  }
  if (line_number > kMaxKbLines) {
    return Status::ParseError("input exceeds the line limit of ", kMaxKbLines,
                              " lines");
  }
  return Status::OK();
}

/// Annotates a per-line parse error with the line's byte offset into the
/// input and a truncated copy of the offending line, so a bad record in a
/// multi-gigabyte KB dump can be found with `dd`/`tail -c` instead of
/// re-counting lines.
Status AnnotateLineError(const Status& st, std::string_view line,
                         size_t byte_offset) {
  constexpr size_t kMaxQuoted = 120;
  std::string quoted(line.substr(0, kMaxQuoted));
  for (char& c : quoted) {
    if (c == '\t') c = ' ';  // keep the quote one terminal line
  }
  return Status::ParseError(st.message(), " (byte offset ", byte_offset,
                            "): \"", quoted,
                            line.size() > kMaxQuoted ? "\"..." : "\"");
}

constexpr std::string_view kTypePredicates[] = {"rdf:type", "a", "type"};
constexpr std::string_view kSubclassPredicates[] = {"rdfs:subClassOf", "subClassOf"};
constexpr std::string_view kLabelPredicates[] = {"rdfs:label", "label"};
constexpr std::string_view kClassMarkers[] = {"rdfs:Class", "owl:Class"};

/// std::isspace in the "C" locale (the only one the tools run in), inline:
/// the tokenizer asks it for nearly every byte.
bool IsSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

size_t SkipSpace(std::string_view text, size_t i) {
  while (i < text.size() && IsSpace(text[i])) ++i;
  return i;
}

/// Strips a namespace prefix and turns underscores into spaces so IRIs match
/// relational cell values ("Avram_Hershko" -> "Avram Hershko"). Predicates
/// keep their prefix if it is a schema one (rdf:/rdfs:/owl:).
std::string PrettifyLocalName(std::string_view iri) {
  size_t cut = iri.find_last_of("/#");
  std::string_view local = cut == std::string_view::npos ? iri : iri.substr(cut + 1);
  return ReplaceAll(local, "_", " ");
}

/// Reads `<...>` at text[*i]; `*iri` views the text between the brackets.
Status ReadIri(std::string_view text, size_t* i, std::string_view* iri,
               size_t line_number) {
  if (*i >= text.size() || text[*i] != '<') {
    return Status::ParseError("expected '<' on line ", line_number);
  }
  const size_t end = text.find('>', *i);
  if (end == std::string_view::npos) {
    return Status::ParseError("unterminated IRI on line ", line_number);
  }
  *iri = text.substr(*i + 1, end - *i - 1);
  *i = end + 1;
  return Status::OK();
}

/// Parses the quoted literal at text[*pos] == '"'. Without a backslash in it,
/// `*value` views `text`; otherwise the value is unescaped into `*scratch`
/// (\" \\ \n \t, any other escaped character stands for itself), `*value`
/// views that, and `*escaped` is set. Strips a trailing @lang or ^^<datatype>.
Status ParseLiteral(std::string_view text, size_t* pos, std::string* scratch,
                    std::string_view* value, bool* escaped, size_t line_number) {
  const size_t begin = *pos + 1;  // skip opening quote
  size_t i = begin;
  while (i < text.size() && text[i] != '"' && text[i] != '\\') ++i;
  *escaped = i < text.size() && text[i] == '\\';
  if (*escaped) {
    scratch->assign(text.substr(begin, i - begin));
    while (i < text.size()) {
      const char c = text[i];
      if (c == '\\' && i + 1 < text.size()) {
        const char next = text[i + 1];
        scratch->push_back(next == 'n' ? '\n' : next == 't' ? '\t' : next);
        i += 2;
        continue;
      }
      if (c == '"') break;
      scratch->push_back(c);
      ++i;
    }
  }
  if (i >= text.size()) {
    return Status::ParseError("unterminated literal on line ", line_number);
  }
  *value = *escaped ? std::string_view(*scratch) : text.substr(begin, i - begin);
  ++i;  // closing quote
  if (i < text.size() && text[i] == '@') {
    while (i < text.size() && !IsSpace(text[i])) ++i;
  } else if (i + 1 < text.size() && text[i] == '^' && text[i + 1] == '^') {
    while (i < text.size() && !IsSpace(text[i])) ++i;
  }
  *pos = i;
  return Status::OK();
}

constexpr uint32_t kNoTerm = ~0u;

/// Interns term views to dense ids in first-seen order: an open-addressed
/// table (linear probing, load <= 1/2) of {id, 32-bit hash} slots; the
/// views themselves sit in `terms_`, indexed by id. Views must outlive the
/// table; InternCopy keeps its own copy of the text.
class TermTable {
 public:
  explicit TermTable(size_t expected_terms) {
    size_t capacity = 1024;
    while (capacity < 2 * expected_terms) capacity *= 2;
    slots_.assign(capacity, Slot{kNoTerm, 0});
    terms_.reserve(expected_terms);
  }

  uint32_t Intern(std::string_view text) {
    const uint32_t hash = Hash(text);
    Slot& slot = slots_[Probe(text, hash)];
    if (slot.id != kNoTerm) return slot.id;
    const auto id = static_cast<uint32_t>(terms_.size());
    slot = Slot{id, hash};
    terms_.push_back(text);
    if (2 * terms_.size() > slots_.size()) Grow();
    return id;
  }

  /// Intern for a transient view: copied into stable storage on first sight.
  uint32_t InternCopy(std::string_view text) {
    const uint32_t id = Find(text);
    return id != kNoTerm ? id : Intern(copies_.emplace_back(text));
  }

  /// The id of `text`, or kNoTerm.
  uint32_t Find(std::string_view text) const {
    return slots_[Probe(text, Hash(text))].id;
  }

  std::string_view operator[](uint32_t id) const { return terms_[id]; }
  size_t size() const { return terms_.size(); }

 private:
  struct Slot {
    uint32_t id;
    uint32_t hash;
  };

  static uint32_t Hash(std::string_view text) {
    const uint64_t h = std::hash<std::string_view>{}(text);
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

  /// The index of the slot holding `text`, or of the empty slot where it
  /// belongs.
  size_t Probe(std::string_view text, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kNoTerm || (slot.hash == hash && terms_[slot.id] == text)) {
        return i;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{kNoTerm, 0});
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoTerm) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].id != kNoTerm) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::string_view> terms_;  // by id
  std::deque<std::string> copies_;       // stable storage for InternCopy
};

/// One triple as dense term ids.
struct FlatTriple {
  uint32_t subject;
  uint32_t predicate;
  uint32_t object;
  uint32_t literal;  // 1 when the object is a literal value
};

/// A tokenized text KB. Every distinct term (the text of an IRI between its
/// brackets, a bare predicate, a TSV field, or a literal's value after
/// unescaping) is interned to a dense id; the triples are kept as flat id
/// quadruples in file order. Terms view the input text, which must outlive
/// this object.
class TextTriples {
 public:
  /// Sized by guesses of one triple per 24 bytes and one new term per 100
  /// bytes; both grow past them.
  explicit TextTriples(size_t text_bytes) : terms_(text_bytes / 100) {
    triples_.reserve(text_bytes / 24);
  }

  Status AddNTriplesLine(std::string_view line, size_t line_number);
  Status AddTsvLine(std::string_view line, size_t line_number);

  /// Builds vocabulary, items and edges into `builder`, numbering classes,
  /// items and relations exactly as the file order dictates (see below).
  void BuildInto(KbBuilder* builder) const;

 private:
  TermTable terms_;
  std::vector<FlatTriple> triples_;
  std::string scratch_;  // literal unescape buffer
};

Status TextTriples::AddNTriplesLine(std::string_view line, size_t line_number) {
  std::string_view trimmed = TrimView(line);
  if (trimmed.empty() || trimmed.front() == '#') return Status::OK();

  size_t i = 0;
  std::string_view subject;
  RETURN_NOT_OK(ReadIri(trimmed, &i, &subject, line_number));

  i = SkipSpace(trimmed, i);
  // Predicates may be bare tokens (rdf:type, a) or IRIs.
  std::string_view predicate;
  if (i < trimmed.size() && trimmed[i] == '<') {
    RETURN_NOT_OK(ReadIri(trimmed, &i, &predicate, line_number));
  } else {
    const size_t start = i;
    while (i < trimmed.size() && !IsSpace(trimmed[i])) ++i;
    if (start == i) return Status::ParseError("missing predicate on line ", line_number);
    predicate = trimmed.substr(start, i - start);
  }

  i = SkipSpace(trimmed, i);
  if (i >= trimmed.size()) {
    return Status::ParseError("missing object on line ", line_number);
  }
  std::string_view object;
  const bool literal = trimmed[i] == '"';
  bool escaped = false;
  if (literal) {
    RETURN_NOT_OK(
        ParseLiteral(trimmed, &i, &scratch_, &object, &escaped, line_number));
  } else {
    RETURN_NOT_OK(ReadIri(trimmed, &i, &object, line_number));
  }

  i = SkipSpace(trimmed, i);
  if (i >= trimmed.size() || trimmed[i] != '.') {
    return Status::ParseError("expected terminating '.' on line ", line_number);
  }
  if (SkipSpace(trimmed, i + 1) != trimmed.size()) {
    return Status::ParseError("trailing content after '.' on line ", line_number);
  }
  const uint32_t s = terms_.Intern(subject);
  const uint32_t p = terms_.Intern(predicate);
  const uint32_t o = escaped ? terms_.InternCopy(object) : terms_.Intern(object);
  triples_.push_back({s, p, o, literal ? 1u : 0u});
  return Status::OK();
}

Status TextTriples::AddTsvLine(std::string_view line, size_t line_number) {
  std::string_view trimmed = TrimView(line);
  if (trimmed.empty() || trimmed.front() == '#') return Status::OK();
  const size_t tab1 = trimmed.find('\t');
  const size_t tab2 =
      tab1 == std::string_view::npos ? tab1 : trimmed.find('\t', tab1 + 1);
  if (tab2 == std::string_view::npos ||
      trimmed.find('\t', tab2 + 1) != std::string_view::npos) {
    const size_t fields = 1 + static_cast<size_t>(
                                  std::count(trimmed.begin(), trimmed.end(), '\t'));
    return Status::ParseError("expected 3 tab-separated fields on line ", line_number,
                              ", got ", fields);
  }
  const std::string_view subject = TrimView(trimmed.substr(0, tab1));
  const std::string_view predicate =
      TrimView(trimmed.substr(tab1 + 1, tab2 - tab1 - 1));
  std::string_view object = TrimView(trimmed.substr(tab2 + 1));
  const bool literal =
      object.size() >= 2 && object.front() == '"' && object.back() == '"';
  if (literal) object = object.substr(1, object.size() - 2);
  if (subject.empty() || predicate.empty()) {
    return Status::ParseError("empty subject or predicate on line ", line_number);
  }
  const uint32_t s = terms_.Intern(subject);
  const uint32_t p = terms_.Intern(predicate);
  const uint32_t o = terms_.Intern(object);
  triples_.push_back({s, p, o, literal ? 1u : 0u});
  return Status::OK();
}

// The build is a few passes over the flat triples in file order, each a
// lookup into per-term arrays; names are prettified and normalized once per
// distinct term. What the passes pin:
//   - A term is a class iff it is (a) the object of a type triple (unless the
//     object is a class marker, which makes the subject a class) or (b)
//     either side of a subClassOf triple. Classes are numbered by iterating
//     an unordered_set of their names filled in file order, so the ids match
//     every earlier build of the same file.
//   - An explicit label beats the prettified IRI whatever the triple order;
//     the last label triple of a subject wins.
//   - Entities, literals and relations are numbered by first use in the
//     third pass; a type triple whose subject is a class makes no entity.
void TextTriples::BuildInto(KbBuilder* builder) const {
  // Schema roles by term id: the few schema names are looked up once (the
  // name sets are disjoint). A predicate with no schema role is a relation.
  enum Role : uint8_t { kRelation, kType, kSubclass, kLabel, kClassMarker };
  const size_t num_terms = terms_.size();
  std::vector<uint8_t> role(num_terms, kRelation);
  auto assign = [&](std::span<const std::string_view> names, Role r) {
    for (std::string_view name : names) {
      const uint32_t term = terms_.Find(name);
      if (term != kNoTerm) role[term] = r;
    }
  };
  assign(kTypePredicates, kType);
  assign(kSubclassPredicates, kSubclass);
  assign(kLabelPredicates, kLabel);
  assign(kClassMarkers, kClassMarker);
  auto is_class_marker = [&](uint32_t term) { return role[term] == kClassMarker; };

  // Pass 1: class names. Only first sightings reach the set, which leaves
  // its iteration order as if every sighting had been inserted.
  std::vector<uint8_t> is_class(num_terms, 0);
  std::unordered_set<std::string> class_names;
  auto mark_class = [&](uint32_t term) {
    if (is_class[term] != 0) return;
    is_class[term] = 1;
    class_names.emplace(terms_[term]);
  };
  for (const FlatTriple& t : triples_) {
    const uint8_t r = role[t.predicate];
    if (r == kSubclass) {
      mark_class(t.subject);
      mark_class(t.object);
    } else if (r == kType && t.literal == 0) {
      mark_class(is_class_marker(t.object) ? t.subject : t.object);
    }
  }

  // Pass 2: explicit labels.
  std::vector<uint32_t> label_of(num_terms, kNoTerm);
  for (const FlatTriple& t : triples_) {
    if (t.literal != 0 && role[t.predicate] == kLabel) label_of[t.subject] = t.object;
  }

  std::vector<ClassId> class_of(num_terms);
  for (const std::string& name : class_names) {
    class_of[terms_.Find(name)] = builder->AddClass(PrettifyLocalName(name));
  }

  // Pass 3: entities, literals, relations and edges.
  std::vector<ItemId> entity_of(num_terms);
  std::vector<ItemId> literal_of(num_terms);
  std::vector<RelationId> relation_of(num_terms);
  auto entity_for = [&](uint32_t term) {
    ItemId& id = entity_of[term];
    if (!id.valid()) {
      id = label_of[term] != kNoTerm
               ? builder->AddEntity(terms_[label_of[term]], {})
               : builder->AddEntity(PrettifyLocalName(terms_[term]), {});
    }
    return id;
  };
  for (const FlatTriple& t : triples_) {
    const uint8_t r = role[t.predicate];
    if (r == kSubclass) continue;  // pass 4
    if (r == kType && t.literal == 0) {
      if (is_class_marker(t.object)) continue;  // class declaration
      if (is_class[t.subject] != 0) continue;   // classes aren't entities
      builder->AddClassToEntity(entity_for(t.subject), class_of[t.object]);
      continue;
    }
    if (r == kLabel && t.literal != 0) continue;  // applied at entity creation
    const ItemId subject = entity_for(t.subject);
    RelationId& relation = relation_of[t.predicate];
    if (!relation.valid()) {
      relation = builder->AddRelation(PrettifyLocalName(terms_[t.predicate]));
    }
    ItemId object;
    if (t.literal != 0) {
      ItemId& literal = literal_of[t.object];
      if (!literal.valid()) literal = builder->AddLiteral(terms_[t.object]);
      object = literal;
    } else {
      object = entity_for(t.object);
    }
    builder->AddEdge(subject, relation, object);
  }

  // Pass 4: the taxonomy.
  for (const FlatTriple& t : triples_) {
    if (role[t.predicate] == kSubclass) {
      builder->AddSubclass(class_of[t.subject], class_of[t.object]);
    }
  }
}

enum class TextFormat { kNTriples, kTsv };

/// Tokenizes `text` line by line (lines split with memchr, each checked
/// against the line limits; a parse error names the line's byte offset and
/// quotes it), then builds the KB's contents into `builder`. The
/// `kb.parse_text` span covers both; the freeze is the caller's.
Status ParseTextInto(std::string_view text, TextFormat format, KbBuilder* builder) {
  DETECTIVE_TRACE_NAMED_SPAN(span, "kb.parse_text");
  TextTriples triples(text.size());
  const auto add_line = format == TextFormat::kTsv ? &TextTriples::AddTsvLine
                                                   : &TextTriples::AddNTriplesLine;
  size_t line_number = 1;
  size_t start = 0;
  while (true) {
    const void* newline =
        start < text.size()
            ? std::memchr(text.data() + start, '\n', text.size() - start)
            : nullptr;
    const size_t end = newline != nullptr
                           ? static_cast<size_t>(static_cast<const char*>(newline) -
                                                 text.data())
                           : text.size();
    const std::string_view line = text.substr(start, end - start);
    Status st = CheckLineLimits(line, line_number);
    if (st.ok()) st = (triples.*add_line)(line, line_number);
    if (!st.ok()) return AnnotateLineError(st, line, start);
    if (newline == nullptr) break;
    start = end + 1;
    ++line_number;
  }
  span.SetArgs({"bytes", static_cast<int64_t>(text.size())},
               {"lines", static_cast<int64_t>(line_number)});
  triples.BuildInto(builder);
  return Status::OK();
}

Result<KnowledgeBase> Freeze(KbBuilder builder) {
  KnowledgeBase kb;
  RETURN_NOT_OK(std::move(builder).FreezeInto(&kb));
  return kb;
}

Result<KnowledgeBase> ParseText(std::string_view text, TextFormat format) {
  KbBuilder builder;
  RETURN_NOT_OK(ParseTextInto(text, format, &builder));
  return Freeze(std::move(builder));
}

/// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

/// Reads the whole file into one buffer (sized by fstat, then read() until
/// EOF), retrying transient I/O failures (including injected ones at the
/// "kb.load" probe) with capped backoff; parse errors downstream are
/// permanent and never retried.
Result<std::string> ReadKbFile(const std::string& path) {
  return fault::RetryTransient([&]() -> Result<std::string> {
    DETECTIVE_FAULT_POINT("kb.load");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError("cannot open ", path);
    FdCloser closer(fd);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) return Status::IOError("read failed for ", path);
    // st_size is only a hint (0 for pipes): read until EOF, growing as needed.
    std::string text(static_cast<size_t>(std::max<off_t>(st.st_size, 0)) + 1, '\0');
    size_t size = 0;
    while (true) {
      if (size == text.size()) text.resize(text.size() * 2);
      const ssize_t n = ::read(fd, text.data() + size, text.size() - size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("read failed for ", path);
      }
      if (n == 0) break;
      size += static_cast<size_t>(n);
    }
    text.resize(size);
    return text;
  });
}

}  // namespace

Result<KnowledgeBase> ParseNTriples(std::string_view text) {
  return ParseText(text, TextFormat::kNTriples);
}

Result<KnowledgeBase> ParseTsvTriples(std::string_view text) {
  return ParseText(text, TextFormat::kTsv);
}

Result<KnowledgeBase> LoadKbFile(const std::string& path) {
  KbBuilder builder;
  {
    ASSIGN_OR_RETURN(const std::string text, ReadKbFile(path));
    RETURN_NOT_OK(ParseTextInto(
        text, EndsWith(path, ".tsv") ? TextFormat::kTsv : TextFormat::kNTriples,
        &builder));
  }  // the file buffer is released before the freeze allocates its pools
  return Freeze(std::move(builder));
}

namespace {

std::string EscapeIri(std::string_view label) {
  std::string out = ReplaceAll(label, " ", "_");
  // Angle brackets and whitespace are the only characters our reader cannot
  // round-trip inside an IRI.
  out = ReplaceAll(out, "<", "(");
  out = ReplaceAll(out, ">", ")");
  return out;
}

std::string EscapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string ToNTriples(const KnowledgeBase& kb) {
  std::ostringstream out;
  // Class declarations and taxonomy.
  for (uint32_t c = 0; c < kb.num_classes(); ++c) {
    ClassId cls(c);
    if (cls == kb.literal_class()) continue;
    std::string class_iri = EscapeIri(kb.ClassName(cls));
    out << "<" << class_iri << "> rdf:type <rdfs:Class> .\n";
    // Direct parents are not exposed; emit the ancestor closure minus self,
    // which parses back to an equivalent taxonomy.
    for (ClassId ancestor : kb.AncestorsOf(cls)) {
      if (ancestor == cls) continue;
      out << "<" << class_iri << "> rdfs:subClassOf <"
          << EscapeIri(kb.ClassName(ancestor)) << "> .\n";
    }
  }
  // Entities: identity is the item id, label carried via rdfs:label.
  auto iri_of = [](ItemId id) { return "e" + std::to_string(id.value()); };
  for (uint32_t i = 0; i < kb.num_items(); ++i) {
    ItemId item(i);
    if (kb.IsLiteral(item)) continue;
    out << "<" << iri_of(item) << "> rdfs:label \"" << EscapeLiteral(kb.Label(item))
        << "\" .\n";
    for (ClassId cls : kb.DirectClasses(item)) {
      out << "<" << iri_of(item) << "> rdf:type <" << EscapeIri(kb.ClassName(cls))
          << "> .\n";
    }
    for (const KbEdge& edge : kb.OutEdges(item)) {
      out << "<" << iri_of(item) << "> <" << EscapeIri(kb.RelationName(edge.relation))
          << "> ";
      if (kb.IsLiteral(edge.target)) {
        out << "\"" << EscapeLiteral(kb.Label(edge.target)) << "\"";
      } else {
        out << "<" << iri_of(edge.target) << ">";
      }
      out << " .\n";
    }
  }
  return out.str();
}

std::string ToTsvTriples(const KnowledgeBase& kb) {
  std::ostringstream out;
  auto iri_of = [](ItemId id) { return "e" + std::to_string(id.value()); };
  for (uint32_t c = 0; c < kb.num_classes(); ++c) {
    ClassId cls(c);
    if (cls == kb.literal_class()) continue;
    std::string class_iri = EscapeIri(kb.ClassName(cls));
    out << class_iri << "\trdf:type\trdfs:Class\n";
    for (ClassId ancestor : kb.AncestorsOf(cls)) {
      if (ancestor == cls) continue;
      out << class_iri << "\trdfs:subClassOf\t" << EscapeIri(kb.ClassName(ancestor))
          << "\n";
    }
  }
  for (uint32_t i = 0; i < kb.num_items(); ++i) {
    ItemId item(i);
    if (kb.IsLiteral(item)) continue;
    // TSV fields cannot hold tabs/newlines; labels are normalized at build
    // time so plain emission is safe.
    out << iri_of(item) << "\trdfs:label\t\"" << kb.Label(item) << "\"\n";
    for (ClassId cls : kb.DirectClasses(item)) {
      out << iri_of(item) << "\trdf:type\t" << EscapeIri(kb.ClassName(cls)) << "\n";
    }
    for (const KbEdge& edge : kb.OutEdges(item)) {
      out << iri_of(item) << "\t" << EscapeIri(kb.RelationName(edge.relation))
          << "\t";
      if (kb.IsLiteral(edge.target)) {
        out << "\"" << kb.Label(edge.target) << "\"";
      } else {
        out << iri_of(edge.target);
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace detective

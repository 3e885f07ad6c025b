#ifndef DETECTIVE_KB_NTRIPLES_PARSER_H_
#define DETECTIVE_KB_NTRIPLES_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "kb/knowledge_base.h"

namespace detective {

/// Resource-exhaustion guards for the triple loaders: a single line longer
/// than kMaxKbLineBytes, or a file with more than kMaxKbLines lines, is
/// rejected with a descriptive Status instead of being buffered without
/// bound.
inline constexpr size_t kMaxKbLineBytes = size_t{1} << 20;  // 1 MiB
inline constexpr size_t kMaxKbLines = 50'000'000;

/// Hand-rolled parser for the N-Triples subset that Yago/DBpedia dumps use
/// in practice (no prefixes, no blank nodes, no datatype/lang tags needed by
/// the cleaning algorithms — tags are accepted and stripped).
///
/// Accepted line forms ('#' starts a comment; blank lines are skipped):
///
///   <subject> <predicate> <object> .
///   <subject> <predicate> "literal value" .
///
/// Three predicates receive schema treatment:
///   rdf:type / <rdf:type>         — types the subject with the object class
///   rdfs:subClassOf               — taxonomy edge between two classes
///   rdfs:label                    — sets the subject's display label
///
/// Every other predicate becomes a relationship (entity object) or property
/// (literal object). IRIs are reduced to their local name; underscores become
/// spaces, so `<Avram_Hershko>` matches the cell value "Avram Hershko".
///
/// The same data can be supplied as TAB-separated values (one triple per
/// line, literal objects double-quoted); see ParseTsvTriples.
///
/// Both formats load in one flat pass: terms are interned to dense ids as
/// views into the text (a literal is copied only when it holds an escape),
/// the triples become flat id quadruples, and a few passes over them in file
/// order fill a KbBuilder, whose freeze is shared with every other KB.
Result<KnowledgeBase> ParseNTriples(std::string_view text);

/// TSV flavour: `subject<TAB>predicate<TAB>object`, with `"..."` marking
/// literal objects. Schema predicates behave as in ParseNTriples.
Result<KnowledgeBase> ParseTsvTriples(std::string_view text);

/// Loads a KB file, dispatching on the extension: `.tsv` selects the TSV
/// triple format, anything else the N-Triples subset. The one loader every
/// CLI tool shares. The file is read into one buffer sized by fstat.
Result<KnowledgeBase> LoadKbFile(const std::string& path);

/// Serializes a KnowledgeBase back to the N-Triples subset (round-trips
/// through ParseNTriples; used by tests and by the example programs to show
/// the generated KBs).
std::string ToNTriples(const KnowledgeBase& kb);

/// TSV counterpart of ToNTriples (round-trips through ParseTsvTriples).
std::string ToTsvTriples(const KnowledgeBase& kb);

}  // namespace detective

#endif  // DETECTIVE_KB_NTRIPLES_PARSER_H_

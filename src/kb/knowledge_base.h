#ifndef DETECTIVE_KB_KNOWLEDGE_BASE_H_
#define DETECTIVE_KB_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kb/ids.h"

namespace detective {

/// One edge of the KB graph, in query results.
struct KbEdge {
  RelationId relation;
  ItemId target;

  friend bool operator==(const KbEdge&, const KbEdge&) = default;
  friend bool operator<(const KbEdge& a, const KbEdge& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.target < b.target;
  }
};

/// In-memory RDF-style knowledge base (paper §II-A).
///
/// Vertices ("items") are entities or literals; labelled directed edges carry
/// relationships (entity→entity) and properties (entity→literal); entities
/// belong to classes arranged in a subClassOf taxonomy (Yago-style).
///
/// A KnowledgeBase is immutable: construct one through `KbBuilder` (which
/// finalizes indexes) or a parser in ntriples_parser.h. All queries are
/// const, O(log degree) or better, and thread-compatible.
///
/// The frozen representation is arena-style: item labels live in one
/// concatenated blob addressed by an offsets array, and the per-item class
/// lists, adjacency lists, and the label index are flat pools sliced by
/// offset arrays — no per-item heap objects. That keeps cache locality high
/// and lets kb/snapshot.h reconstruct a KB from its binary snapshot with a
/// handful of bulk array reads instead of millions of small allocations.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  KnowledgeBase(KnowledgeBase&&) noexcept = default;
  KnowledgeBase& operator=(KnowledgeBase&&) noexcept = default;

  // ---- Vocabulary lookups --------------------------------------------------

  /// Id of the built-in class that types all literals. Always valid.
  ClassId literal_class() const { return literal_class_; }

  /// Finds a class/relation by name; Invalid() when absent.
  ClassId FindClass(std::string_view name) const;
  RelationId FindRelation(std::string_view name) const;

  std::string_view ClassName(ClassId id) const;
  std::string_view RelationName(RelationId id) const;

  size_t num_classes() const { return classes_.size(); }
  size_t num_relations() const { return relation_names_.size(); }
  size_t num_items() const { return literal_flags_.size(); }
  size_t num_entities() const { return num_entities_; }
  size_t num_edges() const { return num_edges_; }

  // ---- Item queries --------------------------------------------------------

  std::string_view Label(ItemId id) const {
    const size_t i = id.value();
    return std::string_view(label_blob_)
        .substr(static_cast<size_t>(label_offsets_[i]),
                static_cast<size_t>(label_offsets_[i + 1] - label_offsets_[i]));
  }
  bool IsLiteral(ItemId id) const { return literal_flags_[id.value()] != 0; }

  /// Direct classes of an entity (empty for literals).
  std::span<const ClassId> DirectClasses(ItemId id) const;

  /// True iff `item` is an instance of `cls`, honouring the subClassOf
  /// closure; every literal is an instance of `literal_class()` only.
  bool IsInstanceOf(ItemId item, ClassId cls) const;

  /// All items of a class, subClassOf closure included (for the literal
  /// class: all literals). Precomputed at freeze time; O(1) span access.
  std::span<const ItemId> InstancesOf(ClassId cls) const;

  /// Items whose label equals `label` exactly (labels are normalized at
  /// build time with NormalizeWhitespace). Binary search over the frozen
  /// label-sorted group index: O(log #labels) string compares.
  std::span<const ItemId> ItemsWithLabel(std::string_view label) const;

  // ---- Edge queries --------------------------------------------------------

  /// All out-edges of `source`, sorted by (relation, target).
  std::span<const KbEdge> OutEdges(ItemId source) const;
  /// All in-edges of `target`, sorted by (relation, source).
  std::span<const KbEdge> InEdges(ItemId target) const;

  /// Objects o with (source, relation, o) in the KB.
  std::span<const KbEdge> Objects(ItemId source, RelationId relation) const;
  /// Subjects s with (s, relation, target) in the KB.
  std::span<const KbEdge> Subjects(RelationId relation, ItemId target) const;

  /// True iff the triple (source, relation, target) exists. O(log degree).
  bool HasEdge(ItemId source, RelationId relation, ItemId target) const;

  /// Ancestor closure of a class (including itself), sorted.
  std::span<const ClassId> AncestorsOf(ClassId cls) const;

  /// True iff `sub` == `super` or `sub` is a (transitive) subclass.
  bool IsSubclassOf(ClassId sub, ClassId super) const;

  /// Human-readable one-line summary, e.g. for logs and Table II output.
  std::string DebugSummary() const;

 private:
  friend class KbBuilder;
  friend class KbSnapshotCodec;  // kb/snapshot.h: flat binary (de)serialization

  struct ClassInfo {
    std::string name;
    std::vector<ClassId> parents;      // direct superclasses
    std::vector<ClassId> ancestors;    // transitive closure incl. self, sorted
    std::vector<ItemId> instances;     // closure instances, sorted (frozen)
  };

  static std::span<const KbEdge> EdgeRange(std::span<const KbEdge> edges,
                                           RelationId relation);

  /// Label of the g-th label-index group (all members share it).
  std::string_view GroupLabel(size_t group) const {
    return Label(label_group_pool_[label_group_offsets_[group]]);
  }

  ClassId literal_class_;
  std::vector<ClassInfo> classes_;
  std::unordered_map<std::string, ClassId> class_by_name_;

  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, RelationId> relation_by_name_;

  // Frozen per-item storage: one offsets array + one pool per aspect, all
  // parallel to item id. offsets arrays hold num_items + 1 entries.
  std::string label_blob_;                    // labels concatenated in id order
  std::vector<uint64_t> label_offsets_;
  std::vector<uint8_t> literal_flags_;
  std::vector<uint64_t> item_class_offsets_;  // direct classes
  std::vector<ClassId> item_class_pool_;
  std::vector<uint64_t> out_edge_offsets_;    // sorted by (relation, target)
  std::vector<KbEdge> out_edge_pool_;
  std::vector<uint64_t> in_edge_offsets_;     // sorted by (relation, source)
  std::vector<KbEdge> in_edge_pool_;
  // Label index: groups of item ids sharing a label, groups ordered by label
  // (strictly increasing), members ascending. num_groups + 1 offsets.
  std::vector<uint64_t> label_group_offsets_;
  std::vector<ItemId> label_group_pool_;
  size_t num_entities_ = 0;
  size_t num_edges_ = 0;
};

/// Mutating construction API for KnowledgeBase. The text loaders
/// (ntriples_parser.h), the data generators and the tests all build through
/// it, so every KB is frozen by the same code.
///
/// Typical use:
///   KbBuilder b;
///   ClassId city = b.AddClass("city");
///   ItemId haifa = b.AddEntity("Haifa", {city});
///   ItemId technion = b.AddEntity("Israel Institute of Technology", {org});
///   b.AddEdge(technion, b.AddRelation("locatedIn"), haifa);
///   KnowledgeBase kb = std::move(b).Freeze();
class KbBuilder {
 public:
  KbBuilder();

  /// Declares (or finds) a class. `parents` may name classes not yet added;
  /// they are created on the fly.
  ClassId AddClass(std::string_view name,
                   const std::vector<std::string>& parents = {});

  /// Adds a subClassOf edge between existing or new classes.
  void AddSubclass(std::string_view sub, std::string_view super);
  void AddSubclass(ClassId sub, ClassId super);

  /// Declares (or finds) an edge label.
  RelationId AddRelation(std::string_view name);

  /// Creates a new entity vertex. Labels are normalized; entities with equal
  /// labels remain distinct vertices (homonyms are real in KBs).
  ItemId AddEntity(std::string_view label, const std::vector<ClassId>& classes);

  /// Adds `cls` to an existing entity.
  void AddClassToEntity(ItemId entity, ClassId cls);

  /// Returns the literal vertex for `value`, creating it on first use
  /// (literals are deduplicated by value).
  ItemId AddLiteral(std::string_view value);

  /// Adds the triple (subject, relation, object). Duplicate triples are
  /// deduplicated at freeze time.
  void AddEdge(ItemId subject, RelationId relation, ItemId object);

  size_t num_items() const { return kb_.literal_flags_.size(); }

  /// Validates the taxonomy (rejects subClassOf cycles), computes ancestor
  /// closures and per-class instance lists, builds the out/in adjacency by
  /// counting sort over the edge list (each row sorted by (relation, id) and
  /// deduplicated), and the label index from the item ids sorted by label.
  /// The builder is consumed.
  Status FreezeInto(KnowledgeBase* out) &&;

  /// Convenience wrapper that aborts on invalid input; for generators and
  /// tests whose input is correct by construction.
  KnowledgeBase Freeze() &&;

 private:
  struct Edge {
    ItemId subject;
    RelationId relation;
    ItemId object;
  };
  struct ItemClass {
    ItemId item;
    ClassId cls;
  };

  KnowledgeBase kb_;
  // Construction state, in insertion order; FreezeInto turns both lists into
  // the frozen per-item pools. Labels go straight into kb_.label_blob_ (they
  // never change once added).
  std::vector<ItemClass> item_classes_;
  std::vector<Edge> edges_;
  std::unordered_map<std::string, ItemId> literal_by_value_;
};

}  // namespace detective

#endif  // DETECTIVE_KB_KNOWLEDGE_BASE_H_

#include "kb/knowledge_base.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace detective {

namespace {
constexpr std::string_view kLiteralClassName = "literal";
}  // namespace

// ---- KnowledgeBase queries --------------------------------------------------

ClassId KnowledgeBase::FindClass(std::string_view name) const {
  auto it = class_by_name_.find(std::string(name));
  return it == class_by_name_.end() ? ClassId::Invalid() : it->second;
}

RelationId KnowledgeBase::FindRelation(std::string_view name) const {
  auto it = relation_by_name_.find(std::string(name));
  return it == relation_by_name_.end() ? RelationId::Invalid() : it->second;
}

std::string_view KnowledgeBase::ClassName(ClassId id) const {
  return classes_[id.value()].name;
}

std::string_view KnowledgeBase::RelationName(RelationId id) const {
  return relation_names_[id.value()];
}

std::span<const ClassId> KnowledgeBase::DirectClasses(ItemId id) const {
  const size_t i = id.value();
  return std::span<const ClassId>(item_class_pool_)
      .subspan(static_cast<size_t>(item_class_offsets_[i]),
               static_cast<size_t>(item_class_offsets_[i + 1] -
                                   item_class_offsets_[i]));
}

bool KnowledgeBase::IsInstanceOf(ItemId item, ClassId cls) const {
  DETECTIVE_COUNT("kb.instance_checks");
  if (IsLiteral(item)) return cls == literal_class_;
  if (cls == literal_class_) return false;
  for (ClassId direct : DirectClasses(item)) {
    const std::vector<ClassId>& ancestors = classes_[direct.value()].ancestors;
    if (std::binary_search(ancestors.begin(), ancestors.end(), cls)) return true;
  }
  return false;
}

std::span<const ItemId> KnowledgeBase::InstancesOf(ClassId cls) const {
  return classes_[cls.value()].instances;
}

std::span<const ItemId> KnowledgeBase::ItemsWithLabel(std::string_view label) const {
  DETECTIVE_COUNT("kb.label_lookups");
  // Groups are ordered by strictly increasing label: binary search for it.
  size_t lo = 0;
  size_t hi = label_group_offsets_.empty() ? 0 : label_group_offsets_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (GroupLabel(mid) < label) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == label_group_offsets_.size() - 1 || label_group_offsets_.empty() ||
      GroupLabel(lo) != label) {
    return {};
  }
  DETECTIVE_COUNT("kb.label_hits");
  return std::span<const ItemId>(label_group_pool_)
      .subspan(static_cast<size_t>(label_group_offsets_[lo]),
               static_cast<size_t>(label_group_offsets_[lo + 1] -
                                   label_group_offsets_[lo]));
}

std::span<const KbEdge> KnowledgeBase::OutEdges(ItemId source) const {
  const size_t i = source.value();
  return std::span<const KbEdge>(out_edge_pool_)
      .subspan(static_cast<size_t>(out_edge_offsets_[i]),
               static_cast<size_t>(out_edge_offsets_[i + 1] -
                                   out_edge_offsets_[i]));
}

std::span<const KbEdge> KnowledgeBase::InEdges(ItemId target) const {
  const size_t i = target.value();
  return std::span<const KbEdge>(in_edge_pool_)
      .subspan(static_cast<size_t>(in_edge_offsets_[i]),
               static_cast<size_t>(in_edge_offsets_[i + 1] -
                                   in_edge_offsets_[i]));
}

std::span<const KbEdge> KnowledgeBase::EdgeRange(std::span<const KbEdge> edges,
                                                 RelationId relation) {
  auto lower = std::lower_bound(
      edges.begin(), edges.end(), relation,
      [](const KbEdge& e, RelationId r) { return e.relation < r; });
  auto upper = std::upper_bound(
      edges.begin(), edges.end(), relation,
      [](RelationId r, const KbEdge& e) { return r < e.relation; });
  return edges.subspan(static_cast<size_t>(lower - edges.begin()),
                       static_cast<size_t>(upper - lower));
}

std::span<const KbEdge> KnowledgeBase::Objects(ItemId source,
                                               RelationId relation) const {
  DETECTIVE_COUNT("kb.edge_queries");
  std::span<const KbEdge> edges = OutEdges(source);
  if (edges.empty()) return {};
  return EdgeRange(edges, relation);
}

std::span<const KbEdge> KnowledgeBase::Subjects(RelationId relation,
                                                ItemId target) const {
  DETECTIVE_COUNT("kb.edge_queries");
  std::span<const KbEdge> edges = InEdges(target);
  if (edges.empty()) return {};
  return EdgeRange(edges, relation);
}

bool KnowledgeBase::HasEdge(ItemId source, RelationId relation, ItemId target) const {
  DETECTIVE_COUNT("kb.edge_checks");
  std::span<const KbEdge> edges = OutEdges(source);
  return std::binary_search(edges.begin(), edges.end(), KbEdge{relation, target});
}

std::span<const ClassId> KnowledgeBase::AncestorsOf(ClassId cls) const {
  return classes_[cls.value()].ancestors;
}

bool KnowledgeBase::IsSubclassOf(ClassId sub, ClassId super) const {
  const std::vector<ClassId>& ancestors = classes_[sub.value()].ancestors;
  return std::binary_search(ancestors.begin(), ancestors.end(), super);
}

std::string KnowledgeBase::DebugSummary() const {
  std::ostringstream out;
  out << "KnowledgeBase{classes=" << num_classes() << ", relations=" << num_relations()
      << ", entities=" << num_entities() << ", literals=" << (num_items() - num_entities())
      << ", edges=" << num_edges() << "}";
  return out.str();
}

// ---- KbBuilder ---------------------------------------------------------------

KbBuilder::KbBuilder() {
  kb_.label_offsets_.push_back(0);
  kb_.literal_class_ = AddClass(kLiteralClassName);
}

ClassId KbBuilder::AddClass(std::string_view name,
                            const std::vector<std::string>& parents) {
  std::string key(name);
  auto [it, inserted] = kb_.class_by_name_.try_emplace(key, ClassId::Invalid());
  if (inserted) {
    it->second = ClassId(static_cast<uint32_t>(kb_.classes_.size()));
    kb_.classes_.push_back({.name = std::move(key), .parents = {}, .ancestors = {},
                            .instances = {}});
  }
  ClassId id = it->second;
  for (const std::string& parent : parents) {
    ClassId parent_id = AddClass(parent);
    kb_.classes_[id.value()].parents.push_back(parent_id);
  }
  return id;
}

void KbBuilder::AddSubclass(std::string_view sub, std::string_view super) {
  const ClassId sub_id = AddClass(sub);  // before `super`: ids in call order
  AddSubclass(sub_id, AddClass(super));
}

void KbBuilder::AddSubclass(ClassId sub, ClassId super) {
  kb_.classes_[sub.value()].parents.push_back(super);
}

RelationId KbBuilder::AddRelation(std::string_view name) {
  std::string key(name);
  auto [it, inserted] =
      kb_.relation_by_name_.try_emplace(key, RelationId::Invalid());
  if (inserted) {
    it->second = RelationId(static_cast<uint32_t>(kb_.relation_names_.size()));
    kb_.relation_names_.push_back(std::move(key));
  }
  return it->second;
}

ItemId KbBuilder::AddEntity(std::string_view label,
                            const std::vector<ClassId>& classes) {
  ItemId id(static_cast<uint32_t>(num_items()));
  kb_.label_blob_ += NormalizeWhitespace(label);
  kb_.label_offsets_.push_back(kb_.label_blob_.size());
  kb_.literal_flags_.push_back(0);
  for (ClassId cls : classes) item_classes_.push_back({id, cls});
  ++kb_.num_entities_;
  return id;
}

void KbBuilder::AddClassToEntity(ItemId entity, ClassId cls) {
  DETECTIVE_CHECK(kb_.literal_flags_[entity.value()] == 0);
  item_classes_.push_back({entity, cls});
}

ItemId KbBuilder::AddLiteral(std::string_view value) {
  std::string normalized = NormalizeWhitespace(value);
  auto [it, inserted] = literal_by_value_.try_emplace(normalized, ItemId::Invalid());
  if (!inserted) return it->second;
  ItemId id(static_cast<uint32_t>(num_items()));
  it->second = id;
  kb_.label_blob_ += normalized;
  kb_.label_offsets_.push_back(kb_.label_blob_.size());
  kb_.literal_flags_.push_back(1);
  return id;
}

void KbBuilder::AddEdge(ItemId subject, RelationId relation, ItemId object) {
  DETECTIVE_CHECK(subject.valid() && relation.valid() && object.valid());
  DETECTIVE_CHECK(kb_.literal_flags_[subject.value()] == 0)
      << "literals cannot be triple subjects";
  edges_.push_back({subject, relation, object});
}

namespace {

/// Stable counting sort of `entries` by `key(entry)`, a value below
/// `num_keys`. When `offsets` is given it receives the CSR offsets of the
/// keys: num_keys + 1 entries, key k's run at [offsets[k], offsets[k + 1]).
template <typename Entry, typename Key>
std::vector<Entry> CountingSort(const std::vector<Entry>& entries, size_t num_keys,
                                Key key, std::vector<uint64_t>* offsets = nullptr) {
  std::vector<uint64_t> next(num_keys + 1, 0);
  for (const Entry& entry : entries) ++next[key(entry) + 1];
  for (size_t k = 0; k < num_keys; ++k) next[k + 1] += next[k];
  if (offsets != nullptr) *offsets = next;
  std::vector<Entry> sorted(entries.size());
  for (const Entry& entry : entries) {
    sorted[static_cast<size_t>(next[key(entry)]++)] = entry;
  }
  return sorted;
}

/// Sorts each CSR row and drops repeated entries, compacting the pool.
void SortAndDedupRows(std::vector<uint64_t>* offsets, std::vector<KbEdge>* pool) {
  const size_t rows = offsets->size() - 1;
  size_t write = 0;
  uint64_t row_begin = 0;
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t row_end = (*offsets)[r + 1];
    auto first = pool->begin() + static_cast<std::ptrdiff_t>(row_begin);
    auto last = pool->begin() + static_cast<std::ptrdiff_t>(row_end);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    (*offsets)[r] = write;
    for (auto it = first; it != last; ++it) {
      if (it == first || !(*it == (*pool)[write - 1])) (*pool)[write++] = *it;
    }
    row_begin = row_end;
  }
  (*offsets)[rows] = write;
  pool->resize(write);
}

}  // namespace

Status KbBuilder::FreezeInto(KnowledgeBase* out) && {
  DETECTIVE_SCOPED_TIMER("kb.freeze");
  DETECTIVE_TRACE_SPAN("kb.freeze",
                       {"items", static_cast<int64_t>(num_items())});
  const size_t num_classes = kb_.classes_.size();

  // Ancestor closure by DFS with cycle detection (0 = white, 1 = on stack,
  // 2 = done). The taxonomy is small relative to the instance data, so the
  // quadratic worst case of storing full closures is acceptable and buys
  // O(log a) IsInstanceOf checks.
  std::vector<int> color(num_classes, 0);
  std::vector<std::vector<ClassId>> closures(num_classes);
  // Iterative DFS to keep deep taxonomies off the call stack.
  for (uint32_t root = 0; root < num_classes; ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<uint32_t, size_t>> stack;  // (class, next parent idx)
    stack.emplace_back(root, 0);
    color[root] = 1;
    while (!stack.empty()) {
      auto& [cls, next] = stack.back();
      const std::vector<ClassId>& parents = kb_.classes_[cls].parents;
      if (next < parents.size()) {
        ClassId parent = parents[next++];
        if (color[parent.value()] == 1) {
          return Status::InvalidArgument("subClassOf cycle involving class '",
                                         kb_.classes_[parent.value()].name, "'");
        }
        if (color[parent.value()] == 0) {
          color[parent.value()] = 1;
          stack.emplace_back(parent.value(), 0);
        }
        continue;
      }
      // All parents done: closure = self ∪ parents' closures.
      std::vector<ClassId>& closure = closures[cls];
      closure.push_back(ClassId(cls));
      for (ClassId parent : parents) {
        const std::vector<ClassId>& pc = closures[parent.value()];
        closure.insert(closure.end(), pc.begin(), pc.end());
      }
      std::sort(closure.begin(), closure.end());
      closure.erase(std::unique(closure.begin(), closure.end()), closure.end());
      color[cls] = 2;
      stack.pop_back();
    }
  }
  for (uint32_t c = 0; c < num_classes; ++c) {
    kb_.classes_[c].ancestors = std::move(closures[c]);
  }

  // Direct classes per item, in the order they were added.
  const size_t items = num_items();
  {
    std::vector<ItemClass> sorted = CountingSort(
        item_classes_, items, [](const ItemClass& e) { return e.item.value(); },
        &kb_.item_class_offsets_);
    kb_.item_class_pool_.resize(sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) kb_.item_class_pool_[i] = sorted[i].cls;
  }
  std::vector<ItemClass>().swap(item_classes_);

  // Per-class instance lists over the closure: every entity contributes to
  // each ancestor of each of its direct classes. Literals go to the literal
  // class only.
  std::vector<ClassId> all;
  for (uint32_t i = 0; i < items; ++i) {
    ItemId item(i);
    if (kb_.literal_flags_[i] != 0) {
      kb_.classes_[kb_.literal_class_.value()].instances.push_back(item);
      continue;
    }
    // Dedup ancestors across multiple direct classes.
    all.clear();
    for (ClassId direct : kb_.DirectClasses(item)) {
      const std::vector<ClassId>& anc = kb_.classes_[direct.value()].ancestors;
      all.insert(all.end(), anc.begin(), anc.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    for (ClassId cls : all) kb_.classes_[cls.value()].instances.push_back(item);
  }

  // Adjacency: out-rows keyed by subject, in-rows by object, each sorted by
  // (relation, other end) for binary-searchable edge queries.
  {
    std::vector<Edge> by_subject = CountingSort(
        edges_, items, [](const Edge& e) { return e.subject.value(); },
        &kb_.out_edge_offsets_);
    std::vector<Edge>().swap(edges_);
    kb_.out_edge_pool_.resize(by_subject.size());
    for (size_t k = 0; k < by_subject.size(); ++k) {
      kb_.out_edge_pool_[k] = {by_subject[k].relation, by_subject[k].object};
    }
  }
  SortAndDedupRows(&kb_.out_edge_offsets_, &kb_.out_edge_pool_);
  // The in-rows come from the sorted, repeat-free out-rows, which list the
  // edges by subject: stable counting sorts by relation, then by object,
  // leave each in-row sorted by (relation, subject).
  {
    std::vector<Edge> in_order;
    in_order.reserve(kb_.out_edge_pool_.size());
    for (uint32_t i = 0; i < items; ++i) {
      for (const KbEdge& edge : kb_.OutEdges(ItemId(i))) {
        in_order.push_back({ItemId(i), edge.relation, edge.target});
      }
    }
    in_order = CountingSort(
        CountingSort(in_order, kb_.relation_names_.size(),
                     [](const Edge& e) { return e.relation.value(); }),
        items, [](const Edge& e) { return e.object.value(); },
        &kb_.in_edge_offsets_);
    kb_.in_edge_pool_.resize(in_order.size());
    for (size_t k = 0; k < in_order.size(); ++k) {
      kb_.in_edge_pool_[k] = {in_order[k].relation, in_order[k].subject};
    }
  }
  kb_.num_edges_ = kb_.out_edge_pool_.size();

  // Label index: item ids sorted by (label, id), cut into groups of equal
  // labels, so the frozen lookup is a binary search (and the snapshot bytes
  // are deterministic).
  std::vector<ItemId>& order = kb_.label_group_pool_;
  order.resize(items);
  for (uint32_t i = 0; i < items; ++i) order[i] = ItemId(i);
  std::sort(order.begin(), order.end(), [this](ItemId a, ItemId b) {
    const int cmp = kb_.Label(a).compare(kb_.Label(b));
    return cmp != 0 ? cmp < 0 : a < b;
  });
  kb_.label_group_offsets_.clear();
  for (size_t i = 0; i < items; ++i) {
    if (i == 0 || kb_.Label(order[i]) != kb_.Label(order[i - 1])) {
      kb_.label_group_offsets_.push_back(i);
    }
  }
  kb_.label_group_offsets_.push_back(items);

  *out = std::move(kb_);
  return Status::OK();
}

KnowledgeBase KbBuilder::Freeze() && {
  KnowledgeBase kb;
  std::move(*this).FreezeInto(&kb).Abort("KbBuilder::Freeze");
  return kb;
}

}  // namespace detective

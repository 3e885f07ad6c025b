#include "core/evidence_matcher.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/match_plan.h"

namespace detective {

namespace {

template <typename T>
void AppendPod(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

}  // namespace

EvidenceMatcher::EvidenceMatcher(const KnowledgeBase& kb, MatcherOptions options)
    : kb_(kb), options_(options) {}

std::string_view EvidenceMatcher::MemoKey(ClassId type, const Similarity& sim,
                                          std::string_view value) {
  // Fixed-width binary header + value bytes, assembled into a reusable
  // buffer: no std::to_string / Similarity::ToString allocation per node
  // check.
  key_scratch_.clear();
  AppendPod(&key_scratch_, type.value());
  AppendPod(&key_scratch_, static_cast<uint8_t>(sim.kind()));
  AppendPod(&key_scratch_, static_cast<uint32_t>(sim.max_edits()));
  AppendPod(&key_scratch_, sim.threshold());
  key_scratch_.append(value);
  return key_scratch_;
}

const SignatureIndex& EvidenceMatcher::IndexFor(ClassId type, const Similarity& sim) {
  if (plan_ != nullptr) {
    if (const SignatureIndex* shared = plan_->IndexFor(type, sim)) {
      return *shared;
    }
  }
  std::string key = std::to_string(type.value());
  key.push_back('\x1f');
  key += sim.ToString();
  auto it = indexes_.find(key);
  if (it == indexes_.end()) {
    DETECTIVE_COUNT("matcher.index_builds");
    DETECTIVE_SCOPED_TIMER("matcher.index_build");
    DETECTIVE_TRACE_SPAN("matcher.index_build",
                         {"type", static_cast<int64_t>(type.value())});
    auto index = std::make_unique<SignatureIndex>(sim);
    for (ItemId item : kb_.InstancesOf(type)) {
      index->Add(item.value(), kb_.Label(item));
    }
    index->Build();
    it = indexes_.emplace(std::move(key), std::move(index)).first;
  }
  return *it->second;
}

void EvidenceMatcher::ComputeCandidates(ClassId type, const Similarity& sim,
                                        std::string_view value,
                                        std::vector<ItemId>* out) {
  out->clear();
  if (sim.kind() == SimilarityKind::kEquality) {
    // Equality always goes through the label hash index — the paper uses a
    // hash table for "=" even in the basic algorithm (§IV-B(2)).
    ++stats_.index_lookups;
    DETECTIVE_COUNT("matcher.label_index_lookups");
    for (ItemId item : kb_.ItemsWithLabel(value)) {
      if (kb_.IsInstanceOf(item, type)) out->push_back(item);
    }
  } else if (options_.use_signature_index) {
    ++stats_.index_lookups;
    DETECTIVE_COUNT("matcher.signature_lookups");
    IndexFor(type, sim).Matches(value, &u32_scratch_);
    out->reserve(u32_scratch_.size());
    for (uint32_t raw : u32_scratch_) out->push_back(ItemId(raw));
  } else {
    ++stats_.scans;
    DETECTIVE_COUNT("matcher.scans");
    for (ItemId item : kb_.InstancesOf(type)) {
      if (sim.Matches(value, kb_.Label(item))) out->push_back(item);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::span<const ItemId> EvidenceMatcher::NodeCandidatesRef(
    ClassId type, const Similarity& sim, std::string_view value,
    std::vector<ItemId>* storage) {
  ++stats_.node_checks;
  DETECTIVE_COUNT("matcher.node_queries");
  // Before any memo lookup, so a tuple sees the same probe-hit sequence
  // whether the memo is warm or cold — the parallel-vs-sequential identity
  // the chaos tests assert depends on it.
  DETECTIVE_FAULT_POINT_CANCEL("kb.lookup", cancel_);
  if (options_.use_value_memo) {
    std::string_view key = MemoKey(type, sim, value);
    if (auto it = memo_.find(key); it != memo_.end()) {
      ++stats_.memo_hits;
      DETECTIVE_COUNT("matcher.memo_hits");
      return it->second;
    }
    std::vector<ItemId> computed;
    ComputeCandidates(type, sim, value, &computed);
    auto [it, inserted] = memo_.try_emplace(std::string(key), std::move(computed));
    return it->second;
  }

  ComputeCandidates(type, sim, value, storage);
  return *storage;
}

std::vector<ItemId> EvidenceMatcher::NodeCandidates(ClassId type,
                                                    const Similarity& sim,
                                                    std::string_view value) {
  std::vector<ItemId> storage;
  std::span<const ItemId> result = NodeCandidatesRef(type, sim, value, &storage);
  if (!storage.empty() && result.data() == storage.data()) return storage;
  return {result.begin(), result.end()};
}

template <typename OnMatch>
bool EvidenceMatcher::Search(const std::vector<BoundNode>& nodes,
                             const std::vector<BoundEdge>& edges,
                             const std::vector<uint32_t>& node_indexes,
                             const Tuple& tuple, OnMatch&& on_match) {
  struct SearchNode {
    uint32_t node;
    // View over the memoised candidate set, or over `storage` when nothing
    // memoises it. Moving the node (stable_sort below) keeps the view valid:
    // vector moves transfer the heap buffer. Empty for existential nodes.
    std::span<const ItemId> candidates;
    std::vector<ItemId> storage;
    bool existential;
  };
  std::vector<SearchNode> order;
  std::vector<SearchNode> existentials;
  order.reserve(node_indexes.size());
  for (uint32_t v : node_indexes) {
    const BoundNode& bn = nodes[v];
    if (bn.IsExistential()) {
      // No cell constraint: candidates are derived from edges at search
      // time, once neighbouring nodes are assigned.
      existentials.push_back({v, {}, {}, true});
      continue;
    }
    SearchNode node{v, {}, {}, false};
    node.candidates =
        NodeCandidatesRef(bn.type, bn.sim, tuple.value(bn.column), &node.storage);
    if (node.candidates.empty()) return true;  // no match can exist
    order.push_back(std::move(node));
  }
  // Most selective nodes first keeps the search tree narrow; existential
  // nodes go last so their edge-derived candidate sets have anchors.
  std::stable_sort(order.begin(), order.end(),
                   [](const SearchNode& a, const SearchNode& b) {
                     return a.candidates.size() < b.candidates.size();
                   });
  order.insert(order.end(), std::make_move_iterator(existentials.begin()),
               std::make_move_iterator(existentials.end()));

  std::vector<ItemId> assignment(nodes.size(), ItemId::Invalid());
  size_t budget = options_.max_assignments;
  bool within_budget = true;

  auto consistent = [&](uint32_t v, ItemId x) {
    for (const BoundEdge& edge : edges) {
      if (edge.from == v && assignment[edge.to].valid()) {
        if (!kb_.HasEdge(x, edge.relation, assignment[edge.to])) return false;
      } else if (edge.to == v && assignment[edge.from].valid()) {
        if (!kb_.HasEdge(assignment[edge.from], edge.relation, x)) return false;
      }
    }
    return true;
  };

  // Returns false to abort the whole search (caller requested stop or
  // budget exhausted).
  auto recurse = [&](auto&& self, size_t depth) -> bool {
    if (depth == order.size()) return on_match(assignment);
    const SearchNode& current = order[depth];
    // Existential nodes derive their candidates from already-assigned
    // neighbours; without an anchor, fall back to every instance of the
    // type (bounded by the assignment budget).
    std::vector<ItemId> derived;
    if (current.existential) {
      bool anchored = false;
      for (const BoundEdge& edge : edges) {
        if ((edge.from == current.node && assignment[edge.to].valid()) ||
            (edge.to == current.node && assignment[edge.from].valid())) {
          anchored = true;
          break;
        }
      }
      if (anchored) {
        derived = TargetsFor(nodes, edges, current.node, assignment);
      } else {
        std::span<const ItemId> all = kb_.InstancesOf(nodes[current.node].type);
        derived.assign(all.begin(), all.end());
      }
    }
    const std::span<const ItemId> candidates =
        current.existential ? std::span<const ItemId>(derived) : current.candidates;
    for (ItemId x : candidates) {
      if (budget == 0) {
        within_budget = false;
        return false;
      }
      // Cooperative cancellation (faults, deadlines): abandon the search;
      // the caller inspects the token and discards the partial result.
      if (cancel_ != nullptr && cancel_->Check()) {
        within_budget = false;
        return false;
      }
      --budget;
      ++stats_.assignments_explored;
      if (!consistent(current.node, x)) continue;
      assignment[current.node] = x;
      bool keep_going = self(self, depth + 1);
      assignment[current.node] = ItemId::Invalid();
      if (!keep_going) return false;
    }
    return true;
  };
  bool completed = recurse(recurse, 0);
  // One add per Search keeps the per-candidate loop free of bookkeeping.
  DETECTIVE_COUNT_N("matcher.assignments_explored", options_.max_assignments - budget);
  if (!within_budget) DETECTIVE_COUNT("matcher.budget_exhausted");
  return completed && within_budget;
}

bool EvidenceMatcher::HasPositiveMatch(const BoundRule& rule, const Tuple& tuple) {
  DETECTIVE_CHECK(rule.usable);
  bool found = false;
  Search(rule.nodes, rule.edges, rule.PositiveSideNodes(), tuple,
         [&](const std::vector<ItemId>&) {
           found = true;
           return false;  // one witness suffices
         });
  return found;
}

bool EvidenceMatcher::BestPositiveMatch(const BoundRule& rule, const Tuple& tuple,
                                        std::vector<ItemId>* best) {
  DETECTIVE_CHECK(rule.usable);
  DETECTIVE_COUNT("matcher.positive_searches");
  const std::vector<uint32_t> subset = rule.PositiveSideNodes();
  bool found = false;
  double best_score = -1;
  std::vector<std::string> best_labels;

  Search(rule.nodes, rule.edges, subset, tuple,
         [&](const std::vector<ItemId>& assignment) {
           double score = 0;
           std::vector<std::string> labels;
           labels.reserve(subset.size());
           for (uint32_t v : subset) {
             if (rule.nodes[v].IsExistential()) continue;  // no cell to score
             std::string label(kb_.Label(assignment[v]));
             score += rule.nodes[v].sim.Score(tuple.value(rule.nodes[v].column), label);
             labels.push_back(std::move(label));
           }
           bool better =
               !found || score > best_score ||
               (score == best_score && labels < best_labels);
           if (better) {
             found = true;
             best_score = score;
             best_labels = std::move(labels);
             *best = assignment;
           }
           // A perfect assignment (every label equals its cell) cannot be
           // improved; stop the enumeration.
           return best_score + 1e-9 < static_cast<double>(subset.size());
         });
  return found;
}

bool EvidenceMatcher::FindAssignment(const std::vector<BoundNode>& nodes,
                                     const std::vector<BoundEdge>& edges,
                                     const std::vector<uint32_t>& subset,
                                     const Tuple& tuple,
                                     std::vector<ItemId>* assignment) {
  bool found = false;
  Search(nodes, edges, subset, tuple, [&](const std::vector<ItemId>& match) {
    found = true;
    if (assignment != nullptr) *assignment = match;
    return false;  // one witness suffices
  });
  return found;
}

std::vector<ItemId> EvidenceMatcher::TargetsFor(
    const std::vector<BoundNode>& nodes, const std::vector<BoundEdge>& edges,
    uint32_t node, const std::vector<ItemId>& assignment) {
  std::vector<ItemId> result;
  bool first = true;
  for (const BoundEdge& edge : edges) {
    std::vector<ItemId> hop;
    if (edge.to == node) {
      ItemId source = assignment[edge.from];
      if (!source.valid()) continue;
      for (const KbEdge& e : kb_.Objects(source, edge.relation)) {
        hop.push_back(e.target);
      }
    } else if (edge.from == node) {
      ItemId target = assignment[edge.to];
      if (!target.valid()) continue;
      for (const KbEdge& e : kb_.Subjects(edge.relation, target)) {
        hop.push_back(e.target);  // in-edge payload is the subject
      }
    } else {
      continue;
    }
    std::sort(hop.begin(), hop.end());
    hop.erase(std::unique(hop.begin(), hop.end()), hop.end());
    if (first) {
      result = std::move(hop);
      first = false;
    } else {
      std::vector<ItemId> merged;
      std::set_intersection(result.begin(), result.end(), hop.begin(), hop.end(),
                            std::back_inserter(merged));
      result = std::move(merged);
    }
    if (result.empty()) return result;
  }
  if (first) return {};  // node had no incident edge with an assigned endpoint

  const BoundNode& target_node = nodes[node];
  std::erase_if(result,
                [&](ItemId x) { return !kb_.IsInstanceOf(x, target_node.type); });
  return result;
}

std::vector<std::string> EvidenceMatcher::NegativeCorrections(
    const BoundRule& rule, const Tuple& tuple,
    std::vector<std::pair<ColumnIndex, std::string>>* evidence_normalizations,
    NegativeWitness* witness) {
  DETECTIVE_CHECK(rule.usable);
  DETECTIVE_COUNT("matcher.negative_searches");
  const ColumnIndex target_column = rule.nodes[rule.negative].column;
  const std::string& current_value = tuple.value(target_column);

  // Column-bearing evidence nodes, for scoring the witnessing assignments
  // (existential nodes have no cell to score or normalize).
  std::vector<uint32_t> evidence;
  for (uint32_t v = 0; v < rule.nodes.size(); ++v) {
    if (v != rule.positive && v != rule.negative && !rule.nodes[v].IsExistential()) {
      evidence.push_back(v);
    }
  }

  const bool track_best = evidence_normalizations != nullptr || witness != nullptr;
  std::map<std::string, ItemId> corrections;  // label -> witnessing x_p
  bool have_witness = false;
  double best_score = -1;
  std::vector<std::string> best_labels;
  std::vector<ItemId> best_assignment;

  Search(rule.nodes, rule.edges, rule.NegativeSideNodes(), tuple,
         [&](const std::vector<ItemId>& assignment) {
           ItemId x_n = assignment[rule.negative];
           bool witnessed = false;
           for (ItemId x_p :
                TargetsFor(rule.nodes, rule.edges, rule.positive, assignment)) {
             if (x_p == x_n) continue;  // the wrong witness itself
             std::string label(kb_.Label(x_p));
             // A "correction" equal to the current value would be a no-op
             // repair; the positive branch owns that case.
             if (label == current_value) continue;
             if (corrections.size() >= options_.max_corrections &&
                 !corrections.contains(label)) {
               break;  // hard cap, even within one assignment
             }
             corrections.try_emplace(std::move(label), x_p);
             witnessed = true;
           }
           if (witnessed && track_best) {
             // Track the best-scoring witnessing assignment, mirroring
             // BestPositiveMatch, so normalization is order-independent.
             double score = 0;
             std::vector<std::string> labels;
             labels.reserve(evidence.size());
             for (uint32_t v : evidence) {
               std::string label(kb_.Label(assignment[v]));
               score +=
                   rule.nodes[v].sim.Score(tuple.value(rule.nodes[v].column), label);
               labels.push_back(std::move(label));
             }
             if (!have_witness || score > best_score ||
                 (score == best_score && labels < best_labels)) {
               have_witness = true;
               best_score = score;
               best_labels = std::move(labels);
               best_assignment = assignment;
             }
           }
           return corrections.size() < options_.max_corrections;
         });

  if (evidence_normalizations != nullptr) {
    evidence_normalizations->clear();
    if (have_witness) {
      for (uint32_t v : evidence) {
        std::string label(kb_.Label(best_assignment[v]));
        if (label != tuple.value(rule.nodes[v].column)) {
          evidence_normalizations->emplace_back(rule.nodes[v].column,
                                                std::move(label));
        }
      }
    }
  }
  DETECTIVE_COUNT_N("matcher.corrections_emitted", corrections.size());
  std::vector<std::string> labels;
  labels.reserve(corrections.size());
  for (const auto& [label, item] : corrections) labels.push_back(label);
  if (witness != nullptr) {
    witness->assignment = have_witness ? std::move(best_assignment)
                                       : std::vector<ItemId>{};
    witness->correction_items = std::move(corrections);
  }
  return labels;
}

void EvidenceMatcher::ClearMemo() { memo_.clear(); }

bool EvidenceMatcher::TrimMemo(size_t max_entries) {
  if (memo_.size() <= max_entries) return false;
  ClearMemo();
  return true;
}

}  // namespace detective

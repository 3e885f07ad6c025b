#ifndef DETECTIVE_CORE_EVIDENCE_MATCHER_H_
#define DETECTIVE_CORE_EVIDENCE_MATCHER_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/bound_rule.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"
#include "text/signature_index.h"

namespace detective {

class CancelToken;
class MatchPlan;

/// Tuning and ablation knobs for instance-level matching.
struct MatcherOptions {
  /// Use the signature-based inverted indexes of §IV-B(2) for similarity
  /// matching (off = linear scan over the instances of the node's type,
  /// which is what the basic algorithm's complexity analysis assumes).
  bool use_signature_index = true;

  /// Share node-check results across rules and tuples (§IV-B(3)): candidate
  /// sets are memoised by (type, sim, value), so a (column,type,sim) key
  /// checked for one rule is free for every other rule — the role of the
  /// paper's inverted lists of Fig. 5.
  bool use_value_memo = true;

  /// Backtracking guard: stop enumerating instance-level assignments for one
  /// rule application after this many partial assignments.
  size_t max_assignments = 100000;

  /// Cap on distinct corrections gathered from the negative semantics
  /// (multi-version repairs, §IV-C).
  size_t max_corrections = 16;
};

/// The instance-level witness behind a proof negative, surfaced so repair
/// provenance can name the evidence (core/provenance.h). Filled by
/// NegativeCorrections when requested.
struct NegativeWitness {
  /// Best-scoring witnessing assignment of the negative side, indexed by
  /// graph-node position (Invalid outside the negative side). Empty when no
  /// witness was found.
  std::vector<ItemId> assignment;
  /// For every emitted correction label, the KB instance x_p it came from
  /// (the first witnessing instance, which is deterministic: the search
  /// enumerates sorted candidate lists).
  std::map<std::string, ItemId> correction_items;
};

/// Counters for the efficiency experiments.
struct MatcherStats {
  size_t node_checks = 0;        // candidate-set computations requested
  size_t memo_hits = 0;          // served from the value memo
  size_t index_lookups = 0;      // served by a signature index
  size_t scans = 0;              // served by a linear scan
  size_t assignments_explored = 0;
};

/// Finds instance-level matching graphs (paper §II-B) for bound rules: the
/// assignment of KB instances to rule nodes such that every node's value
/// constraint and every edge's relationship constraint hold.
///
/// Owns the per-(type, similarity) signature indexes and the cross-rule
/// value memo. Not thread-safe (one matcher per repair thread).
class EvidenceMatcher {
 public:
  explicit EvidenceMatcher(const KnowledgeBase& kb, MatcherOptions options = {});

  /// KB items x with IsInstanceOf(x, type) and sim(value, label(x)).
  std::vector<ItemId> NodeCandidates(ClassId type, const Similarity& sim,
                                     std::string_view value);

  /// Zero-copy variant of NodeCandidates for the search hot path: returns a
  /// span over the memoised candidate set, or over `*storage` after
  /// computing into it when the memo is off. The span stays valid until
  /// ClearMemo() — memo entries are never evicted — or, for the storage
  /// case, until `*storage` is next modified.
  std::span<const ItemId> NodeCandidatesRef(ClassId type, const Similarity& sim,
                                            std::string_view value,
                                            std::vector<ItemId>* storage);

  /// Installs the frozen read-only match plan (core/match_plan.h) shared by
  /// every worker; null (the default) builds indexes lazily and privately.
  /// The plan must outlive the matcher's use of it. It never changes
  /// results — only where the indexes live.
  void set_plan(const MatchPlan* plan) { plan_ = plan; }

  /// Proof positive: does an instance-level match of the positive side
  /// (evidence ∪ {p}) exist for `tuple`?
  bool HasPositiveMatch(const BoundRule& rule, const Tuple& tuple);

  /// Like HasPositiveMatch, but returns the positive-side assignment that
  /// maximizes the summed similarity between cell values and matched
  /// instance labels (ties broken toward lexicographically smaller labels,
  /// for determinism). The best assignment is what value normalization uses:
  /// a cell that matched an instance only fuzzily (e.g. "Paster Institute" ≈
  /// "Pasteur Institute" under ED,2) is standardized to the instance label —
  /// the paper's correction of typos through the positive semantics.
  bool BestPositiveMatch(const BoundRule& rule, const Tuple& tuple,
                         std::vector<ItemId>* best);

  /// Proof negative + correction: enumerates instance-level matches of the
  /// negative side (evidence ∪ {n}); for each, derives the instances x_p
  /// that satisfy the positive side's constraints on p with the same
  /// evidence assignment and x_p != x_n. Returns the distinct labels of all
  /// such x_p that differ from the current cell value — the candidate
  /// corrections, sorted.
  ///
  /// When `evidence_normalizations` is non-null it receives, for the
  /// best-scoring witnessing assignment, the evidence cells whose matched
  /// instance label differs from the cell value (fuzzy matches). Those cells
  /// are about to be marked positive, so the repairer standardizes them to
  /// the proven label — otherwise whether a typo gets fixed would depend on
  /// which rule reaches the cell first, breaking Church–Rosser.
  ///
  /// When `witness` is non-null it receives the best witnessing assignment
  /// and the KB instance behind each correction (for provenance capture).
  std::vector<std::string> NegativeCorrections(
      const BoundRule& rule, const Tuple& tuple,
      std::vector<std::pair<ColumnIndex, std::string>>* evidence_normalizations =
          nullptr,
      NegativeWitness* witness = nullptr);

  /// Generic instance-level matching over an arbitrary bound graph: searches
  /// for one assignment of KB items to the nodes in `subset` such that all
  /// node constraints and all edges whose endpoints are both in `subset`
  /// hold. On success fills `assignment` (indexed by graph-node position;
  /// nodes outside `subset` stay Invalid). Used by detective rules and by
  /// the KATARA baseline's table patterns.
  bool FindAssignment(const std::vector<BoundNode>& nodes,
                      const std::vector<BoundEdge>& edges,
                      const std::vector<uint32_t>& subset, const Tuple& tuple,
                      std::vector<ItemId>* assignment);

  /// KB items that satisfy every edge incident to `node` whose other
  /// endpoint is assigned, filtered by the node's type — the candidate
  /// values the KB offers for that node given the surrounding assignment.
  std::vector<ItemId> TargetsFor(const std::vector<BoundNode>& nodes,
                                 const std::vector<BoundEdge>& edges, uint32_t node,
                                 const std::vector<ItemId>& assignment);

  const MatcherStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MatcherStats(); }

  /// Installs a cooperative cancellation token (common/deadline.h): the
  /// assignment search polls it and aborts when it trips, and the fault
  /// probe at "kb.lookup" trips it. nullptr (the default) disables both —
  /// the unguarded fast path. The token must outlive the installation.
  void set_cancel(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel() const { return cancel_; }

  /// Drops the value memo (for the ablation benchmarks).
  void ClearMemo();
  /// Bounds a long-lived matcher's memory: drops the memo once it holds more
  /// than `max_entries`. Call between chases only — it invalidates the spans
  /// NodeCandidatesRef handed out. Returns whether it cleared.
  bool TrimMemo(size_t max_entries);
  /// Entries in the value memo: one per distinct (type, sim, value) checked
  /// since construction or the last clear.
  size_t memo_size() const { return memo_.size(); }

  const KnowledgeBase& kb() const { return kb_; }
  const MatcherOptions& options() const { return options_; }

 private:
  /// Backtracking search over `node_indexes`; invokes `on_match` with the
  /// assignment (ItemId per graph-node index) for every full match.
  /// `on_match` returns false to stop the search. Returns false if the
  /// assignment budget was exhausted before the search space was covered.
  template <typename OnMatch>
  bool Search(const std::vector<BoundNode>& nodes,
              const std::vector<BoundEdge>& edges,
              const std::vector<uint32_t>& node_indexes, const Tuple& tuple,
              OnMatch&& on_match);

  /// Packs (type, sim, value) into `key_scratch_` as a fixed binary header
  /// plus the value bytes; the returned view is invalidated by the next call.
  std::string_view MemoKey(ClassId type, const Similarity& sim,
                           std::string_view value);

  /// Computes the candidate set into `*out` (sorted, deduplicated) — the
  /// uncached fallback behind the memo.
  void ComputeCandidates(ClassId type, const Similarity& sim,
                         std::string_view value, std::vector<ItemId>* out);

  const SignatureIndex& IndexFor(ClassId type, const Similarity& sim);

  const KnowledgeBase& kb_;
  MatcherOptions options_;
  MatcherStats stats_;
  CancelToken* cancel_ = nullptr;

  // Shared, frozen plan owned by the caller (never owned here).
  const MatchPlan* plan_ = nullptr;

  // Private value memo (§IV-B(3)).
  std::unordered_map<std::string, std::vector<ItemId>, StringViewHash,
                     std::equal_to<>>
      memo_;
  // Key: type id | sim signature.
  std::unordered_map<std::string, std::unique_ptr<SignatureIndex>> indexes_;
  std::string key_scratch_;         // MemoKey assembly buffer
  std::vector<uint32_t> u32_scratch_;  // signature-index lookup buffer
};

}  // namespace detective

#endif  // DETECTIVE_CORE_EVIDENCE_MATCHER_H_

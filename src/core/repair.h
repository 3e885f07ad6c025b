#ifndef DETECTIVE_CORE_REPAIR_H_
#define DETECTIVE_CORE_REPAIR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "core/bound_rule.h"
#include "core/evidence_matcher.h"
#include "core/provenance.h"
#include "core/quarantine.h"
#include "core/rule_graph.h"
#include "core/stratified_schedule.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"

namespace detective {

/// Knobs shared by both repair algorithms plus the fast-repair extras.
struct RepairOptions {
  MatcherOptions matcher;
  /// Fast repair only: check rules in the rule-graph topological order
  /// (§IV-B(1)). Off = input order, which degenerates to re-scanning.
  bool use_rule_order = true;
  /// Cap on tuple versions produced by multi-version repair (§IV-C).
  size_t max_versions = 8;
  /// Certified stratification schedule (analysis/stratification.h). Non-null
  /// lets FastRepairer elide confirming fixpoint sweeps whose evaluations are
  /// provably all "not applicable"; evaluation order is untouched, so output
  /// stays byte-identical to the classic chase. Null (the default), a rule
  /// count mismatch, use_rule_order=false, or an armed fault plan all fall
  /// back to the classic loop. The caller owns the schedule's lifetime.
  const StratifiedSchedule* schedule = nullptr;

  // Robustness knobs (guarded repair; docs/robustness.md). All default off.
  /// Whole-run deadline in milliseconds (0 = none): once it expires, every
  /// remaining tuple is quarantined with reason "run_deadline".
  uint64_t deadline_ms = 0;
  /// Per-tuple chase budget in milliseconds (0 = none).
  uint64_t tuple_budget_ms = 0;
  /// Circuit breaker: a rule blamed for this many quarantined tuples is
  /// disabled for the rest of the run and its victims re-chased (0 = off).
  size_t max_rule_failures = 0;
};

/// True when any robustness feature is active, i.e. the relation drivers
/// should take the guarded path (per-tuple tokens + quarantine) rather than
/// the zero-overhead fast path.
inline bool GuardedRepairRequested(const RepairOptions& options) {
  return options.deadline_ms > 0 || options.tuple_budget_ms > 0 ||
         options.max_rule_failures > 0 || fault::Armed();
}

/// Counters reported by the efficiency benchmarks (Fig. 8).
struct RepairStats {
  size_t tuples_processed = 0;
  size_t rule_checks = 0;        // Evaluate() calls
  size_t rule_applications = 0;  // rules that fired
  size_t proofs_positive = 0;
  size_t repairs = 0;            // cells rewritten
  size_t cells_marked = 0;       // cells newly marked positive
  /// Quarantine events (guarded repair only). Counts every abandoned chase
  /// attempt — a tuple re-chased by the circuit breaker and abandoned again
  /// counts twice; the final quarantine ledger is QuarantineLog.
  size_t tuples_quarantined = 0;
  /// Work-stealing chunks claimed by a worker other than the one a static
  /// contiguous sharding would have given them (ParallelRepair only).
  size_t chunks_stolen = 0;
  /// Confirming fixpoint sweeps elided under a certified stratification
  /// schedule (RepairOptions::schedule). Each would have been one all-kNone
  /// chase round in the classic loop; round numbering still advances past it
  /// so provenance records are identical.
  size_t rounds_skipped = 0;
};

/// Outcome of evaluating one rule against one tuple.
struct RuleEvaluation {
  enum class Action {
    kNone,           // rule not applicable
    kProofPositive,  // marks evidence + target correct, changes nothing
    kRepair,         // rewrites the target cell, then marks
  };
  Action action = Action::kNone;
  /// Candidate corrections (distinct, sorted). Size 1 in the common
  /// functional case; >1 triggers multi-version branching.
  std::vector<std::string> corrections;
  /// Cells that matched their KB instance only fuzzily and are standardized
  /// to the instance's label on Apply (this is how typos are corrected
  /// through the positive semantics; cf. the paper's "Paster Institute" →
  /// "Pasteur Institute" fix in Table I). Populated for kProofPositive (all
  /// positive-side cells) and for kRepair (evidence cells), so a cell is
  /// never marked positive while holding an unproven spelling.
  std::vector<std::pair<ColumnIndex, std::string>> normalizations;
  /// Witnessing instance-level assignment, indexed by rule-node position
  /// (Invalid where unassigned): the positive side's best assignment for
  /// kProofPositive, the best negative-side witness for kRepair. What
  /// provenance capture reports as evidence.
  std::vector<ItemId> witness;
  /// For kRepair: the KB instance whose label is corrections[i] (parallel
  /// to `corrections`).
  std::vector<ItemId> correction_items;
};

/// Shared rule-evaluation engine: binds a rule set to a (schema, KB) pair
/// and implements the single-rule semantics of §III-B, including the
/// applicability conditions over positively-marked cells:
///   (i)  a rule never changes a cell already marked positive;
///   (ii) a rule is applicable only if it marks at least one new cell.
class RuleEngine {
 public:
  /// `kb` must outlive the engine; the rules are copied (they are small
  /// value objects), so temporaries are safe to pass.
  RuleEngine(const KnowledgeBase& kb, const Schema& schema,
             std::vector<DetectiveRule> rules, RepairOptions options = {});

  /// Resolves all rules; fails on schema mismatches. Rules the KB cannot
  /// power are kept but never fire (usable() reports how many are live).
  Status Init();

  size_t num_rules() const { return bound_.size(); }
  size_t num_usable_rules() const;
  const std::vector<DetectiveRule>& rules() const { return rules_; }
  const BoundRule& bound_rule(uint32_t index) const { return bound_[index]; }
  /// All bound rules (valid after Init()); what MatchPlan::Build consumes.
  std::span<const BoundRule> bound_rules() const { return bound_; }

  /// Evaluates rule `index` against `tuple` (read-only).
  RuleEvaluation Evaluate(uint32_t index, const Tuple& tuple);

  /// Applies a previously computed evaluation; for kRepair the correction at
  /// `correction_index` is written. Updates marks and stats.
  void Apply(uint32_t index, const RuleEvaluation& evaluation, Tuple* tuple,
             size_t correction_index = 0);

  EvidenceMatcher& matcher() { return *matcher_; }
  const RepairOptions& options() const { return options_; }
  RepairStats& stats() { return stats_; }
  const RepairStats& stats() const { return stats_; }

  /// Forwards the shared frozen match plan to the matcher
  /// (core/match_plan.h). Results are identical with or without it; only
  /// where the signature indexes live changes.
  void set_plan(const MatchPlan* plan) { matcher_->set_plan(plan); }

  /// Installs a provenance sink: every subsequent Apply() records one
  /// explainable entry per cell change / proof (core/provenance.h). The log
  /// must outlive the engine or be unset; nullptr disables capture (the
  /// default — capture then costs nothing).
  void set_provenance(ProvenanceLog* log) { provenance_ = log; }
  ProvenanceLog* provenance() const { return provenance_; }

  /// Row / fixpoint-round context stamped onto captured records. The chase
  /// drivers set the round; relation-level loops set the row.
  void set_current_row(size_t row) { current_row_ = row; }
  void set_current_round(size_t round) { current_round_ = round; }

  /// Installs a cancellation token on the engine and its matcher for the
  /// duration of one guarded tuple chase; nullptr restores the fast path.
  void set_cancel(CancelToken* token) {
    cancel_ = token;
    matcher_->set_cancel(token);
  }
  CancelToken* cancel() const { return cancel_; }

  /// Circuit-breaker support: a disabled rule never fires again (Evaluate
  /// returns kNone without counting a rule check). Valid after Init().
  void set_rule_disabled(uint32_t index, bool disabled);
  bool rule_disabled(uint32_t index) const {
    return index < disabled_.size() && disabled_[index] != 0;
  }
  size_t num_disabled_rules() const;

 private:
  /// Builds the provenance records for applying `evaluation` to `tuple`.
  /// Must run before the tuple is mutated (records capture pre-change cell
  /// values and marks).
  void RecordProvenance(uint32_t index, const RuleEvaluation& evaluation,
                        const Tuple& tuple, size_t correction_index);

  const KnowledgeBase& kb_;
  Schema schema_;
  std::vector<DetectiveRule> rules_;
  RepairOptions options_;
  std::unique_ptr<EvidenceMatcher> matcher_;
  std::vector<BoundRule> bound_;
  RepairStats stats_;
  ProvenanceLog* provenance_ = nullptr;
  size_t current_row_ = 0;
  size_t current_round_ = 0;
  CancelToken* cancel_ = nullptr;
  std::vector<char> disabled_;  // per rule index; sized by Init()
};

/// Algorithm 1 (bRepair): chase to fixpoint by rescanning the rule set for
/// an applicable rule after every application. No rule ordering, no shared
/// computation (unless the caller opts in through RepairOptions.matcher).
class BasicRepairer {
 public:
  BasicRepairer(const KnowledgeBase& kb, const Schema& schema,
                std::vector<DetectiveRule> rules, RepairOptions options = {});

  Status Init() { return engine_.Init(); }

  /// Repairs one tuple in place to its fixpoint (single-version: the first
  /// correction in sorted order is taken when several exist).
  void RepairTuple(Tuple* tuple);

  /// Repairs every tuple of `relation` in place.
  void RepairRelation(Relation* relation);

  /// Multi-version repair (§IV-C): all fixpoints reachable when ambiguous
  /// corrections branch. Returns at least one tuple.
  std::vector<Tuple> RepairMultiVersion(const Tuple& tuple);

  RuleEngine& engine() { return engine_; }
  const RepairStats& stats() const { return engine_.stats(); }

 private:
  RuleEngine engine_;
};

/// Algorithm 2 (fRepair): rules are checked in the rule-graph topological
/// order; node/edge work is shared across rules through the matcher's value
/// memo (the role of the paper's Fig. 5 inverted lists); components that
/// form dependency cycles are iterated locally until stable.
class FastRepairer {
 public:
  FastRepairer(const KnowledgeBase& kb, const Schema& schema,
               std::vector<DetectiveRule> rules, RepairOptions options = {});

  Status Init();

  void RepairTuple(Tuple* tuple);
  /// The unguarded sequential reference loop over every row. Production
  /// relation runs go through ParallelRepair (core/parallel_repair.h), the
  /// one relation driver; tests compare it against this loop.
  void RepairRelation(Relation* relation);
  std::vector<Tuple> RepairMultiVersion(const Tuple& tuple);

  /// Guarded single-tuple repair (graceful degradation): chases `tuple`
  /// under a fresh CancelToken armed with `run_deadline` and the per-tuple
  /// budget from RepairOptions, with fault probes scoped to `row`. If the
  /// token trips, the tuple is restored to its pristine bytes, one record is
  /// appended to `quarantine` (may be null), and false is returned.
  bool RepairTupleGuarded(size_t row, Deadline run_deadline, Tuple* tuple,
                          QuarantineLog* quarantine);

  RuleEngine& engine() { return engine_; }
  const RepairStats& stats() const { return engine_.stats(); }
  const RuleGraph& rule_graph() const { return *rule_graph_; }

 private:
  /// Shared chase loop; `cancel` null = the unguarded fast path.
  void RepairTupleImpl(Tuple* tuple, CancelToken* cancel);

  RuleEngine engine_;
  std::unique_ptr<RuleGraph> rule_graph_;
  std::vector<uint32_t> check_order_;
};

/// Circuit-breaker fixpoint run by the relation driver after its guarded
/// pass: tallies the rules blamed in `quarantine`, disables every not-yet-disabled
/// rule blamed `max_rule_failures`-or-more times (RepairOptions), re-chases
/// the rows its victims were quarantined for (their records are replaced by
/// the retry's outcome), and repeats until no new rule trips — at most
/// num_rules iterations. No-op when the breaker is off. Deterministic: the
/// tally is order-independent and retries run in ascending row order.
void BreakerFixpoint(FastRepairer& repairer, Relation* relation,
                     Deadline run_deadline, QuarantineLog* quarantine);

}  // namespace detective

#endif  // DETECTIVE_CORE_REPAIR_H_

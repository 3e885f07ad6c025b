#include "core/repair.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "obs/progress.h"

namespace detective {

// ---- RuleEngine --------------------------------------------------------------

RuleEngine::RuleEngine(const KnowledgeBase& kb, const Schema& schema,
                       std::vector<DetectiveRule> rules, RepairOptions options)
    : kb_(kb),
      schema_(schema),
      rules_(std::move(rules)),
      options_(options),
      matcher_(std::make_unique<EvidenceMatcher>(kb, options.matcher)) {}

Status RuleEngine::Init() {
  bound_.clear();
  bound_.reserve(rules_.size());
  for (const DetectiveRule& rule : rules_) {
    auto bound = BindRule(rule, schema_, kb_);
    if (!bound.ok()) return bound.status();
    bound_.push_back(std::move(*bound));
  }
  disabled_.assign(rules_.size(), 0);
  return Status::OK();
}

size_t RuleEngine::num_usable_rules() const {
  size_t count = 0;
  for (const BoundRule& rule : bound_) count += rule.usable ? 1 : 0;
  return count;
}

void RuleEngine::set_rule_disabled(uint32_t index, bool disabled) {
  DETECTIVE_CHECK_LT(index, disabled_.size()) << "Init() not called";
  disabled_[index] = disabled ? 1 : 0;
}

size_t RuleEngine::num_disabled_rules() const {
  size_t count = 0;
  for (char flag : disabled_) count += flag != 0 ? 1 : 0;
  return count;
}

RuleEvaluation RuleEngine::Evaluate(uint32_t index, const Tuple& tuple) {
  if (rule_disabled(index)) return RuleEvaluation{};
  ++stats_.rule_checks;
  DETECTIVE_COUNT("repair.rule_checks");
  RuleEvaluation evaluation;
  const BoundRule& rule = bound_[index];
  if (!rule.usable) return evaluation;

  // Applicability condition (ii): there must be something new to mark.
  bool marks_something = false;
  for (uint32_t v = 0; v < rule.nodes.size(); ++v) {
    if (v == rule.negative || rule.nodes[v].IsExistential()) continue;
    if (!tuple.IsPositive(rule.nodes[v].column)) {
      marks_something = true;
      break;
    }
  }
  if (!marks_something) return evaluation;

  std::vector<ItemId> assignment;
  if (matcher_->BestPositiveMatch(rule, tuple, &assignment)) {
    DETECTIVE_COUNT("repair.positive_matches");
    evaluation.action = RuleEvaluation::Action::kProofPositive;
    // Cells that matched fuzzily get standardized to the KB label.
    for (uint32_t v = 0; v < rule.nodes.size(); ++v) {
      if (v == rule.negative || rule.nodes[v].IsExistential()) continue;
      const BoundNode& node = rule.nodes[v];
      if (tuple.IsPositive(node.column)) continue;  // already proven
      std::string label(kb_.Label(assignment[v]));
      if (label != tuple.value(node.column)) {
        evaluation.normalizations.emplace_back(node.column, std::move(label));
      }
    }
    evaluation.witness = std::move(assignment);
    return evaluation;
  }

  // Applicability condition (i): a positively marked cell is never changed.
  if (tuple.IsPositive(rule.nodes[rule.negative].column)) return evaluation;

  NegativeWitness witness;
  evaluation.corrections = matcher_->NegativeCorrections(
      rule, tuple, &evaluation.normalizations,
      provenance_ != nullptr ? &witness : nullptr);
  if (!evaluation.corrections.empty()) {
    DETECTIVE_COUNT("repair.negative_matches");
    evaluation.action = RuleEvaluation::Action::kRepair;
    evaluation.witness = std::move(witness.assignment);
    evaluation.correction_items.reserve(evaluation.corrections.size());
    for (const std::string& label : evaluation.corrections) {
      auto it = witness.correction_items.find(label);
      evaluation.correction_items.push_back(
          it != witness.correction_items.end() ? it->second : ItemId::Invalid());
    }
    // Fuzzy-matched evidence cells are about to be marked positive; drop
    // normalizations for cells already proven.
    std::erase_if(evaluation.normalizations, [&](const auto& n) {
      return tuple.IsPositive(n.first);
    });
  } else {
    evaluation.normalizations.clear();
  }
  return evaluation;
}

void RuleEngine::RecordProvenance(uint32_t index, const RuleEvaluation& evaluation,
                                  const Tuple& tuple, size_t correction_index) {
  const BoundRule& rule = bound_[index];
  const bool is_repair = evaluation.action == RuleEvaluation::Action::kRepair;
  DETECTIVE_CHECK(!is_repair || correction_index < evaluation.corrections.size());

  // Extend the witness with the chosen correction instance on the positive
  // node so the positive side's edges can be reported as evidence too (for
  // a repair, the witness assigns only the negative side).
  std::vector<ItemId> assignment = evaluation.witness;
  assignment.resize(rule.nodes.size(), ItemId::Invalid());
  if (is_repair && correction_index < evaluation.correction_items.size()) {
    assignment[rule.positive] = evaluation.correction_items[correction_index];
  }

  RepairProvenance record;
  record.row = current_row_;
  record.round = current_round_;
  record.rule = rules_[index].name();
  const ColumnIndex target = rule.nodes[rule.negative].column;
  record.column_index = target;
  record.column = schema_.column_name(target);
  record.old_value = tuple.value(target);
  if (is_repair) {
    record.kind = ProvenanceKind::kRepair;
    record.new_value = evaluation.corrections[correction_index];
  } else {
    record.kind = ProvenanceKind::kProofPositive;
    record.new_value = record.old_value;
  }

  // The witnessing node bindings (the correction instance on the positive
  // node is excluded: it is the record's new_value, not matched evidence).
  for (uint32_t v = 0; v < rule.nodes.size() && v < evaluation.witness.size();
       ++v) {
    if (!evaluation.witness[v].valid()) continue;
    const BoundNode& node = rule.nodes[v];
    ProvenanceBinding binding;
    if (!node.IsExistential()) {
      binding.column = schema_.column_name(node.column);
      binding.cell_value = tuple.value(node.column);
    }
    binding.type = std::string(kb_.ClassName(node.type));
    binding.kb_label = std::string(kb_.Label(evaluation.witness[v]));
    binding.kb_item = evaluation.witness[v].value();
    record.bindings.push_back(std::move(binding));
  }

  // Every rule edge both of whose endpoints are assigned holds in the KB by
  // construction of the match — these are the evidence edges.
  for (const BoundEdge& edge : rule.edges) {
    if (!assignment[edge.from].valid() || !assignment[edge.to].valid()) continue;
    record.evidence_edges.push_back(
        ProvenanceEdge{std::string(kb_.Label(assignment[edge.from])),
                       std::string(kb_.RelationName(edge.relation)),
                       std::string(kb_.Label(assignment[edge.to]))});
  }

  // Columns Apply() is about to mark positive (deduplicated, sorted).
  for (uint32_t v = 0; v < rule.nodes.size(); ++v) {
    if (v == rule.negative || rule.nodes[v].IsExistential()) continue;
    if (!tuple.IsPositive(rule.nodes[v].column)) {
      record.marked_columns.push_back(schema_.column_name(rule.nodes[v].column));
    }
  }
  std::sort(record.marked_columns.begin(), record.marked_columns.end());
  record.marked_columns.erase(
      std::unique(record.marked_columns.begin(), record.marked_columns.end()),
      record.marked_columns.end());

  // One kNormalization record per cell Apply() will actually standardize,
  // sharing the primary record's evidence (the same witness justifies both).
  std::vector<RepairProvenance> normalization_records;
  for (const auto& [column, label] : evaluation.normalizations) {
    if (tuple.IsPositive(column) || tuple.value(column) == label) continue;
    RepairProvenance norm;
    norm.row = current_row_;
    norm.round = current_round_;
    norm.rule = record.rule;
    norm.kind = ProvenanceKind::kNormalization;
    norm.column_index = column;
    norm.column = schema_.column_name(column);
    norm.old_value = tuple.value(column);
    norm.new_value = label;
    norm.bindings = record.bindings;
    norm.evidence_edges = record.evidence_edges;
    norm.marked_columns = record.marked_columns;
    normalization_records.push_back(std::move(norm));
  }

  provenance_->Add(std::move(record));
  for (RepairProvenance& norm : normalization_records) {
    provenance_->Add(std::move(norm));
  }
  DETECTIVE_COUNT("provenance.records");
}

void RuleEngine::Apply(uint32_t index, const RuleEvaluation& evaluation, Tuple* tuple,
                       size_t correction_index) {
  const BoundRule& rule = bound_[index];
  DETECTIVE_CHECK(evaluation.action != RuleEvaluation::Action::kNone);
  ++stats_.rule_applications;
  DETECTIVE_COUNT("repair.rule_applications");
  if (provenance_ != nullptr) {
    // Capture before any mutation: records hold pre-change values/marks.
    RecordProvenance(index, evaluation, *tuple, correction_index);
  }

  if (evaluation.action == RuleEvaluation::Action::kRepair) {
    DETECTIVE_CHECK_LT(correction_index, evaluation.corrections.size());
    ColumnIndex target = rule.nodes[rule.negative].column;
    DETECTIVE_CHECK(!tuple->IsPositive(target));
    tuple->Repair(target, evaluation.corrections[correction_index]);
    ++stats_.repairs;
    DETECTIVE_COUNT("repair.cell_repairs");
  } else {
    ++stats_.proofs_positive;
    DETECTIVE_COUNT("repair.proofs_positive");
  }
  // Standardize fuzzy-matched cells (evidence, and for proof positive also
  // the target) before marking them: a positive mark certifies the value.
  for (const auto& [column, label] : evaluation.normalizations) {
    if (tuple->IsPositive(column)) continue;  // proven since Evaluate
    if (tuple->value(column) != label) {
      tuple->Repair(column, label);
      ++stats_.repairs;
      DETECTIVE_COUNT("repair.cell_repairs");
    }
  }

  // Both actions mark col(Ve) ∪ col(p) positive (the repaired value was just
  // drawn from the KB, so it is positive by construction); existential nodes
  // have no cell to mark.
  for (uint32_t v = 0; v < rule.nodes.size(); ++v) {
    if (v == rule.negative || rule.nodes[v].IsExistential()) continue;
    if (!tuple->IsPositive(rule.nodes[v].column)) {
      tuple->MarkPositive(rule.nodes[v].column);
      ++stats_.cells_marked;
      DETECTIVE_COUNT("repair.cells_marked");
    }
  }
}

namespace {

/// Shared multi-version chase (§IV-C): depth-first branching over ambiguous
/// corrections, following `check_order` and applying each rule at most once
/// per branch. `rescan` = true reproduces the basic algorithm's "rescan
/// after every application" discipline; false walks the order resuming where
/// the branch left off, looping until stable (fast algorithm).
void MultiVersionChase(RuleEngine& engine, const std::vector<uint32_t>& check_order,
                       size_t max_versions, Tuple tuple, std::vector<char> applied,
                       std::vector<Tuple>* out, size_t round = 0) {
  while (true) {
    DETECTIVE_COUNT("repair.chase_rounds");
    engine.set_current_round(++round);
    bool fired = false;
    for (uint32_t index : check_order) {
      if (applied[index] || engine.rule_disabled(index)) continue;
      RuleEvaluation evaluation = engine.Evaluate(index, tuple);
      if (evaluation.action == RuleEvaluation::Action::kNone) continue;
      applied[index] = 1;
      if (evaluation.action == RuleEvaluation::Action::kRepair &&
          evaluation.corrections.size() > 1) {
        // Branch: one continuation per correction, capped at max_versions
        // total fixpoints (earliest corrections win when the cap bites).
        for (size_t c = 0; c < evaluation.corrections.size(); ++c) {
          if (out->size() >= max_versions) break;
          Tuple branch = tuple;
          engine.set_current_round(round);  // recursion may have moved it
          engine.Apply(index, evaluation, &branch, c);
          MultiVersionChase(engine, check_order, max_versions, std::move(branch),
                            applied, out, round);
        }
        return;
      }
      engine.Apply(index, evaluation, &tuple, 0);
      fired = true;
      break;  // restart the scan (chase discipline)
    }
    if (!fired) {
      DETECTIVE_COUNT("repair.versions_emitted");
      DETECTIVE_TRACE_INSTANT("repair.version_emitted");
      out->push_back(std::move(tuple));
      return;
    }
  }
}

}  // namespace

// ---- BasicRepairer -----------------------------------------------------------

BasicRepairer::BasicRepairer(const KnowledgeBase& kb, const Schema& schema,
                             std::vector<DetectiveRule> rules, RepairOptions options)
    : engine_(kb, schema, std::move(rules), options) {}

void BasicRepairer::RepairTuple(Tuple* tuple) {
  ++engine_.stats().tuples_processed;
  DETECTIVE_COUNT("repair.tuples_processed");
  std::vector<char> applied(engine_.num_rules(), 0);
  // Algorithm 1: pick any applicable rule, apply, and rescan; every rule is
  // used at most once, so at most |Σ| iterations of the outer loop.
  size_t round = 0;
  while (true) {
    DETECTIVE_COUNT("repair.chase_rounds");
    engine_.set_current_round(++round);
    bool fired = false;
    for (uint32_t index = 0; index < engine_.num_rules(); ++index) {
      if (applied[index] || engine_.rule_disabled(index)) continue;
      RuleEvaluation evaluation = engine_.Evaluate(index, *tuple);
      if (evaluation.action == RuleEvaluation::Action::kNone) continue;
      engine_.Apply(index, evaluation, tuple, 0);
      applied[index] = 1;
      fired = true;
      break;
    }
    if (!fired) {
      DETECTIVE_PROGRESS(NoteRounds(round));
      return;
    }
  }
}

void BasicRepairer::RepairRelation(Relation* relation) {
  DETECTIVE_SCOPED_TIMER("repair.relation");
  DETECTIVE_TRACE_SPAN(
      "repair.relation",
      {"rows", static_cast<int64_t>(relation->num_tuples())});
  for (size_t row = 0; row < relation->num_tuples(); ++row) {
    engine_.set_current_row(row);
    Tuple tuple = relation->tuple(row);
    RepairTuple(&tuple);
    relation->CommitRow(row, tuple);
    DETECTIVE_PROGRESS(AddRowsCommitted(1));
  }
}

std::vector<Tuple> BasicRepairer::RepairMultiVersion(const Tuple& tuple) {
  ++engine_.stats().tuples_processed;
  std::vector<uint32_t> order(engine_.num_rules());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Tuple> out;
  MultiVersionChase(engine_, order, engine_.options().max_versions, tuple,
                    std::vector<char>(engine_.num_rules(), 0), &out);
  return out;
}

// ---- FastRepairer ------------------------------------------------------------

FastRepairer::FastRepairer(const KnowledgeBase& kb, const Schema& schema,
                           std::vector<DetectiveRule> rules, RepairOptions options)
    : engine_(kb, schema, std::move(rules), options) {}

Status FastRepairer::Init() {
  RETURN_NOT_OK(engine_.Init());
  rule_graph_ = std::make_unique<RuleGraph>(engine_.rules());
  check_order_ = engine_.options().use_rule_order ? rule_graph_->CheckOrder()
                                                  : std::vector<uint32_t>{};
  if (check_order_.empty()) {
    check_order_.resize(engine_.num_rules());
    for (uint32_t i = 0; i < check_order_.size(); ++i) check_order_[i] = i;
  }
  return Status::OK();
}

void FastRepairer::RepairTuple(Tuple* tuple) { RepairTupleImpl(tuple, nullptr); }

void FastRepairer::RepairTupleImpl(Tuple* tuple, CancelToken* cancel) {
  ++engine_.stats().tuples_processed;
  DETECTIVE_COUNT("repair.tuples_processed");
  DETECTIVE_CHECK(rule_graph_ != nullptr) << "Init() not called";
  std::vector<char> applied(engine_.num_rules(), 0);

  // A certified stratification schedule licenses eliding confirming sweeps
  // inside multi-rule blocks whose evaluations are provably all-kNone
  // (docs/static_analysis.md). Evaluation order and block structure stay
  // exactly classic, so the chase is byte-identical by construction. Elision
  // disarms itself while a fault plan is armed: fault probes fire inside
  // Evaluate, so skipping an evaluation would shift per-site hit counts and
  // make the skipped sweep observable.
  const StratifiedSchedule* schedule = engine_.options().schedule;
  const bool elide = schedule != nullptr &&
                     schedule->num_rules == engine_.num_rules() &&
                     engine_.options().use_rule_order && !fault::Armed();
  std::vector<std::pair<uint32_t, size_t>> fired;  // (rule, position), per sweep

  // One forward sweep in topological order. Rules sharing a dependency
  // cycle live in one SCC; those are re-swept locally until stable.
  const std::vector<uint32_t>& components = rule_graph_->ComponentOf();
  size_t round = 0;
  size_t i = 0;
  size_t block = 0;  // component-block ordinal, reported as the stratum
  while (i < check_order_.size()) {
    DETECTIVE_PROGRESS(SetStratum(block++));
    // The component block [i, j).
    size_t j = i + 1;
    if (engine_.options().use_rule_order) {
      while (j < check_order_.size() &&
             components[check_order_[j]] == components[check_order_[i]]) {
        ++j;
      }
    } else {
      j = check_order_.size();  // no order info: sweep everything repeatedly
    }
    bool stable = false;
    while (!stable) {
      DETECTIVE_COUNT("repair.chase_rounds");
      engine_.set_current_round(++round);
      stable = true;
      if (elide) fired.clear();
      for (size_t k = i; k < j; ++k) {
        uint32_t index = check_order_[k];
        if (applied[index] || engine_.rule_disabled(index)) continue;
        RuleEvaluation evaluation = engine_.Evaluate(index, *tuple);
        // The trip may have surfaced inside the evaluation (fault probe,
        // expired budget observed by the matcher's poll): discard the
        // possibly-partial evaluation and abandon the chase, blaming the
        // rule in flight. The guarded driver restores the tuple.
        if (cancel != nullptr && cancel->Check()) {
          cancel->BlameOnce(engine_.rules()[index].name(), round);
          return;
        }
        if (evaluation.action == RuleEvaluation::Action::kNone) continue;
        engine_.Apply(index, evaluation, tuple, 0);
        applied[index] = 1;
        stable = false;
        if (elide) fired.emplace_back(index, k);
      }
      // Single-rule components cannot re-enable themselves.
      if (j - i == 1) break;
      if (!stable && elide) {
        // A re-sweep can change anything only if some still-pending rule was
        // evaluated BEFORE a fire that can enable it (a fire at an earlier
        // position was already visible to every later evaluation this
        // sweep). If no such pair exists, the classic loop's next sweep is
        // provably all-kNone: consume the round number it would have used
        // (so provenance round stamps in later blocks are unchanged) and
        // skip its evaluations.
        bool resweep = false;
        for (size_t k = i; k < j && !resweep; ++k) {
          uint32_t pending = check_order_[k];
          if (applied[pending] || engine_.rule_disabled(pending)) continue;
          for (const auto& [fired_rule, position] : fired) {
            if (position > k && schedule->CanEnable(fired_rule, pending)) {
              resweep = true;
              break;
            }
          }
        }
        if (!resweep) {
          ++round;
          ++engine_.stats().rounds_skipped;
          DETECTIVE_COUNT("strata.rounds_skipped");
          break;
        }
      }
    }
    i = j;
  }
  DETECTIVE_PROGRESS(NoteRounds(round));
}

void FastRepairer::RepairRelation(Relation* relation) {
  DETECTIVE_SCOPED_TIMER("repair.relation");
  DETECTIVE_TRACE_SPAN(
      "repair.relation",
      {"rows", static_cast<int64_t>(relation->num_tuples())});
  for (size_t row = 0; row < relation->num_tuples(); ++row) {
    engine_.set_current_row(row);
    Tuple tuple = relation->tuple(row);
    RepairTuple(&tuple);
    relation->CommitRow(row, tuple);
    DETECTIVE_PROGRESS(AddRowsCommitted(1));
  }
}

std::vector<Tuple> FastRepairer::RepairMultiVersion(const Tuple& tuple) {
  ++engine_.stats().tuples_processed;
  DETECTIVE_CHECK(rule_graph_ != nullptr) << "Init() not called";
  std::vector<Tuple> out;
  MultiVersionChase(engine_, check_order_, engine_.options().max_versions, tuple,
                    std::vector<char>(engine_.num_rules(), 0), &out);
  return out;
}

// ---- Guarded repair ----------------------------------------------------------

bool FastRepairer::RepairTupleGuarded(size_t row, Deadline run_deadline,
                                      Tuple* tuple, QuarantineLog* quarantine) {
  // Fault decisions inside are keyed to this row with fresh hit counters, so
  // they are identical no matter which worker (or breaker retry) runs them.
  fault::TupleScope fault_scope(row);
  CancelToken token;
  const uint64_t budget_ms = engine_.options().tuple_budget_ms;
  token.ArmDeadlines(run_deadline, budget_ms > 0 ? Deadline::AfterMs(budget_ms)
                                                 : Deadline::Infinite());
  engine_.set_current_row(row);
  Tuple pristine = *tuple;
  // Provenance goes through a scratch log: an abandoned chase rolls the
  // tuple back, so its records must never reach the caller's sink.
  ProvenanceLog* sink = engine_.provenance();
  ProvenanceLog scratch;
  if (sink != nullptr) engine_.set_provenance(&scratch);
  engine_.set_cancel(&token);
  // An expired run deadline (or a per-tuple probe fault) quarantines the
  // tuple before the chase starts: round 0, no blamed rule.
  token.CheckNow();
  DETECTIVE_FAULT_POINT_CANCEL("repair.tuple", &token);
  if (!token.tripped()) RepairTupleImpl(tuple, &token);
  engine_.set_cancel(nullptr);
  if (sink != nullptr) {
    engine_.set_provenance(sink);
    if (!token.tripped()) sink->Merge(std::move(scratch));
  }
  if (!token.tripped()) return true;

  *tuple = std::move(pristine);
  QuarantineRecord record;
  record.row = row;
  record.rule = token.blamed_rule();
  record.site = token.site();
  record.reason = token.reason();
  record.round = token.blamed_round();
  record.detail = token.detail();
  ++engine_.stats().tuples_quarantined;
  DETECTIVE_COUNT("quarantine.tuples");
  DETECTIVE_PROGRESS(AddQuarantined(1));
  DETECTIVE_TRACE_INSTANT("quarantine.tuple");
  if (quarantine != nullptr) quarantine->Add(std::move(record));
  return false;
}

void BreakerFixpoint(FastRepairer& repairer, Relation* relation,
                     Deadline run_deadline, QuarantineLog* quarantine) {
  RuleEngine& engine = repairer.engine();
  const size_t threshold = engine.options().max_rule_failures;
  if (threshold == 0 || quarantine == nullptr) return;

  // Each iteration disables at least one rule, so num_rules bounds the loop.
  for (size_t iteration = 0; iteration < engine.num_rules(); ++iteration) {
    std::map<std::string, size_t> tally;
    for (const QuarantineRecord& record : quarantine->records()) {
      if (!record.rule.empty()) ++tally[record.rule];
    }
    std::set<std::string> newly_disabled;
    for (uint32_t index = 0; index < engine.num_rules(); ++index) {
      if (engine.rule_disabled(index)) continue;
      auto it = tally.find(engine.rules()[index].name());
      if (it == tally.end() || it->second < threshold) continue;
      engine.set_rule_disabled(index, true);
      newly_disabled.insert(it->first);
      DETECTIVE_COUNT("quarantine.breaker_trips");
      DETECTIVE_TRACE_INSTANT("quarantine.breaker_trip");
    }
    if (newly_disabled.empty()) return;

    // The tripped rules' victims get another chance with those rules out of
    // the rule set; their old records are replaced by the retry's outcome.
    std::vector<QuarantineRecord> kept;
    std::vector<uint64_t> retry_rows;
    for (const QuarantineRecord& record : quarantine->records()) {
      if (newly_disabled.count(record.rule) > 0) {
        retry_rows.push_back(record.row);
      } else {
        kept.push_back(record);
      }
    }
    quarantine->Clear();
    for (QuarantineRecord& record : kept) quarantine->Add(std::move(record));
    std::sort(retry_rows.begin(), retry_rows.end());
    retry_rows.erase(std::unique(retry_rows.begin(), retry_rows.end()),
                     retry_rows.end());
    for (uint64_t row : retry_rows) {
      Tuple tuple = relation->tuple(static_cast<size_t>(row));
      if (repairer.RepairTupleGuarded(static_cast<size_t>(row), run_deadline,
                                      &tuple, quarantine)) {
        relation->CommitRow(static_cast<size_t>(row), tuple);
      }
    }
  }
}

}  // namespace detective

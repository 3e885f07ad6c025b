#ifndef DETECTIVE_CORE_PIPELINE_H_
#define DETECTIVE_CORE_PIPELINE_H_

// The frozen cleaning pipeline: everything a repair run reads but never
// writes, loaded and checked once. detective_clean, detective_serve and
// delta cleaning all build one and hand its pieces to ParallelRepair
// (core/parallel_repair.h), so the freeze sequence exists exactly once:
//
//   Freeze:  KB (magic-sniffed text or .dkb snapshot) -> rules -> lint gate
//            -> stratification gate (installs RepairOptions::schedule)
//   Bind:    rules bound to the relation schema -> MatchPlan
//
// The two steps are split because the schema is data: the batch CLI reads
// it from the input CSV, the daemon from its --schema flag. Everything the
// pipeline owns is immutable after Bind, so any number of repair workers
// may share it. The pipeline is neither copyable nor movable: repair
// options and workers hold pointers into it.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/stratification.h"
#include "common/status.h"
#include "core/match_plan.h"
#include "core/repair.h"
#include "core/rule.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"

namespace detective {

struct PipelineOptions {
  /// Text KB (N-Triples, or TSV by extension). A binary snapshot passed here
  /// is magic-sniffed and loads the fast path too.
  std::string kb_path;
  /// Binary KB snapshot (kb/snapshot.h); set to insist on the binary format.
  /// Takes precedence over kb_path.
  std::string kb_snapshot_path;
  std::string rules_path;
  /// Static lint gate: off | warn | strict (docs/static_analysis.md).
  std::string lint = "warn";
  /// Stratified scheduling: off | auto | strict.
  std::string stratify = "auto";
  /// Repair options every run of this pipeline uses; Freeze installs the
  /// stratification schedule into them.
  RepairOptions repair;
  /// Component name on the warnings the gates log (common/log.h).
  std::string log_component = "pipeline";
};

class FrozenPipeline {
 public:
  /// Which gate refused the freeze. Decides the CLIs' exit code.
  enum class Refusal : uint8_t {
    kNone,
    kBadSnapshot,  // the KB snapshot was rejected (bad magic/version/...)
    kAnalysis,     // --lint=strict or --stratify=strict refused the rules
    kRuntime,      // anything else (IO, parse, binding)
  };

  FrozenPipeline() = default;
  FrozenPipeline(const FrozenPipeline&) = delete;
  FrozenPipeline& operator=(const FrozenPipeline&) = delete;

  /// Loads the KB and the rules, then runs the lint and stratification
  /// gates. Lint findings and an unavailable stratification are logged as
  /// warnings. On failure the returned status says why, refusal() says which
  /// gate refused, and whatever was computed before the refusal (KB, rules,
  /// lint report, stratification) stays readable for the caller's report.
  Status Freeze(PipelineOptions options);

  /// Binds the rules to `schema` (fails on a schema mismatch) and builds the
  /// shared MatchPlan when the matcher uses signature indexes. `threads`
  /// bounds the plan build's parallelism (0 = hardware concurrency).
  Status Bind(const Schema& schema, size_t threads = 0);

  Refusal refusal() const { return refusal_; }
  /// The CLI exit code for a refused freeze: 64 for a rejected snapshot, 3
  /// for an analysis gate, 1 for anything else.
  int FailureExitCode() const;

  bool kb_loaded() const { return kb_.has_value(); }
  const KnowledgeBase& kb() const { return *kb_; }
  bool kb_is_snapshot() const { return kb_is_snapshot_; }
  /// The file the KB came from, and how long loading it took.
  const std::string& kb_input() const { return kb_input_; }
  double kb_load_ms() const { return kb_load_ms_; }

  bool rules_loaded() const { return rules_loaded_; }
  const std::vector<DetectiveRule>& rules() const { return rules_; }

  /// The lint report, sorted by severity; empty optional under --lint=off.
  const std::optional<analysis::DiagnosticReport>& lint() const { return lint_; }
  /// The stratification; empty under --stratify=off or when unavailable.
  const std::optional<analysis::Stratification>& strata() const { return strata_; }

  /// Options[.schedule] for every repair run of this pipeline.
  const RepairOptions& repair_options() const { return repair_; }
  /// Valid after Bind: the shared plan (null when signature indexes are
  /// off) and the number of rules the KB can power.
  const MatchPlan* plan() const { return plan_built_ ? &plan_ : nullptr; }
  size_t num_usable_rules() const { return usable_rules_; }

 private:
  Status Refuse(Refusal refusal, Status status) {
    refusal_ = refusal;
    return status;
  }

  Refusal refusal_ = Refusal::kNone;
  std::optional<KnowledgeBase> kb_;
  bool kb_is_snapshot_ = false;
  std::string kb_input_;
  double kb_load_ms_ = 0;
  bool rules_loaded_ = false;
  std::vector<DetectiveRule> rules_;
  std::optional<analysis::DiagnosticReport> lint_;
  std::optional<analysis::Stratification> strata_;
  RepairOptions repair_;
  MatchPlan plan_;
  bool plan_built_ = false;
  size_t usable_rules_ = 0;
};

}  // namespace detective

#endif  // DETECTIVE_CORE_PIPELINE_H_

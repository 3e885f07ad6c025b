#include "core/pipeline.h"

#include <chrono>
#include <utility>

#include "analysis/rule_lint.h"
#include "common/log.h"
#include "common/trace.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"

namespace detective {

Status FrozenPipeline::Freeze(PipelineOptions options) {
  repair_ = options.repair;
  const std::string& component = options.log_component;

  // A kb_snapshot_path insists on the binary format; a kb_path file is
  // magic-sniffed so a snapshot passed there loads the fast path too (sniff
  // IO errors fall through to the text loader, which reports them properly).
  const bool snapshot_requested = !options.kb_snapshot_path.empty();
  kb_input_ = snapshot_requested ? options.kb_snapshot_path : options.kb_path;
  kb_is_snapshot_ = snapshot_requested;
  if (!snapshot_requested) {
    if (auto sniff = FileHasKbSnapshotMagic(kb_input_); sniff.ok()) {
      kb_is_snapshot_ = *sniff;
    }
  }
  {
    DETECTIVE_TRACE_SPAN("pipeline.load_kb");
    const auto start = std::chrono::steady_clock::now();
    auto kb = kb_is_snapshot_ ? LoadKbSnapshot(kb_input_) : LoadKbFile(kb_input_);
    if (!kb.ok()) {
      // A rejected snapshot (bad magic/version/checksum/structure) is a usage
      // error: the operator pointed us at a file this build cannot accept.
      return Refuse(kb_is_snapshot_ && kb.status().IsParseError()
                        ? Refusal::kBadSnapshot
                        : Refusal::kRuntime,
                    kb.status().WithContext("cannot load KB " + kb_input_));
    }
    kb_.emplace(std::move(*kb));
    kb_load_ms_ = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }

  auto rules = ParseRulesFile(options.rules_path);
  if (!rules.ok()) {
    return Refuse(Refusal::kRuntime, rules.status().WithContext(
                                         "cannot load rules " + options.rules_path));
  }
  rules_ = std::move(*rules);
  rules_loaded_ = true;

  // Static lint gate (paper §III-C ahead of time; docs/static_analysis.md):
  // warn logs the findings, strict refuses on any error-level finding.
  if (options.lint != "off") {
    DETECTIVE_TRACE_SPAN("pipeline.lint");
    lint_ = analysis::LintRules(rules_, *kb_);
    lint_->SortBySeverity();
    if (!lint_->empty()) {
      logs::Warn(component, "lint_findings", lint_->ToString(),
                 {{"errors", lint_->errors()}});
    }
    if (options.lint == "strict" && !lint_->clean()) {
      return Refuse(Refusal::kAnalysis,
                    Status::InvalidArgument(
                        "rule set rejected: ", lint_->errors(),
                        " error-level lint finding(s) under --lint=strict"));
    }
  }

  // Stratification (docs/static_analysis.md). The certificate's schedule
  // licenses the fast repairer to elide provably futile confirming sweeps;
  // the repaired bytes are identical either way. strict demands a *full*
  // stratification: a cyclic stratum means some interaction cycle survived
  // every refutation attempt. auto still runs it (the schedule is sound
  // either way — intra-stratum sweeps just persist).
  if (options.stratify != "off") {
    DETECTIVE_TRACE_SPAN("pipeline.stratify");
    auto computed = analysis::ComputeStratification(rules_, *kb_);
    if (computed.ok()) {
      strata_ = std::move(*computed);
      repair_.schedule = &strata_->schedule;
      const size_t cyclic = strata_->certificate.num_cyclic_strata();
      if (options.stratify == "strict" && cyclic > 0) {
        return Refuse(Refusal::kAnalysis,
                      Status::InvalidArgument(
                          "rule set rejected: ", cyclic,
                          " stratum/strata remain cyclic under "
                          "--stratify=strict (rule interaction cycles could "
                          "not be statically refuted)"));
      }
    } else if (options.stratify == "strict") {
      return Refuse(Refusal::kAnalysis,
                    computed.status().WithContext(
                        "rule set rejected: cannot be certified under "
                        "--stratify=strict"));
    } else {
      logs::Warn(component, "stratify_unavailable",
                 "stratification unavailable (" + computed.status().ToString() +
                     "); running the classic chase loop");
    }
  }
  return Status::OK();
}

Status FrozenPipeline::Bind(const Schema& schema, size_t threads) {
  DETECTIVE_TRACE_SPAN("pipeline.bind");
  RuleEngine probe(*kb_, schema, rules_, repair_);
  if (Status bound = probe.Init(); !bound.ok()) {
    return Refuse(Refusal::kRuntime, bound);
  }
  usable_rules_ = probe.num_usable_rules();
  if (repair_.matcher.use_signature_index) {
    plan_ = MatchPlan::Build(*kb_, probe.bound_rules(), threads);
    plan_built_ = true;
  }
  return Status::OK();
}

int FrozenPipeline::FailureExitCode() const {
  switch (refusal_) {
    case Refusal::kBadSnapshot:
      return 64;
    case Refusal::kAnalysis:
      return 3;
    default:
      return 1;
  }
}

}  // namespace detective

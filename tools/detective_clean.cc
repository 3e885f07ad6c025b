// detective_clean: the command-line cleaner a downstream user runs.
//
//   detective_clean --kb=yago.nt --rules=nobel.dr --input=dirty.csv
//                   --output=clean.csv [--check-consistency] [--multi-version]
//                   [--algorithm=fast|basic] [--report=report.txt]
//                   [--lint=strict|warn|off] [--lint-json=DIAG.json]
//                   [--explain-json=EXPLAIN.jsonl] [--trace-json=TRACE.json]
//
// Loads an RDF KB (N-Triples subset; *.tsv switches to the TSV triple
// format), a detective-rule file (the DSL of core/rule_io.h) and a CSV
// relation (first row = header); statically lints the rule set against the
// KB (src/analysis); optionally verifies rule consistency on the data;
// repairs every tuple to its fixpoint; writes the repaired CSV and a
// human-readable repair report.
//
// Robustness (docs/robustness.md): --fault-plan (or the DETECTIVE_FAULT_PLAN
// environment variable) arms deterministic fault injection; --deadline-ms /
// --tuple-budget-ms bound the run and each tuple's chase;
// --max-rule-failures trips a per-rule circuit breaker. Tuples that fault or
// run over budget are left unmodified and recorded in the quarantine ledger
// (--quarantine-json); the run then exits 4, "completed degraded".
//
// Exit codes (the contract every tool test asserts; docs/robustness.md):
// 0 success, 1 load/runtime failure, 2 rule set inconsistent on the data
// (--check-consistency), 3 rule set rejected by --lint=strict, 4 completed
// degraded (at least one tuple quarantined), 64 usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/diagnostics.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "obs/introspect.h"
#include "obs/progress.h"
#include "core/consistency.h"
#include "core/incremental.h"
#include "core/parallel_repair.h"
#include "core/pipeline.h"
#include "core/provenance.h"
#include "core/quarantine.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "eval/experiment.h"
#include "relation/relation.h"

namespace detective {
namespace {

constexpr int kExitRuntimeFailure = 1;
constexpr int kExitInconsistent = 2;
constexpr int kExitLintRejected = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitUsage = 64;

struct Args {
  std::string kb_path;
  /// Binary KB snapshot (kb/snapshot.h) instead of --kb text. A snapshot
  /// passed as --kb is magic-sniffed and loads the same way; this flag exists
  /// so scripts can insist on the snapshot path (a rejected snapshot is a
  /// usage error, exit 64, never a silent text re-parse).
  std::string kb_snapshot_path;
  std::string rules_path;
  // Incremental (delta) cleaning (docs/performance.md): --input stays the
  // ORIGINAL dirty relation of the previous run; --delta applies on top.
  std::string delta_path;
  std::string prev_provenance_path;
  std::string prev_quarantine_path;
  std::string input_path;
  std::string output_path;
  std::string report_path;
  std::string metrics_json_path;
  std::string lint_json_path;
  std::string explain_json_path;
  std::string trace_json_path;
  std::string algorithm = "fast";
  std::string lint = "warn";
  /// Stratified chase scheduling (docs/static_analysis.md): auto computes a
  /// stratification certificate and lets the fast repairer elide provably
  /// futile fixpoint sweeps (falling back to the classic loop when the set
  /// cannot be certified); strict refuses to run on certification failure
  /// (exit 3); off never stratifies.
  std::string stratify = "auto";
  bool check_consistency = false;
  bool multi_version = false;
  // Robustness (docs/robustness.md).
  std::string fault_plan;
  std::string quarantine_json_path;
  uint64_t deadline_ms = 0;
  uint64_t tuple_budget_ms = 0;
  uint64_t max_rule_failures = 0;
  /// Repair worker threads (docs/performance.md). 1 = the chunk loop inline
  /// on the main thread; >1 = work-stealing workers over the pipeline's
  /// shared match plan, each with a private value memo; 0 = hardware
  /// concurrency.
  uint64_t threads = 1;
  // Live introspection (docs/observability.md "Live endpoints").
  bool introspect = false;
  uint64_t introspect_port = 0;  // 0 = ephemeral, printed at startup
  /// Keeps the introspection server up this long after the run completes,
  /// so a poller can read the final /progress and /metrics documents.
  uint64_t introspect_linger_ms = 0;
  /// Structured log sink: JSONL to this file instead of text to stderr.
  std::string log_json_path;
  /// Print every registered metric name at end of run (docs drift check).
  bool list_metrics = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: detective_clean --kb=KB.nt --rules=RULES.dr --input=IN.csv\n"
      "                       --output=OUT.csv [--report=REPORT.txt]\n"
      "                       [--algorithm=fast|basic] [--check-consistency]\n"
      "                       [--multi-version] [--metrics-json=METRICS.json]\n"
      "                       [--lint=strict|warn|off] [--lint-json=DIAG.json]\n"
      "                       [--stratify=off|auto|strict]\n"
      "                       [--explain-json=EXPLAIN.jsonl]\n"
      "                       [--trace-json=TRACE.json]\n\n"
      "  --kb                RDF knowledge base (N-Triples subset; a .tsv\n"
      "                      extension selects tab-separated triples; a binary\n"
      "                      snapshot is magic-sniffed and mmap-loaded)\n"
      "  --kb-snapshot       binary KB snapshot built by detective_kb_build;\n"
      "                      a rejected snapshot (bad magic/version/checksum)\n"
      "                      exits %d. Exactly one of --kb/--kb-snapshot\n"
      "  --rules             detective rules in the rule DSL\n"
      "  --input/--output    CSV relation, first record is the header\n"
      "  --delta             incremental cleaning: CSV of updates/inserts on\n"
      "                      top of --input (header: 'row' + schema columns;\n"
      "                      empty row = append). Re-chases only affected\n"
      "                      rows; output is byte-identical to a full clean\n"
      "  --prev-provenance   the previous run's --explain-json log (required\n"
      "                      with --delta; replayed onto unaffected rows)\n"
      "  --prev-quarantine   the previous run's --quarantine-json ledger\n"
      "                      (those rows re-chase)\n"
      "  --check-consistency run the dataset-specific consistency check and\n"
      "                      refuse to repair on divergence (exit %d)\n"
      "  --multi-version     emit one output row per repair fixpoint\n"
      "  --metrics-json      dump the per-stage metrics snapshot (KB lookups,\n"
      "                      rule matches, chase rounds, timers) as JSON\n"
      "  --lint              static rule-set analysis at load time (default\n"
      "                      warn): strict refuses to run on error-level\n"
      "                      findings (exit %d), warn prints them, off skips\n"
      "  --stratify          stratum-aware chase scheduling (default auto):\n"
      "                      auto certifies the rule set and skips provably\n"
      "                      futile fixpoint sweeps (output byte-identical),\n"
      "                      strict exits %d unless the set certifies fully\n"
      "                      acyclic, off runs the classic loop\n"
      "  --lint-json         where to write the lint diagnostics JSON\n"
      "                      (default: OUT.csv.lint.json, written whenever\n"
      "                      the lint finds anything)\n"
      "  --explain-json      record repair provenance (one JSON line per\n"
      "                      cell change, naming the rule, node bindings and\n"
      "                      KB evidence edges; query with detective_explain)\n"
      "  --trace-json        record a span-level timeline and write it in\n"
      "                      Chrome trace-event format (chrome://tracing,\n"
      "                      Perfetto)\n"
      "  --fault-plan        arm deterministic fault injection (also read\n"
      "                      from $DETECTIVE_FAULT_PLAN); grammar in\n"
      "                      docs/robustness.md\n"
      "  --deadline-ms       whole-run deadline; remaining tuples quarantine\n"
      "  --tuple-budget-ms   per-tuple chase budget\n"
      "  --max-rule-failures circuit breaker: disable a rule after this many\n"
      "                      quarantined tuples blame it, re-chase its victims\n"
      "  --quarantine-json   write the quarantine ledger (one JSON line per\n"
      "                      set-aside tuple); any quarantine exits %d\n"
      "                      (completed degraded)\n"
      "  --threads           repair worker threads (default 1 = sequential;\n"
      "                      0 = hardware concurrency). Workers share one\n"
      "                      frozen match plan and keep private value memos;\n"
      "                      output is identical at every thread count\n"
      "  --introspect        serve live introspection on 127.0.0.1:PORT\n"
      "                      (0 = ephemeral, printed at startup): /healthz,\n"
      "                      /metrics (OpenMetrics), /metrics.json, /progress,\n"
      "                      /trace. Port already in use exits %d\n"
      "  --introspect-linger-ms\n"
      "                      keep the server up this long after the run so a\n"
      "                      poller can read the final documents\n"
      "  --log-json          write structured logs as JSONL to FILE instead\n"
      "                      of text to stderr (errors still mirror there)\n"
      "  --list-metrics      after the run, print one 'counter NAME' /\n"
      "                      'timer NAME' line per registered metric\n",
      kExitUsage, kExitInconsistent, kExitLintRejected, kExitLintRejected,
      kExitDegraded, kExitUsage);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool numeric_ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto take = [&](std::string_view name, std::string* out) {
      std::string prefix = std::string("--") + std::string(name) + "=";
      if (StartsWith(arg, prefix)) {
        *out = std::string(arg.substr(prefix.size()));
        return true;
      }
      return false;
    };
    auto take_u64 = [&](std::string_view name, uint64_t* out) {
      std::string raw;
      if (!take(name, &raw)) return false;
      if (!ParseUint64(raw, out)) {
        std::fprintf(stderr, "--%.*s expects a non-negative integer, got '%s'\n",
                     static_cast<int>(name.size()), name.data(), raw.c_str());
        numeric_ok = false;
      }
      return true;
    };
    if (take("kb", &args->kb_path) ||
        take("kb-snapshot", &args->kb_snapshot_path) ||
        take("rules", &args->rules_path) ||
        take("delta", &args->delta_path) ||
        take("prev-provenance", &args->prev_provenance_path) ||
        take("prev-quarantine", &args->prev_quarantine_path) ||
        take("input", &args->input_path) || take("output", &args->output_path) ||
        take("report", &args->report_path) || take("algorithm", &args->algorithm) ||
        take("metrics-json", &args->metrics_json_path) ||
        take("lint", &args->lint) || take("lint-json", &args->lint_json_path) ||
        take("stratify", &args->stratify) ||
        take("explain-json", &args->explain_json_path) ||
        take("trace-json", &args->trace_json_path) ||
        take("fault-plan", &args->fault_plan) ||
        take("quarantine-json", &args->quarantine_json_path) ||
        take_u64("deadline-ms", &args->deadline_ms) ||
        take_u64("tuple-budget-ms", &args->tuple_budget_ms) ||
        take_u64("max-rule-failures", &args->max_rule_failures) ||
        take_u64("threads", &args->threads) ||
        take_u64("introspect-linger-ms", &args->introspect_linger_ms) ||
        take("log-json", &args->log_json_path)) {
      continue;
    }
    if (take_u64("introspect", &args->introspect_port)) {
      args->introspect = true;
      if (args->introspect_port > 65535) {
        std::fprintf(stderr, "--introspect expects a port in [0, 65535]\n");
        numeric_ok = false;
      }
      continue;
    }
    if (arg == "--check-consistency") {
      args->check_consistency = true;
    } else if (arg == "--multi-version") {
      args->multi_version = true;
    } else if (arg == "--list-metrics") {
      args->list_metrics = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  if (args->rules_path.empty() || args->input_path.empty() ||
      args->output_path.empty()) {
    return false;
  }
  if (args->kb_path.empty() == args->kb_snapshot_path.empty()) {
    std::fprintf(stderr, "exactly one of --kb and --kb-snapshot is required\n");
    return false;
  }
  if (args->algorithm != "fast" && args->algorithm != "basic") {
    std::fprintf(stderr, "--algorithm must be 'fast' or 'basic'\n");
    return false;
  }
  if (args->lint != "strict" && args->lint != "warn" && args->lint != "off") {
    std::fprintf(stderr, "--lint must be 'strict', 'warn', or 'off'\n");
    return false;
  }
  if (args->stratify != "auto" && args->stratify != "strict" &&
      args->stratify != "off") {
    std::fprintf(stderr, "--stratify must be 'off', 'auto', or 'strict'\n");
    return false;
  }
  if (!numeric_ok) return false;
  // Incremental (delta) cleaning replays the previous run's provenance, so it
  // needs that log; it rejects the run-global couplings (breaker, run
  // deadline) whose outcomes depend on rows it will not re-chase.
  if (args->delta_path.empty() &&
      (!args->prev_provenance_path.empty() ||
       !args->prev_quarantine_path.empty())) {
    std::fprintf(stderr,
                 "--prev-provenance/--prev-quarantine only make sense with "
                 "--delta\n");
    return false;
  }
  if (!args->delta_path.empty()) {
    if (args->prev_provenance_path.empty()) {
      std::fprintf(stderr, "--delta requires --prev-provenance\n");
      return false;
    }
    if (args->multi_version || args->algorithm == "basic") {
      std::fprintf(stderr,
                   "--delta requires --algorithm=fast without "
                   "--multi-version\n");
      return false;
    }
    if (args->max_rule_failures > 0 || args->deadline_ms > 0) {
      std::fprintf(stderr,
                   "--delta cannot combine with --max-rule-failures or "
                   "--deadline-ms (both couple rows across the whole run; "
                   "see docs/performance.md)\n");
      return false;
    }
  }
  // The guarded repair path (deadlines, budgets, breaker, quarantine) is only
  // implemented for the default fast single-version pipeline.
  const bool robustness_requested =
      args->deadline_ms > 0 || args->tuple_budget_ms > 0 ||
      args->max_rule_failures > 0 || !args->quarantine_json_path.empty();
  if (robustness_requested &&
      (args->multi_version || args->algorithm == "basic")) {
    std::fprintf(stderr,
                 "--deadline-ms/--tuple-budget-ms/--max-rule-failures/"
                 "--quarantine-json require --algorithm=fast without "
                 "--multi-version\n");
    return false;
  }
  // Parallel repair drives FastRepairer workers; the basic algorithm and the
  // multi-version expansion stay sequential.
  if (args->threads != 1 && (args->multi_version || args->algorithm == "basic")) {
    std::fprintf(stderr,
                 "--threads requires --algorithm=fast without --multi-version\n");
    return false;
  }
  return true;
}

/// Writes the lint diagnostics JSON and returns the path it went to (empty on
/// write failure). CI log lines reference this path.
std::string WriteLintJson(const analysis::DiagnosticReport& report,
                          const Args& args) {
  std::string path = args.lint_json_path.empty()
                         ? args.output_path + ".lint.json"
                         : args.lint_json_path;
  std::ofstream out(path, std::ios::trunc);
  out << report.ToJson();
  if (!out) {
    logs::Error("clean", "lint_write_failed",
                "error writing lint diagnostics to " + path, {{"path", path}});
    return std::string();
  }
  return path;
}

int Run(const Args& args) {
  // ---- Structured log sink (src/common/log.h) ----
  if (!args.log_json_path.empty()) {
    Status log_status = logs::OpenJsonFile(args.log_json_path);
    if (!log_status.ok()) {
      logs::Error("clean", "log_sink_failed", log_status.ToString());
      return kExitRuntimeFailure;
    }
  }

  // ---- Arm fault injection (docs/robustness.md) ----
  std::string fault_spec = args.fault_plan;
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("DETECTIVE_FAULT_PLAN")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    auto plan = fault::FaultPlan::Parse(fault_spec);
    if (!plan.ok()) {
      logs::Error("clean", "bad_fault_plan",
                  "bad fault plan: " + plan.status().ToString());
      return kExitUsage;
    }
    fault::Injector::Global().Arm(*plan);
    std::printf("Fault plan armed: %s\n", plan->ToString().c_str());
#if !DETECTIVE_FAULT_ENABLED
    // The "DETECTIVE_FAULT=OFF" stderr note is load-bearing: CI greps it.
    logs::Warn("clean", "fault_compiled_out",
               "note: built with DETECTIVE_FAULT=OFF; the plan never fires");
#endif
  }

  if (!args.trace_json_path.empty()) {
    trace::Registry::Global().Start();
#if !DETECTIVE_METRICS_ENABLED
    logs::Warn("clean", "metrics_compiled_out",
               "note: built with DETECTIVE_METRICS=OFF; the trace is empty");
#endif
  }

  // ---- Live introspection (docs/observability.md "Live endpoints") ----
  obs::IntrospectServer introspect_server(
      obs::IntrospectOptions{static_cast<uint16_t>(args.introspect_port)});
  if (args.introspect) {
    if (obs::ShouldDisableUnderFaultPlan()) {
      // A chaos run aiming at obs.* must not get fault-distorted answers;
      // the pipeline itself runs unchanged.
      logs::Warn("obs", "introspect_disabled",
                 "introspection disabled: the armed fault plan targets "
                 "obs.* sites",
                 {{"site", obs::kObsFaultSite}});
    } else {
      Status serve_status = introspect_server.Start();
      if (!serve_status.ok()) {
        // Port in use (or any bind failure) is a usage error: the operator
        // asked for an address this process cannot have.
        logs::Error("obs", "introspect_start_failed",
                    "cannot start introspection server: " +
                        serve_status.ToString());
        return kExitUsage;
      }
      // Parsed by pollers (and the CI smoke job) to find an ephemeral port.
      std::printf("introspection: http://127.0.0.1:%u (healthz metrics "
                  "metrics.json progress trace)\n",
                  static_cast<unsigned>(introspect_server.port()));
      // /trace should show the live timeline even without --trace-json.
      if (args.trace_json_path.empty()) trace::Registry::Global().Start();
    }
  }

  obs::ProgressTracker& progress = obs::ProgressTracker::Global();
  progress.BeginRun(/*rows_total=*/0, args.deadline_ms);

  // ---- Freeze the pipeline: KB, rules, lint and stratify gates ----
  PipelineOptions pipeline_options;
  pipeline_options.kb_path = args.kb_path;
  pipeline_options.kb_snapshot_path = args.kb_snapshot_path;
  pipeline_options.rules_path = args.rules_path;
  pipeline_options.lint = args.lint;
  pipeline_options.stratify = args.stratify;
  pipeline_options.repair.deadline_ms = args.deadline_ms;
  pipeline_options.repair.tuple_budget_ms = args.tuple_budget_ms;
  pipeline_options.repair.max_rule_failures = args.max_rule_failures;
  // bRepair matches without signature indexes, so it gets no MatchPlan.
  pipeline_options.repair.matcher.use_signature_index =
      args.algorithm != "basic";
  pipeline_options.log_component = "clean";
  FrozenPipeline pipeline;
  const Status frozen = pipeline.Freeze(std::move(pipeline_options));
  if (pipeline.kb_loaded()) {
    std::printf("KB: %s (%s)\n", pipeline.kb().DebugSummary().c_str(),
                pipeline.kb_is_snapshot() ? "snapshot" : "text");
  }
  if (pipeline.rules_loaded()) {
    std::printf("Rules: %zu loaded from %s\n", pipeline.rules().size(),
                args.rules_path.c_str());
  }
  std::string lint_json_path;
  if (const auto& lint = pipeline.lint(); lint.has_value()) {
    std::printf("Lint: %s\n", lint->Summary().c_str());
    if (!lint->empty()) {
      lint_json_path = WriteLintJson(*lint, args);
      if (!lint_json_path.empty()) {
        std::printf("lint diagnostics written to %s\n", lint_json_path.c_str());
      }
    }
  }
  if (const auto& strata = pipeline.strata(); strata.has_value()) {
    std::printf("Strata: %zu stratum/strata (%zu cyclic), %zu pair(s) refuted\n",
                strata->certificate.strata.size(),
                strata->certificate.num_cyclic_strata(), strata->pairs_refuted);
    progress.SetStrataTotal(strata->certificate.strata.size());
  }
  if (!frozen.ok()) {
    logs::Error("clean", "pipeline_refused",
                frozen.ToString() + (lint_json_path.empty()
                                         ? std::string()
                                         : " (diagnostics: " + lint_json_path + ")"));
    return pipeline.FailureExitCode();
  }
  const KnowledgeBase& kb = pipeline.kb();
  const std::vector<DetectiveRule>& rules = pipeline.rules();

  auto relation = [&] {
    DETECTIVE_TRACE_SPAN("clean.load_relation");
    return Relation::FromCsvFile(args.input_path);
  }();
  if (!relation.ok()) {
    logs::Error("clean", "relation_load_failed",
                "error loading relation: " + relation.status().ToString(),
                {{"path", args.input_path}});
    return kExitRuntimeFailure;
  }
  std::printf("Relation: %zu tuples x %zu columns\n", relation->num_tuples(),
              relation->schema().num_columns());

  // ---- Incremental (delta) cleaning: apply the delta and plan the affected
  // rows before anything downstream (consistency, repair, report) sees the
  // relation, so every stage operates on the delta-applied rows. The
  // previous provenance log is only opened here; the repair streams it.
  const bool incremental = !args.delta_path.empty();
  ProvenanceFileReader prev_provenance;
  QuarantineLog prev_quarantine;
  const QuarantineLog* prev_quarantine_ptr = nullptr;
  std::optional<IncrementalPlan> inc_plan;
  if (incremental) {
    DETECTIVE_TRACE_SPAN("clean.plan_incremental");
    auto delta = LoadDeltaFile(args.delta_path, relation->schema());
    if (!delta.ok()) {
      logs::Error("clean", "delta_load_failed",
                  "error loading delta: " + delta.status().ToString(),
                  {{"path", args.delta_path}});
      return kExitRuntimeFailure;
    }
    if (Status open_st = prev_provenance.Open(args.prev_provenance_path);
        !open_st.ok()) {
      logs::Error("clean", "prev_provenance_load_failed", open_st.ToString(),
                  {{"path", args.prev_provenance_path}});
      return kExitRuntimeFailure;
    }
    if (!args.prev_quarantine_path.empty()) {
      std::ifstream in(args.prev_quarantine_path, std::ios::binary);
      if (!in) {
        logs::Error("clean", "prev_quarantine_load_failed",
                    Status::IOError("cannot open '", args.prev_quarantine_path,
                                    "'")
                        .ToString(),
                    {{"path", args.prev_quarantine_path}});
        return kExitRuntimeFailure;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto prev_ledger = QuarantineLog::FromJsonLines(buffer.str());
      if (!prev_ledger.ok()) {
        logs::Error("clean", "prev_quarantine_load_failed",
                    "error parsing previous quarantine: " +
                        prev_ledger.status().ToString(),
                    {{"path", args.prev_quarantine_path}});
        return kExitRuntimeFailure;
      }
      prev_quarantine = std::move(*prev_ledger);
      prev_quarantine_ptr = &prev_quarantine;
    }
    auto plan = PlanIncremental(*delta, &*relation, ProvenanceLog(),
                                prev_quarantine_ptr);
    if (!plan.ok()) {
      logs::Error("clean", "incremental_plan_failed",
                  "cannot plan incremental run: " + plan.status().ToString());
      return kExitRuntimeFailure;
    }
    inc_plan = std::move(*plan);
    std::printf(
        "Delta: %zu update(s), %zu insert(s) -> %zu of %zu rows affected "
        "(%zu delta, %zu prev-quarantined)\n",
        delta->num_updates, delta->num_inserts, inc_plan->affected_rows.size(),
        relation->num_tuples(), inc_plan->delta_rows,
        inc_plan->quarantined_rows);
  }
  progress.SetRowsTotal(relation->num_tuples());
  progress.SetPhase(obs::Phase::kIndex);

  // ---- Optional consistency gate (paper §III-C) ----
  if (args.check_consistency) {
    DETECTIVE_TRACE_SPAN("clean.consistency");
    auto report = CheckConsistency(kb, rules, *relation);
    if (!report.ok()) {
      logs::Error("clean", "consistency_check_failed",
                  "consistency check failed: " + report.status().ToString());
      return kExitRuntimeFailure;
    }
    std::printf("Consistency: %s\n", report->ToString().c_str());
    if (!report->consistent) {
      logs::Error("clean", "inconsistent_rules",
                  "refusing to repair with an inconsistent rule set");
      return kExitInconsistent;
    }
  }

  Status bound = pipeline.Bind(relation->schema(), args.threads);
  if (!bound.ok()) {
    logs::Error("clean", "init_failed", "init failed: " + bound.ToString());
    return kExitRuntimeFailure;
  }

  // ---- Repair ----
  double start = NowSeconds();
  Relation repaired = *relation;
  RepairStats stats;
  IncrementalStats inc_stats;
  size_t extra_versions = 0;
  ProvenanceLog provenance;
  ProvenanceLog* provenance_sink =
      args.explain_json_path.empty() ? nullptr : &provenance;
  // --explain-json output. A delta run splices into a temporary file next to
  // it, renamed over it once written: the previous log it streams from may
  // be the same file.
  ProvenanceWriter provenance_out;
  const std::string spliced_path = args.explain_json_path + ".tmp";
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      if (!path.empty()) std::remove(path.c_str());
    }
  } spliced_cleanup;
  QuarantineLog quarantine;
  const RepairOptions& repair_options = pipeline.repair_options();
  const bool guarded = GuardedRepairRequested(repair_options) ||
                       !args.quarantine_json_path.empty();

  progress.SetPhase(obs::Phase::kRepair);
  {
    DETECTIVE_TRACE_SPAN("clean.repair",
                         {"rows", static_cast<int64_t>(relation->num_tuples())});
    if (args.multi_version) {
      Relation expanded{relation->schema()};
      FastRepairer repairer(kb, relation->schema(), rules);
      Status st = repairer.Init();
      if (!st.ok()) {
        logs::Error("clean", "init_failed", "init failed: " + st.ToString());
        return kExitRuntimeFailure;
      }
      repairer.engine().set_provenance(provenance_sink);
      repairer.engine().set_plan(pipeline.plan());
      for (size_t row = 0; row < relation->num_tuples(); ++row) {
        repairer.engine().set_current_row(row);
        std::vector<Tuple> versions =
            repairer.RepairMultiVersion(relation->tuple(row));
        extra_versions += versions.size() - 1;
        for (Tuple& version : versions) expanded.Append(std::move(version));
      }
      stats = repairer.stats();
      repaired = std::move(expanded);
    } else if (args.algorithm == "basic") {
      RepairOptions options;
      options.matcher.use_signature_index = false;
      options.matcher.use_value_memo = false;
      BasicRepairer repairer(kb, relation->schema(), rules, options);
      Status st = repairer.Init();
      if (!st.ok()) {
        logs::Error("clean", "init_failed", "init failed: " + st.ToString());
        return kExitRuntimeFailure;
      }
      repairer.engine().set_provenance(provenance_sink);
      repairer.RepairRelation(&repaired);
      stats = repairer.stats();
    } else if (incremental) {
      IncrementalOptions inc_options;
      inc_options.repair = repair_options;
      inc_options.num_threads = args.threads;
      inc_options.quarantine = guarded ? &quarantine : nullptr;
      inc_options.plan = pipeline.plan();
      ProvenanceWriter* spliced = nullptr;
      if (!args.explain_json_path.empty()) {
        spliced_cleanup.path = spliced_path;
        if (Status open_st = provenance_out.Open(spliced_path); !open_st.ok()) {
          logs::Error("clean", "explain_write_failed", open_st.ToString(),
                      {{"path", args.explain_json_path}});
          return kExitRuntimeFailure;
        }
        spliced = &provenance_out;
      }
      auto result = IncrementalRepair(kb, rules, &repaired, *inc_plan,
                                      &prev_provenance, prev_quarantine_ptr,
                                      inc_options, spliced);
      if (!prev_provenance.status().ok()) {
        logs::Error("clean", "prev_provenance_load_failed",
                    "error parsing previous provenance: " +
                        prev_provenance.status().ToString(),
                    {{"path", args.prev_provenance_path}});
        return kExitRuntimeFailure;
      }
      if (!result.ok()) {
        logs::Error("clean", "incremental_failed",
                    "incremental repair failed: " + result.status().ToString());
        return kExitRuntimeFailure;
      }
      inc_stats = *result;
      stats = inc_stats.repair;
    } else {
      ParallelRepairOptions parallel_options;
      parallel_options.repair = repair_options;
      parallel_options.num_threads = args.threads;
      parallel_options.provenance = provenance_sink;
      parallel_options.quarantine = guarded ? &quarantine : nullptr;
      parallel_options.plan = pipeline.plan();
      auto result = ParallelRepair(kb, rules, &repaired, parallel_options);
      if (!result.ok()) {
        logs::Error("clean", "init_failed",
                    "init failed: " + result.status().ToString());
        return kExitRuntimeFailure;
      }
      stats = *result;
    }
  }
  double elapsed = NowSeconds() - start;

  // ---- Write output + report ----
  progress.SetPhase(obs::Phase::kWrite);
  Status st = [&] {
    DETECTIVE_TRACE_SPAN("clean.write_output");
    return repaired.ToCsvFile(args.output_path);
  }();
  if (!st.ok()) {
    logs::Error("clean", "output_write_failed",
                "error writing output: " + st.ToString(),
                {{"path", args.output_path}});
    return kExitRuntimeFailure;
  }

  std::string summary;
  {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "repaired %zu tuples in %.3fs: %zu cells repaired, %zu cells "
                  "marked correct, %zu rule applications",
                  stats.tuples_processed, elapsed, stats.repairs,
                  stats.cells_marked, stats.rule_applications);
    summary = buffer;
    if (args.threads != 1) {
      std::snprintf(buffer, sizeof(buffer), " (%llu threads, %zu chunks stolen)",
                    static_cast<unsigned long long>(args.threads),
                    stats.chunks_stolen);
      summary += buffer;
    }
    if (args.multi_version) {
      std::snprintf(buffer, sizeof(buffer), ", %zu extra versions emitted",
                    extra_versions);
      summary += buffer;
    }
    if (incremental) {
      std::snprintf(buffer, sizeof(buffer),
                    ", %zu row(s) re-chased + %zu replayed (%zu records)",
                    inc_stats.rows_rechased, inc_stats.rows_replayed,
                    inc_stats.replayed_records);
      summary += buffer;
    }
    if (pipeline.strata().has_value()) {
      std::snprintf(buffer, sizeof(buffer), ", %zu fixpoint sweeps elided",
                    stats.rounds_skipped);
      summary += buffer;
    }
    if (guarded) {
      // quarantine.Rows() is the final ledger; stats.tuples_quarantined counts
      // quarantine *events* and can exceed it when the breaker re-chases rows.
      std::snprintf(buffer, sizeof(buffer),
                    ", %zu tuples quarantined (%zu of %zu rows clean or "
                    "repaired)",
                    quarantine.Rows().size(),
                    repaired.num_tuples() - quarantine.Rows().size(),
                    repaired.num_tuples());
      summary += buffer;
    }
  }
  std::printf("%s\n", summary.c_str());

  if (!args.report_path.empty()) {
    std::ofstream report(args.report_path, std::ios::trunc);
    report << summary << "\n\nPer-cell repairs (row, column, before -> after):\n";
    for (size_t row = 0; row < repaired.num_tuples(); ++row) {
      const Tuple& tuple = repaired.tuple(row);
      for (ColumnIndex c = 0; c < tuple.size(); ++c) {
        if (tuple.WasRepaired(c)) {
          report << "  " << row << ", " << repaired.schema().column_name(c) << ", '"
                 << tuple.OriginalValue(c) << "' -> '" << tuple.value(c) << "'\n";
        }
      }
    }
    if (!report) {
      logs::Error("clean", "report_write_failed",
                  "error writing report to " + args.report_path,
                  {{"path", args.report_path}});
      return kExitRuntimeFailure;
    }
    std::printf("report written to %s\n", args.report_path.c_str());
  }

  if (!args.explain_json_path.empty()) {
    Status explain_status;
    {
      DETECTIVE_TRACE_NAMED_SPAN(span, "clean.write_provenance");
      if (!incremental) {
        explain_status = provenance_out.Open(args.explain_json_path);
        if (explain_status.ok()) {
          for (const RepairProvenance& record : provenance.records()) {
            provenance_out.Append(record);
          }
        }
      }
      if (explain_status.ok()) explain_status = provenance_out.Close();
      if (explain_status.ok() && incremental) {
        if (std::rename(spliced_path.c_str(),
                        args.explain_json_path.c_str()) != 0) {
          explain_status = Status::IOError("error writing provenance JSONL to ",
                                           args.explain_json_path);
        }
        spliced_cleanup.path.clear();
      }
      span.SetArgs({"bytes", static_cast<int64_t>(provenance_out.bytes())},
                   {"lines", static_cast<int64_t>(provenance_out.lines())});
    }
    if (!explain_status.ok()) {
      logs::Error("clean", "explain_write_failed", explain_status.ToString(),
                  {{"path", args.explain_json_path}});
      return kExitRuntimeFailure;
    }
    std::printf("provenance written to %s (%zu records)\n",
                args.explain_json_path.c_str(), provenance_out.lines());
  }

  if (!args.trace_json_path.empty()) {
    trace::Registry& tracer = trace::Registry::Global();
    tracer.Stop();
    std::vector<trace::Event> events = tracer.Collect();
    Status trace_status = trace::WriteChromeTraceJson(events, args.trace_json_path);
    if (!trace_status.ok()) {
      logs::Error("clean", "trace_write_failed", trace_status.ToString(),
                  {{"path", args.trace_json_path}});
      return kExitRuntimeFailure;
    }
    std::printf("trace written to %s (%zu events, %llu dropped)\n",
                args.trace_json_path.c_str(), events.size(),
                static_cast<unsigned long long>(tracer.dropped_events()));
  }

  if (!args.metrics_json_path.empty()) {
    metrics::MetricsSnapshot snapshot = metrics::Registry::Global().Snapshot();
    std::ofstream out(args.metrics_json_path, std::ios::trunc);
    out << snapshot.ToJson();
    if (!out) {
      logs::Error("clean", "metrics_write_failed",
                  "error writing metrics to " + args.metrics_json_path,
                  {{"path", args.metrics_json_path}});
      return kExitRuntimeFailure;
    }
    std::printf("metrics written to %s (%zu counters, %zu timers)\n",
                args.metrics_json_path.c_str(), snapshot.counters.size(),
                snapshot.timers.size());
#if !DETECTIVE_METRICS_ENABLED
    logs::Warn("clean", "metrics_compiled_out",
               "note: built with DETECTIVE_METRICS=OFF; the snapshot is empty");
#endif
  }

  if (!args.quarantine_json_path.empty()) {
    Status quarantine_status =
        quarantine.WriteJsonLines(args.quarantine_json_path);
    if (!quarantine_status.ok()) {
      logs::Error("clean", "quarantine_write_failed",
                  quarantine_status.ToString(),
                  {{"path", args.quarantine_json_path}});
      return kExitRuntimeFailure;
    }
    std::printf("quarantine written to %s (%zu records, %zu rows)\n",
                args.quarantine_json_path.c_str(), quarantine.size(),
                quarantine.Rows().size());
  }

  int exit_code = 0;
  if (!quarantine.empty()) {
    logs::Error("clean", "degraded",
                "completed degraded: " +
                    std::to_string(quarantine.Rows().size()) +
                    " tuples quarantined (left unmodified)",
                {{"rows", quarantine.Rows().size()}});
    exit_code = kExitDegraded;
  }

  // done=true + frozen elapsed must be observable before any linger window.
  progress.EndRun();

  if (args.list_metrics) {
    // Only sites whose code path executed are registered, so the listing
    // reflects this run — the docs drift check runs a representative clean.
    for (const std::string& name : metrics::Registry::Global().CounterNames()) {
      std::printf("counter %s\n", name.c_str());
    }
    for (const std::string& name : metrics::Registry::Global().TimerNames()) {
      std::printf("timer %s\n", name.c_str());
    }
  }

  if (introspect_server.running() && args.introspect_linger_ms > 0) {
    std::fflush(stdout);  // pollers wait on the "introspection:" line
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.introspect_linger_ms));
  }
  introspect_server.Stop();
  logs::CloseJsonFile();
  return exit_code;
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  detective::Args args;
  if (!detective::ParseArgs(argc, argv, &args)) {
    detective::PrintUsage();
    return detective::kExitUsage;
  }
  return detective::Run(args);
}

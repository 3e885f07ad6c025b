// perfbench_layers: per-layer timings of one cleaning pipeline, taken from
// outside the library. It calls the public function of each module in the
// order detective_clean (or detective_serve) calls it and times every call
// with a steady clock; work counters come from the metrics registry, drained
// around the calls they belong to.
//
//   perfbench_layers clean --kb=KB.nt --rules=R.dr --input=IN.csv --out=DIR
//   perfbench_layers delta --kb-snapshot=KB.dkb --rules=R.dr --input=IN.csv
//                          --delta=D.csv --prev-provenance=P.jsonl --out=DIR
//   perfbench_layers serve --kb-snapshot=KB.dkb --rules=R.dr --input=IN.csv
//                          --rows=ROWS.txt --rate=R --count=N
//
// Prints one JSON object on stdout: single-call times in milliseconds,
// counters, and for `serve` the raw per-request samples (the caller computes
// the percentiles). clean and delta write their repaired CSV (and delta its
// provenance) into DIR so the caller can check them against the CLI.
// Exit 0 on success, 1 when a call fails, 64 on usage.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rule_lint.h"
#include "analysis/stratification.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "core/incremental.h"
#include "core/parallel_repair.h"
#include "core/provenance.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"
#include "relation/relation.h"
#include "serve/service.h"

namespace detective {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Times `fn()` and stores the milliseconds under `name`.
template <typename Fn>
auto Timed(std::map<std::string, double>* out, const std::string& name, Fn fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  (*out)[name] = MsSince(start);
  return result;
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_layers: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(*result);
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what, status);
}

double FileBytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

/// The counters the per-layer ledger reports, read from one drained epoch.
void AddCounters(const metrics::MetricsSnapshot& snapshot,
                 std::map<std::string, double>* out) {
  (*out)["repair.rule_checks"] = static_cast<double>(snapshot.counter("repair.rule_checks"));
  (*out)["matcher.node_queries"] = static_cast<double>(snapshot.counter("matcher.node_queries"));
  (*out)["kb.edge_checks"] = static_cast<double>(snapshot.counter("kb.edge_checks"));
  (*out)["sigindex.candidates_verified"] =
      static_cast<double>(snapshot.counter("sigindex.candidates_verified"));
  (*out)["sigindex.probes"] = static_cast<double>(snapshot.counter("sigindex.probes"));
  (*out)["cache.hits"] = static_cast<double>(snapshot.counter("cache.hits"));
  (*out)["cache.misses"] = static_cast<double>(snapshot.counter("cache.misses"));
}

void PrintJson(const std::map<std::string, double>& values,
               const std::map<std::string, std::vector<double>>& series) {
  std::string json = "{";
  bool first = true;
  char buffer[64];
  for (const auto& [name, value] : values) {
    if (!first) json += ", ";
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    json += "\"" + name + "\": " + buffer;
  }
  for (const auto& [name, samples] : series) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": [";
    for (size_t i = 0; i < samples.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer), i == 0 ? "%.3f" : ", %.3f",
                    samples[i]);
      json += buffer;
    }
    json += "]";
  }
  json += "}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  const std::string& Get(const std::string& name) const {
    static const std::string kEmpty;
    auto it = flags.find(name);
    return it == flags.end() ? kEmpty : it->second;
  }
};

RepairOptions RepairOptionsFor(const analysis::Stratification& strata) {
  RepairOptions options;
  options.schedule = &strata.schedule;
  return options;
}

/// detective_clean --threads=4 with a text KB and no provenance.
int RunClean(const Args& args) {
  std::map<std::string, double> out;
  const std::string& kb_path = args.Get("kb");
  KnowledgeBase kb = Must(Timed(&out, "kb.text_load_ms",
                                [&] { return LoadKbFile(kb_path); }),
                          "load KB");
  out["kb.text_load_mb_per_s"] =
      FileBytes(kb_path) / 1e6 / (out["kb.text_load_ms"] / 1e3);
  const std::vector<DetectiveRule> rules =
      Must(ParseRulesFile(args.Get("rules")), "load rules");
  Timed(&out, "analysis.lint_ms", [&] { return analysis::LintRules(rules, kb); });
  Relation relation = Must(Timed(&out, "relation.csv_load_ms",
                                 [&] { return Relation::FromCsvFile(args.Get("input")); }),
                           "load CSV");
  const analysis::Stratification strata =
      Must(Timed(&out, "analysis.stratify_ms",
                 [&] { return analysis::ComputeStratification(rules, kb); }),
           "stratify");

  metrics::Registry::Global().SnapshotAndReset();
  Relation repaired = relation;
  ParallelRepairOptions options;
  options.repair = RepairOptionsFor(strata);
  options.num_threads = 4;
  Must(Timed(&out, "core.chase_ms.t4",
             [&] { return ParallelRepair(kb, rules, &repaired, options); }),
       "repair at 4 threads");
  AddCounters(metrics::Registry::Global().SnapshotAndReset(), &out);

  Relation sequential = relation;
  options.num_threads = 1;
  Must(Timed(&out, "core.chase_ms.t1",
             [&] { return ParallelRepair(kb, rules, &sequential, options); }),
       "repair at 1 thread");

  const std::string out_dir = args.Get("out");
  MustOk(Timed(&out, "relation.csv_write_ms",
               [&] { return repaired.ToCsvFile(out_dir + "/layers_t4.csv"); }),
         "write CSV");
  MustOk(sequential.ToCsvFile(out_dir + "/layers_t1.csv"), "write CSV");
  PrintJson(out, {});
  return 0;
}

/// detective_clean --delta --prev-provenance --explain-json --threads=4 from
/// a KB snapshot.
int RunDelta(const Args& args) {
  std::map<std::string, double> out;
  KnowledgeBase kb = Must(Timed(&out, "kb.snapshot_load_ms",
                                [&] { return LoadKbSnapshot(args.Get("kb-snapshot")); }),
                          "load KB snapshot");
  const std::vector<DetectiveRule> rules =
      Must(ParseRulesFile(args.Get("rules")), "load rules");
  Timed(&out, "analysis.lint_ms", [&] { return analysis::LintRules(rules, kb); });
  Relation relation = Must(Timed(&out, "relation.csv_load_ms",
                                 [&] { return Relation::FromCsvFile(args.Get("input")); }),
                           "load CSV");
  const RelationDelta delta =
      Must(Timed(&out, "core.delta_load_ms",
                 [&] { return LoadDeltaFile(args.Get("delta"), relation.schema()); }),
           "load delta");

  const std::string& prev_path = args.Get("prev-provenance");
  std::string prev_text;
  {
    const Clock::time_point start = Clock::now();
    std::ifstream in(prev_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    prev_text = buffer.str();
    out["core.provenance_read_ms"] = MsSince(start);
    if (!in) Fail("read previous provenance", Status::IOError(prev_path));
  }
  ProvenanceLog prev = Must(Timed(&out, "core.provenance_parse_ms",
                                  [&] { return ProvenanceLog::FromJsonLines(prev_text); }),
                            "parse previous provenance");
  out["core.provenance_parse_mb_per_s"] =
      static_cast<double>(prev_text.size()) / 1e6 /
      (out["core.provenance_parse_ms"] / 1e3);
  prev_text = std::string();

  const IncrementalPlan plan =
      Must(Timed(&out, "core.incremental_plan_ms",
                 [&] { return PlanIncremental(delta, &relation, prev, nullptr); }),
           "plan increment");
  out["core.rows_affected"] = static_cast<double>(plan.affected_rows.size());
  const analysis::Stratification strata =
      Must(Timed(&out, "analysis.stratify_ms",
                 [&] { return analysis::ComputeStratification(rules, kb); }),
           "stratify");

  metrics::Registry::Global().SnapshotAndReset();
  Relation repaired = relation;
  ProvenanceLog provenance;
  IncrementalOptions options;
  options.repair = RepairOptionsFor(strata);
  options.num_threads = 4;
  options.provenance = &provenance;
  const IncrementalStats stats =
      Must(Timed(&out, "core.incremental_repair_ms",
                 [&] {
                   return IncrementalRepair(kb, rules, &repaired, plan,
                                            std::move(prev), nullptr, options);
                 }),
           "incremental repair");
  AddCounters(metrics::Registry::Global().SnapshotAndReset(), &out);
  out["core.records_replayed"] = static_cast<double>(stats.replayed_records);

  const std::string out_dir = args.Get("out");
  MustOk(Timed(&out, "relation.csv_write_ms",
               [&] { return repaired.ToCsvFile(out_dir + "/layers_delta.csv"); }),
         "write CSV");
  const std::string provenance_path = out_dir + "/layers_delta.jsonl";
  MustOk(Timed(&out, "core.provenance_write_ms",
               [&] { return provenance.WriteJsonLines(provenance_path); }),
         "write provenance");
  out["core.provenance_bytes"] = FileBytes(provenance_path);
  PrintJson(out, {});
  return 0;
}

/// detective_serve --kb-snapshot --threads=2, driven in-process (no sockets).
int RunServe(const Args& args) {
  std::map<std::string, double> out;
  std::map<std::string, std::vector<double>> series;
  // The request tuples; the daemon itself never loads a relation.
  const Relation relation = Must(Relation::FromCsvFile(args.Get("input")), "load CSV");
  std::vector<size_t> rows;
  {
    std::ifstream in(args.Get("rows"));
    for (size_t row = 0; in >> row;) {
      if (row >= relation.num_tuples()) Fail("rows", Status::InvalidArgument("row out of range"));
      rows.push_back(row);
    }
  }
  const double rate = std::stod(args.Get("rate"));
  const size_t count = std::stoul(args.Get("count"));
  if (rows.empty() || rate <= 0 || count == 0) {
    Fail("usage", Status::InvalidArgument("serve needs --rows, --rate, --count"));
  }

  // The steps the daemon runs inside Init, timed on their own.
  const KnowledgeBase kb = Must(Timed(&out, "kb.snapshot_load_ms",
                                      [&] { return LoadKbSnapshot(args.Get("kb-snapshot")); }),
                                "load KB snapshot");
  const std::vector<DetectiveRule> rules =
      Must(ParseRulesFile(args.Get("rules")), "load rules");
  Timed(&out, "analysis.lint_ms", [&] { return analysis::LintRules(rules, kb); });
  const analysis::Stratification strata =
      Must(Timed(&out, "analysis.stratify_ms",
                 [&] { return analysis::ComputeStratification(rules, kb); }),
           "stratify");

  // The single-tuple chase alone: one FastRepairer, no queue.
  {
    FastRepairer repairer(kb, relation.schema(), rules, RepairOptionsFor(strata));
    MustOk(repairer.Init(), "repairer init");
    std::vector<double> chase_us;
    const size_t n = std::min(rows.size(), count);
    for (size_t i = 0; i < n; ++i) {
      Tuple tuple = relation.tuple(rows[i]);
      const Clock::time_point start = Clock::now();
      repairer.RepairTuple(&tuple);
      chase_us.push_back(MsSince(start) * 1e3);
    }
    series["tuple_chase_us"] = std::move(chase_us);
  }

  serve::ServiceOptions options;
  options.kb_snapshot_path = args.Get("kb-snapshot");
  options.rules_path = args.Get("rules");
  options.schema_columns = relation.schema().columns();
  options.workers = 2;
  serve::CleaningService service;
  MustOk(Timed(&out, "serve.init_ms", [&] { return service.Init(options); }),
         "service init");
  service.MarkReady();

  // Open loop at `rate` from two caller threads (the daemon's two
  // connections); each latency is taken from the request's due time.
  metrics::Registry::Global().SnapshotAndReset();
  constexpr size_t kCallers = 2;
  std::vector<double> latency_us(count, 0);
  std::vector<char> good(count, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Same wake-up precision as perfbench_loadgen's connection threads.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (size_t i = c; i < count; i += kCallers) {
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * 1e9 / rate));
        std::this_thread::sleep_until(due);
        const Tuple tuple = relation.tuple(rows[i % rows.size()]);
        std::vector<std::string> values;
        for (ColumnIndex col = 0; col < tuple.size(); ++col) {
          values.emplace_back(tuple.value(col));
        }
        serve::TupleOutcome outcome;
        uint64_t retry_after_s = 0;
        try {
          const auto admit = service.CleanTuple(std::move(values), 0,
                                                fault::FaultPlan{}, &outcome,
                                                &retry_after_s);
          good[i] = admit == serve::CleaningService::Admit::kOk && !outcome.degraded;
        } catch (...) {
          good[i] = 0;  // a panicking job counts as a failed request
        }
        latency_us[i] =
            std::chrono::duration<double, std::micro>(Clock::now() - due).count();
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  AddCounters(metrics::Registry::Global().SnapshotAndReset(), &out);
  service.Shutdown();
  out["serve.failed"] = static_cast<double>(std::count(good.begin(), good.end(), 0));
  series["service_us"] = std::move(latency_us);
  PrintJson(out, series);
  return 0;
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  detective::Args args;
  if (argc >= 2) args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 64;
    }
    args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  if (args.mode == "clean") return detective::RunClean(args);
  if (args.mode == "delta") return detective::RunDelta(args);
  if (args.mode == "serve") return detective::RunServe(args);
  std::fprintf(stderr, "usage: perfbench_layers clean|delta|serve --flag=value ...\n");
  return 64;
}

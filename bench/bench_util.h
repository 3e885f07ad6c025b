#ifndef DETECTIVE_BENCH_BENCH_UTIL_H_
#define DETECTIVE_BENCH_BENCH_UTIL_H_

// Shared plumbing for the experiment-reproduction benches (one binary per
// paper table/figure). Each binary prints the same rows/series the paper
// reports; absolute numbers differ from the authors' testbed, the *shape*
// is what reproduces.
//
// Every binary also accepts --json=<path> and emits the machine-readable
// form of its table through BenchJsonWriter below — one schema for the
// whole suite so the perf-trajectory tooling (tools/check_bench_regression.py
// and the CI bench-smoke job) can consume any BENCH_*.json without
// per-binary parsing:
//
//   {
//     "schema_version": 1,
//     "bench": "<binary name without bench_ prefix>",
//     "entries": [
//       {"series": "fRepair(Yago)", "x": 4000, "wall_ms": 12.5,
//        "counters": {"repair.rule_checks": 123, ...}},
//       ...
//     ]
//   }
//
// "series" names one line of a figure (or one row label of a table), "x" is
// the swept parameter (0 when nothing is swept), "wall_ms" the measured wall
// clock, and "counters" any integer-valued extras (work counters, quality
// tallies scaled to counts — never floats).

// Every binary also accepts --trace-json=<path> (see TraceSession below):
// when given, the run records the span timeline of common/trace.h and writes
// it in Chrome trace-event format for chrome://tracing / Perfetto.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace detective::bench {

/// Peak resident set of this process so far, in bytes (getrusage; Linux
/// reports ru_maxrss in KiB). Monotone over the process lifetime, so a
/// bench entry records the high-water mark up to its measurement — the
/// memory gate the scale benches assert on.
inline uint64_t PeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

/// Normalized throughput: rows cleaned per second per worker core. Stored as
/// a counter named with the _rps suffix so check_bench_regression.py's
/// default throughput band applies instead of the exact-match rule.
inline void RecordThroughput(std::map<std::string, uint64_t>* counters,
                             uint64_t rows, size_t cores, double wall_ms) {
  if (wall_ms <= 0 || cores == 0) return;
  const double per_core = static_cast<double>(rows) / (wall_ms / 1000.0) /
                          static_cast<double>(cores);
  (*counters)["rows_per_core_rps"] = static_cast<uint64_t>(per_core);
}

/// Minimal --key=value flag reader: Flag(argc, argv, "tuples", 2000).
inline uint64_t FlagUint(int argc, char** argv, const char* name,
                         uint64_t fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      uint64_t value = 0;
      if (ParseUint64(argv[i] + prefix.size(), &value)) return value;
    }
  }
  return fallback;
}

inline bool FlagBool(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

inline std::string FlagString(int argc, char** argv, const char* name,
                              std::string fallback = "") {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Wires `--trace-json=PATH` into a bench binary: starts the span recorder
/// on construction when the flag was given; Finish() (also run by the
/// destructor) stops recording and writes the Chrome trace-event file.
class TraceSession {
 public:
  TraceSession(int argc, char** argv)
      : path_(FlagString(argc, argv, "trace-json")) {
    if (!path_.empty()) trace::Registry::Global().Start();
  }
  ~TraceSession() { Finish(); }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void Finish() {
    if (path_.empty() || finished_) return;
    finished_ = true;
    trace::Registry& tracer = trace::Registry::Global();
    tracer.Stop();
    Status status = trace::WriteChromeTraceJson(tracer.Collect(), path_);
    if (status.ok()) {
      std::printf("trace written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
  }

 private:
  std::string path_;
  bool finished_ = false;
};

/// Exact per-phase counter deltas: call once to open a measurement epoch
/// (discarding what came before) and again after the phase to collect what
/// it recorded. Registry::SnapshotAndReset drains cells atomically, so a
/// count lands in exactly one epoch even if worker threads race the call.
inline std::map<std::string, uint64_t> DrainCounters() {
  return metrics::Registry::Global().SnapshotAndReset().counters;
}

/// Counters a multi-threaded chase cannot pin, published as "sched.<name>".
/// Each ParallelRepair worker keeps a private value memo that warms on the
/// chunks it happens to claim, so at two or more threads the schedule
/// decides how many node checks a worker computes rather than serves from
/// its memo — and with them the label lookups, instance checks and
/// signature-index work behind each computed check — while the checks
/// themselves (matcher.node_queries and the search counters) do not move.
/// Renamed, these get their own regression band (--band 'sched.*=TOL') and
/// the same counters of every sequential series stay exact.
inline std::map<std::string, uint64_t> ScheduleDependent(
    std::map<std::string, uint64_t> counters) {
  static const char* const kMemoDependent[] = {
      "kb.instance_checks",          "kb.label_hits",
      "kb.label_lookups",            "matcher.label_index_lookups",
      "matcher.memo_hits",           "matcher.signature_lookups",
      "sigindex.candidates_verified", "sigindex.probes",
      "sigindex.queries",
  };
  for (const char* name : kMemoDependent) {
    auto node = counters.extract(name);
    if (node.empty()) continue;
    node.key() = std::string("sched.") + name;
    counters.insert(std::move(node));
  }
  return counters;
}

inline void PrintHeader(const char* title, const char* subtitle) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", subtitle);
  std::printf("==========================================================\n");
}

/// Collects (series, x, wall_ms, counters) measurements and writes the
/// schema-stable JSON document described at the top of this header.
class BenchJsonWriter {
 public:
  /// `bench_name` identifies the binary, e.g. "fig8_scale".
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Add(std::string series, double x, double wall_ms,
           std::map<std::string, uint64_t> counters = {}) {
    // Every entry carries the process peak-RSS high-water mark, so memory
    // regressions gate in CI alongside wall clock (emplace: a caller that
    // measured its own figure wins).
    counters.emplace("peak_rss_bytes", PeakRssBytes());
    entries_.push_back(
        {std::move(series), x, wall_ms, std::move(counters)});
  }

  /// Writes the document; no-op returning true when `path` is empty (the
  /// caller can pass FlagString(argc, argv, "json") unconditionally).
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"schema_version\": 1,\n  \"bench\": " << Quoted(bench_name_)
        << ",\n  \"entries\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "\n" : ",\n");
      char number[64];
      std::snprintf(number, sizeof(number), "%.6g", e.x);
      out << "    {\"series\": " << Quoted(e.series) << ", \"x\": " << number;
      std::snprintf(number, sizeof(number), "%.6f", e.wall_ms);
      out << ", \"wall_ms\": " << number << ", \"counters\": {";
      bool first = true;
      for (const auto& [name, value] : e.counters) {
        out << (first ? "" : ", ") << Quoted(name) << ": " << value;
        first = false;
      }
      out << "}}";
    }
    out << (entries_.empty() ? "]\n}\n" : "\n  ]\n}\n");
    if (out.good()) {
      std::printf("\nbench JSON written to %s (%zu entries)\n", path.c_str(),
                  entries_.size());
      return true;
    }
    std::fprintf(stderr, "error writing bench JSON to %s\n", path.c_str());
    return false;
  }

 private:
  struct Entry {
    std::string series;
    double x;
    double wall_ms;
    std::map<std::string, uint64_t> counters;
  };

  /// The double-quoted JSON form of `text`, via the shared escaper
  /// (common/string_util.h) every JSON emitter in the tree uses.
  static std::string Quoted(const std::string& text) {
    std::string out;
    AppendJsonString(text, &out);
    return out;
  }

  std::string bench_name_;
  std::vector<Entry> entries_;
};

}  // namespace detective::bench

#endif  // DETECTIVE_BENCH_BENCH_UTIL_H_

// detective_serve: the long-lived cleaning daemon (docs/serving.md).
//
//   detective_serve --kb=yago.nt --rules=nobel.dr --schema=Name,Country
//                   [--port=0] [--threads=1] [--queue-depth=32]
//                   [--default-deadline-ms=N] [--tuple-budget-ms=N]
//                   [--drain-timeout-ms=5000] [--allow-fault-header] ...
//
// Freezes one pipeline (KB, rule set, lint/stratify gates, match plan;
// core/pipeline.h), and serves cleaning requests over loopback HTTP until
// SIGTERM/SIGINT, then drains gracefully: the listener closes, queued and
// in-flight requests finish under a tightened deadline, and the process
// exits 0. The endpoint surface, request/response formats, and the
// error-code mapping live in serve/router.h and docs/serving.md; the
// introspection endpoints (/healthz /metrics /metrics.json /progress
// /trace) share the same listener.
//
// Exit codes: 0 clean start + clean drain, 1 load/runtime failure, 3 rule
// set rejected (--lint=strict / --stratify=strict), 64 usage — including a
// port that cannot be bound, so supervisors distinguish "bad config" from
// "crashed".

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault.h"
#include "common/log.h"
#include "common/string_util.h"
#include "obs/http_server.h"
#include "obs/introspect.h"
#include "relation/relation.h"
#include "serve/router.h"
#include "serve/service.h"

namespace detective {
namespace {

constexpr int kExitRuntimeFailure = 1;
constexpr int kExitUsage = 64;

struct Args {
  std::string kb_path;
  std::string kb_snapshot_path;
  std::string rules_path;
  /// Comma-separated column names, or --schema-csv: a CSV whose header row
  /// is the schema (typically the workload the service will clean).
  std::string schema;
  std::string schema_csv_path;
  uint64_t port = 0;  // 0 = ephemeral, reported on stdout
  /// Repair workers (0 = hardware concurrency); one FastRepairer each.
  uint64_t threads = 1;
  /// Connection threads in the HTTP layer; 0 = threads + 4.
  uint64_t http_threads = 0;
  /// Bounded request queue; a full queue sheds with 429 + Retry-After.
  uint64_t queue_depth = 32;
  uint64_t max_body_bytes = 1 << 20;
  /// Applied to requests that do not carry their own deadline_ms.
  uint64_t default_deadline_ms = 0;
  uint64_t tuple_budget_ms = 0;
  /// Grace for in-flight work after SIGTERM/SIGINT before a hard stop.
  uint64_t drain_timeout_ms = 5000;
  bool allow_fault_header = false;
  std::string lint = "warn";
  std::string stratify = "auto";
  /// Process-wide fault plan (chaos runs); per-request plans arrive via the
  /// X-Detective-Fault-Plan header when --allow-fault-header is set.
  std::string fault_plan;
  std::string log_json_path;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: detective_serve --kb=KB.nt|--kb-snapshot=KB.dkb --rules=RULES.dr\n"
      "                       --schema=Col1,Col2,... | --schema-csv=FILE.csv\n"
      "                       [--port=N] [--threads=N] [--http-threads=N]\n"
      "                       [--queue-depth=N] [--max-body-bytes=N]\n"
      "                       [--default-deadline-ms=N] [--tuple-budget-ms=N]\n"
      "                       [--drain-timeout-ms=N] [--allow-fault-header]\n"
      "                       [--lint=strict|warn|off]\n"
      "                       [--stratify=off|auto|strict]\n"
      "                       [--fault-plan=PLAN] [--log-json=FILE]\n\n"
      "  --kb-snapshot        binary KB snapshot built by detective_kb_build\n"
      "                       (mmap cold start); a rejected snapshot exits 64\n"
      "  --schema             the served relation schema; every request must\n"
      "                       match it exactly\n"
      "  --schema-csv         read the schema from a CSV header row instead\n"
      "  --port               listen on 127.0.0.1:PORT (0 = ephemeral; the\n"
      "                       bound port is printed on stdout at startup)\n"
      "  --threads            repair workers (0 = hardware concurrency)\n"
      "  --http-threads       HTTP connection threads (0 = threads + 4)\n"
      "  --queue-depth        waiting requests before shedding with 429\n"
      "  --default-deadline-ms\n"
      "                       deadline for requests that do not set one\n"
      "  --drain-timeout-ms   grace for in-flight requests after SIGTERM\n"
      "  --allow-fault-header honor X-Detective-Fault-Plan per request\n"
      "                       (chaos testing; off by default)\n"
      "exit codes: 0 served and drained cleanly, 1 load/runtime failure,\n"
      "3 rule set rejected under strict lint/stratify, 64 usage (including\n"
      "a port that cannot be bound)\n");
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
        std::fprintf(stderr,
                     "--%.*s expects a non-negative integer, got '%s'\n",
                     static_cast<int>(name.size()), name.data(), raw.c_str());
        numeric_ok = false;
      }
      return true;
    };
    if (take("kb", &args->kb_path) ||
        take("kb-snapshot", &args->kb_snapshot_path) ||
        take("rules", &args->rules_path) || take("schema", &args->schema) ||
        take("schema-csv", &args->schema_csv_path) ||
        take_u64("port", &args->port) || take_u64("threads", &args->threads) ||
        take_u64("http-threads", &args->http_threads) ||
        take_u64("queue-depth", &args->queue_depth) ||
        take_u64("max-body-bytes", &args->max_body_bytes) ||
        take_u64("default-deadline-ms", &args->default_deadline_ms) ||
        take_u64("tuple-budget-ms", &args->tuple_budget_ms) ||
        take_u64("drain-timeout-ms", &args->drain_timeout_ms) ||
        take("lint", &args->lint) || take("stratify", &args->stratify) ||
        take("fault-plan", &args->fault_plan) ||
        take("log-json", &args->log_json_path)) {
      continue;
    }
    if (arg == "--allow-fault-header") {
      args->allow_fault_header = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  if (args->rules_path.empty()) return false;
  if (args->kb_path.empty() == args->kb_snapshot_path.empty()) {
    std::fprintf(stderr, "exactly one of --kb and --kb-snapshot is required\n");
    return false;
  }
  if (args->schema.empty() == args->schema_csv_path.empty()) {
    std::fprintf(stderr,
                 "exactly one of --schema / --schema-csv is required\n");
    return false;
  }
  if (args->port > 65535) {
    std::fprintf(stderr, "--port expects a port in [0, 65535]\n");
    return false;
  }
  if (args->queue_depth == 0) {
    std::fprintf(stderr, "--queue-depth must be at least 1\n");
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
  return numeric_ok;
}

// ---- Shutdown signal plumbing -----------------------------------------------
// The handler only writes one byte to a self-pipe; the main thread blocks on
// the read end and runs the (async-signal-unsafe) drain sequence itself.

int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signum*/) {
  const char byte = 1;
  // The pipe is written at most a few times and is never full in practice;
  // a failed write just means a signal already queued the shutdown.
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

int Run(const Args& args) {
  if (!args.log_json_path.empty()) {
    Status log_status = logs::OpenJsonFile(args.log_json_path);
    if (!log_status.ok()) {
      logs::Error("serve", "log_sink_failed", log_status.ToString());
      return kExitRuntimeFailure;
    }
  }

  // ---- Arm process-wide fault injection (docs/robustness.md) ----
  std::string fault_spec = args.fault_plan;
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("DETECTIVE_FAULT_PLAN")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    auto plan = fault::FaultPlan::Parse(fault_spec);
    if (!plan.ok()) {
      logs::Error("serve", "bad_fault_plan",
                  "bad fault plan: " + plan.status().ToString());
      return kExitUsage;
    }
    fault::Injector::Global().Arm(*plan);
    std::printf("Fault plan armed: %s\n", plan->ToString().c_str());
#if !DETECTIVE_FAULT_ENABLED
    logs::Warn("serve", "fault_compiled_out",
               "note: built with DETECTIVE_FAULT=OFF; the plan never fires");
#endif
  }

  // ---- Resolve the frozen schema ----
  std::vector<std::string> columns;
  if (!args.schema_csv_path.empty()) {
    auto relation = Relation::FromCsvFile(args.schema_csv_path);
    if (!relation.ok()) {
      logs::Error("serve", "schema_csv_failed",
                  "cannot read schema CSV: " + relation.status().ToString(),
                  {{"path", args.schema_csv_path}});
      return kExitRuntimeFailure;
    }
    columns = relation->schema().columns();
  } else {
    columns = SplitAndTrim(args.schema, ',');
  }

  // ---- Load everything once ----
  serve::ServiceOptions options;
  options.kb_path = args.kb_path;
  options.kb_snapshot_path = args.kb_snapshot_path;
  options.rules_path = args.rules_path;
  options.schema_columns = std::move(columns);
  options.workers = args.threads;
  options.queue_capacity = args.queue_depth;
  options.default_deadline_ms = args.default_deadline_ms;
  options.tuple_budget_ms = args.tuple_budget_ms;
  options.lint = args.lint;
  options.stratify = args.stratify;
  options.allow_fault_header = args.allow_fault_header;

  serve::CleaningService service;
  Status init = service.Init(std::move(options));
  if (!init.ok()) {
    logs::Error("serve", "init_failed", init.ToString());
    return service.pipeline().FailureExitCode();
  }

  // ---- Start the listener ----
  obs::HttpServerOptions http;
  http.port = static_cast<uint16_t>(args.port);
  http.max_body_bytes = args.max_body_bytes;
  http.dispatch_threads = args.http_threads > 0
                              ? args.http_threads
                              : service.options().workers + 4;
  obs::HttpServer server(http);
  obs::RegisterIntrospectionHandlers(&server);
  serve::RegisterServiceHandlers(&server, &service);
  Status started = server.Start();
  if (!started.ok()) {
    // Port in use (or any bind failure) is a usage error: the operator
    // asked for an address this process cannot have.
    logs::Error("serve", "start_failed",
                "cannot start server: " + started.ToString());
    service.Shutdown();
    return kExitUsage;
  }

  // Parsed by clients, CI, and the serve tests to find an ephemeral port.
  std::printf("detective_serve: http://127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  service.MarkReady();
  logs::Info("serve", "ready", "serving",
             {{"port", static_cast<uint64_t>(server.port())},
              {"workers", static_cast<uint64_t>(service.options().workers)},
              {"queue_depth",
               static_cast<uint64_t>(service.options().queue_capacity)}});

  // ---- Block until SIGTERM/SIGINT ----
  for (;;) {
    char byte = 0;
    const ssize_t n = read(g_signal_pipe[0], &byte, 1);
    if (n == 1) break;
    if (n < 0 && errno == EINTR) continue;
    logs::Error("serve", "signal_pipe_failed", "signal pipe read failed");
    break;
  }

  // ---- Graceful drain ----
  logs::Info("serve", "drain_begin", "shutdown signal received",
             {{"grace_ms", args.drain_timeout_ms}});
  service.BeginDrain(args.drain_timeout_ms);
  server.BeginDrain();
  const bool server_idle = server.WaitIdle(args.drain_timeout_ms);
  const bool service_idle = service.WaitIdle(args.drain_timeout_ms);
  service.Shutdown();
  server.Stop();
  const bool clean = server_idle && service_idle;
  logs::Info("serve", "drain_end", clean ? "drained cleanly" : "drain timed out",
             {{"requests_served", server.requests_served()},
              {"requests_shed", service.admission().sheds()}});
  logs::CloseJsonFile();
  return clean ? 0 : kExitRuntimeFailure;
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  detective::Args args;
  if (!detective::ParseArgs(argc, argv, &args)) {
    detective::PrintUsage();
    return detective::kExitUsage;
  }
  // A client that disconnects mid-response must surface as a write error on
  // that connection, never kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  if (pipe(detective::g_signal_pipe) != 0) {
    std::fprintf(stderr, "detective_serve: cannot create signal pipe\n");
    return detective::kExitRuntimeFailure;
  }
  std::signal(SIGTERM, detective::OnShutdownSignal);
  std::signal(SIGINT, detective::OnShutdownSignal);
  return detective::Run(args);
}

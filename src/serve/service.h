#ifndef DETECTIVE_SERVE_SERVICE_H_
#define DETECTIVE_SERVE_SERVICE_H_

// The resident cleaning service behind detective_serve: builds one
// FrozenPipeline (core/pipeline.h: KB, rules, lint and stratify gates,
// MatchPlan) at startup, and answers cleaning requests from a fixed pool of
// per-worker FastRepairers fed by a bounded queue (serve/worker_pool.h).
// Each worker keeps a private value memo, cleared after a request once it
// outgrows a fixed bound.
//
// The failure domain is one request, never the process:
//   - Per-request deadlines thread into guarded repair (common/deadline.h);
//     an expired deadline quarantines remaining rows — the response is still
//     HTTP 200, marked degraded, mirroring the batch exit-4 contract. The
//     paper's §V independence argument (repairing one tuple is irrelevant
//     to any other) is what makes per-tuple abandonment sound.
//   - Per-request fault plans (X-Detective-Fault-Plan) arm a thread-scoped
//     injector (fault::ScopedThreadPlan) on the worker running the request;
//     concurrent requests are untouched.
//   - A full queue sheds the request (429 + Retry-After upstairs) instead of
//     growing without bound (serve/admission.h).
//   - A panicking job is marshalled back to the requesting thread and
//     answered 500 by the HTTP layer; workers and the daemon survive.
//
// Cross-request isolation invariants (why repairers are reusable): the KB,
// schema, bound rules, match plan, and stratification schedule are immutable
// after Init; the per-worker value memos memoize pure functions; Tuple
// working copies carry all per-row chase state; and the per-rule circuit
// breaker is deliberately unsupported here (it mutates engine rule state
// across requests). Repaired bytes are therefore identical to a fresh
// single-threaded batch run at any worker count.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/provenance.h"
#include "core/quarantine.h"
#include "core/repair.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"
#include "serve/admission.h"
#include "serve/worker_pool.h"

namespace detective::serve {

struct ServiceOptions {
  std::string kb_path;
  /// Binary KB snapshot (kb/snapshot.h) instead of kb_path text. A snapshot
  /// passed as kb_path is magic-sniffed and loads the fast path too; this
  /// field exists so operators can insist on it (a rejected snapshot makes
  /// the CLI exit 64 instead of re-parsing text).
  std::string kb_snapshot_path;
  std::string rules_path;
  /// Frozen relation schema; requests must match it exactly.
  std::vector<std::string> schema_columns;
  /// Repair workers (one FastRepairer each); 0 = hardware concurrency.
  size_t workers = 1;
  /// Bounded request queue capacity; a full queue sheds (429).
  size_t queue_capacity = 32;
  /// Deadline applied when a request names none (0 = none).
  uint64_t default_deadline_ms = 0;
  /// Per-tuple chase budget (0 = none); quarantines with "tuple_budget".
  uint64_t tuple_budget_ms = 0;
  /// Static lint gate at startup: off|warn|strict (docs/static_analysis.md).
  std::string lint = "warn";
  /// Stratified scheduling: off|auto|strict.
  std::string stratify = "auto";
  /// Honor X-Detective-Fault-Plan request headers (chaos testing only).
  bool allow_fault_header = false;
  /// Provenance logs of the most recent requests kept for /v1/explain.
  size_t explain_capacity = 64;
  /// Entry bound of each worker's value memo, checked after every request:
  /// a larger memo is cleared. The memo is a worker's only cross-request
  /// state that grows with the inputs (one entry per distinct (type, sim,
  /// value)), so without a bound a daemon fed unique values grows it for its
  /// whole life. Fixed in the daemon; tests shrink it.
  size_t max_memo_entries = size_t{1} << 20;
};

/// Result of one clean-tuple request.
struct TupleOutcome {
  std::string request_id;
  bool degraded = false;
  Tuple tuple;  // repaired working copy (pristine when quarantined)
  QuarantineLog quarantine;
};

/// Result of one clean-table request.
struct TableOutcome {
  std::string request_id;
  bool degraded = false;
  size_t rows = 0;
  size_t rows_quarantined = 0;
  std::string csv;  // repaired relation, CSV bytes (ToCsv)
  QuarantineLog quarantine;
};

class CleaningService {
 public:
  CleaningService();
  ~CleaningService();

  CleaningService(const CleaningService&) = delete;
  CleaningService& operator=(const CleaningService&) = delete;

  /// Loads and freezes everything. Not ready until this returns OK and
  /// MarkReady() is called (after the listener is up).
  Status Init(ServiceOptions options);

  /// The frozen pipeline. After a failed Init, pipeline().FailureExitCode()
  /// is the CLI's exit code (64 rejected snapshot, 3 lint/stratify strict,
  /// 1 otherwise), the same contract as the batch tool.
  const FrozenPipeline& pipeline() const { return pipeline_; }

  /// Where the KB came from ("snapshot" | "text") and how long the load
  /// took; surfaced by /readyz so operators can see a cold start that fell
  /// back to text parsing.
  std::string kb_source() const {
    return pipeline_.kb_is_snapshot() ? "snapshot" : "text";
  }
  double kb_load_ms() const { return pipeline_.kb_load_ms(); }

  const ServiceOptions& options() const { return options_; }
  const Schema& schema() const { return schema_; }
  const std::vector<DetectiveRule>& rules() const { return pipeline_.rules(); }
  size_t num_usable_rules() const { return pipeline_.num_usable_rules(); }

  /// Flipped by the CLI once the listener is accepting; /readyz gates on it.
  void MarkReady() { ready_.store(true, std::memory_order_release); }
  bool ready() const {
    return ready_.load(std::memory_order_acquire) && !draining();
  }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Admission outcome of one cleaning request.
  enum class Admit : uint8_t { kOk, kShed };

  /// Cleans one tuple (`values` in schema order). Blocks the calling thread
  /// until a worker finishes the job. kShed (with *retry_after_s set) when
  /// the queue is full. Throws whatever the job panicked with — the HTTP
  /// layer catches and answers 500.
  Admit CleanTuple(std::vector<std::string> values, uint64_t deadline_ms,
                   fault::FaultPlan fault_plan, TupleOutcome* out,
                   uint64_t* retry_after_s);

  /// Cleans a whole relation (already validated against schema()).
  Admit CleanTable(Relation relation, uint64_t deadline_ms,
                   fault::FaultPlan fault_plan, TableOutcome* out,
                   uint64_t* retry_after_s);

  /// Provenance log of a recent request, or null when unknown/evicted.
  std::shared_ptr<const ProvenanceLog> Explain(
      const std::string& request_id) const;

  /// Entries in `worker`'s value memo. Read it between requests only.
  size_t memo_entries(size_t worker) const {
    return repairers_[worker]->engine().matcher().memo_size();
  }

  const AdmissionController& admission() const { return *admission_; }
  size_t queued() const { return pool_ ? pool_->queued() : 0; }

  /// Graceful drain: stop reporting ready and tighten every in-flight
  /// request's remaining row deadlines to at most `grace_ms` from now, so
  /// drain completes within the operator's budget (rows past the tightened
  /// deadline are quarantined, mirroring a deadline-exceeded request).
  void BeginDrain(uint64_t grace_ms);

  /// True when the pool went idle within `timeout_ms`.
  bool WaitIdle(uint64_t timeout_ms);

  /// Runs down the queue and joins the workers. Idempotent.
  void Shutdown();

 private:
  /// Common request path: admission, per-request fault scope, provenance
  /// capture, panic marshalling. `work` runs on a pool worker.
  Admit Execute(
      uint64_t deadline_ms, fault::FaultPlan fault_plan,
      const std::string& request_id,
      const std::function<void(FastRepairer&, Deadline)>& work,
      uint64_t* retry_after_s);

  /// The request deadline, tightened by the drain deadline when draining.
  Deadline EffectiveDeadline(Deadline request_deadline) const;

  std::string NextRequestId();
  void StoreExplain(const std::string& request_id, ProvenanceLog log);

  ServiceOptions options_;
  Schema schema_;
  FrozenPipeline pipeline_;
  std::vector<std::unique_ptr<FastRepairer>> repairers_;
  std::unique_ptr<BoundedWorkerPool> pool_;
  std::unique_ptr<AdmissionController> admission_;

  std::atomic<bool> ready_{false};
  std::atomic<bool> draining_{false};
  Deadline drain_deadline_;  // written before draining_ flips true

  std::atomic<uint64_t> next_request_{0};

  mutable std::mutex explain_mutex_;
  std::map<std::string, std::shared_ptr<const ProvenanceLog>> explain_logs_;
  std::deque<std::string> explain_order_;  // FIFO eviction
};

}  // namespace detective::serve

#endif  // DETECTIVE_SERVE_SERVICE_H_

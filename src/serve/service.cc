#include "serve/service.h"

#include <chrono>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "core/parallel_repair.h"

namespace detective::serve {

namespace {

/// The per-request fault probe. Sits between admission and repair, so a
/// plan targeting serve.request fails exactly one request: the Status
/// becomes an exception, the exception is marshalled to the connection
/// thread, and the HTTP layer answers 500 while the worker lives on.
Status ProbeServeRequest() {
  DETECTIVE_FAULT_POINT("serve.request");
  return Status::OK();
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

CleaningService::CleaningService() = default;

CleaningService::~CleaningService() { Shutdown(); }

Status CleaningService::Init(ServiceOptions options) {
  options_ = std::move(options);
  if (options_.workers == 0) {
    options_.workers =
        std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (options_.schema_columns.empty()) {
    return Status::InvalidArgument("serve: schema has no columns");
  }
  schema_ = Schema(options_.schema_columns);

  PipelineOptions pipeline_options;
  pipeline_options.kb_path = options_.kb_path;
  pipeline_options.kb_snapshot_path = options_.kb_snapshot_path;
  pipeline_options.rules_path = options_.rules_path;
  pipeline_options.lint = options_.lint;
  pipeline_options.stratify = options_.stratify;
  pipeline_options.repair.tuple_budget_ms = options_.tuple_budget_ms;
  pipeline_options.log_component = "serve";
  // Note what is absent: max_rule_failures. The per-rule circuit breaker
  // mutates engine rule state, which would leak one request's failures into
  // the next and break both isolation and byte-identity — unsupported here.
  if (Status frozen = pipeline_.Freeze(std::move(pipeline_options));
      !frozen.ok()) {
    return frozen.WithContext("serve");
  }
  logs::Info("serve", "kb_loaded",
             "KB loaded from " + kb_source() + " in " +
                 std::to_string(pipeline_.kb_load_ms()) + " ms",
             {{"path", pipeline_.kb_input()}, {"source", kb_source()}});
  RETURN_NOT_OK(pipeline_.Bind(schema_, options_.workers));

  repairers_.reserve(options_.workers);
  for (size_t worker = 0; worker < options_.workers; ++worker) {
    auto repairer = std::make_unique<FastRepairer>(
        pipeline_.kb(), schema_, pipeline_.rules(), pipeline_.repair_options());
    RETURN_NOT_OK(repairer->Init());
    repairer->engine().set_plan(pipeline_.plan());
    repairers_.push_back(std::move(repairer));
  }

  admission_ = std::make_unique<AdmissionController>(options_.workers);
  pool_ = std::make_unique<BoundedWorkerPool>(options_.workers,
                                              options_.queue_capacity);
  return Status::OK();
}

CleaningService::Admit CleaningService::CleanTuple(
    std::vector<std::string> values, uint64_t deadline_ms,
    fault::FaultPlan fault_plan, TupleOutcome* out, uint64_t* retry_after_s) {
  out->request_id = NextRequestId();
  return Execute(
      deadline_ms, std::move(fault_plan), out->request_id,
      [&values, out](FastRepairer& repairer, Deadline request_deadline) {
        Tuple tuple(std::move(values));
        repairer.RepairTupleGuarded(/*row=*/0, request_deadline, &tuple,
                                    &out->quarantine);
        out->tuple = std::move(tuple);
        out->quarantine.Canonicalize();
        out->degraded = !out->quarantine.empty();
      },
      retry_after_s);
}

CleaningService::Admit CleaningService::CleanTable(Relation relation,
                                                   uint64_t deadline_ms,
                                                   fault::FaultPlan fault_plan,
                                                   TableOutcome* out,
                                                   uint64_t* retry_after_s) {
  out->request_id = NextRequestId();
  out->rows = relation.num_tuples();
  return Execute(
      deadline_ms, std::move(fault_plan), out->request_id,
      [this, &relation, out](FastRepairer& repairer,
                             Deadline request_deadline) {
        ParallelRepairOptions table;
        table.repair = pipeline_.repair_options();
        // Inline on this worker's own repairer: the request's thread-scoped
        // fault plan covers every row, and the worker's value memo stays
        // warm across requests.
        table.num_threads = 1;
        table.repairer = &repairer;
        table.provenance = repairer.engine().provenance();
        table.quarantine = &out->quarantine;
        // Re-tightened per row: a drain beginning mid-request caps the
        // remaining rows at the drain grace instead of letting one huge
        // table hold shutdown hostage.
        table.row_deadline = [this, request_deadline] {
          return EffectiveDeadline(request_deadline);
        };
        auto repaired =
            ParallelRepair(pipeline_.kb(), pipeline_.rules(), &relation, table);
        // Init bound the rules to this schema, so this is a logic error; it
        // fails the request (500), never the daemon.
        if (!repaired.ok()) {
          throw std::runtime_error("clean-table: " +
                                   repaired.status().ToString());
        }
        out->rows_quarantined = out->quarantine.Rows().size();
        out->degraded = !out->quarantine.empty();
        out->csv = relation.ToCsv();
      },
      retry_after_s);
}

CleaningService::Admit CleaningService::Execute(
    uint64_t deadline_ms, fault::FaultPlan fault_plan,
    const std::string& request_id,
    const std::function<void(FastRepairer&, Deadline)>& work,
    uint64_t* retry_after_s) {
  const uint64_t effective_ms =
      deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  // Armed at admission, before the queue: time spent waiting for a worker
  // counts against the request's budget, so a deadline is a promise about
  // response time, not just repair time.
  const Deadline request_deadline = effective_ms > 0
                                        ? Deadline::AfterMs(effective_ms)
                                        : Deadline::Infinite();
  const auto start = std::chrono::steady_clock::now();

  std::promise<void> done;
  std::future<void> finished = done.get_future();
  // Reference captures are safe: Submit either refuses the job outright or
  // this thread blocks on `finished` until the job ran to completion.
  const bool submitted = pool_->Submit([this, &fault_plan, &request_deadline,
                                        &request_id, &work,
                                        &done](size_t worker) {
    FastRepairer& repairer = *repairers_[worker];
    try {
      // Thread-scoped chaos: the request's plan arms only this worker for
      // only this job; concurrent requests chase un-faulted.
      fault::ScopedThreadPlan scoped(std::move(fault_plan));
      ProvenanceLog provenance;
      repairer.engine().set_provenance(&provenance);
      Status probe = ProbeServeRequest();
      if (!probe.ok()) {
        throw std::runtime_error("request fault injected: " +
                                 probe.ToString());
      }
      work(repairer, request_deadline);
      repairer.engine().set_provenance(nullptr);
      repairer.engine().matcher().TrimMemo(options_.max_memo_entries);
      provenance.Canonicalize();
      StoreExplain(request_id, std::move(provenance));
      done.set_value();
    } catch (...) {
      repairer.engine().set_provenance(nullptr);
      done.set_exception(std::current_exception());
    }
  });

  if (!submitted) {
    admission_->RecordShed();
    DETECTIVE_COUNT("serve.requests_shed");
    if (retry_after_s != nullptr) {
      *retry_after_s = admission_->RetryAfterSeconds(pool_->queued());
    }
    return Admit::kShed;
  }
  admission_->RecordAdmit();
  DETECTIVE_COUNT("serve.requests_admitted");
  finished.get();  // rethrows a job panic on the requesting thread
  admission_->RecordServiceMs(ElapsedMs(start));
  return Admit::kOk;
}

Deadline CleaningService::EffectiveDeadline(Deadline request_deadline) const {
  if (!draining()) return request_deadline;
  return Deadline::Earlier(request_deadline, drain_deadline_);
}

std::shared_ptr<const ProvenanceLog> CleaningService::Explain(
    const std::string& request_id) const {
  std::lock_guard<std::mutex> lock(explain_mutex_);
  auto it = explain_logs_.find(request_id);
  return it == explain_logs_.end() ? nullptr : it->second;
}

void CleaningService::BeginDrain(uint64_t grace_ms) {
  // Order matters: the deadline must be visible before draining_ flips,
  // because EffectiveDeadline reads them in the opposite order.
  drain_deadline_ = Deadline::AfterMs(grace_ms);
  draining_.store(true, std::memory_order_release);
  if (pool_) pool_->BeginDrain();
}

bool CleaningService::WaitIdle(uint64_t timeout_ms) {
  return pool_ == nullptr || pool_->WaitIdle(timeout_ms);
}

void CleaningService::Shutdown() {
  if (pool_) pool_->Shutdown();
}

std::string CleaningService::NextRequestId() {
  return "r-" + std::to_string(
                    next_request_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void CleaningService::StoreExplain(const std::string& request_id,
                                   ProvenanceLog log) {
  if (options_.explain_capacity == 0) return;
  std::lock_guard<std::mutex> lock(explain_mutex_);
  while (explain_order_.size() >= options_.explain_capacity) {
    explain_logs_.erase(explain_order_.front());
    explain_order_.pop_front();
  }
  explain_logs_.emplace(request_id,
                        std::make_shared<ProvenanceLog>(std::move(log)));
  explain_order_.push_back(request_id);
}

}  // namespace detective::serve

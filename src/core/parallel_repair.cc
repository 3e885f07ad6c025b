#include "core/parallel_repair.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/match_plan.h"
#include "obs/progress.h"

namespace detective {

namespace {

void AccumulateStats(const RepairStats& part, RepairStats* total) {
  total->tuples_processed += part.tuples_processed;
  total->rule_checks += part.rule_checks;
  total->rule_applications += part.rule_applications;
  total->proofs_positive += part.proofs_positive;
  total->repairs += part.repairs;
  total->cells_marked += part.cells_marked;
  total->tuples_quarantined += part.tuples_quarantined;
  total->chunks_stolen += part.chunks_stolen;
  total->rounds_skipped += part.rounds_skipped;
}

}  // namespace

Result<RepairStats> ParallelRepair(const KnowledgeBase& kb,
                                   const std::vector<DetectiveRule>& rules,
                                   Relation* relation,
                                   ParallelRepairOptions options) {
  DETECTIVE_SCOPED_TIMER("parallel.repair");
  const std::vector<size_t>* subset = options.row_subset;
  if (subset != nullptr) {
    if (options.repair.max_rule_failures > 0) {
      return Status::InvalidArgument(
          "row_subset cannot combine with max_rule_failures: the breaker "
          "tallies failures across the whole relation, not a subset");
    }
    for (size_t row : *subset) {
      if (row >= relation->num_tuples()) {
        return Status::InvalidArgument("row_subset names row ", row,
                                       " but the relation has only ",
                                       relation->num_tuples(), " row(s)");
      }
    }
  }
  // `rows` counts units of work; with a subset, position i maps to original
  // row row_at(i) — the index that keys fault scopes and log records.
  const size_t rows =
      subset != nullptr ? subset->size() : relation->num_tuples();
  auto row_at = [subset](size_t i) {
    return subset != nullptr ? (*subset)[i] : i;
  };
  DETECTIVE_TRACE_SPAN("parallel.repair", {"rows", static_cast<int64_t>(rows)});
  size_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, std::max<size_t>(1, rows));
  if (options.repairer != nullptr && options.num_threads != 1) {
    return Status::InvalidArgument(
        "a caller's repairer can only chase inline (num_threads = 1)");
  }

  // Validate the binding once up front so workers cannot fail, and unless
  // the caller froze one, build the shared plan from the bound rules: the
  // §IV-B(2) indexes are constructed exactly once (in parallel, one index
  // per build task) instead of once per worker. A caller's repairer is
  // already bound to its plan.
  MatchPlan built_plan;
  const MatchPlan* plan = options.plan;
  if (options.repairer == nullptr) {
    RuleEngine probe(kb, relation->schema(), rules, options.repair);
    RETURN_NOT_OK(probe.Init());
    if (plan == nullptr && options.repair.matcher.use_signature_index) {
      built_plan = MatchPlan::Build(kb, probe.bound_rules(), threads);
      plan = &built_plan;
    }
  }

  const bool guarded = options.quarantine != nullptr ||
                       GuardedRepairRequested(options.repair);
  const size_t chunk_rows = std::max<size_t>(1, options.chunk_rows);
  const size_t num_chunks = (rows + chunk_rows - 1) / chunk_rows;
  // The run deadline is armed once, before the fan-out, so every worker —
  // and the breaker's re-chase below — measures the same run.
  const uint64_t deadline_ms = options.repair.deadline_ms;
  const Deadline run_deadline =
      deadline_ms > 0 ? Deadline::AfterMs(deadline_ms) : Deadline::Infinite();
  DETECTIVE_COUNT_N("parallel.workers_launched", threads);
  DETECTIVE_COUNT_N("parallel.chunks", num_chunks);

  // Chunk-indexed provenance/quarantine shards: whichever worker repairs a
  // chunk records into that chunk's slot, so merging in chunk index order
  // reproduces the sequential ascending-row record order no matter how the
  // chunks were claimed. Inline, chunks run in that order anyway, so the
  // records go straight to the caller's sink.
  const bool inline_run = threads == 1;
  std::vector<RepairStats> stats(threads);
  std::vector<ProvenanceLog> chunk_logs(
      options.provenance != nullptr && !inline_run ? num_chunks : 0);
  std::vector<QuarantineLog> chunk_quarantines(guarded ? num_chunks : 0);
  // Chunk-indexed result buffers: workers chase detached row copies
  // (Relation::tuple checkouts) and park them here, leaving the shared
  // columnar relation read-only for the whole fan-out. Chunks are committed
  // in ascending chunk — hence row — order, so column-arena writes are
  // sequential and the committed bytes are identical at every thread count.
  std::vector<std::vector<Tuple>> chunk_results(num_chunks);
  auto commit = [&](size_t chunk) {
    const size_t lo = chunk * chunk_rows;
    std::vector<Tuple>& results = chunk_results[chunk];
    for (size_t i = 0; i < results.size(); ++i) {
      relation->CommitRow(row_at(lo + i), results[i]);
    }
    results = {};  // release the buffer eagerly
  };
  std::atomic<size_t> next_chunk{0};
  auto work = [&](size_t t) {
    // Workers record into their own thread-local metric shards; the global
    // snapshot merges them, so instrumented totals match a sequential run.
    DETECTIVE_SCOPED_TIMER("parallel.worker");
    DETECTIVE_TRACE_SPAN("parallel.worker", {"thread", static_cast<int64_t>(t)});
    std::optional<FastRepairer> own;
    FastRepairer* repairer = options.repairer;
    if (repairer == nullptr) {
      own.emplace(kb, relation->schema(), rules, options.repair);
      // Binding was validated above; a failure here would be a logic error.
      own->Init().Abort("ParallelRepair worker");
      own->engine().set_plan(plan);
      repairer = &*own;
    }
    // This call's stats start at zero; a caller's repairer gets its running
    // totals back below.
    const RepairStats earlier =
        std::exchange(repairer->engine().stats(), RepairStats{});
    if (inline_run) repairer->engine().set_provenance(options.provenance);
    while (true) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      // "Stolen" = claimed by a different worker than the one a static
      // contiguous sharding would assign this chunk to.
      if (chunk * threads / num_chunks != t) {
        ++repairer->engine().stats().chunks_stolen;
        DETECTIVE_COUNT("steal.count");
        DETECTIVE_PROGRESS(AddSteals(1));
      }
      if (!chunk_logs.empty()) {
        repairer->engine().set_provenance(&chunk_logs[chunk]);
      }
      const size_t lo = chunk * chunk_rows;
      const size_t hi = std::min(rows, lo + chunk_rows);
      std::vector<Tuple>& results = chunk_results[chunk];
      results.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        const size_t row = row_at(i);
        Tuple tuple = relation->tuple(row);
        if (guarded) {
          // A tripped chase rolls the tuple back to its checkout state, so
          // committing it is a no-op for that row.
          repairer->RepairTupleGuarded(
              row, options.row_deadline ? options.row_deadline() : run_deadline,
              &tuple, &chunk_quarantines[chunk]);
        } else {
          repairer->engine().set_current_row(row);
          repairer->RepairTuple(&tuple);
        }
        results.push_back(std::move(tuple));
        // Finalized (chased or rolled back) rows drive the heartbeat: under
        // threads, workers finish rows long before the ordered commit runs.
        DETECTIVE_PROGRESS(AddRowsCommitted(1));
      }
      // Inline there is no concurrent reader, so the chunk commits at once
      // and the run never buffers more than one chunk of rows.
      if (inline_run) commit(chunk);
    }
    stats[t] = repairer->stats();
    AccumulateStats(earlier, &repairer->engine().stats());
  };
  if (inline_run) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) workers.emplace_back(work, t);
    for (std::thread& worker : workers) worker.join();
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) commit(chunk);
  }

  if (!chunk_logs.empty()) {
    size_t total = options.provenance->size();
    for (const ProvenanceLog& log : chunk_logs) total += log.size();
    options.provenance->Reserve(total);
    // Merge frees each chunk log as it goes.
    for (ProvenanceLog& log : chunk_logs) options.provenance->Merge(std::move(log));
  }

  RepairStats merged;
  for (const RepairStats& part : stats) AccumulateStats(part, &merged);

  if (guarded) {
    QuarantineLog ledger;
    for (QuarantineLog& log : chunk_quarantines) ledger.Merge(std::move(log));
    if (options.repair.max_rule_failures > 0 && !ledger.empty()) {
      // The breaker fixpoint runs sequentially on a fresh repairer: retries
      // are few, and per-tuple fault decisions are row-keyed (TupleScope),
      // so the outcome matches a sequential run's bit for bit.
      FastRepairer retrier(kb, relation->schema(), rules, options.repair);
      RETURN_NOT_OK(retrier.Init());
      retrier.engine().set_provenance(options.provenance);
      retrier.engine().set_plan(plan);
      BreakerFixpoint(retrier, relation, run_deadline, &ledger);
      AccumulateStats(retrier.stats(), &merged);
    }
    ledger.Canonicalize();
    if (options.quarantine != nullptr) {
      options.quarantine->Merge(std::move(ledger));
    }
  }
  return merged;
}

}  // namespace detective

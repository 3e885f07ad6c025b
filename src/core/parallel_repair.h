#ifndef DETECTIVE_CORE_PARALLEL_REPAIR_H_
#define DETECTIVE_CORE_PARALLEL_REPAIR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/repair.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"

namespace detective {

struct ParallelRepairOptions {
  RepairOptions repair;
  /// 0 = std::thread::hardware_concurrency(). 1 runs the chunk loop inline on
  /// the calling thread (no std::thread), which is how the sequential CLI
  /// run, thread-scoped fault plans (serve) and the t1 baseline chase.
  size_t num_threads = 0;
  /// Optional provenance sink. Each chunk captures into a private log; after
  /// the join the shards are appended in chunk (= ascending row) order, so
  /// the combined log equals a sequential FastRepairer run's.
  ProvenanceLog* provenance = nullptr;
  /// Optional quarantine sink; non-null selects the guarded per-row policy.
  /// Merged the same way, then canonicalized, so the ledger is identical at
  /// every thread count under the same fault plan, seed, and budgets.
  QuarantineLog* quarantine = nullptr;
  /// Rows per work-stealing chunk. Small enough that a skewed tuple (deep
  /// backtracking, many corrections) cannot serialize the tail of the run
  /// behind one worker; large enough that the atomic claim is amortized.
  size_t chunk_rows = 64;
  /// When set, only these rows (ascending original indexes into `relation`)
  /// are chased; every other row is left untouched. Null = every row.
  /// Original indexes key the fault scopes and provenance/quarantine
  /// records, so chasing a subset produces exactly the records a full run
  /// would produce for those rows — the contract incremental (delta)
  /// cleaning is built on. Must not name a row outside the relation.
  /// Incompatible with `max_rule_failures` (the breaker tallies failures
  /// across the whole relation). The pointee must outlive the call.
  const std::vector<size_t>* row_subset = nullptr;
  /// The frozen match plan of these rules (FrozenPipeline::plan()); null
  /// builds one for this call. Must outlive the call.
  const MatchPlan* plan = nullptr;
  /// Inline runs only (num_threads == 1): chase with this repairer instead
  /// of a fresh one. It must be Init-ed over the same KB, schema, rules and
  /// repair options, with its plan already set; the binding check and plan
  /// build are skipped, and its value memo stays warm across calls (serve
  /// reuses each worker's repairer this way). Its provenance sink is set to
  /// `provenance`.
  FastRepairer* repairer = nullptr;
  /// Guarded policy only: when set, each row is chased against the deadline
  /// this returns just before the row starts, instead of the run deadline
  /// armed from `repair.deadline_ms`. Lets a caller tighten a run in flight
  /// (serve caps the remaining rows of a table when a drain begins). Called
  /// from every worker thread.
  std::function<Deadline()> row_deadline;
};

/// Repairs `relation` in place with the fast algorithm: the one relation-
/// level fRepair driver, used by batch, delta and serve cleaning alike.
///
/// The paper's scalability argument (§V summary: "repairing one tuple is
/// irrelevant to any other tuple") makes the chase embarrassingly parallel.
/// Workers claim fixed-size row chunks off an atomic counter (work stealing
/// by self-scheduling: a slow chunk delays only its owner, the rest of the
/// fleet drains the remaining chunks). All workers share one frozen
/// MatchPlan and the immutable KnowledgeBase; each keeps a private value
/// memo. Guarded vs plain is a per-row policy inside the same loop.
///
/// The result — cell values, provenance log, quarantine ledger — is
/// bit-identical to the sequential fast repairer at every thread count, with
/// or without a fault plan: per-chunk provenance/quarantine shards are merged
/// in chunk order (= ascending row order), memo entries are pure functions
/// of their key, and fault decisions are row-keyed. The tests assert all
/// three identities.
///
/// Returns the merged RepairStats. Fails if the rules do not bind.
Result<RepairStats> ParallelRepair(const KnowledgeBase& kb,
                                   const std::vector<DetectiveRule>& rules,
                                   Relation* relation,
                                   ParallelRepairOptions options = {});

}  // namespace detective

#endif  // DETECTIVE_CORE_PARALLEL_REPAIR_H_

#ifndef DETECTIVE_TESTS_TEST_FIXTURES_H_
#define DETECTIVE_TESTS_TEST_FIXTURES_H_

// Shared fixtures: the paper's Fig. 1 knowledge base excerpt (extended to
// cover all four tuples of Table I), the Table I relation, and the Fig. 4
// detective rules. Tests across modules reuse these so expectations can be
// cross-checked against the paper's worked examples.

#include <string>
#include <vector>

#include "core/quarantine.h"
#include "core/repair.h"
#include "core/rule.h"
#include "core/rule_io.h"
#include "kb/knowledge_base.h"
#include "relation/relation.h"

namespace detective::testing {

/// The Fig. 1 excerpt: laureates, institutions, cities, countries, prizes.
/// Extended with Marie Curie / Roald Hoffmann / Melvin Calvin facts so every
/// Table I repair is derivable (Melvin Calvin has two worksAt institutions,
/// enabling the multi-version Example 10).
KnowledgeBase BuildFigure1Kb();

/// Table I with its errors:
///   r1: Prize + City wrong; r2: Institution typo; r3: Country + Prize
///   wrong; r4: Institution + City wrong (multi-version).
Relation BuildTableI();

/// Ground truth for Table I (the bracketed values), with UC Berkeley as the
/// canonical Calvin institution.
Relation BuildTableIClean();

/// The four Fig. 4 rules: phi1 (Institution), phi2 (City), phi3 (Country),
/// phi4 (Prize).
std::vector<DetectiveRule> BuildFigure4Rules();

/// The guarded sequential reference that ParallelRepair's guarded policy
/// must reproduce: RepairTupleGuarded over every row in ascending order
/// under one run deadline (RepairOptions::deadline_ms), then the
/// circuit-breaker fixpoint. The ledger is merged into `quarantine` (may be
/// null) in canonical order. `repairer` must be initialized.
void GuardedSequentialRepair(FastRepairer& repairer, Relation* relation,
                             QuarantineLog* quarantine);

}  // namespace detective::testing

#endif  // DETECTIVE_TESTS_TEST_FIXTURES_H_

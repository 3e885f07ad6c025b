// Tests for core/match_plan: the frozen shared plan must expose exactly the
// indexes the bound rules need, candidate-for-candidate identical to the
// private per-matcher builds it replaces, at any build parallelism.

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "core/match_plan.h"
#include "core/repair.h"
#include "test_fixtures.h"

namespace detective {
namespace {

/// Binds the Fig. 4 rules against the Fig. 1 KB and Table I schema.
struct BoundFixture {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  Relation relation = testing::BuildTableI();
  RuleEngine engine{kb, relation.schema(), testing::BuildFigure4Rules()};

  BoundFixture() { EXPECT_TRUE(engine.Init().ok()); }
};

/// Every distinct non-equality (type, sim) pair of column-bearing nodes.
std::vector<std::pair<ClassId, Similarity>> FuzzyPairs(
    std::span<const BoundRule> rules) {
  std::vector<std::pair<ClassId, Similarity>> pairs;
  for (const BoundRule& rule : rules) {
    if (!rule.usable) continue;
    for (const BoundNode& node : rule.nodes) {
      if (node.IsExistential()) continue;
      if (node.sim.kind() == SimilarityKind::kEquality) continue;
      const auto pair = std::make_pair(node.type, node.sim);
      if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end()) {
        pairs.push_back(pair);
      }
    }
  }
  return pairs;
}

/// The private index a matcher would lazily build for (type, sim).
SignatureIndex BuildPrivateIndex(const KnowledgeBase& kb, ClassId type,
                                 const Similarity& sim) {
  SignatureIndex index(sim);
  for (ItemId item : kb.InstancesOf(type)) {
    index.Add(item.value(), kb.Label(item));
  }
  index.Build();
  return index;
}

/// Every cell value of Table I plus a couple of typos — the query mix the
/// repair loop sends at the indexes.
std::vector<std::string> QueryMix(const Relation& relation) {
  std::vector<std::string> queries;
  for (size_t row = 0; row < relation.num_tuples(); ++row) {
    for (ColumnIndex c = 0; c < relation.tuple(row).size(); ++c) {
      queries.push_back(relation.tuple(row).value(c));
    }
  }
  queries.emplace_back("Paster Institute");
  queries.emplace_back("Colombia University");
  queries.emplace_back("");
  return queries;
}

TEST(MatchPlanTest, CoversExactlyTheFuzzyPairsOfTheBoundRules) {
  BoundFixture fx;
  const auto pairs = FuzzyPairs(fx.engine.bound_rules());
  ASSERT_FALSE(pairs.empty());  // Fig. 4 rules carry ED,2 organization nodes

  MatchPlan plan = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 1);
  EXPECT_EQ(plan.num_indexes(), pairs.size());
  for (const auto& [type, sim] : pairs) {
    EXPECT_NE(plan.IndexFor(type, sim), nullptr);
  }
  // Equality never gets a plan entry (the KB label hash index serves it).
  EXPECT_EQ(plan.IndexFor(pairs[0].first, Similarity::Equality()), nullptr);
}

TEST(MatchPlanTest, PlanIndexesMatchPrivateBuildsCandidateForCandidate) {
  BoundFixture fx;
  MatchPlan plan = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 1);
  const std::vector<std::string> queries = QueryMix(fx.relation);

  for (const auto& [type, sim] : FuzzyPairs(fx.engine.bound_rules())) {
    const SignatureIndex* shared = plan.IndexFor(type, sim);
    ASSERT_NE(shared, nullptr);
    SignatureIndex private_index = BuildPrivateIndex(fx.kb, type, sim);
    ASSERT_EQ(shared->size(), private_index.size());
    for (const std::string& query : queries) {
      EXPECT_EQ(shared->Candidates(query), private_index.Candidates(query))
          << "query='" << query << "'";
      EXPECT_EQ(shared->Matches(query), private_index.Matches(query))
          << "query='" << query << "'";
    }
  }
}

TEST(MatchPlanTest, BuildIsDeterministicAcrossThreadCounts) {
  BoundFixture fx;
  MatchPlan one = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 1);
  MatchPlan eight = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 8);
  ASSERT_EQ(one.num_indexes(), eight.num_indexes());

  const std::vector<std::string> queries = QueryMix(fx.relation);
  for (const auto& [type, sim] : FuzzyPairs(fx.engine.bound_rules())) {
    const SignatureIndex* a = one.IndexFor(type, sim);
    const SignatureIndex* b = eight.IndexFor(type, sim);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (const std::string& query : queries) {
      EXPECT_EQ(a->Matches(query), b->Matches(query));
    }
  }
}

// Completeness (paper §IV-B(2)): the plan's Matches equals a brute-force
// scan over the type's instances — no candidate lost to signature pruning,
// hashed segment keys, or the shared arena.
TEST(MatchPlanTest, MatchesEqualBruteForceScan) {
  BoundFixture fx;
  MatchPlan plan = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 1);

  for (const auto& [type, sim] : FuzzyPairs(fx.engine.bound_rules())) {
    const SignatureIndex* shared = plan.IndexFor(type, sim);
    ASSERT_NE(shared, nullptr);
    for (const std::string& query : QueryMix(fx.relation)) {
      std::vector<uint32_t> brute;
      for (ItemId item : fx.kb.InstancesOf(type)) {
        if (sim.Matches(query, fx.kb.Label(item))) brute.push_back(item.value());
      }
      std::sort(brute.begin(), brute.end());
      brute.erase(std::unique(brute.begin(), brute.end()), brute.end());
      EXPECT_EQ(shared->Matches(query), brute) << "query='" << query << "'";
    }
  }
}

// A matcher holding the plan serves identical candidates and never builds a
// private index.
TEST(MatchPlanTest, MatcherWithPlanMatchesMatcherWithout) {
  BoundFixture fx;
  MatchPlan plan = MatchPlan::Build(fx.kb, fx.engine.bound_rules(), 1);

  EvidenceMatcher with_plan(fx.kb);
  with_plan.set_plan(&plan);
  EvidenceMatcher without_plan(fx.kb);

#if DETECTIVE_METRICS_ENABLED
  metrics::Registry::Global().Reset();
#endif
  for (const auto& [type, sim] : FuzzyPairs(fx.engine.bound_rules())) {
    for (const std::string& query : QueryMix(fx.relation)) {
      EXPECT_EQ(with_plan.NodeCandidates(type, sim, query),
                without_plan.NodeCandidates(type, sim, query));
    }
  }
#if DETECTIVE_METRICS_ENABLED
  metrics::MetricsSnapshot snapshot = metrics::Registry::Global().Snapshot();
  // Exactly the plan-less matcher's lazy builds; the plan-holder built none.
  EXPECT_EQ(snapshot.counter("matcher.index_builds"),
            FuzzyPairs(fx.engine.bound_rules()).size());
#endif
}

TEST(MatchPlanTest, EmptyRuleSetYieldsEmptyPlan) {
  KnowledgeBase kb = testing::BuildFigure1Kb();
  MatchPlan plan = MatchPlan::Build(kb, {}, 4);
  EXPECT_EQ(plan.num_indexes(), 0u);
}

}  // namespace
}  // namespace detective

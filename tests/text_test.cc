// Unit and property tests for src/text: edit distance, tokenizers,
// similarity functions, and the signature-based inverted index (§IV-B(2)).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/random.h"
#include "text/edit_distance.h"
#include "text/signature_index.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace detective {
namespace {

// ---- EditDistance ---------------------------------------------------------

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("Chemistry", "Chamstry"), 2u);  // the paper's example
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(EditDistance("paris", "parma"), EditDistance("parma", "paris"));
}

TEST(EditDistanceTest, BoundedAgreesWhenWithin) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  EXPECT_TRUE(WithinEditDistance("kitten", "sitting", 3));
  EXPECT_FALSE(WithinEditDistance("kitten", "sitting", 2));
}

TEST(EditDistanceTest, BoundedRejectsLengthGap) {
  EXPECT_FALSE(WithinEditDistance("ab", "abcdef", 2));
  EXPECT_TRUE(WithinEditDistance("ab", "abcd", 2));
}

TEST(EditDistanceTest, EmptyStrings) {
  EXPECT_TRUE(WithinEditDistance("", "", 0));
  EXPECT_TRUE(WithinEditDistance("", "ab", 2));
  EXPECT_FALSE(WithinEditDistance("", "abc", 2));
}

/// Property: banded computation agrees with the full DP for every threshold,
/// over randomly generated string pairs.
class BandedEditDistanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BandedEditDistanceProperty, AgreesWithFullDp) {
  Rng rng(GetParam());
  auto random_string = [&](size_t max_len) {
    size_t len = rng.NextIndex(max_len + 1);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextIndex(4)));  // small alphabet
    }
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string a = random_string(12);
    std::string b = random_string(12);
    size_t exact = EditDistance(a, b);
    for (size_t k = 0; k <= 5; ++k) {
      SCOPED_TRACE("a=" + a + " b=" + b + " k=" + std::to_string(k));
      EXPECT_EQ(WithinEditDistance(a, b, k), exact <= k);
      if (exact <= k) {
        EXPECT_EQ(BoundedEditDistance(a, b, k), exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedEditDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Tokenizers --------------------------------------------------------------

TEST(TokenizerTest, WordTokensLowercaseAndSplit) {
  EXPECT_EQ(WordTokens("Hello, World!"), (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(WordTokens("  a-b_c  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(WordTokens("...").empty());
}

TEST(TokenizerTest, WordTokenSetSortedUnique) {
  EXPECT_EQ(WordTokenSet("b a b A"), (std::vector<std::string>{"a", "b"}));
}

TEST(TokenizerTest, QGramsPadded) {
  std::vector<std::string> grams = QGrams("ab", 2, /*pad=*/true);
  // "#ab$" -> {#a, ab, b$}
  EXPECT_EQ(grams.size(), 3u);
  EXPECT_TRUE(std::is_sorted(grams.begin(), grams.end()));
}

TEST(TokenizerTest, QGramsUnpaddedShortString) {
  EXPECT_TRUE(QGrams("a", 2, /*pad=*/false).empty());
  EXPECT_EQ(QGrams("ab", 2, /*pad=*/false).size(), 1u);
}

TEST(TokenizerTest, QGramsZeroQ) { EXPECT_TRUE(QGrams("abc", 0).empty()); }

// ---- Similarity ---------------------------------------------------------------

TEST(SimilarityTest, EqualityMatches) {
  Similarity eq = Similarity::Equality();
  EXPECT_TRUE(eq.Matches("abc", "abc"));
  EXPECT_FALSE(eq.Matches("abc", "abd"));
  EXPECT_DOUBLE_EQ(eq.Score("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(eq.Score("abc", "abd"), 0.0);
}

TEST(SimilarityTest, EditDistanceMatches) {
  Similarity ed2 = Similarity::EditDistance(2);
  EXPECT_TRUE(ed2.Matches("Pasteur Institute", "Paster Institute"));
  EXPECT_FALSE(ed2.Matches("Pasteur Institute", "P. Institute"));
  EXPECT_GT(ed2.Score("abcd", "abcx"), 0.7);
}

TEST(SimilarityTest, JaccardMatches) {
  Similarity jac = Similarity::Jaccard(0.5);
  EXPECT_TRUE(jac.Matches("university of berkeley", "Berkeley University"));
  EXPECT_FALSE(jac.Matches("alpha beta", "gamma delta"));
}

TEST(SimilarityTest, JaccardValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a b", "b c"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity("a", ""), 0.0);
}

TEST(SimilarityTest, CosineValues) {
  EXPECT_DOUBLE_EQ(CosineSimilarity("a b", "a b"), 1.0);
  EXPECT_NEAR(CosineSimilarity("a b", "b c"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, ToStringRoundTripsThroughParse) {
  for (const Similarity& sim :
       {Similarity::Equality(), Similarity::EditDistance(2), Similarity::Jaccard(0.8),
        Similarity::Cosine(0.75)}) {
    auto parsed = Similarity::Parse(sim.ToString());
    ASSERT_TRUE(parsed.ok()) << sim.ToString();
    EXPECT_EQ(*parsed, sim);
  }
}

TEST(SimilarityTest, ParseAcceptsAliases) {
  EXPECT_TRUE(Similarity::Parse("=")->Matches("x", "x"));
  EXPECT_EQ(Similarity::Parse("ed, 3")->max_edits(), 3u);
  EXPECT_EQ(Similarity::Parse("jaccard,0.5")->kind(), SimilarityKind::kJaccard);
  EXPECT_EQ(Similarity::Parse("COSINE,0.5")->kind(), SimilarityKind::kCosine);
}

TEST(SimilarityTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Similarity::Parse("bogus").ok());
  EXPECT_FALSE(Similarity::Parse("ED,notanumber").ok());
  EXPECT_FALSE(Similarity::Parse("JAC,1.5").ok());
  EXPECT_FALSE(Similarity::Parse("ED,100").ok());
}

// ---- SignatureIndex -------------------------------------------------------------

TEST(SignatureIndexTest, EqualityLookup) {
  SignatureIndex index(Similarity::Equality());
  index.Add(1, "Haifa");
  index.Add(2, "Paris");
  index.Add(3, "Haifa");
  index.Build();
  EXPECT_EQ(index.Matches("Haifa"), (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(index.Matches("haifa").empty());  // equality is case-sensitive
  EXPECT_TRUE(index.Matches("Rome").empty());
}

TEST(SignatureIndexTest, EditDistanceFindsFuzzyMatches) {
  SignatureIndex index(Similarity::EditDistance(2));
  index.Add(1, "Pasteur Institute");
  index.Add(2, "Cornell University");
  index.Build();
  EXPECT_EQ(index.Matches("Paster Institute"), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(index.Matches("MIT").empty());
}

TEST(SignatureIndexTest, ShortStringsAreIndexed) {
  SignatureIndex index(Similarity::EditDistance(2));
  index.Add(1, "ab");
  index.Add(2, "a");
  index.Build();
  EXPECT_EQ(index.Matches("b"), (std::vector<uint32_t>{1, 2}));
}

/// Property: for every similarity kind, Candidates() is a superset of the
/// brute-force matches (the completeness guarantee of §IV-B(2)), and
/// Matches() equals brute force exactly.
struct IndexPropertyParam {
  Similarity sim;
  uint64_t seed;
};

// Names each case by its operation and seed. Without it gtest prints the
// parameter's raw bytes, padding included, so the case names would change
// from build to build.
void PrintTo(const IndexPropertyParam& param, std::ostream* os) {
  *os << "sim " << param.sim.ToString() << " seed " << param.seed;
}

class SignatureIndexProperty : public ::testing::TestWithParam<IndexPropertyParam> {};

TEST_P(SignatureIndexProperty, CandidatesCompleteMatchesExact) {
  const IndexPropertyParam& param = GetParam();
  Rng rng(param.seed);
  auto random_string = [&] {
    size_t words = 1 + rng.NextIndex(3);
    std::string s;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) s.push_back(' ');
      size_t len = 1 + rng.NextIndex(8);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.NextIndex(5)));
      }
    }
    return s;
  };

  std::vector<std::string> values;
  SignatureIndex index(param.sim);
  for (uint32_t i = 0; i < 150; ++i) {
    values.push_back(random_string());
    index.Add(i, values.back());
  }
  index.Build();

  for (int trial = 0; trial < 60; ++trial) {
    std::string query = random_string();
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < values.size(); ++i) {
      if (param.sim.Matches(query, values[i])) expected.push_back(i);
    }
    std::vector<uint32_t> candidates = index.Candidates(query);
    for (uint32_t id : expected) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id))
          << "query '" << query << "' lost true match '" << values[id] << "'";
    }
    EXPECT_EQ(index.Matches(query), expected) << "query '" << query << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SignatureIndexProperty,
    ::testing::Values(IndexPropertyParam{Similarity::Equality(), 17},
                      IndexPropertyParam{Similarity::EditDistance(1), 18},
                      IndexPropertyParam{Similarity::EditDistance(2), 19},
                      IndexPropertyParam{Similarity::EditDistance(3), 20},
                      IndexPropertyParam{Similarity::Jaccard(0.6), 21},
                      IndexPropertyParam{Similarity::Jaccard(0.9), 22},
                      IndexPropertyParam{Similarity::Cosine(0.7), 23}));

TEST(SignatureIndexTest, EmptyIndexIsSafe) {
  SignatureIndex index(Similarity::EditDistance(2));
  index.Build();
  EXPECT_TRUE(index.Candidates("anything").empty());
  EXPECT_TRUE(index.Matches("anything").empty());
}

TEST(SignatureIndexTest, EmptyQueryOnPrefixFilter) {
  SignatureIndex index(Similarity::Jaccard(0.5));
  index.Add(1, "some words");
  index.Add(2, "");
  index.Build();
  EXPECT_EQ(index.Matches(""), (std::vector<uint32_t>{2}));
}

}  // namespace
}  // namespace detective

// Unit tests for src/kb: builder, taxonomy closure, graph queries, and the
// hand-rolled N-Triples / TSV parsers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/hash.h"
#include "datagen/nobel_gen.h"
#include "datagen/uis_gen.h"
#include "datagen/webtables_gen.h"
#include "kb/knowledge_base.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"
#include "test_fixtures.h"

namespace detective {
namespace {

KnowledgeBase SmallKb() {
  KbBuilder b;
  ClassId city = b.AddClass("city", {"populated place"});
  ClassId country = b.AddClass("country", {"populated place"});
  RelationId located = b.AddRelation("locatedIn");
  RelationId capital = b.AddRelation("hasCapital");
  ItemId israel = b.AddEntity("Israel", {country});
  ItemId haifa = b.AddEntity("Haifa", {city});
  ItemId jerusalem = b.AddEntity("Jerusalem", {city});
  b.AddEdge(haifa, located, israel);
  b.AddEdge(jerusalem, located, israel);
  b.AddEdge(israel, capital, jerusalem);
  return std::move(b).Freeze();
}

// ---- Builder + queries -----------------------------------------------------

TEST(KbBuilderTest, VocabularyLookups) {
  KnowledgeBase kb = SmallKb();
  EXPECT_TRUE(kb.FindClass("city").valid());
  EXPECT_TRUE(kb.FindClass("populated place").valid());
  EXPECT_FALSE(kb.FindClass("planet").valid());
  EXPECT_TRUE(kb.FindRelation("locatedIn").valid());
  EXPECT_FALSE(kb.FindRelation("flowsInto").valid());
  EXPECT_EQ(kb.ClassName(kb.FindClass("city")), "city");
  EXPECT_EQ(kb.RelationName(kb.FindRelation("hasCapital")), "hasCapital");
}

TEST(KbBuilderTest, CountsAreAccurate) {
  KnowledgeBase kb = SmallKb();
  EXPECT_EQ(kb.num_entities(), 3u);
  EXPECT_EQ(kb.num_items(), 3u);  // no literals
  EXPECT_EQ(kb.num_edges(), 3u);
  EXPECT_EQ(kb.num_relations(), 2u);
  // literal + city + country + populated place
  EXPECT_EQ(kb.num_classes(), 4u);
}

TEST(KbBuilderTest, LabelLookupIsNormalized) {
  KbBuilder b;
  ClassId city = b.AddClass("city");
  b.AddEntity("  New   York ", {city});
  KnowledgeBase kb = std::move(b).Freeze();
  ASSERT_EQ(kb.ItemsWithLabel("New York").size(), 1u);
  EXPECT_TRUE(kb.ItemsWithLabel("New   York").empty());  // queries are exact
}

TEST(KbBuilderTest, HomonymsAreDistinctEntities) {
  KbBuilder b;
  ClassId city = b.AddClass("city");
  ClassId person = b.AddClass("person");
  b.AddEntity("Paris", {city});
  b.AddEntity("Paris", {person});
  KnowledgeBase kb = std::move(b).Freeze();
  EXPECT_EQ(kb.ItemsWithLabel("Paris").size(), 2u);
}

TEST(KbBuilderTest, LiteralsAreDeduplicated) {
  KbBuilder b;
  ClassId person = b.AddClass("person");
  ItemId alice = b.AddEntity("Alice", {person});
  ItemId bob = b.AddEntity("Bob", {person});
  RelationId born = b.AddRelation("bornOnDate");
  ItemId d1 = b.AddLiteral("1901-01-01");
  ItemId d2 = b.AddLiteral("1901-01-01");
  EXPECT_EQ(d1, d2);
  b.AddEdge(alice, born, d1);
  b.AddEdge(bob, born, d2);
  KnowledgeBase kb = std::move(b).Freeze();
  EXPECT_EQ(kb.Subjects(kb.FindRelation("bornOnDate"), d1).size(), 2u);
  EXPECT_TRUE(kb.IsLiteral(d1));
  EXPECT_TRUE(kb.IsInstanceOf(d1, kb.literal_class()));
}

TEST(KbQueryTest, EdgeQueries) {
  KnowledgeBase kb = SmallKb();
  ItemId haifa = kb.ItemsWithLabel("Haifa")[0];
  ItemId israel = kb.ItemsWithLabel("Israel")[0];
  RelationId located = kb.FindRelation("locatedIn");
  EXPECT_TRUE(kb.HasEdge(haifa, located, israel));
  EXPECT_FALSE(kb.HasEdge(israel, located, haifa));
  ASSERT_EQ(kb.Objects(haifa, located).size(), 1u);
  EXPECT_EQ(kb.Objects(haifa, located)[0].target, israel);
  EXPECT_EQ(kb.Subjects(located, israel).size(), 2u);
  EXPECT_TRUE(kb.Objects(haifa, kb.FindRelation("hasCapital")).empty());
}

TEST(KbQueryTest, DuplicateEdgesAreDeduplicated) {
  KbBuilder b;
  ClassId c = b.AddClass("c");
  ItemId x = b.AddEntity("x", {c});
  ItemId y = b.AddEntity("y", {c});
  RelationId r = b.AddRelation("r");
  b.AddEdge(x, r, y);
  b.AddEdge(x, r, y);
  KnowledgeBase kb = std::move(b).Freeze();
  EXPECT_EQ(kb.OutEdges(x).size(), 1u);
  EXPECT_EQ(kb.num_edges(), 1u);
}

// ---- Taxonomy ---------------------------------------------------------------

TEST(TaxonomyTest, TransitiveClosure) {
  KbBuilder b;
  b.AddSubclass("laureate", "scientist");
  b.AddSubclass("scientist", "person");
  ClassId laureate = b.AddClass("laureate");
  ItemId alice = b.AddEntity("Alice", {laureate});
  KnowledgeBase kb = std::move(b).Freeze();

  ClassId person = kb.FindClass("person");
  ClassId scientist = kb.FindClass("scientist");
  EXPECT_TRUE(kb.IsSubclassOf(laureate, person));
  EXPECT_TRUE(kb.IsSubclassOf(laureate, laureate));
  EXPECT_FALSE(kb.IsSubclassOf(person, laureate));
  EXPECT_TRUE(kb.IsInstanceOf(alice, person));
  EXPECT_TRUE(kb.IsInstanceOf(alice, scientist));
  EXPECT_FALSE(kb.IsInstanceOf(alice, kb.literal_class()));
  // Instance lists include the closure.
  EXPECT_EQ(kb.InstancesOf(person).size(), 1u);
  EXPECT_EQ(kb.InstancesOf(laureate).size(), 1u);
}

TEST(TaxonomyTest, DiamondHierarchy) {
  KbBuilder b;
  b.AddSubclass("d", "b");
  b.AddSubclass("d", "c");
  b.AddSubclass("b", "a");
  b.AddSubclass("c", "a");
  ClassId d = b.AddClass("d");
  ItemId x = b.AddEntity("x", {d});
  KnowledgeBase kb = std::move(b).Freeze();
  ClassId a = kb.FindClass("a");
  EXPECT_TRUE(kb.IsInstanceOf(x, a));
  // Despite two paths, x appears once in a's instance list.
  EXPECT_EQ(kb.InstancesOf(a).size(), 1u);
  EXPECT_EQ(kb.AncestorsOf(d).size(), 4u);
}

TEST(TaxonomyTest, CycleIsRejected) {
  KbBuilder b;
  b.AddSubclass("a", "b");
  b.AddSubclass("b", "c");
  b.AddSubclass("c", "a");
  KnowledgeBase kb;
  EXPECT_TRUE(std::move(b).FreezeInto(&kb).IsInvalidArgument());
}

TEST(TaxonomyTest, MultipleDirectClasses) {
  KbBuilder b;
  ClassId writer = b.AddClass("writer");
  ClassId chemist = b.AddClass("chemist");
  ItemId alice = b.AddEntity("Alice", {writer, chemist});
  KnowledgeBase kb = std::move(b).Freeze();
  EXPECT_TRUE(kb.IsInstanceOf(alice, writer));
  EXPECT_TRUE(kb.IsInstanceOf(alice, chemist));
  EXPECT_EQ(kb.DirectClasses(alice).size(), 2u);
}

// ---- Parsers ------------------------------------------------------------------

TEST(NTriplesTest, ParsesBasicTriples) {
  auto kb = ParseNTriples(R"(
# laureates
<Avram_Hershko> <rdf:type> <laureate> .
<Avram_Hershko> <worksAt> <Technion> .
<Avram_Hershko> <bornOnDate> "1937-12-31" .
)");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  ItemId hershko = kb->ItemsWithLabel("Avram Hershko")[0];
  EXPECT_TRUE(kb->IsInstanceOf(hershko, kb->FindClass("laureate")));
  EXPECT_EQ(kb->Objects(hershko, kb->FindRelation("worksAt")).size(), 1u);
  EXPECT_EQ(kb->Objects(hershko, kb->FindRelation("bornOnDate")).size(), 1u);
  ItemId dob = kb->Objects(hershko, kb->FindRelation("bornOnDate"))[0].target;
  EXPECT_TRUE(kb->IsLiteral(dob));
  EXPECT_EQ(kb->Label(dob), "1937-12-31");
}

TEST(NTriplesTest, SubclassAndExplicitClassDeclaration) {
  auto kb = ParseNTriples(R"(
<laureate> rdfs:subClassOf <person> .
<award> rdf:type <rdfs:Class> .
<X> rdf:type <laureate> .
)");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_TRUE(kb->FindClass("award").valid());
  EXPECT_TRUE(kb->IsSubclassOf(kb->FindClass("laureate"), kb->FindClass("person")));
  ItemId x = kb->ItemsWithLabel("X")[0];
  EXPECT_TRUE(kb->IsInstanceOf(x, kb->FindClass("person")));
}

TEST(NTriplesTest, LabelsOverridePrettifiedIris) {
  auto kb = ParseNTriples(R"(
<e1> rdfs:label "Marie Curie" .
<e1> rdf:type <laureate> .
)");
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->ItemsWithLabel("Marie Curie").size(), 1u);
  EXPECT_TRUE(kb->ItemsWithLabel("e1").empty());
}

TEST(NTriplesTest, LiteralEscapesAndTags) {
  auto kb = ParseNTriples(
      "<x> <says> \"he said \\\"hi\\\"\" .\n"
      "<x> <num> \"42\"^^<xsd:integer> .\n"
      "<x> <name> \"Jean\"@fr .\n");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  ItemId x = kb->ItemsWithLabel("x")[0];
  EXPECT_EQ(kb->Label(kb->Objects(x, kb->FindRelation("says"))[0].target),
            "he said \"hi\"");
  EXPECT_EQ(kb->Label(kb->Objects(x, kb->FindRelation("num"))[0].target), "42");
  EXPECT_EQ(kb->Label(kb->Objects(x, kb->FindRelation("name"))[0].target), "Jean");
}

TEST(NTriplesTest, RejectsMalformedLines) {
  EXPECT_TRUE(ParseNTriples("<a> <b> <c>").status().IsParseError());    // no dot
  EXPECT_TRUE(ParseNTriples("<a> <b> .").status().IsParseError());      // no object
  EXPECT_TRUE(ParseNTriples("a <b> <c> .").status().IsParseError());    // bare subject
  EXPECT_TRUE(ParseNTriples("<a> <b> \"x .").status().IsParseError());  // open quote
  EXPECT_TRUE(ParseNTriples("<a> <b> <c> . junk").status().IsParseError());
}

TEST(NTriplesTest, ParseErrorsCarryByteOffsetAndOffendingLine) {
  // The bad record sits after two good 21-byte lines; the error must name
  // its byte offset into the input and quote the line itself.
  const std::string input =
      "<a> <locatedIn> <b> .\n"
      "<b> <locatedIn> <c> .\n"
      "<c> <locatedIn> broken .\n";
  auto result = ParseNTriples(input);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("byte offset 44"), std::string::npos) << message;
  EXPECT_NE(message.find("<c> <locatedIn> broken ."), std::string::npos)
      << message;

  // Very long offending lines are truncated in the quote.
  const std::string long_line = "<d> <locatedIn> " + std::string(300, 'x');
  auto truncated = ParseNTriples(long_line);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().ToString().find("\"..."), std::string::npos);
  EXPECT_LT(truncated.status().ToString().size(), 300u);
}

TEST(TsvTest, ParseErrorsCarryByteOffsetAndOffendingLine) {
  const std::string input = "a\trdf:type\tb\nbad line without tabs\n";
  auto result = ParseTsvTriples(input);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("byte offset 13"), std::string::npos) << message;
  EXPECT_NE(message.find("bad line without tabs"), std::string::npos)
      << message;
}

TEST(NTriplesTest, UnderscoresBecomeSpaces) {
  auto kb = ParseNTriples("<New_York> <locatedIn> <United_States> .\n");
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->ItemsWithLabel("New York").size(), 1u);
  EXPECT_EQ(kb->ItemsWithLabel("United States").size(), 1u);
}

TEST(NTriplesTest, RoundTripThroughToNTriples) {
  KnowledgeBase original = testing::BuildFigure1Kb();
  auto reparsed = ParseNTriples(ToNTriples(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->num_entities(), original.num_entities());
  EXPECT_EQ(reparsed->num_edges(), original.num_edges());
  EXPECT_EQ(reparsed->num_relations(), original.num_relations());
  // Spot-check a fact survives: Hershko worksAt Technion.
  ItemId hershko = reparsed->ItemsWithLabel("Avram Hershko")[0];
  RelationId works = reparsed->FindRelation("worksAt");
  ASSERT_TRUE(works.valid());
  ASSERT_EQ(reparsed->Objects(hershko, works).size(), 1u);
  EXPECT_EQ(reparsed->Label(reparsed->Objects(hershko, works)[0].target),
            "Israel Institute of Technology");
  // Taxonomy survives too.
  EXPECT_TRUE(reparsed->IsSubclassOf(
      reparsed->FindClass("Nobel laureates in Chemistry"),
      reparsed->FindClass("person")));
}

TEST(TsvTest, ParsesTabSeparatedTriples) {
  auto kb = ParseTsvTriples(
      "Haifa\tlocatedIn\tIsrael\n"
      "Haifa\trdf:type\tcity\n"
      "Haifa\tfoundedOn\t\"1905\"\n");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  ItemId haifa = kb->ItemsWithLabel("Haifa")[0];
  EXPECT_TRUE(kb->IsInstanceOf(haifa, kb->FindClass("city")));
  EXPECT_EQ(kb->Objects(haifa, kb->FindRelation("locatedIn")).size(), 1u);
  EXPECT_TRUE(
      kb->IsLiteral(kb->Objects(haifa, kb->FindRelation("foundedOn"))[0].target));
}

TEST(TsvTest, RejectsWrongColumnCount) {
  EXPECT_TRUE(ParseTsvTriples("a\tb\n").status().IsParseError());
  EXPECT_TRUE(ParseTsvTriples("a\tb\tc\td\n").status().IsParseError());
}

TEST(TsvTest, RoundTripThroughToTsvTriples) {
  KnowledgeBase original = testing::BuildFigure1Kb();
  auto reparsed = ParseTsvTriples(ToTsvTriples(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->num_entities(), original.num_entities());
  EXPECT_EQ(reparsed->num_edges(), original.num_edges());
  ItemId calvin = reparsed->ItemsWithLabel("Melvin Calvin")[0];
  RelationId works = reparsed->FindRelation("worksAt");
  ASSERT_TRUE(works.valid());
  EXPECT_EQ(reparsed->Objects(calvin, works).size(), 2u);  // Example 10 intact
}

// ---- Pinned KBs -------------------------------------------------------------
//
// The frozen KB a text file loads to is pinned by a digest of its `.dkb`
// image: item, relation and class numbering, labels, adjacency and the label
// index all feed the snapshot bytes, so any change to the loader's output
// shows up here.

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

std::string DkbDigest(const KnowledgeBase& kb, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/kb_pin_" + name + ".dkb";
  EXPECT_TRUE(WriteKbSnapshot(kb, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return Hex(Fnv1a(bytes));
}

// Loads `kb` back from its N-Triples and TSV forms, checks that both agree,
// and returns the digests of {builder KB, text-loaded KB}.
std::pair<std::string, std::string> PinGenerated(const KnowledgeBase& kb,
                                                 const std::string& name) {
  auto nt = ParseNTriples(ToNTriples(kb));
  auto tsv = ParseTsvTriples(ToTsvTriples(kb));
  EXPECT_TRUE(nt.ok()) << nt.status().ToString();
  EXPECT_TRUE(tsv.ok()) << tsv.status().ToString();
  if (!nt.ok() || !tsv.ok()) return {};
  std::string diff;
  EXPECT_TRUE(KbEquals(*nt, *tsv, &diff)) << name << ": " << diff;
  return {DkbDigest(kb, name + "_built"), DkbDigest(*nt, name + "_text")};
}

TEST(PinnedKbTest, GeneratedUisKb) {
  UisOptions options;
  options.num_tuples = 2000;
  Dataset dataset = GenerateUis(options);
  auto [built, text] = PinGenerated(
      dataset.world.ToKb(YagoProfile(), dataset.key_entities), "uis");
  EXPECT_EQ(built, "0xc5818e490d5d8117");
  EXPECT_EQ(text, "0xece81b7df6c25414");
}

TEST(PinnedKbTest, GeneratedNobelKb) {
  NobelOptions options;
  options.num_laureates = 2000;
  Dataset dataset = GenerateNobel(options);
  auto [built, text] = PinGenerated(
      dataset.world.ToKb(YagoProfile(), dataset.key_entities), "nobel");
  EXPECT_EQ(built, "0x06fb3fe79adaeb63");
  EXPECT_EQ(text, "0x93aac220225ee4b8");
}

TEST(PinnedKbTest, GeneratedWebTablesKb) {
  WebTablesCorpus corpus = GenerateWebTables();
  auto [built, text] = PinGenerated(
      corpus.world.ToKb(DBpediaProfile(), corpus.key_entities), "webtables");
  EXPECT_EQ(built, "0x376be47f9a8dfad4");
  EXPECT_EQ(text, "0x6993a2dbe7918165");
}

// Every lexical corner the N-Triples reader accepts, in one file.
constexpr char kCornerCaseNTriples[] =
    "# leading comment\r\n"
    "\r\n"
    "<http://x.org/Avram_Hershko>\t<worksAt>\t<http://x.org/Technion> .\r\n"
    "<http://x.org/Avram_Hershko> <rdf:type> <http://x.org/laureate> .\n"
    "   \n"
    "<http://x.org/Technion> a <organization> .\n"
    "<http://x.org/Technion> rdfs:label \"Israel   Institute of Technology\" .\n"
    "<http://x.org/Avram_Hershko> <says> \"a \\\"quoted\\\" \\\\ word\" .\n"
    "<http://x.org/Avram_Hershko> <bornOnDate> \"1937-12-31\"^^<xsd:date> .\n"
    "<http://x.org/Avram_Hershko> <name> \"Avram\"@he .\n"
    "<http://x.org/Avram_Hershko> <name> \"Avram\" .\n"
    "\t# indented comment\n"
    "<laureate> rdfs:subClassOf <person> .\n"
    "<organization> <foundedBy> <Technion_Society> .\n"
    "<organization> rdf:type <rdfs:Class> .\n"
    "<http://x.org/Technion> <locatedIn> <Haifa> .\n"
    "<city> a <geo_concept> .\n"
    "<Haifa> <type> <city> .\n"
    "<Haifa> <name> \"Haifa\" .";

TEST(PinnedKbTest, CornerCaseFixture) {
  auto kb = ParseNTriples(kCornerCaseNTriples);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  // The label defined after the entity's first use still wins.
  ASSERT_EQ(kb->ItemsWithLabel("Israel Institute of Technology").size(), 1u);
  EXPECT_TRUE(kb->ItemsWithLabel("Technion").empty());
  ItemId hershko = kb->ItemsWithLabel("Avram Hershko")[0];
  EXPECT_TRUE(kb->IsInstanceOf(hershko, kb->FindClass("person")));
  EXPECT_EQ(kb->Label(kb->Objects(hershko, kb->FindRelation("says"))[0].target),
            "a \"quoted\" \\ word");
  EXPECT_EQ(kb->Label(kb->Objects(hershko, kb->FindRelation("bornOnDate"))[0].target),
            "1937-12-31");
  // "Avram"@he and "Avram" are one literal.
  EXPECT_EQ(kb->Objects(hershko, kb->FindRelation("name")).size(), 1u);
  // A subject declared a class later in the file is a class, and its
  // `a`-typed uses before the declaration do not make it an entity; its
  // relationship triples still do.
  EXPECT_TRUE(kb->FindClass("organization").valid());
  EXPECT_TRUE(kb->FindClass("city").valid());
  EXPECT_EQ(kb->ItemsWithLabel("organization").size(), 1u);
  EXPECT_TRUE(kb->ItemsWithLabel("city").empty());
  EXPECT_EQ(DkbDigest(*kb, "corners"), "0xba784d287890e49d");
}

TEST(KbDebugTest, SummaryMentionsCounts) {
  std::string summary = SmallKb().DebugSummary();
  EXPECT_NE(summary.find("entities=3"), std::string::npos);
  EXPECT_NE(summary.find("edges=3"), std::string::npos);
}

}  // namespace
}  // namespace detective

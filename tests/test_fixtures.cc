#include "test_fixtures.h"

#include <utility>

#include "common/deadline.h"
#include "common/logging.h"

namespace detective::testing {

KnowledgeBase BuildFigure1Kb() {
  KbBuilder b;

  ClassId laureate = b.AddClass("Nobel laureates in Chemistry", {"person"});
  ClassId organization = b.AddClass("organization");
  ClassId city = b.AddClass("city", {"populated place"});
  ClassId country = b.AddClass("country", {"populated place"});
  ClassId chem_award = b.AddClass("Chemistry awards", {"award"});
  ClassId us_award = b.AddClass("American awards", {"award"});

  RelationId worksAt = b.AddRelation("worksAt");
  RelationId graduatedFrom = b.AddRelation("graduatedFrom");
  RelationId locatedIn = b.AddRelation("locatedIn");
  RelationId wasBornIn = b.AddRelation("wasBornIn");
  RelationId isCitizenOf = b.AddRelation("isCitizenOf");
  RelationId bornInCountry = b.AddRelation("bornInCountry");
  RelationId wonPrize = b.AddRelation("wonPrize");
  RelationId bornOnDate = b.AddRelation("bornOnDate");

  ItemId israel = b.AddEntity("Israel", {country});
  ItemId france = b.AddEntity("France", {country});
  ItemId usa = b.AddEntity("United States", {country});
  ItemId ukraine = b.AddEntity("Ukraine", {country});
  ItemId hungary = b.AddEntity("Hungary", {country});

  auto add_city = [&](const char* label, ItemId in_country) {
    ItemId c = b.AddEntity(label, {city});
    b.AddEdge(c, locatedIn, in_country);
    return c;
  };
  ItemId karcag = add_city("Karcag", hungary);
  ItemId haifa = add_city("Haifa", israel);
  ItemId paris = add_city("Paris", france);
  ItemId ithaca = add_city("Ithaca", usa);
  ItemId berkeley = add_city("Berkeley", usa);
  ItemId manchester = add_city("Manchester", usa);
  ItemId st_paul = add_city("St. Paul", usa);

  auto add_inst = [&](const char* label, ItemId in_city) {
    ItemId i = b.AddEntity(label, {organization});
    b.AddEdge(i, locatedIn, in_city);
    return i;
  };
  ItemId technion = add_inst("Israel Institute of Technology", haifa);
  ItemId pasteur = add_inst("Pasteur Institute", paris);
  ItemId cornell = add_inst("Cornell University", ithaca);
  ItemId uc_berkeley = add_inst("UC Berkeley", berkeley);
  ItemId u_manchester = add_inst("University of Manchester", manchester);
  ItemId u_minnesota = add_inst("University of Minnesota", st_paul);

  ItemId nobel = b.AddEntity("Nobel Prize in Chemistry", {chem_award});
  ItemId lasker = b.AddEntity("Albert Lasker Award for Medicine", {us_award});
  ItemId medal = b.AddEntity("National Medal of Science", {us_award});

  auto add_person = [&](const char* name, const char* dob, ItemId works,
                        ItemId studied, ItemId born_city, ItemId citizen,
                        ItemId born_country) {
    ItemId p = b.AddEntity(name, {laureate});
    b.AddEdge(p, bornOnDate, b.AddLiteral(dob));
    b.AddEdge(p, worksAt, works);
    b.AddEdge(p, graduatedFrom, studied);
    b.AddEdge(p, wasBornIn, born_city);
    b.AddEdge(p, isCitizenOf, citizen);
    b.AddEdge(p, bornInCountry, born_country);
    b.AddEdge(p, wonPrize, nobel);
    return p;
  };
  ItemId hershko = add_person("Avram Hershko", "1937-12-31", technion, technion,
                              karcag, israel, hungary);
  b.AddEdge(hershko, wonPrize, lasker);
  add_person("Marie Curie", "1867-11-07", pasteur, pasteur, paris, france, france);
  ItemId hoffmann = add_person("Roald Hoffmann", "1937-07-18", cornell, cornell,
                               ithaca, usa, ukraine);
  b.AddEdge(hoffmann, wonPrize, medal);
  ItemId calvin = add_person("Melvin Calvin", "1911-04-08", uc_berkeley,
                             u_minnesota, st_paul, usa, usa);
  b.AddEdge(calvin, worksAt, u_manchester);

  return std::move(b).Freeze();
}

Relation BuildTableI() {
  Relation table{
      Schema({"Name", "DOB", "Country", "Prize", "Institution", "City"})};
  table
      .Append({"Avram Hershko", "1937-12-31", "Israel",
               "Albert Lasker Award for Medicine", "Israel Institute of Technology",
               "Karcag"})
      .Abort("r1");
  table
      .Append({"Marie Curie", "1867-11-07", "France", "Nobel Prize in Chemistry",
               "Paster Institute", "Paris"})
      .Abort("r2");
  table
      .Append({"Roald Hoffmann", "1937-07-18", "Ukraine", "National Medal of Science",
               "Cornell University", "Ithaca"})
      .Abort("r3");
  table
      .Append({"Melvin Calvin", "1911-04-08", "United States",
               "Nobel Prize in Chemistry", "University of Minnesota", "St. Paul"})
      .Abort("r4");
  return table;
}

Relation BuildTableIClean() {
  Relation table{
      Schema({"Name", "DOB", "Country", "Prize", "Institution", "City"})};
  table
      .Append({"Avram Hershko", "1937-12-31", "Israel", "Nobel Prize in Chemistry",
               "Israel Institute of Technology", "Haifa"})
      .Abort("r1");
  table
      .Append({"Marie Curie", "1867-11-07", "France", "Nobel Prize in Chemistry",
               "Pasteur Institute", "Paris"})
      .Abort("r2");
  table
      .Append({"Roald Hoffmann", "1937-07-18", "United States",
               "Nobel Prize in Chemistry", "Cornell University", "Ithaca"})
      .Abort("r3");
  table
      .Append({"Melvin Calvin", "1911-04-08", "United States",
               "Nobel Prize in Chemistry", "UC Berkeley", "Berkeley"})
      .Abort("r4");
  return table;
}

std::vector<DetectiveRule> BuildFigure4Rules() {
  constexpr const char kRules[] = R"(
RULE phi1
NODE x1 col=Name type="Nobel laureates in Chemistry" sim="="
NODE x2 col=DOB type=literal sim="="
POS  p1 col=Institution type=organization sim="ED,2"
NEG  n1 col=Institution type=organization sim="ED,2"
EDGE x1 bornOnDate x2
EDGE x1 worksAt p1
EDGE x1 graduatedFrom n1
END
RULE phi2
NODE w1 col=Name type="Nobel laureates in Chemistry" sim="="
NODE w2 col=Institution type=organization sim="ED,2"
POS  p2 col=City type=city sim="="
NEG  n2 col=City type=city sim="="
EDGE w1 worksAt w2
EDGE w2 locatedIn p2
EDGE w1 wasBornIn n2
END
RULE phi3
NODE z1 col=Name type="Nobel laureates in Chemistry" sim="="
NODE z2 col=Institution type=organization sim="ED,2"
NODE z3 col=City type=city sim="="
POS  p3 col=Country type=country sim="="
NEG  n3 col=Country type=country sim="="
EDGE z1 worksAt z2
EDGE z2 locatedIn z3
EDGE z3 locatedIn p3
EDGE z1 isCitizenOf p3
EDGE z1 bornInCountry n3
END
RULE phi4
NODE v1 col=Name type="Nobel laureates in Chemistry" sim="="
POS  p4 col=Prize type="Chemistry awards" sim="="
NEG  n4 col=Prize type="American awards" sim="="
EDGE v1 wonPrize p4
EDGE v1 wonPrize n4
END
)";
  auto rules = ParseRules(kRules);
  rules.status().Abort("BuildFigure4Rules");
  return *rules;
}

void GuardedSequentialRepair(FastRepairer& repairer, Relation* relation,
                             QuarantineLog* quarantine) {
  const uint64_t deadline_ms = repairer.engine().options().deadline_ms;
  const Deadline run_deadline =
      deadline_ms > 0 ? Deadline::AfterMs(deadline_ms) : Deadline::Infinite();
  QuarantineLog ledger;
  for (size_t row = 0; row < relation->num_tuples(); ++row) {
    Tuple tuple = relation->tuple(row);
    if (repairer.RepairTupleGuarded(row, run_deadline, &tuple, &ledger)) {
      relation->CommitRow(row, tuple);
    }
  }
  BreakerFixpoint(repairer, relation, run_deadline, &ledger);
  ledger.Canonicalize();
  if (quarantine != nullptr) quarantine->Merge(std::move(ledger));
}

}  // namespace detective::testing

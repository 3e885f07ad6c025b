// End-to-end tests of the detective_serve stack (serve/service.h,
// serve/router.h, serve/worker_pool.h, serve/admission.h) against a real
// obs::HttpServer on an ephemeral loopback port — the request-level contract
// of docs/serving.md: repairs match the paper's worked example, repaired
// bytes are identical at every worker count, degradation (deadlines,
// injected faults) is per-request and answered 200 + degraded, refusals map
// to 400/403/413/429/503, a request-level panic answers 500 and the server
// survives, and drain finishes in-flight work while refusing new work.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/repair.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "obs/http_server.h"
#include "relation/relation.h"
#include "serve/admission.h"
#include "serve/router.h"
#include "serve/worker_pool.h"

namespace detective::serve {
namespace {

constexpr const char* kKbPath = DETECTIVE_SOURCE_DIR "/data/figure1.nt";
constexpr const char* kRulesPath = DETECTIVE_SOURCE_DIR "/data/figure4.dr";
constexpr const char* kCsvPath = DETECTIVE_SOURCE_DIR "/data/table1.csv";
const std::vector<std::string> kSchema = {"Name",  "DOB",         "Country",
                                          "Prize", "Institution", "City"};

// ---- Raw-socket HTTP client (the obs_http_test idiom) -----------------------

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadUntilClose(int fd) {
  std::string out;
  char buf[4096];
  while (out.size() < (1u << 22)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

std::string Fetch(uint16_t port, const std::string& request) {
  int fd = Connect(port);
  if (fd < 0) return "";
  std::string response;
  if (SendAll(fd, request)) response = ReadUntilClose(fd);
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path +
                         " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
}

/// One-shot POST with a Content-Length body and optional extra header lines
/// (each "Name: value\r\n").
std::string Post(uint16_t port, const std::string& path,
                 const std::string& body, const std::string& extra = "") {
  return Fetch(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\n" + extra +
                         "Content-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body);
}

int StatusOf(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0) {
    return -1;
  }
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Value of `name` in the response head, or "" when absent.
std::string HeaderOf(const std::string& response, const std::string& name) {
  const size_t head_end = response.find("\r\n\r\n");
  const std::string needle = "\r\n" + name + ": ";
  const size_t at = response.find(needle);
  if (at == std::string::npos || at > head_end) return "";
  const size_t start = at + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

// ---- Harness ----------------------------------------------------------------

/// A service + router + listener wired exactly as tools/detective_serve.cc
/// wires them, on an ephemeral port.
struct Harness {
  explicit Harness(size_t workers, size_t queue = 32,
                   bool allow_fault_header = false, size_t max_body = 1 << 20,
                   uint64_t default_deadline_ms = 0) {
    ServiceOptions options;
    options.kb_path = kKbPath;
    options.rules_path = kRulesPath;
    options.schema_columns = kSchema;
    options.workers = workers;
    options.queue_capacity = queue;
    options.allow_fault_header = allow_fault_header;
    options.default_deadline_ms = default_deadline_ms;
    init = service.Init(std::move(options));
    obs::HttpServerOptions http;
    http.dispatch_threads = 4;
    http.max_body_bytes = max_body;
    server = std::make_unique<obs::HttpServer>(http);
    RegisterServiceHandlers(server.get(), &service);
    started = server->Start();
    service.MarkReady();
  }
  ~Harness() {
    service.Shutdown();
    if (server != nullptr) server->Stop();
  }

  uint16_t port() const { return server->port(); }

  CleaningService service;
  std::unique_ptr<obs::HttpServer> server;
  Status init = Status::OK();
  Status started = Status::OK();
};

std::string ReadFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// The batch ground truth: the same inputs through a fresh single-threaded
/// FastRepairer — what /v1/clean-table must reproduce byte for byte.
std::string BatchRepairedCsv() {
  auto kb = LoadKbFile(kKbPath);
  EXPECT_TRUE(kb.ok());
  auto rules = ParseRulesFile(kRulesPath);
  EXPECT_TRUE(rules.ok());
  auto relation = Relation::FromCsvFile(kCsvPath);
  EXPECT_TRUE(relation.ok());
  FastRepairer repairer(*kb, relation->schema(), *rules);
  EXPECT_TRUE(repairer.Init().ok());
  repairer.RepairRelation(&*relation);
  return relation->ToCsv();
}

const char* kHershkoTuple =
    R"({"tuple":{"Name":"Avram Hershko","DOB":"1937-12-31",)"
    R"("Country":"Israel","Prize":"Albert Lasker Award for Medicine",)"
    R"("Institution":"Israel Institute of Technology","City":"Karcag"}})";

// ---- Request/response contract ----------------------------------------------

TEST(ServeCleanTuple, RepairsThePaperRow) {
  Harness harness(/*workers=*/2);
  ASSERT_TRUE(harness.init.ok()) << harness.init.ToString();
  ASSERT_TRUE(harness.started.ok()) << harness.started.ToString();
  std::string response =
      Post(harness.port(), "/v1/clean-tuple", kHershkoTuple);
  EXPECT_EQ(StatusOf(response), 200);
  const std::string body = BodyOf(response);
  // Table I row r1: Prize and City are wrong; the Fig. 4 rules repair both.
  EXPECT_NE(body.find("\"degraded\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"Prize\":\"Nobel Prize in Chemistry\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"City\":\"Haifa\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"from\":\"Karcag\""), std::string::npos) << body;
  EXPECT_EQ(body.find("\"quarantine\":[]"), body.size() - 17) << body;
}

TEST(ServeCleanTuple, RequestErrorsAre400) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.started.ok());
  // Malformed JSON, unknown field, unknown column, missing column.
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", "{nope")), 400);
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple",
                          R"({"bogus":"x"})")),
            400);
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple",
                          R"({"tuple":{"Martian":"x"}})")),
            400);
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple",
                          R"({"tuple":{"Name":"x"}})")),
            400);
  // The daemon took all four bad requests in stride.
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple)),
            200);
}

TEST(ServeCleanTable, ByteIdenticalToBatchAtEveryWorkerCount) {
  const std::string want = BatchRepairedCsv();
  const std::string input = ReadFile(kCsvPath);
  ASSERT_FALSE(want.empty());
  ASSERT_FALSE(input.empty());
  for (size_t workers : {1u, 2u, 8u}) {
    Harness harness(workers);
    ASSERT_TRUE(harness.started.ok());
    std::string response = Post(harness.port(), "/v1/clean-table", input);
    EXPECT_EQ(StatusOf(response), 200);
    EXPECT_EQ(HeaderOf(response, "X-Detective-Degraded"), "false");
    EXPECT_EQ(HeaderOf(response, "X-Detective-Quarantined"), "0");
    EXPECT_EQ(BodyOf(response), want) << "workers=" << workers;
  }
}

TEST(ServeCleanTable, BadCsvAndSchemaMismatchAre400) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.started.ok());
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-table",
                          "Name,City\n\"unterminated\n")),
            400);
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-table",
                          "Name,City\nAlice,Rome\n")),
            400);
}

TEST(ServeExplain, RoundTripsProvenanceAndUnknownIdIs404) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.started.ok());
  std::string response =
      Post(harness.port(), "/v1/clean-table", ReadFile(kCsvPath));
  ASSERT_EQ(StatusOf(response), 200);
  const std::string id = HeaderOf(response, "X-Detective-Request-Id");
  ASSERT_FALSE(id.empty());
  std::string explain = Get(
      harness.port(), "/v1/explain?id=" + id + "&row=0&column=City");
  EXPECT_EQ(StatusOf(explain), 200);
  // Row r1's City repair (Karcag -> Haifa) is on record, blaming phi2.
  EXPECT_NE(BodyOf(explain).find("\"rule\": \"phi2\""), std::string::npos)
      << explain;
  EXPECT_EQ(StatusOf(Get(harness.port(), "/v1/explain?id=r-999&row=0"
                                         "&column=City")),
            404);
  EXPECT_EQ(StatusOf(Get(harness.port(), "/v1/explain?id=" + id)), 400);
}

TEST(ServeRules, ReportsTheFrozenRuleSet) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.started.ok());
  std::string response = Get(harness.port(), "/v1/rules");
  EXPECT_EQ(StatusOf(response), 200);
  const std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"total\":4"), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"phi2\",\"target\":\"City\""),
            std::string::npos)
      << body;
}

TEST(ServeLimits, OversizedBodyIs413) {
  Harness harness(/*workers=*/1, /*queue=*/32, /*allow_fault_header=*/false,
                  /*max_body=*/128);
  ASSERT_TRUE(harness.started.ok());
  std::string response = Post(harness.port(), "/v1/clean-table",
                              std::string(256, 'x'));
  EXPECT_EQ(StatusOf(response), 413);
}

TEST(ServeFaultHeader, RefusedWithoutOptIn) {
  Harness harness(/*workers=*/1);  // --allow-fault-header NOT set
  ASSERT_TRUE(harness.started.ok());
  std::string response =
      Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
           "X-Detective-Fault-Plan: site=repair.tuple, hit=1\r\n");
  EXPECT_EQ(StatusOf(response), 403);
}

// ---- Availability -----------------------------------------------------------

TEST(ServeReadyz, TracksLifecycle) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.started.ok());
  std::string ready = Get(harness.port(), "/readyz");
  EXPECT_EQ(StatusOf(ready), 200);
  // Exact-key JSON contract, schema-checked in CI by check_serve_response.py
  // --kind=readyz; the KB here is loaded from text.
  EXPECT_NE(BodyOf(ready).find("\"status\":\"ready\""), std::string::npos);
  EXPECT_NE(BodyOf(ready).find("\"kb_source\":\"text\""), std::string::npos);
  EXPECT_NE(BodyOf(ready).find("\"kb_load_ms\":"), std::string::npos);
  harness.service.BeginDrain(/*grace_ms=*/1000);
  std::string draining = Get(harness.port(), "/readyz");
  EXPECT_EQ(StatusOf(draining), 503);
  EXPECT_NE(BodyOf(draining).find("draining"), std::string::npos);
  EXPECT_EQ(HeaderOf(draining, "Retry-After"), "1");
  // Cleaning requests are refused the same way once drain begins.
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple)),
            503);
}

TEST(ServeDrain, ShedsAtTheServiceLayerToo) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.init.ok());
  harness.service.BeginDrain(/*grace_ms=*/1000);
  TupleOutcome outcome;
  uint64_t retry_after = 0;
  EXPECT_EQ(harness.service.CleanTuple(
                {"Avram Hershko", "1937-12-31", "Israel", "x", "y", "z"}, 0,
                fault::FaultPlan{}, &outcome, &retry_after),
            CleaningService::Admit::kShed);
  EXPECT_GE(retry_after, 1u);
  EXPECT_TRUE(harness.service.WaitIdle(/*timeout_ms=*/2000));
}

// The serve workers' value memo is their only state that grows with the
// inputs. A stream of unique values through a one-worker service whose memo
// bound is small stays under the bound after every request — clean-tuple
// and clean-table alike — and answers exactly as an unbounded service does.
TEST(ServeMemo, UniqueValueStreamStaysUnderTheBound) {
  constexpr size_t kBound = 64;
  auto start = [](size_t max_memo_entries, CleaningService* service) {
    ServiceOptions options;
    options.kb_path = kKbPath;
    options.rules_path = kRulesPath;
    options.schema_columns = kSchema;
    options.max_memo_entries = max_memo_entries;
    return service->Init(std::move(options));
  };
  CleaningService bounded;
  CleaningService unbounded;
  ASSERT_TRUE(start(kBound, &bounded).ok());
  ASSERT_TRUE(start(ServiceOptions().max_memo_entries, &unbounded).ok());
  bounded.MarkReady();
  unbounded.MarkReady();

  size_t trims = 0;
  size_t last_size = 0;
  auto check_bound = [&](size_t request) {
    const size_t size = bounded.memo_entries(0);
    EXPECT_LE(size, kBound) << "request " << request;
    if (size < last_size) ++trims;
    last_size = size;
  };
  uint64_t retry_after = 0;
  for (size_t i = 0; i < 200; ++i) {
    const std::string suffix = " " + std::to_string(i);
    const std::vector<std::string> values = {
        "Avram Hershko" + suffix, "1937-12-31", "Israel" + suffix,
        "Albert Lasker Award for Medicine", "Israel Institute of Technology",
        "Karcag" + suffix};
    TupleOutcome got;
    TupleOutcome want;
    ASSERT_EQ(bounded.CleanTuple(values, 0, fault::FaultPlan{}, &got,
                                 &retry_after),
              CleaningService::Admit::kOk);
    ASSERT_EQ(unbounded.CleanTuple(values, 0, fault::FaultPlan{}, &want,
                                   &retry_after),
              CleaningService::Admit::kOk);
    EXPECT_EQ(got.tuple.values(), want.tuple.values()) << "request " << i;
    EXPECT_EQ(got.tuple.CountPositive(), want.tuple.CountPositive())
        << "request " << i;
    check_bound(i);
  }
  // Tables of unique values go through the same worker memo and bound.
  for (size_t i = 0; i < 20; ++i) {
    auto relation = Relation::FromCsvFile(kCsvPath);
    ASSERT_TRUE(relation.ok());
    for (size_t row = 0; row < relation->num_tuples(); ++row) {
      Tuple tuple = relation->tuple(row);
      tuple.SetValue(0, tuple.value(0) + " t" + std::to_string(i));
      relation->CommitRow(row, tuple);
    }
    TableOutcome got;
    TableOutcome want;
    ASSERT_EQ(bounded.CleanTable(*relation, 0, fault::FaultPlan{}, &got,
                                 &retry_after),
              CleaningService::Admit::kOk);
    ASSERT_EQ(unbounded.CleanTable(*relation, 0, fault::FaultPlan{}, &want,
                                   &retry_after),
              CleaningService::Admit::kOk);
    EXPECT_EQ(got.csv, want.csv) << "table " << i;
    check_bound(200 + i);
  }
  EXPECT_GT(trims, 0u);
  EXPECT_GT(unbounded.memo_entries(0), kBound);
}

// ---- Chaos: per-request fault plans, deadlines, shedding, drain -------------

#if DETECTIVE_FAULT_ENABLED

TEST(ServeFaultHeader, QuarantinesOnlyTheFaultedRequest) {
  Harness harness(/*workers=*/2, /*queue=*/32, /*allow_fault_header=*/true);
  ASSERT_TRUE(harness.started.ok());
  std::string faulted =
      Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
           "X-Detective-Fault-Plan: seed=7; site=repair.tuple, p=1\r\n");
  // Degradation is an outcome, not an error: 200 with the ledger attached
  // and the tuple returned pristine (the batch exit-4 contract).
  EXPECT_EQ(StatusOf(faulted), 200);
  const std::string body = BodyOf(faulted);
  EXPECT_NE(body.find("\"degraded\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"reason\": \"fault\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"Prize\":\"Albert Lasker Award for Medicine\""),
            std::string::npos)
      << body;
  // A malformed plan is the caller's error.
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
                          "X-Detective-Fault-Plan: site=\r\n")),
            400);
  // The very next un-faulted request — and a whole post-chaos table — are
  // byte-identical to a fresh batch run: the thread-scoped plan leaked into
  // nothing.
  std::string clean = Post(harness.port(), "/v1/clean-tuple", kHershkoTuple);
  EXPECT_EQ(StatusOf(clean), 200);
  EXPECT_NE(BodyOf(clean).find("\"degraded\":false"), std::string::npos);
  std::string table =
      Post(harness.port(), "/v1/clean-table", ReadFile(kCsvPath));
  EXPECT_EQ(BodyOf(table), BatchRepairedCsv());
}

TEST(ServeDeadline, ExpiredDeadlineDegradesTheWholeRequest) {
  Harness harness(/*workers=*/1, /*queue=*/32, /*allow_fault_header=*/true);
  ASSERT_TRUE(harness.started.ok());
  // The request-level probe sleeps past the deadline, so every row's
  // pre-chase deadline check trips: 200, degraded, all rows quarantined
  // with reason "deadline", bytes returned unrepaired.
  std::string response = Post(
      harness.port(), "/v1/clean-table?deadline_ms=20", ReadFile(kCsvPath),
      "X-Detective-Fault-Plan: site=serve.request, kind=latency, "
      "latency_ms=80\r\n");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(HeaderOf(response, "X-Detective-Degraded"), "true");
  EXPECT_EQ(HeaderOf(response, "X-Detective-Quarantined"), "4");
  EXPECT_EQ(BodyOf(response), ReadFile(kCsvPath));
  // Same contract for a single tuple, via the body's deadline_ms field.
  std::string tuple = Post(
      harness.port(), "/v1/clean-tuple",
      std::string(R"({"deadline_ms":20,)") + (kHershkoTuple + 1),
      "X-Detective-Fault-Plan: site=serve.request, kind=latency, "
      "latency_ms=80\r\n");
  EXPECT_EQ(StatusOf(tuple), 200);
  EXPECT_NE(BodyOf(tuple).find("\"reason\": \"run_deadline\""),
            std::string::npos)
      << BodyOf(tuple);
}

TEST(ServeAdmission, FullQueueSheds429WithRetryAfter) {
  Harness harness(/*workers=*/1, /*queue=*/1, /*allow_fault_header=*/true);
  ASSERT_TRUE(harness.started.ok());
  const std::string slow_header =
      "X-Detective-Fault-Plan: site=serve.request, kind=latency, "
      "latency_ms=400\r\n";
  // A occupies the only worker; B fills the only queue slot.
  std::thread a([&] {
    EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
                            slow_header)),
              200);
  });
  std::thread b;
  for (int i = 0; i < 200 && harness.service.admission().admitted() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  b = std::thread([&] {
    EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
                            slow_header)),
              200);
  });
  for (int i = 0; i < 200 && harness.service.queued() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // C finds worker busy + queue full: shed, with an honest retry estimate.
  std::string shed = Post(harness.port(), "/v1/clean-tuple", kHershkoTuple);
  EXPECT_EQ(StatusOf(shed), 429);
  EXPECT_FALSE(HeaderOf(shed, "Retry-After").empty());
  EXPECT_GE(harness.service.admission().sheds(), 1u);
  a.join();
  b.join();
}

TEST(ServeDrain, FinishesInFlightRequestsBeforeExit) {
  Harness harness(/*workers=*/1, /*queue=*/4, /*allow_fault_header=*/true);
  ASSERT_TRUE(harness.started.ok());
  std::string in_flight_response;
  std::thread in_flight([&] {
    in_flight_response = Post(
        harness.port(), "/v1/clean-tuple", kHershkoTuple,
        "X-Detective-Fault-Plan: site=serve.request, kind=latency, "
        "latency_ms=300\r\n");
  });
  for (int i = 0; i < 200 && harness.service.admission().admitted() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  harness.service.BeginDrain(/*grace_ms=*/5000);
  harness.server->BeginDrain();
  EXPECT_TRUE(harness.server->WaitIdle(/*timeout_ms=*/5000));
  EXPECT_TRUE(harness.service.WaitIdle(/*timeout_ms=*/5000));
  in_flight.join();
  // The request admitted before the drain completed normally.
  EXPECT_EQ(StatusOf(in_flight_response), 200);
  EXPECT_NE(BodyOf(in_flight_response).find("\"degraded\":false"),
            std::string::npos);
}

// A drain that begins while /v1/clean-table is mid-relation caps the rows
// not yet started at the drain grace: they are quarantined ("run_deadline")
// and returned pristine, while the row in flight finishes. The latency
// fault on repair.tuple holds every row long enough to drain mid-table.
TEST(ServeDrain, MidTableDrainQuarantinesTheRemainingRows) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.init.ok());
  auto relation = Relation::FromCsvFile(kCsvPath);
  ASSERT_TRUE(relation.ok());
  ASSERT_EQ(relation->num_tuples(), 4u);
  auto plan =
      fault::FaultPlan::Parse("site=repair.tuple, kind=latency, latency_ms=100");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  TableOutcome outcome;
  std::thread request([&] {
    uint64_t retry_after = 0;
    EXPECT_EQ(harness.service.CleanTable(*relation, /*deadline_ms=*/0, *plan,
                                         &outcome, &retry_after),
              CleaningService::Admit::kOk);
  });
  for (int i = 0; i < 200 && harness.service.admission().admitted() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Row 0 is inside its 100 ms probe; rows 1-3 have not started.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  harness.service.BeginDrain(/*grace_ms=*/0);
  request.join();

  EXPECT_TRUE(outcome.degraded);
  EXPECT_GE(outcome.rows_quarantined, 3u);
  auto repaired = Relation::FromCsv(outcome.csv);
  ASSERT_TRUE(repaired.ok());
  for (const QuarantineRecord& record : outcome.quarantine.records()) {
    EXPECT_EQ(record.reason, CancelReason::kRunDeadline);
    EXPECT_EQ(repaired->tuple(record.row).values(),
              relation->tuple(record.row).values());
  }
  EXPECT_TRUE(harness.service.WaitIdle(/*timeout_ms=*/2000));
}

TEST(ServePanic, RequestFaultIs500AndTheServerSurvives) {
  Harness harness(/*workers=*/1, /*queue=*/32, /*allow_fault_header=*/true);
  ASSERT_TRUE(harness.started.ok());
  std::string panicked =
      Post(harness.port(), "/v1/clean-tuple", kHershkoTuple,
           "X-Detective-Fault-Plan: seed=3; site=serve.request, hit=1\r\n");
  EXPECT_EQ(StatusOf(panicked), 500);
  // The worker, the pool, and the listener all survived the panic.
  EXPECT_EQ(StatusOf(Post(harness.port(), "/v1/clean-tuple", kHershkoTuple)),
            200);
}

#endif  // DETECTIVE_FAULT_ENABLED

// ---- Unit coverage for the serve primitives ---------------------------------

TEST(BoundedWorkerPool, RefusesBeyondCapacityAndDrainsGracefully) {
  BoundedWorkerPool pool(/*workers=*/1, /*queue_capacity=*/1);
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(pool.Submit([&](size_t) {
    gate.wait();
    ++ran;
  }));
  // Wait for the worker to pick the blocker up, then fill the queue slot.
  for (int i = 0; i < 200 && pool.in_flight() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(pool.Submit([&](size_t) { ++ran; }));
  EXPECT_FALSE(pool.Submit([&](size_t) { ++ran; }));  // full → shed
  release.set_value();
  EXPECT_TRUE(pool.WaitIdle(/*timeout_ms=*/2000));
  EXPECT_EQ(ran.load(), 2);
  pool.BeginDrain();
  EXPECT_FALSE(pool.Submit([&](size_t) { ++ran; }));  // draining → shed
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 2);
}

TEST(AdmissionController, RetryAfterTracksServiceTime) {
  AdmissionController admission(/*workers=*/2);
  EXPECT_EQ(admission.RetryAfterSeconds(/*queued=*/5), 1u);  // no sample yet
  for (int i = 0; i < 50; ++i) admission.RecordServiceMs(2000.0);
  // ~2s per request, 2 workers, 3 queued + mine → ceil(2*4/2) = 4s.
  EXPECT_EQ(admission.RetryAfterSeconds(/*queued=*/3), 4u);
  // Clamped to the ceiling so a pathological EWMA never tells a client to
  // go away for minutes.
  for (int i = 0; i < 50; ++i) admission.RecordServiceMs(600000.0);
  EXPECT_EQ(admission.RetryAfterSeconds(/*queued=*/10), 30u);
  admission.RecordShed();
  admission.RecordAdmit();
  EXPECT_EQ(admission.sheds(), 1u);
  EXPECT_EQ(admission.admitted(), 1u);
}

}  // namespace
}  // namespace detective::serve

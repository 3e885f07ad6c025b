// Thread-scaling bench for ParallelRepair (paper §V: "repairing one tuple
// is irrelevant to any other tuple"): wall clock at 1/2/4/8 worker threads
// over one shared frozen match plan, each worker with a private value memo.
// Then the Nobel classic vs stratified chase and the live-introspection
// overhead.
//
// KB projection happens outside the timed region; the timer covers exactly
// what ParallelRepair does (plan build, worker fan-out, repair, merge), so
// every series pays for its MatchPlan build inside the measurement.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/stratification.h"
#include "bench_util.h"
#include "core/parallel_repair.h"
#include "core/repair.h"
#include "datagen/nobel_gen.h"
#include "datagen/uis_gen.h"
#include "eval/experiment.h"
#include "obs/introspect.h"

namespace detective {
namespace {

double TimeParallelRepairRules(const KnowledgeBase& kb,
                               const std::vector<DetectiveRule>& rules,
                               const Relation& dirty, size_t threads,
                               const StratifiedSchedule* schedule = nullptr) {
  Relation copy = dirty;
  ParallelRepairOptions options;
  options.num_threads = threads;
  options.repair.schedule = schedule;
  double start = NowSeconds();
  ParallelRepair(kb, rules, &copy, options).status().Abort("parallel");
  return NowSeconds() - start;
}

/// The counters of the phase just measured at `threads` workers; the
/// memo-dependent ones are renamed when the schedule decides them.
std::map<std::string, uint64_t> Counters(size_t threads) {
  auto counters = bench::DrainCounters();
  return threads > 1 ? bench::ScheduleDependent(std::move(counters)) : counters;
}

double TimeParallelRepair(const KnowledgeBase& kb, const Dataset& dataset,
                          const Relation& dirty, size_t threads) {
  return TimeParallelRepairRules(kb, dataset.rules, dirty, threads);
}

/// One blocking GET against the local introspection server — the same bytes
/// a curl-based poller sends; the response is read fully and discarded.
void PollOnce(uint16_t port, const char* path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = std::string("GET ") + path +
                          " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char sink[4096];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
  }
  ::close(fd);
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  using namespace detective;
  bench::PrintHeader("Parallel repair: thread scaling",
                     "UIS + Yago profile; KB projection excluded from timing");
  bench::TraceSession trace_session(argc, argv);

  const uint64_t tuples = bench::FlagUint(argc, argv, "tuples", 2000);
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  UisOptions uis_options;
  uis_options.num_tuples = tuples;
  Dataset dataset = GenerateUis(uis_options);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.10;
  InjectErrors(&dirty, spec, dataset.alternatives);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);
  std::printf("tuples=%llu\n\n", static_cast<unsigned long long>(tuples));

  bench::BenchJsonWriter json("parallel");
  std::printf("%-9s %12s %10s\n", "threads", "wall", "speedup");

  double wall_at_1 = 0;
  bench::DrainCounters();  // open the first epoch: drop datagen counts
  for (size_t threads : thread_counts) {
    const double wall = TimeParallelRepair(kb, dataset, dirty, threads);
    json.Add("threads", static_cast<double>(threads), wall * 1000,
             Counters(threads));
    if (threads == 1) wall_at_1 = wall;
    std::printf("%-9zu %11.3fs %9.2fx\n", threads, wall,
                wall > 0 ? wall_at_1 / wall : 0.0);
  }

  // ---- Stratified vs classic chase on the Nobel workload ----
  // The Nobel exclusive rule pair (NobelOptions::exclusive_strata_rules)
  // forms a City <-> Country interaction cycle the analyzer refutes by
  // unification; the certified schedule then elides the confirming fixpoint
  // sweep the classic loop runs on every tuple where one of the pair fired.
  // nobel_prize is excluded so nothing writes the Prize witness column. The
  // stratified series' strata.rounds_skipped counter is the elision count;
  // its output is byte-identical to the classic series by construction.
  const uint64_t laureates = bench::FlagUint(argc, argv, "laureates", 600);
  NobelOptions nobel_options;
  nobel_options.num_laureates = laureates;
  nobel_options.exclusive_strata_rules = true;
  Dataset nobel = GenerateNobel(nobel_options);
  std::vector<DetectiveRule> nobel_rules;
  for (const DetectiveRule& rule : nobel.rules) {
    if (rule.name() != "nobel_prize") nobel_rules.push_back(rule);
  }
  Relation nobel_dirty = nobel.clean;
  InjectErrors(&nobel_dirty, spec, nobel.alternatives);
  KnowledgeBase nobel_kb = nobel.world.ToKb(YagoProfile(), nobel.key_entities);
  auto strata = analysis::ComputeStratification(nobel_rules, nobel_kb);
  strata.status().Abort("stratify");
  std::printf("\nnobel laureates=%llu, rules=%zu, strata=%zu (refuted pairs=%zu)\n",
              static_cast<unsigned long long>(laureates), nobel_rules.size(),
              strata->certificate.strata.size(), strata->pairs_refuted);
  std::printf("%-9s %12s %12s %10s\n", "threads", "classic", "stratified",
              "clas/strat");
  bench::DrainCounters();  // drop the nobel datagen + analysis counts
  for (size_t threads : thread_counts) {
    const double classic = TimeParallelRepairRules(nobel_kb, nobel_rules,
                                                   nobel_dirty, threads);
    json.Add("nobel-classic", static_cast<double>(threads), classic * 1000,
             Counters(threads));
    const double stratified = TimeParallelRepairRules(
        nobel_kb, nobel_rules, nobel_dirty, threads, &strata->schedule);
    json.Add("nobel-stratified", static_cast<double>(threads),
             stratified * 1000, Counters(threads));
    std::printf("%-9zu %11.3fs %11.3fs %9.2fx\n", threads, classic, stratified,
                stratified > 0 ? classic / stratified : 0.0);
  }

  // ---- Live introspection overhead ----
  // The ISSUE contract: a running --introspect server plus one poller doing
  // real HTTP GETs at 10 Hz must cost < 2% wall clock. Both series repeat
  // the 8-thread repair so the timed region is long enough for the
  // poller to actually land scrapes inside it.
  const uint64_t reps = bench::FlagUint(argc, argv, "introspect-reps", 8);
  const size_t obs_threads = 8;
  std::printf("\nintrospection overhead (%llu reps, 8 threads, 10 Hz poller)\n",
              static_cast<unsigned long long>(reps));
  bench::DrainCounters();
  double introspect_off = 0;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    introspect_off += TimeParallelRepair(kb, dataset, dirty, obs_threads);
  }
  json.Add("introspect-off", static_cast<double>(obs_threads),
           introspect_off * 1000 / static_cast<double>(reps),
           Counters(obs_threads));

  obs::IntrospectServer server;
  server.Start().Abort("introspect server");
  std::atomic<bool> stop_poller{false};
  std::thread poller([&server, &stop_poller] {
    // Alternate the expensive exposition render with the heartbeat read —
    // the mix an operator dashboard produces.
    bool metrics_turn = true;
    while (!stop_poller.load(std::memory_order_relaxed)) {
      PollOnce(server.port(), metrics_turn ? "/metrics" : "/progress");
      metrics_turn = !metrics_turn;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  double introspect_on = 0;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    introspect_on += TimeParallelRepair(kb, dataset, dirty, obs_threads);
  }
  stop_poller.store(true, std::memory_order_relaxed);
  poller.join();
  const uint64_t scrapes = server.requests_served();
  server.Stop();
  // The obs.http.* counts the poller accrued are wall-clock dependent; the
  // CI baseline gate skips them (obs.http.*=skip band).
  json.Add("introspect-on", static_cast<double>(obs_threads),
           introspect_on * 1000 / static_cast<double>(reps),
           Counters(obs_threads));
  std::printf("%-14s %11.3fs\n%-14s %11.3fs  (%llu scrapes served)\n",
              "introspect-off", introspect_off, "introspect-on", introspect_on,
              static_cast<unsigned long long>(scrapes));
  if (introspect_off > 0) {
    std::printf("overhead: %+.2f%% wall clock with the server + poller live\n",
                100.0 * (introspect_on - introspect_off) / introspect_off);
  }

  if (!json.WriteTo(bench::FlagString(argc, argv, "json"))) return 1;
  return 0;
}

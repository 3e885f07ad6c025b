// Incremental (delta) cleaning bench: the million-tuple operating loop this
// subsystem exists for. One full clean of a UIS relation establishes the
// provenance log; a 1% delta (updates to existing rows) then re-cleans two
// ways — full re-chase of every row vs incremental re-chase of the delta
// rows with replay of the previous log for the rest — and the bench asserts
// the bytes agree before reporting either time. It drives the in-memory
// IncrementalRepair; the CLI streams the previous log from its file
// instead (perfbench delta_1pct measures that path). The series the CI
// gate watches:
//
//   full_clean        the initial chase (also the provenance producer)
//   full_reclean      chase everything again after the delta
//   incremental_1pct  plan + re-chase of the delta rows + replay
//   kbload(text)      parse + freeze the N-triples KB (cold start, old way)
//   kbload(snapshot)  mmap + reconstruct from a kb/snapshot.h binary
//   snapshot_write    serialize + write the snapshot (the build step)
//
// --tuples=N (default 20000) sizes the relation; --threads=T (default 1)
// drives both re-cleans through the same parallel driver.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/incremental.h"
#include "core/parallel_repair.h"
#include "datagen/uis_gen.h"
#include "eval/experiment.h"
#include "kb/ntriples_parser.h"
#include "kb/snapshot.h"

int main(int argc, char** argv) {
  using namespace detective;
  bench::PrintHeader(
      "Incremental cleaning: 1% delta vs full re-clean (UIS, Yago)",
      "byte-identity asserted before timings are reported");
  bench::TraceSession trace_session(argc, argv);

  const size_t tuples =
      static_cast<size_t>(bench::FlagUint(argc, argv, "tuples", 20000));
  const size_t threads =
      static_cast<size_t>(bench::FlagUint(argc, argv, "threads", 1));
  bench::BenchJsonWriter json("incremental");

  UisOptions uis;
  uis.num_tuples = tuples;
  Dataset dataset = GenerateUis(uis);
  Relation dirty = dataset.clean;
  ErrorSpec spec;
  spec.error_rate = 0.10;
  InjectErrors(&dirty, spec, dataset.alternatives);
  KnowledgeBase kb = dataset.world.ToKb(YagoProfile(), dataset.key_entities);

  const size_t cores = threads == 0 ? 1 : threads;
  auto add = [&](const char* series, double wall_ms, size_t rows,
                 std::map<std::string, uint64_t> counters) {
    if (rows > 0) bench::RecordThroughput(&counters, rows, cores, wall_ms);
    json.Add(series, static_cast<double>(tuples), wall_ms,
             std::move(counters));
  };

  // ---- Initial full clean: produces the previous run's provenance log ----
  bench::DrainCounters();
  Relation cleaned = dirty;
  ProvenanceLog prev_provenance;
  double start = NowSeconds();
  {
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.provenance = &prev_provenance;
    ParallelRepair(kb, dataset.rules, &cleaned, options)
        .status()
        .Abort("full clean");
  }
  const double full_ms = (NowSeconds() - start) * 1000;
  add("full_clean", full_ms, tuples, bench::DrainCounters());
  std::printf("full clean        %10.1f ms  (%zu rows, %zu records)\n",
              full_ms, tuples, prev_provenance.size());

  // ---- 1% delta: rewrite the key cell of every 100th row. Only those rows
  // re-chase; rows are independent (§V), whatever values they share.
  RelationDelta delta;
  const Schema& schema = dirty.schema();
  for (size_t row = 0; row < dirty.num_tuples(); row += 100) {
    DeltaChange change;
    change.row = row;
    for (ColumnIndex c = 0; c < schema.num_columns(); ++c) {
      change.values.push_back(std::string(dirty.value(row, c)));
    }
    change.values[0] = "Perturbed Person " + std::to_string(row);
    delta.changes.push_back(std::move(change));
    ++delta.num_updates;
  }
  std::printf("delta             %10zu update(s) (1%% of rows)\n",
              delta.changes.size());

  // ---- Full re-clean of the delta-applied relation ----
  Relation delta_applied = dirty;
  for (const DeltaChange& change : delta.changes) {
    for (ColumnIndex c = 0; c < schema.num_columns(); ++c) {
      delta_applied.SetValue(change.row, c, change.values[c]);
    }
  }
  bench::DrainCounters();
  Relation full_again = delta_applied;
  ProvenanceLog full_log;
  start = NowSeconds();
  {
    ParallelRepairOptions options;
    options.num_threads = threads;
    options.provenance = &full_log;
    ParallelRepair(kb, dataset.rules, &full_again, options)
        .status()
        .Abort("full re-clean");
  }
  const double reclean_ms = (NowSeconds() - start) * 1000;
  add("full_reclean", reclean_ms, tuples, bench::DrainCounters());
  std::printf("full re-clean     %10.1f ms\n", reclean_ms);

  // ---- Incremental: plan the affected rows, re-chase them, replay the rest ----
  bench::DrainCounters();
  Relation inc_relation = dirty;
  ProvenanceLog inc_log;
  IncrementalStats inc_stats;
  start = NowSeconds();
  {
    auto plan =
        PlanIncremental(delta, &inc_relation, prev_provenance, nullptr);
    plan.status().Abort("plan");
    IncrementalOptions options;
    options.num_threads = threads;
    options.provenance = &inc_log;
    auto stats = IncrementalRepair(kb, dataset.rules, &inc_relation, *plan,
                                   std::move(prev_provenance), nullptr,
                                   options);
    stats.status().Abort("incremental");
    inc_stats = *stats;
  }
  const double inc_ms = (NowSeconds() - start) * 1000;
  std::map<std::string, uint64_t> inc_counters = bench::DrainCounters();
  inc_counters["incremental.rechased"] = inc_stats.rows_rechased;
  inc_counters["incremental.replayed"] = inc_stats.rows_replayed;
  add("incremental_1pct", inc_ms, inc_stats.rows_rechased,
      std::move(inc_counters));
  std::printf("incremental (1%%)  %10.1f ms  (%zu re-chased, %zu replayed, "
              "%.1fx vs full)\n",
              inc_ms, inc_stats.rows_rechased, inc_stats.rows_replayed,
              inc_ms > 0 ? reclean_ms / inc_ms : 0.0);

  // The headline claim is only worth reporting if the bytes agree.
  if (inc_relation.ToCsv() != full_again.ToCsv() ||
      inc_log.ToJsonLines() != full_log.ToJsonLines()) {
    std::fprintf(stderr,
                 "FATAL: incremental output differs from full re-clean\n");
    return 1;
  }
  std::printf("byte-identity: incremental == full re-clean (csv + "
              "provenance)\n");

  // ---- Cold-start series: snapshot vs text KB load ----
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  const std::string nt_path = (dir / "bench_incremental_kb.nt").string();
  const std::string snap_path = (dir / "bench_incremental_kb.dkb").string();
  {
    std::ofstream out(nt_path, std::ios::trunc | std::ios::binary);
    out << ToNTriples(kb);
  }
  bench::DrainCounters();
  start = NowSeconds();
  WriteKbSnapshot(kb, snap_path).Abort("write snapshot");
  const double snap_write_ms = (NowSeconds() - start) * 1000;
  add("snapshot_write", snap_write_ms, 0, bench::DrainCounters());

  start = NowSeconds();
  LoadKbFile(nt_path).status().Abort("load text KB");
  const double text_ms = (NowSeconds() - start) * 1000;
  add("kbload(text)", text_ms, 0, bench::DrainCounters());

  start = NowSeconds();
  LoadKbSnapshot(snap_path).status().Abort("load snapshot");
  const double snap_ms = (NowSeconds() - start) * 1000;
  add("kbload(snapshot)", snap_ms, 0, bench::DrainCounters());
  std::printf("KB load: text %.1f ms, snapshot %.1f ms (%.1fx); snapshot "
              "write %.1f ms\n",
              text_ms, snap_ms, snap_ms > 0 ? text_ms / snap_ms : 0.0,
              snap_write_ms);
  std::error_code ec;
  fs::remove(nt_path, ec);
  fs::remove(snap_path, ec);

  if (!json.WriteTo(bench::FlagString(argc, argv, "json"))) return 1;
  return 0;
}

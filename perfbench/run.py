#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of Detective's three user paths.

    python3 perfbench/run.py --workload clean_100k|delta_1pct|serve_tuple|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the script builds the library,
the shipped tools and the two helpers of this directory into .bench_build/
(perfbench/CMakeLists.txt), generates every input from --seed with
`detective_datagen --dataset=uis` (Yago KB profile), and runs the programs
as child processes. The programs only ever see the generated files.

Workloads (100K-row dirty UIS relation):
  clean_100k   detective_clean --threads=4 with the text .nt KB, no
               provenance: KB parsing and the parallel chase dominate.
  delta_1pct   detective_clean --delta --prev-provenance --explain-json
               --threads=4 from the .dkb snapshot. The delta rewrites the
               Name cell of 1% of rows to row-unique values, so the affected
               closure is exactly the delta rows: provenance parse, plan and
               write dominate, the chase does little.
  serve_tuple  detective_serve --kb-snapshot --threads=2 on loopback, driven
               by perfbench_loadgen over 2 keep-alive connections: a closed
               loop to warm up and measure capacity, open loops at fixed
               light and busy rates, then a rate ladder.

--trace 0 prints the end-to-end metrics, measured on the programs with
tracing off. --trace 1 prints the per-layer metrics: perfbench_layers calls
each module's public functions in detective_clean's (or the daemon's) order
and times them from outside; the residual `*.unattributed_ms` is the median
CLI job wall time minus the layers. A layer that the workload's path does not
run reports 0.

setup_s is the median of several set-ups in one run: on clean_100k the
--threads=1 reference clean (3), on delta_1pct detective_kb_build plus the
full clean that writes the previous provenance (3), on serve_tuple the
daemon's spawn to its first /readyz 200 (25).

Correctness gates (each counted in `attempted`/`failed`):
  clean_100k   every job's CSV is byte-identical to a --threads=1 reference,
               and so is every repeat of that reference; datagen twice from
               one seed gives identical files.
  delta_1pct   every job's CSV and provenance are byte-identical to a full
               re-clean of the delta-applied relation; every repeat of the
               seeding set-up gives identical provenance.
  serve_tuple  every response is 200, not degraded, and its tuple equals
               that row of the batch reference.

Human-readable lines go first on stdout; the last line is the JSON result.
Exit 0 when every gate passed, 1 when a gate failed (after the result) or a
set-up step failed (no result), 2 when the build failed, 64 on usage.
"""

import argparse
import csv
import filecmp
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TOOLS = BUILD / "detective" / "tools"
TARGETS = ["detective_clean", "detective_serve", "detective_kb_build",
           "detective_datagen", "perfbench_layers", "perfbench_loadgen"]

ROWS = 100_000
BATCH_THREADS = 4
SERVE_THREADS = 2
CONNECTIONS = 2         # perfbench_loadgen's kConnections
DELTA_SHARE = 0.01
LIGHT_RPS = 1000        # well under capacity: the per-request floor
# About half of the closed-loop capacity (capacity_rps, 13-18K/s on a quiet
# 4-core host): at 70% (11000/s) a host slowdown pushed the busy p50 from
# 0.15 ms to seconds, since the open loop keeps sending past capacity.
BUSY_RPS = 8000
LADDER_RPS = (2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000, 24000)
LADDER_REQUESTS = 1500  # enough for a p99 with 15 samples beyond it
WARMUP_REQUESTS = 10000
LATENCY_LIMIT_US = 1000
MIN_JOBS = 3
SETUPS = 25
BATCH_SETUPS = 3        # set-ups timed per batch run; setup_s is their median
DAEMONS = 5
CHILD_TIMEOUT_S = 150
WORKLOADS = ["clean_100k", "delta_1pct", "serve_tuple"]

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
    "repair_precision": "ratio",
    "repair_recall": "ratio",
}

PER_LAYER = {
    "kb.text_load_ms": "ms",
    "kb.text_load_mb_per_s": "MB/s",
    "kb.snapshot_load_ms": "ms",
    "analysis.lint_ms": "ms",
    "analysis.stratify_ms": "ms",
    "relation.csv_load_ms": "ms",
    "relation.csv_write_ms": "ms",
    "core.chase_ms.t4": "ms",
    "core.chase_ms.t1": "ms",
    "core.chase_speedup": "ratio",
    "core.rule_checks": "count",
    "core.node_queries": "count",
    "kb.edge_checks": "count",
    "text.candidates_verified": "count",
    "text.candidates_per_probe": "ratio",
    "core.cache_hit_ratio": "ratio",
    "clean.job_ms": "ms",
    "clean.unattributed_ms": "ms",
    "core.delta_load_ms": "ms",
    "core.provenance_read_ms": "ms",
    "core.provenance_parse_ms": "ms",
    "core.provenance_parse_mb_per_s": "MB/s",
    "core.incremental_plan_ms": "ms",
    "core.rows_affected": "count",
    "core.incremental_repair_ms": "ms",
    "core.records_replayed": "count",
    "core.provenance_write_ms": "ms",
    "core.provenance_bytes": "bytes",
    "delta.job_ms": "ms",
    "delta.unattributed_ms": "ms",
    "serve.init_ms": "ms",
    "core.tuple_chase_p50_us": "us",
    "serve.service_p50_us": "us",
    "serve.service_p99_us": "us",
    "serve.queue_admission_us": "us",
    "obs.http_router_us": "us",
    "serve.requests_admitted": "count",
    "serve.requests_shed": "count",
    "core.cache_hit_ratio.serve": "ratio",
    "gen.late_p99_us": "us",
}

# Layers summed against the CLI job's wall time, in the CLI's call order.
CLEAN_LAYERS = ("kb.text_load_ms", "analysis.lint_ms", "relation.csv_load_ms",
                "analysis.stratify_ms", "core.chase_ms.t4",
                "relation.csv_write_ms")
DELTA_LAYERS = ("kb.snapshot_load_ms", "analysis.lint_ms",
                "relation.csv_load_ms", "core.delta_load_ms",
                "core.provenance_read_ms", "core.provenance_parse_ms",
                "core.incremental_plan_ms", "analysis.stratify_ms",
                "core.incremental_repair_ms", "relation.csv_write_ms",
                "core.provenance_write_ms")
COUNTERS = ("core.rule_checks", "core.node_queries", "kb.edge_checks",
            "text.candidates_verified", "text.candidates_per_probe",
            "core.cache_hit_ratio")
# The per-layer metrics each workload's path runs. The others report 0; a
# layer on the path that was not measured is an error, not a 0.
ON_PATH = {
    "clean_100k": {*CLEAN_LAYERS, *COUNTERS, "kb.text_load_mb_per_s", "core.chase_ms.t1",
                   "core.chase_speedup", "clean.job_ms", "clean.unattributed_ms"},
    "delta_1pct": {*DELTA_LAYERS, *COUNTERS, "core.provenance_parse_mb_per_s",
                   "core.rows_affected", "core.records_replayed", "core.provenance_bytes",
                   "delta.job_ms", "delta.unattributed_ms"},
    "serve_tuple": {*COUNTERS, "kb.snapshot_load_ms", "serve.init_ms", "analysis.lint_ms",
                    "analysis.stratify_ms",
                    "core.tuple_chase_p50_us", "serve.service_p50_us",
                    "serve.service_p99_us", "serve.queue_admission_us",
                    "obs.http_router_us", "serve.requests_admitted", "serve.requests_shed",
                    "core.cache_hit_ratio.serve", "gen.late_p99_us"},
}


class SetupError(Exception):
    """A step the measurement depends on failed; no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def read_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def same_file(a, b):
    return Path(a).exists() and Path(b).exists() and filecmp.cmp(a, b, shallow=False)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                return False
    return True


class Bench:
    def __init__(self, args, workload):
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.rng = random.Random(args.seed)
        self.work = BUILD / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.data = self.work / "data"
        self.stderr = open(self.work / "children.log", "w")
        self.live = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.lines = []

    # ---- bookkeeping ------------------------------------------------------

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def say(self, name, value, unit, samples, note=""):
        self.lines.append(f"{name:<26} {value:>14.4f} {unit:<6} n={samples}"
                          + (f"  {note}" if note else ""))

    # ---- children ---------------------------------------------------------

    def wait(self, proc, start, timeout=CHILD_TIMEOUT_S):
        """Waits for `proc`; returns (wall_s, exit_code, peak_rss_mb).

        The peak RSS is the child's own high-water mark from wait4, not the
        benchmark's.
        """
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc in self.live:
            self.live.remove(proc)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, cmd, stdout=subprocess.DEVNULL):
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                                stderr=self.stderr)
        self.live.append(proc)
        return self.wait(proc, start)

    def run_json(self, cmd):
        """Runs a helper that prints one JSON object; returns it or None."""
        out_path = self.work / "helper.out"
        with open(out_path, "w") as out:
            _, code, _ = self.run(cmd, stdout=out)
        if code != 0:
            return None
        lines = out_path.read_text().strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            self.wait(proc, time.perf_counter())
        self.stderr.close()

    # ---- inputs -----------------------------------------------------------

    def datagen(self, out_dir):
        wall, code, _ = self.run([TOOLS / "detective_datagen", "--dataset=uis",
                                  f"--out={out_dir}", f"--tuples={ROWS}",
                                  f"--seed={self.seed}"])
        if code != 0:
            raise SetupError(f"detective_datagen exited {code}")
        return wall

    def kb_build(self, out):
        wall, code, _ = self.run([TOOLS / "detective_kb_build",
                                  f"--kb={self.data / 'kb_yago.nt'}", f"--out={out}"])
        if code != 0:
            raise SetupError(f"detective_kb_build exited {code}")
        return wall

    def clean_cmd(self, output, threads=BATCH_THREADS, kb=None, input_csv=None,
                  extra=()):
        kb_flag = (f"--kb-snapshot={kb}" if kb else
                   f"--kb={self.data / 'kb_yago.nt'}")
        return [TOOLS / "detective_clean", kb_flag,
                f"--rules={self.data / 'rules.dr'}",
                f"--input={input_csv or self.data / 'dirty.csv'}",
                f"--output={output}", f"--threads={threads}", *extra]

    def reference_clean(self, output, **kwargs):
        _, code, _ = self.run(self.clean_cmd(output, **kwargs))
        if code != 0:
            raise SetupError(f"reference detective_clean exited {code}")

    def measured_loop(self, step):
        """Calls step() until --seconds have passed and it ran MIN_JOBS times.

        Dirty pages of the previous step (hundreds of MB of provenance on
        delta_1pct) are flushed first, so no step pays for another's writes.
        """
        start = time.perf_counter()
        count = 0
        while count < MIN_JOBS or time.perf_counter() - start < self.seconds:
            os.sync()
            step()
            count += 1

    # ---- clean_100k -------------------------------------------------------

    def clean_100k(self):
        self.datagen(self.data)
        reference = self.work / "ref_t1.csv"
        if self.trace:
            self.reference_clean(reference, threads=1)
            return self.clean_layers(reference)
        setups = self.reference_t1(reference)
        # A second generation from the same seed checks that the inputs are a
        # function of the seed.
        again = self.work / "data_again"
        self.datagen(again)
        for name in ("dirty.csv", "clean.csv", "kb_yago.nt", "rules.dr"):
            self.check(same_file(self.data / name, again / name),
                       f"datagen output {name} differs between two runs of one seed")
        shutil.rmtree(again)

        walls, rss = [], []
        output = self.work / "job.csv"

        def job():
            wall, code, peak = self.run(self.clean_cmd(output))
            self.check(code == 0 and same_file(output, reference),
                       f"clean job exit {code} or output differs from --threads=1")
            walls.append(wall)
            rss.append(peak)

        self.measured_loop(job)
        header, dirty = read_rows(self.data / "dirty.csv")
        _, clean = read_rows(self.data / "clean.csv")
        _, repaired = read_rows(reference)
        self.batch_metrics(setups, "--threads=1 reference clean", walls, rss,
                           stats.repair_quality(dirty, clean, repaired))

    def reference_t1(self, reference):
        """The set-up of clean_100k: the --threads=1 clean that every job is
        compared with, run BATCH_SETUPS times. Returns the wall times; every run
        after the first must repeat the reference byte for byte."""
        walls = []
        for attempt in range(BATCH_SETUPS):
            output = self.work / "ref_t1_again.csv" if attempt else reference
            os.sync()
            wall, code, _ = self.run(self.clean_cmd(output, threads=1))
            if code != 0:
                raise SetupError(f"reference detective_clean exited {code}")
            if attempt:
                self.check(same_file(output, reference),
                           "--threads=1 reference differs between runs")
            walls.append(wall)
        return walls

    def clean_layers(self, reference):
        walls, probes = [], []

        def step():
            output = self.work / "job.csv"
            wall, code, _ = self.run(self.clean_cmd(output))
            self.check(code == 0 and same_file(output, reference),
                       "clean job output differs from --threads=1")
            walls.append(wall * 1e3)
            layers = self.run_json([BUILD / "perfbench_layers", "clean",
                                    f"--kb={self.data / 'kb_yago.nt'}",
                                    f"--rules={self.data / 'rules.dr'}",
                                    f"--input={self.data / 'dirty.csv'}",
                                    f"--out={self.work}"])
            self.check(layers is not None
                       and same_file(self.work / "layers_t4.csv", reference)
                       and same_file(self.work / "layers_t1.csv", reference),
                       "layer probe failed or its repaired CSV differs")
            if layers:
                probes.append(layers)

        self.measured_loop(step)
        layer = self.layer_medians(probes)
        for name in ("kb.text_load_ms", "kb.text_load_mb_per_s", "analysis.lint_ms",
                     "analysis.stratify_ms", "relation.csv_load_ms",
                     "relation.csv_write_ms", "core.chase_ms.t4", "core.chase_ms.t1"):
            self.layer(name, layer[name])
        self.layer("core.chase_speedup",
                   stats.ratio(layer["core.chase_ms.t1"], layer["core.chase_ms.t4"]))
        self.counters(layer)
        job_ms = statistics.median(walls)
        self.layer("clean.job_ms", job_ms)
        self.layer("clean.unattributed_ms",
                   stats.residual(job_ms, [layer[n] for n in CLEAN_LAYERS]))
        self.lines.append(f"layer samples: {len(probes)} probe passes, {len(walls)} CLI jobs")

    # ---- delta_1pct -------------------------------------------------------

    def make_delta(self):
        """Rewrites Name in 1% of rows (seeded) to row-unique values."""
        header, dirty = read_rows(self.data / "dirty.csv")
        name = header.index("Name")
        picked = sorted(self.rng.sample(range(len(dirty)), int(len(dirty) * DELTA_SHARE)))
        updates = {}
        for row in picked:
            values = list(dirty[row])
            values[name] = f"Delta Student {row}"
            updates[row] = values
        write_rows(self.work / "delta.csv", ["row", *header],
                   [[row, *values] for row, values in updates.items()])
        after = [updates.get(i, values) for i, values in enumerate(dirty)]
        write_rows(self.work / "dirty_after.csv", header, after)
        return header, name, updates, after

    def seed_previous_run(self, kb, provenance):
        """The set-up of an increment: snapshot the KB, run the full clean
        that writes the previous provenance."""
        os.sync()
        wall = self.kb_build(kb)
        start = time.perf_counter()
        _, code, _ = self.run(self.clean_cmd(self.work / "seed.csv", kb=kb,
                                             extra=[f"--explain-json={provenance}"]))
        if code != 0:
            raise SetupError(f"seeding detective_clean exited {code}")
        return wall + time.perf_counter() - start

    def delta_cmd(self, output, provenance):
        return self.clean_cmd(output, kb=self.work / "kb.dkb", extra=[
            f"--delta={self.work / 'delta.csv'}",
            f"--prev-provenance={self.work / 'prev.jsonl'}",
            f"--explain-json={provenance}"])

    def delta_1pct(self):
        self.datagen(self.data)
        header, name, updates, after = self.make_delta()
        setups = [self.seed_previous_run(self.work / "kb.dkb", self.work / "prev.jsonl")]
        ref_csv, ref_prov = self.work / "ref.csv", self.work / "ref.jsonl"
        self.reference_clean(ref_csv, kb=self.work / "kb.dkb",
                             input_csv=self.work / "dirty_after.csv",
                             extra=[f"--explain-json={ref_prov}"])
        if self.trace:
            return self.delta_layers(ref_csv, ref_prov)
        # More set-ups for the median, each checked to repeat the first.
        for _ in range(BATCH_SETUPS - 1):
            setups.append(self.seed_previous_run(self.work / "kb_again.dkb",
                                                 self.work / "prev_again.jsonl"))
            self.check(same_file(self.work / "prev.jsonl", self.work / "prev_again.jsonl"),
                       "seeding provenance differs between two runs")
        for extra in ("kb_again.dkb", "prev_again.jsonl"):
            (self.work / extra).unlink()

        walls, rss = [], []
        out_csv, out_prov = self.work / "job.csv", self.work / "job.jsonl"

        def job():
            wall, code, peak = self.run(self.delta_cmd(out_csv, out_prov))
            self.check(code == 0 and same_file(out_csv, ref_csv)
                       and same_file(out_prov, ref_prov),
                       f"delta job exit {code} or output differs from a full re-clean")
            walls.append(wall)
            rss.append(peak)

        self.measured_loop(job)
        _, clean = read_rows(self.data / "clean.csv")
        truth = [list(values) for values in clean]
        for row, values in updates.items():
            truth[row][name] = values[name]
        _, repaired = read_rows(ref_csv)
        self.batch_metrics(setups, "detective_kb_build + seeding clean with provenance",
                           walls, rss, stats.repair_quality(after, truth, repaired))

    def delta_layers(self, ref_csv, ref_prov):
        walls, probes = [], []
        out_csv, out_prov = self.work / "job.csv", self.work / "job.jsonl"

        def step():
            wall, code, _ = self.run(self.delta_cmd(out_csv, out_prov))
            self.check(code == 0 and same_file(out_csv, ref_csv)
                       and same_file(out_prov, ref_prov),
                       "delta job output differs from a full re-clean")
            walls.append(wall * 1e3)
            layers = self.run_json([BUILD / "perfbench_layers", "delta",
                                    f"--kb-snapshot={self.work / 'kb.dkb'}",
                                    f"--rules={self.data / 'rules.dr'}",
                                    f"--input={self.data / 'dirty.csv'}",
                                    f"--delta={self.work / 'delta.csv'}",
                                    f"--prev-provenance={self.work / 'prev.jsonl'}",
                                    f"--out={self.work}"])
            self.check(layers is not None
                       and same_file(self.work / "layers_delta.csv", ref_csv)
                       and same_file(self.work / "layers_delta.jsonl", ref_prov),
                       "layer probe failed or its output differs from a full re-clean")
            if layers:
                probes.append(layers)

        self.measured_loop(step)
        layer = self.layer_medians(probes)
        for name in DELTA_LAYERS + ("core.provenance_parse_mb_per_s", "core.rows_affected",
                                    "core.records_replayed", "core.provenance_bytes"):
            self.layer(name, layer[name])
        self.counters(layer)
        job_ms = statistics.median(walls)
        self.layer("delta.job_ms", job_ms)
        self.layer("delta.unattributed_ms",
                   stats.residual(job_ms, [layer[n] for n in DELTA_LAYERS]))
        self.lines.append(f"layer samples: {len(probes)} probe passes, {len(walls)} CLI jobs")

    # ---- serve_tuple ------------------------------------------------------

    def start_daemon(self):
        """Spawns detective_serve; returns (proc, port, seconds to ready)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(TOOLS / "detective_serve"), f"--kb-snapshot={self.work / 'kb.dkb'}",
             f"--rules={self.data / 'rules.dr'}",
             f"--schema-csv={self.work / 'schema.csv'}",
             f"--threads={SERVE_THREADS}", "--port=0"],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.live.append(proc)
        line = proc.stdout.readline()
        if "127.0.0.1:" not in line:
            raise SetupError(f"detective_serve did not report its port: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        deadline = start + 60
        while time.perf_counter() < deadline:
            try:
                status, _ = self.http_get(port, "/readyz")
                if status == 200:
                    return proc, port, time.perf_counter() - start
            except OSError:
                pass
            time.sleep(0.001)
        raise SetupError("detective_serve never became ready")

    def stop_daemon(self, proc):
        proc.send_signal(signal.SIGTERM)
        _, code, peak = self.wait(proc, time.perf_counter(), timeout=30)
        proc.stdout.close()
        self.check(code == 0, f"detective_serve drained with exit {code}")
        return peak

    @staticmethod
    def http_get(port, path):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def serve_counters(self, port):
        status, body = self.http_get(port, "/metrics.json")
        if status != 200:
            raise SetupError(f"/metrics.json answered {status}")
        return json.loads(body)["counters"]

    def stage(self, port, rate, count, header, dirty, expected):
        """One loadgen stage over rows drawn by seed. Returns the rows and the
        (due, ready, send, done) records; a failed request's done is None."""
        rows = [self.rng.randrange(len(dirty)) for _ in range(count)]
        bodies = self.work / "bodies.txt"
        with open(bodies, "w") as f:
            for row in rows:
                f.write(json.dumps({"tuple": dict(zip(header, dirty[row]))},
                                   separators=(",", ":")) + "\n")
        out = self.work / "loadgen.out"
        _, code, _ = self.run([BUILD / "perfbench_loadgen", f"--port={port}",
                               f"--bodies={bodies}", f"--rate={rate}",
                               f"--count={count}", f"--out={out}"])
        records = [(0, 0, 0, None)] * count
        responses = [(0, "")] * count
        if code == 0:
            with open(out) as f:
                for i, line in enumerate(f):
                    fields = line.rstrip("\n").split("\t", 6)
                    records[i] = tuple(int(x) for x in fields[1:5])
                    responses[i] = (int(fields[5]), fields[6])
        else:
            self.problems.append(f"perfbench_loadgen exited {code}")
        served = []
        for i, row in enumerate(rows):
            status, body = responses[i]
            got, ok = list(dirty[row]), False
            if status == 200:
                try:
                    outcome = json.loads(body)
                    got = [outcome["tuple"][c] for c in header]
                    ok = outcome["degraded"] is False and got == expected[row]
                except (ValueError, KeyError, TypeError):
                    pass
            served.append(got)
            self.check(ok, f"request for row {row} failed or differs from batch")
            if not ok:
                records[i] = (*records[i][:3], None)
        return rows, records, served

    @staticmethod
    def latencies(records):
        """Latency from due time in us; a failed request never meets a limit."""
        finished = [r for r in records if r[3] is not None]
        latencies, lateness = stats.open_loop(finished)
        latencies += [math.inf] * (len(records) - len(finished))
        return latencies, lateness

    def serve_inputs(self):
        self.datagen(self.data)
        self.kb_build(self.work / "kb.dkb")
        reference = self.work / "ref.csv"
        self.reference_clean(reference, kb=self.work / "kb.dkb")
        header, dirty = read_rows(self.data / "dirty.csv")
        # The daemon reads only the header of --schema-csv; a header-only file
        # keeps parsing the 100K rows out of its start-up and its RSS.
        write_rows(self.work / "schema.csv", header, [])
        _, expected = read_rows(reference)
        _, clean = read_rows(self.data / "clean.csv")
        return header, dirty, expected, clean

    def serve_tuple(self):
        header, dirty, expected, clean = self.serve_inputs()
        if self.trace:
            return self.serve_layers(header, dirty, expected)
        # Start-up and latency both move by about 10% from one daemon process
        # to the next, and a host stall of a second or two pushes one busy
        # stage past capacity. So a run times SETUPS start-ups, runs the busy
        # stage on the last DAEMONS of them and reports the median of their
        # p50s; the pooled p50 and p99 keep the stalls in view.
        setups, peaks, capacities, busy, busy_p50s, quality_rows = [], [], [], [], [], []
        busy_count = max(1100, int(BUSY_RPS * self.seconds * 0.35 / DAEMONS))
        for attempt in range(SETUPS):
            proc, port, ready_s = self.start_daemon()
            setups.append(ready_s)
            if attempt < SETUPS - DAEMONS:
                self.stop_daemon(proc)
                continue
            _, warm, _ = self.stage(port, 0, WARMUP_REQUESTS, header, dirty, expected)
            warm_done = [r for r in warm if r[3] is not None]
            span_s = (max(r[3] for r in warm_done) - min(r[2] for r in warm_done)) / 1e9 \
                if warm_done else 0
            capacities.append(stats.ratio(len(warm_done), span_s))
            rows, records, served = self.stage(port, BUSY_RPS, busy_count, header, dirty,
                                               expected)
            quality_rows += list(zip(rows, served))
            busy += records
            busy_p50s.append(statistics.median(self.latencies(records)[0]))
            if attempt < SETUPS - 1:
                peaks.append(self.stop_daemon(proc))

        light_count = max(1100, int(LIGHT_RPS * self.seconds * 0.15))
        rows, light, served = self.stage(port, LIGHT_RPS, light_count, header, dirty, expected)
        quality_rows += list(zip(rows, served))
        for label, rate, records in (("light", LIGHT_RPS, light), ("busy", BUSY_RPS, busy)):
            latencies, lateness = self.latencies(records)
            self.say(f"p50_us.{label}", statistics.median(latencies), "us", len(latencies),
                     f"open loop {rate}/s over {CONNECTIONS} connections, from due time")
            self.say(f"p99_us.{label}", stats.percentile(latencies, 0.99), "us",
                     len(latencies))
            self.say(f"gen.late_p99_us.{label}", stats.percentile(lateness, 0.99), "us",
                     len(lateness), "generator lateness (send - ready)")

        def rung(rate):
            _, records, _ = self.stage(port, rate, LADDER_REQUESTS, header, dirty, expected)
            finished = [r for r in records if r[3] is not None]
            growing = (len(finished) < len(records)
                       or stats.backlog_growing(finished, LATENCY_LIMIT_US))
            return stats.percentile(self.latencies(records)[0], 0.99), growing

        max_rps, rungs = stats.ladder_search(LADDER_RPS, rung, LATENCY_LIMIT_US)
        peaks.append(self.stop_daemon(proc))
        peak = statistics.median(peaks)

        rows = [row for row, _ in quality_rows]
        precision, recall = stats.repair_quality(
            [dirty[r] for r in rows], [clean[r] for r in rows],
            [served for _, served in quality_rows])
        ladder = " ".join(f"{rate}:{p99:.0f}us{'+backlog' if grow else ''}"
                          for rate, p99, grow in rungs)
        self.say("max_rps_p99_1ms", max_rps, "1/s",
                 len(rungs), f"ladder rate:p99 {ladder}")
        self.say("capacity_rps", statistics.median(capacities), "1/s", len(capacities),
                 f"closed loop over {CONNECTIONS} connections (warm-up), median of daemons")
        self.put("setup_s", statistics.median(setups), "s")
        self.put("latency_ms", statistics.median(busy_p50s) / 1e3, "ms")
        self.put("peak_rss_mb", peak, "MB")
        self.put("repair_precision", precision, "ratio")
        self.put("repair_recall", recall, "ratio")
        self.say("setup_s", statistics.median(setups), "s", len(setups), "spawn to /readyz 200")
        self.say("latency_ms", statistics.median(busy_p50s) / 1e3, "ms", len(busy_p50s),
                 "median of the daemons' busy p50s")
        self.lines.append(f"busy stage pooled over {DAEMONS} daemons; light and ladder "
                          "on the last one")
        self.say("peak_rss_mb", peak, "MB", len(peaks), "daemon's own peak RSS")
        self.say("repair_precision", precision, "ratio", len(rows), "cells of served tuples")
        self.say("repair_recall", recall, "ratio", len(rows))

    def serve_layers(self, header, dirty, expected):
        proc, port, _ = self.start_daemon()
        self.stage(port, 0, WARMUP_REQUESTS, header, dirty, expected)
        before = self.serve_counters(port)
        count = max(1100, int(BUSY_RPS * self.seconds * 0.35))
        rows, records, _ = self.stage(port, BUSY_RPS, count, header, dirty, expected)
        after = self.serve_counters(port)
        self.stop_daemon(proc)
        latencies, lateness = self.latencies(records)

        rows_file = self.work / "rows.txt"
        rows_file.write_text("".join(f"{row}\n" for row in rows))
        layers = self.run_json([BUILD / "perfbench_layers", "serve",
                                f"--kb-snapshot={self.work / 'kb.dkb'}",
                                f"--rules={self.data / 'rules.dr'}",
                                f"--input={self.data / 'dirty.csv'}",
                                f"--rows={rows_file}", f"--rate={BUSY_RPS}",
                                f"--count={count}"])
        self.check(layers is not None and layers["serve.failed"] == 0,
                   "in-process service run failed or degraded requests")
        if layers is None:
            return
        for name in ("kb.snapshot_load_ms", "serve.init_ms", "analysis.lint_ms",
                     "analysis.stratify_ms"):
            self.layer(name, layers[name])
        self.counters(layers)
        chase_p50 = statistics.median(layers["tuple_chase_us"])
        service_p50 = statistics.median(layers["service_us"])
        self.layer("core.tuple_chase_p50_us", chase_p50)
        self.layer("serve.service_p50_us", service_p50)
        self.layer("serve.service_p99_us", stats.percentile(layers["service_us"], 0.99))
        self.layer("serve.queue_admission_us", service_p50 - chase_p50)
        self.layer("obs.http_router_us", statistics.median(latencies) - service_p50)
        delta = {k: after.get(k, 0) - before.get(k, 0)
                 for k in ("serve.requests_admitted", "serve.requests_shed",
                           "cache.hits", "cache.misses")}
        self.layer("serve.requests_admitted", delta["serve.requests_admitted"])
        self.layer("serve.requests_shed", delta["serve.requests_shed"])
        self.layer("core.cache_hit_ratio.serve",
                   stats.ratio(delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]))
        self.layer("gen.late_p99_us", stats.percentile(lateness, 0.99))
        self.lines.append(f"layer samples: {len(layers['tuple_chase_us'])} tuple chases, "
                          f"{len(layers['service_us'])} in-process requests, "
                          f"{len(latencies)} HTTP requests at {BUSY_RPS}/s")

    # ---- shared reporting -------------------------------------------------

    def batch_metrics(self, setups, setup_note, walls, rss, quality):
        precision, recall = quality
        self.put("setup_s", statistics.median(setups), "s")
        self.put("latency_ms", statistics.median(walls) * 1e3, "ms")
        self.put("peak_rss_mb", statistics.median(rss), "MB")
        self.put("repair_precision", precision, "ratio")
        self.put("repair_recall", recall, "ratio")
        self.say("job_s", statistics.median(walls), "s", len(walls),
                 f"launch to exit; min {min(walls):.3f} max {max(walls):.3f}")
        self.say("setup_s", statistics.median(setups), "s", len(setups), setup_note)
        self.say("peak_rss_mb", statistics.median(rss), "MB", len(rss), "job's own peak RSS")
        self.say("repair_precision", precision, "ratio", ROWS, "cell level vs clean.csv")
        self.say("repair_recall", recall, "ratio", ROWS)

    def layer(self, name, value):
        self.put(name, value, PER_LAYER[name])

    @staticmethod
    def layer_medians(probes):
        if not probes:
            raise SetupError("no layer probe pass succeeded")
        return {name: statistics.median([p[name] for p in probes])
                for name, value in probes[0].items() if not isinstance(value, list)}

    def counters(self, layer):
        self.layer("core.rule_checks", layer["repair.rule_checks"])
        self.layer("core.node_queries", layer["matcher.node_queries"])
        self.layer("kb.edge_checks", layer["kb.edge_checks"])
        self.layer("text.candidates_verified", layer["sigindex.candidates_verified"])
        self.layer("text.candidates_per_probe",
                   stats.ratio(layer["sigindex.candidates_verified"], layer["sigindex.probes"]))
        self.layer("core.cache_hit_ratio",
                   stats.ratio(layer["cache.hits"], layer["cache.hits"] + layer["cache.misses"]))

    def result(self):
        names = PER_LAYER if self.trace else END_TO_END
        expected = ON_PATH[self.workload] if self.trace else set(END_TO_END)
        missing = sorted(expected - self.metrics.keys())
        if missing:
            raise SetupError(f"metrics not measured: {missing}")
        if self.trace:
            for name in PER_LAYER.keys() - expected:
                self.metrics.setdefault(name, {"value": 0.0, "unit": PER_LAYER[name]})
        metrics = {name: self.metrics[name] for name in names}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    try:
        args = parser.parse_args()
    except SystemExit:
        return 64
    if not build():
        log(f"build failed; see {BUILD / 'build.log'}")
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_workload(args, workload) for workload in workloads)


def run_workload(args, workload):
    bench = Bench(args, workload)
    try:
        getattr(bench, workload)()
        result = bench.result()
    except SetupError as error:
        log(f"{workload}: set-up failed: {error}")
        return 1
    finally:
        bench.stop_all()
    bench.say("failed_pct", 100.0 * result["failed"] / max(1, result["attempted"]), "%",
              result["attempted"], "failed or wrong operations")
    print(f"# {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in bench.lines:
        print(line)
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

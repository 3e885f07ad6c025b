#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json files against committed baselines.

Two invocation modes:

  check_bench_regression.py FRESH.json BASELINE.json     # one pair
  check_bench_regression.py --baseline-dir bench/baselines --fresh-dir .

Directory mode pairs every BENCH_*.json in --baseline-dir with the
same-named file in --fresh-dir and compares each pair; a baseline whose
fresh counterpart is missing is a note (a failure under --strict). A fresh
BENCH_*.json with no committed baseline is always an error — a new
benchmark must land together with its baseline, otherwise it would never
be compared and regressions in it would go unnoticed.

All files must follow the schema emitted by bench/bench_util.h
(BenchJsonWriter): {"schema_version": 1, "bench": ..., "entries":
[{"series", "x", "wall_ms", "counters"}, ...]}.

Entries are matched by (series, x). Counters present in both entries must
match the baseline EXACTLY by default (they count work, not time — any
drift is a behaviour change); wall_ms must stay within --wall-tolerance.
Entries only present on one side are reported but are not failures
(benchmarks come and go), unless --strict is given.

Per-metric tolerance bands override the defaults for metrics that are
legitimately noisy. --band PATTERN=TOL is repeatable; PATTERN is an
fnmatch pattern tested against the metric id, which is

  "<series>/wall_ms"   for wall-clock values, and
  "<counter name>"     for counters (e.g. "matcher.memo_hits");

TOL is a relative band (0.25 = +/-25%), "inf" (any value passes), or
"skip" (the metric is not compared at all). The first matching band wins.
Example — work stealing hands chunks to workers in claim order, so the
steal count is nondeterministic under threads while the work is not, and
the benches publish the counters a multi-threaded chase cannot pin under a
"sched." prefix (bench/bench_util.h ScheduleDependent):

  --band 'steal.count=inf' --band 'sched.*=0.15'

A few metric shapes are banded BY DEFAULT (DEFAULT_BANDS below): latency
percentiles (*p50_us/*p95_us/*p99_us), throughput (*_rps), shed rates
(*shed_pct), and peak memory (*rss_bytes, +/-10%) are environment
measurements smuggled into counters — p99 on a shared CI runner is
legitimately noisy — so they get a documented generous tolerance instead
of the exact-match counter default. User --band entries are matched first,
so a caller can still tighten, loosen, or skip them.

Latency and throughput bands are one-sided (ONE_SIDED below): a latency
percentile fails only when it rises past baseline*(1+TOL), a throughput
only when it falls below baseline/(1+TOL). A faster run is not a
regression. Every other band is symmetric, counters included.

--update refreshes the baselines instead of comparing: each fresh file is
copied over its baseline counterpart (pair mode: FRESH over BASELINE).
Run the benches on a quiet machine, eyeball the diff, and commit.

Exit status: 0 when everything is within tolerance, 1 on regressions or
malformed input.
"""

import argparse
import fnmatch
import glob
import json
import os
import shutil
import sys


# Default tolerance bands for time-derived counter metrics, tried AFTER any
# user-provided --band entries (first match wins, so user bands override).
# Latency percentiles get wider bands toward the tail: p50 is fairly stable
# under load, p99 is one scheduling hiccup away from doubling.
DEFAULT_BANDS = [
    ("*p50_us", 2.0),
    ("*p95_us", 3.0),
    ("*p99_us", 4.0),
    ("*_rps", 1.0),
    ("*shed_pct", 1.0),
    # Peak RSS is an environment measurement, not a work counter: allocator
    # arena sizing and runner image drift move it a few percent run to run.
    ("*rss_bytes", 0.10),
]

# Metric shapes with a better direction: the band only bounds the worse
# side. Looked up by metric id, whichever band (user or default) matched.
ONE_SIDED = [
    ("*p50_us", "lower"),
    ("*p95_us", "lower"),
    ("*p99_us", "lower"),
    ("*_rps", "higher"),
]


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema_version") != 1:
        raise ValueError(f"{path}: schema_version != 1")
    entries = {}
    for entry in doc["entries"]:
        key = (entry["series"], entry["x"])
        if key in entries:
            raise ValueError(f"{path}: duplicate entry for {key}")
        entries[key] = entry
    return doc.get("bench", "?"), entries


def within(fresh, baseline, tolerance, better=None):
    """True when fresh is inside [baseline/(1+t), baseline*(1+t)].

    better="lower" drops the lower bound and better="higher" the upper one.
    """
    if tolerance == float("inf"):
        return True
    if baseline == 0:
        if better == "higher":
            return True
        return fresh == 0 if tolerance == 0 else fresh <= tolerance
    ratio = fresh / baseline
    low_ok = better == "lower" or 1 / (1 + tolerance) <= ratio
    high_ok = better == "higher" or ratio <= 1 + tolerance
    return low_ok and high_ok


def direction_for(metric_id):
    """"lower"/"higher" for a one-sided metric shape, else None."""
    for pattern, better in ONE_SIDED:
        if fnmatch.fnmatchcase(metric_id, pattern):
            return better
    return None


def parse_band(spec):
    """Parses one PATTERN=TOL band; TOL is a float, 'inf', or 'skip'."""
    pattern, sep, value = spec.rpartition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(f"band {spec!r} is not PATTERN=TOL")
    if value == "skip":
        return pattern, None
    try:
        tolerance = float(value)  # accepts 'inf'
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"band {spec!r}: TOL must be a float, 'inf', or 'skip'"
        ) from error
    if tolerance < 0:
        raise argparse.ArgumentTypeError(f"band {spec!r}: TOL must be >= 0")
    return pattern, tolerance


def tolerance_for(metric_id, default, bands):
    """The first matching band tolerance, else the default.

    User-provided bands are consulted first, then DEFAULT_BANDS, so an
    explicit --band always overrides the built-in latency/throughput bands.
    Returns None when the metric should be skipped entirely.
    """
    for pattern, tolerance in list(bands) + DEFAULT_BANDS:
        if fnmatch.fnmatchcase(metric_id, pattern):
            return tolerance
    return default


def compare(fresh_path, baseline_path, args):
    """Compares one fresh/baseline pair; returns the list of failures."""
    try:
        fresh_name, fresh = load(fresh_path)
        base_name, baseline = load(baseline_path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as error:
        return [f"error: {error}"]
    if fresh_name != base_name:
        return [f"bench mismatch: fresh={fresh_name!r} baseline={base_name!r}"]

    failures = []
    compared = 0
    for key in sorted(set(fresh) | set(baseline), key=str):
        series, x = key
        label = f"{series} @ x={x}"
        if key not in fresh or key not in baseline:
            side = "baseline" if key not in fresh else "fresh run"
            print(f"  note: {label} missing from {side}")
            if args.strict:
                failures.append(f"{label}: missing entry")
            continue
        f, b = fresh[key], baseline[key]
        if not args.counters_only:
            wall_tolerance = tolerance_for(
                f"{series}/wall_ms", args.wall_tolerance, args.band
            )
            fw, bw = f["wall_ms"], b["wall_ms"]
            if wall_tolerance is not None and max(fw, bw) >= args.min_wall_ms:
                compared += 1
                if not within(fw, bw, wall_tolerance):
                    failures.append(
                        f"{label}: wall_ms {bw:.4f} -> {fw:.4f} "
                        f"({fw / bw:+.1%} of baseline)" if bw else
                        f"{label}: wall_ms 0 -> {fw:.4f}"
                    )
        shared = set(f.get("counters", {})) & set(b.get("counters", {}))
        for counter in sorted(shared):
            counter_tolerance = tolerance_for(
                counter, args.counter_tolerance, args.band
            )
            if counter_tolerance is None:
                continue
            fc, bc = f["counters"][counter], b["counters"][counter]
            compared += 1
            if not within(fc, bc, counter_tolerance, direction_for(counter)):
                failures.append(f"{label}: counter {counter} {bc} -> {fc}")

    print(
        f"compared {compared} values across {len(set(fresh) & set(baseline))} "
        f"entries of bench {fresh_name!r} (wall +/-{args.wall_tolerance:.0%}, "
        f"counters +/-{args.counter_tolerance:.0%}, {len(args.band)} band(s))"
    )
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="?", help="newly generated BENCH_*.json")
    parser.add_argument("baseline", nargs="?", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--baseline-dir",
        help="directory of committed baselines; compares every BENCH_*.json in it",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        help="directory holding the fresh runs for --baseline-dir (default: .)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="legacy alias: sets --wall-tolerance (and --counter-tolerance if "
        "that is not given)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        help="allowed relative wall_ms deviation, e.g. 0.25 = +/-25%% (default)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=None,
        help="allowed relative counter deviation (default 0.0: exact match)",
    )
    parser.add_argument(
        "--band",
        type=parse_band,
        action="append",
        default=[],
        metavar="PATTERN=TOL",
        help="per-metric tolerance override (repeatable; first match wins). "
        "PATTERN fnmatches '<series>/wall_ms' or a counter name; TOL is a "
        "float, 'inf', or 'skip'",
    )
    parser.add_argument(
        "--min-wall-ms",
        type=float,
        default=0.001,
        help="skip wall_ms comparison below this value (clock-noise floor)",
    )
    parser.add_argument(
        "--counters-only",
        action="store_true",
        help="compare only counters, not wall_ms (machine-independent mode)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="entries missing from either side are failures too",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy each fresh file over its baseline instead of comparing",
    )
    args = parser.parse_args()

    # Resolve the tolerance defaults: the legacy --tolerance feeds both knobs
    # unless the specific one is given; otherwise wall +/-25%, counters exact.
    if args.wall_tolerance is None:
        args.wall_tolerance = args.tolerance if args.tolerance is not None else 0.25
    if args.counter_tolerance is None:
        args.counter_tolerance = args.tolerance if args.tolerance is not None else 0.0

    if args.baseline_dir:
        if args.fresh or args.baseline:
            parser.error("--baseline-dir replaces the positional FRESH/BASELINE pair")
        baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
        if not baselines:
            print(f"error: no BENCH_*.json under {args.baseline_dir}", file=sys.stderr)
            return 1
        pairs = []
        for baseline_path in baselines:
            fresh_path = os.path.join(args.fresh_dir, os.path.basename(baseline_path))
            if not os.path.exists(fresh_path):
                print(f"  note: no fresh run for {os.path.basename(baseline_path)}")
                if args.strict and not args.update:
                    pairs.append((None, baseline_path))
                continue
            pairs.append((fresh_path, baseline_path))
        baseline_names = {os.path.basename(path) for path in baselines}
        unmatched = sorted(
            path
            for path in glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json"))
            if os.path.basename(path) not in baseline_names
        )
        if unmatched and args.update:
            # New benchmark: --update seeds its first baseline.
            for path in unmatched:
                pairs.append((path, os.path.join(args.baseline_dir,
                                                 os.path.basename(path))))
        elif unmatched:
            for path in unmatched:
                print(
                    f"error: {os.path.basename(path)} has no baseline under "
                    f"{args.baseline_dir}; commit one (run with --update, see "
                    f"docs/performance.md) so it is compared",
                    file=sys.stderr,
                )
            return 1
    else:
        if not args.fresh or not args.baseline:
            parser.error("need FRESH and BASELINE files (or --baseline-dir)")
        pairs = [(args.fresh, args.baseline)]

    if args.update:
        for fresh_path, baseline_path in pairs:
            load(fresh_path)  # refuse to install malformed baselines
            shutil.copyfile(fresh_path, baseline_path)
            print(f"updated {baseline_path} from {fresh_path}")
        print(f"{len(pairs)} baseline(s) refreshed")
        return 0

    failures = []
    for fresh_path, baseline_path in pairs:
        if fresh_path is None:
            failures.append(f"{os.path.basename(baseline_path)}: no fresh run")
            continue
        print(f"== {fresh_path} vs {baseline_path}")
        failures.extend(compare(fresh_path, baseline_path, args))

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

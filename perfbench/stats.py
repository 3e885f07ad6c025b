"""Arithmetic of the benchmark: percentiles, residuals, ratios, open-loop
lateness, the rate ladder and cell-level repair quality.

Everything here is a pure function of its arguments so that test_stats.py
can pin it down without running the programs.
"""

import math
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`.

    Raises ValueError when fewer than MIN_SAMPLES_BEYOND samples lie beyond
    the reported rank, so a p99 needs at least 1000 samples.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}")
    return sorted(samples)[rank - 1]


def ratio(numerator, denominator):
    """numerator / denominator; 0 when the layer did no work (denominator 0)."""
    return numerator / denominator if denominator else 0.0


def residual(total, parts):
    """The part of `total` that the measured `parts` do not cover."""
    return total - sum(parts)


def open_loop(records):
    """Latency and generator lateness of one open-loop stage.

    `records` holds (due_ns, ready_ns, send_ns, done_ns) per request. A
    request's latency runs from when it was due, so time it spent waiting
    behind a stalled earlier request on its connection counts. The
    generator's own lateness is send - ready, where ready is the later of the
    due time and the connection's previous response.
    Returns (latencies_us, lateness_us).
    """
    latencies = [(done - due) / 1e3 for due, _, _, done in records]
    lateness = [(send - ready) / 1e3 for _, ready, send, _ in records]
    return latencies, lateness


def backlog_growing(records, limit_us):
    """True when requests start further behind schedule as the stage runs.

    Compares the median start delay (send - due) of the last quarter of the
    schedule with that of the first quarter; a rise of more than `limit_us`
    means the system is not keeping up with the offered rate.
    """
    ordered = sorted(records)
    quarter = max(1, len(ordered) // 4)
    delay = [(send - due) / 1e3 for due, _, send, _ in ordered]
    return (statistics.median(delay[-quarter:])
            - statistics.median(delay[:quarter]) > limit_us)


def ladder_search(rates, measure, limit_us):
    """Highest rate on a fixed ladder whose p99 meets `limit_us` without a
    growing backlog.

    Calls measure(rate) -> (p99_us, backlog_growing) for each rate in
    ascending order and stops after the first rung whose backlog grows, since
    every higher rate is past capacity too. Returns (best_rate, rungs), where
    best_rate is 0 when no rung meets the limit and rungs holds
    (rate, p99_us, growing) for every rate measured.
    """
    best, rungs = 0, []
    for rate in rates:
        p99_us, growing = measure(rate)
        rungs.append((rate, p99_us, growing))
        if p99_us <= limit_us and not growing:
            best = rate
        if growing:
            break
    return best, rungs


def repair_quality(dirty, clean, repaired):
    """Cell-level (precision, recall) of `repaired` against ground truth.

    Rows are sequences of cell values, aligned across the three inputs. A
    cell is changed when repaired differs from dirty, an error when dirty
    differs from clean, and correctly repaired when changed and equal to
    clean. precision = correct / changed, recall = correct / errors.
    """
    changed = errors = correct = 0
    for d_row, c_row, r_row in zip(dirty, clean, repaired, strict=True):
        for d, c, r in zip(d_row, c_row, r_row, strict=True):
            if r != d:
                changed += 1
                correct += r == c
            errors += d != c
    return ratio(correct, changed), ratio(correct, errors)

"""Statistics helpers shared by the benchmark runner and its tests.

Timings are summarised by their median and by a tail: the highest percentile
of a fixed ladder that still has at least ten samples beyond it, reported with
its sample count. A run repeats its seeded work over several passes and
counts each op at its fastest repeat. Run-to-run spread is the distance
between the first and third quartile as a share of the median.
"""

import math
import statistics

# Candidate tail percentiles, highest first. Capped at p95: on a 4-vCPU machine
# shared with other tenants, daemon_mixed's update p99 (about 9000 samples a
# run) spread 0.26 of its median across ten seeds, its p95 0.16. The cap also
# keeps the percentile a metric reports from flipping between runs whose
# sample counts differ a little.
TAIL_LADDER = (95.0, 90.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles(n=4)."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """(p, value, n) for the highest ladder percentile with min_beyond samples beyond.

    With too few samples for any ladder percentile the tail is the median (p50).
    """
    n = len(values)
    for p in sorted(ladder, reverse=True):
        if beyond(n, p) >= min_beyond:
            return p, percentile(values, p), n
    return 50.0, median(values), n


def fastest(values, keys):
    """{key: smallest value} over the values recorded under each key."""
    best = {}
    for value, key in zip(values, keys):
        best[key] = min(value, best.get(key, value))
    return best


def best_of_repeats(op_ms, op_key, pass_s, pass_ops, pass_key):
    """Reduces a run whose passes repeat seeded work: (p50, (p, tail, n), ops_per_s).

    op_ms[i] timed op op_key[i]; equal keys are the same deterministic op
    repeated in different passes. Each op counts once, at its fastest repeat,
    and the median and tail are taken over those n times. Pass k took
    pass_s[k] seconds for pass_ops[k] ops; passes of equal pass_key did the
    same work, and each kind counts once, at its fastest: ops_per_s is their
    ops over their summed seconds. Interference from other tenants of a
    shared machine only ever adds time, so the fastest repeat is the one
    nearest the program's own cost.
    """
    best = list(fastest(op_ms, op_key).values())
    if not best:
        raise ValueError("no op samples")
    walls = fastest(pass_s, pass_key)
    ops = {key: n for seconds, n, key in zip(pass_s, pass_ops, pass_key) if seconds == walls[key]}
    return median(best), tail(best), sum(ops.values()) / sum(walls.values())


def emit(values, specs):
    """{"name": {"value", "unit"}} for every spec, in spec order.

    Raises KeyError when a named metric was not measured, so no metric is
    ever silently dropped from the report.
    """
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }


def _rank(n, p):
    return max(1, math.ceil(p / 100.0 * n - 1e-9))

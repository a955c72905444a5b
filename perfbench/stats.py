"""Arithmetic behind the benchmark's figures: quartiles, the tail rule,
failure counting, self time of nested spans, and the compare verdict.

Standard library only, so the set-up probe can import it before timing
starts and the self-tests run without numpy.
"""

from __future__ import annotations

import statistics

UNDECIDED = "UNDECIDED"
CRASH = "CRASH"

TAIL_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond: int = TAIL_BEYOND):
    """The value at the highest percentile that has at least ``beyond``
    samples above it, as (value, percentile, samples_beyond).

    With n samples sorted ascending this is the (n − beyond)-th one, at
    percentile 100·(n − beyond)/n. When n ≤ beyond no percentile qualifies;
    the maximum is returned at percentile 100 with 0 samples beyond, so a
    reader can see the rule was not met.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n > beyond:
        return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond
    return xs[-1], 100.0, 0


def speed_scaled(op_seconds, probe_seconds, nominal: float) -> float:
    """Total op time rescaled to a machine on which the speed probe takes
    ``nominal`` seconds: sum(op_seconds) * nominal / mean(probe_seconds).
    """
    if not op_seconds or not probe_seconds:
        raise ValueError("no samples")
    return sum(op_seconds) * nominal / statistics.fmean(probe_seconds)


def is_failed(record: dict) -> bool:
    """An op fails when it crashed, ended UNDECIDED, or its outcome (a
    verdict or an exit code) differs from the ground truth."""
    outcome = record["results"].get("outcome")
    return outcome in (CRASH, UNDECIDED) or outcome != record["expected"]


def failed_share(records) -> float:
    """Share of attempted ops that failed against the ground truth."""
    records = list(records)
    if not records:
        raise ValueError("no ops attempted")
    return sum(is_failed(r) for r in records) / len(records)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    ``spans`` is a sequence of (name, start, end, parent, op) with ``parent``
    the index of the parent span or -1. Overlapping children are merged, and
    children are clipped to their parent's interval.
    """
    children = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def compare(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Compare one metric of one workload between two commits.

    ``parent`` and ``change`` map run seed → value. Pairs are the seeds both
    sides ran. The verdict: ``better`` when
    the change wins at least nine tenths of all pairs (ties count for
    neither side) and the medians differ by more than the parent's
    quartile spread; ``worse`` by the mirror rule; else ``unresolved``.
    ``within_bound`` says whether the change's median is no worse than the
    parent's by more than ``bound`` (a share of the parent's median); it is
    None when ``bound`` is None.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    pa, pb = quartiles(parent.values()), quartiles(change.values())
    seeds = sorted(set(parent) & set(change))
    wins_parent = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    wins_change = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    spread = pa[2] - pa[0]
    gain = sign * (pa[1] - pb[1])
    if seeds and wins_change >= 0.9 * len(seeds) and gain > spread:
        verdict = "better"
    elif seeds and wins_parent >= 0.9 * len(seeds) and -gain > spread:
        verdict = "worse"
    else:
        verdict = "unresolved"
    if pa[1]:
        worsening = -gain / abs(pa[1])
    else:
        worsening = 0.0 if gain >= 0 else float("inf")
    return {
        "parent": pa,
        "change": pb,
        "pairs": len(seeds),
        "wins_parent": wins_parent,
        "wins_change": wins_change,
        "verdict": verdict,
        "within_bound": None if bound is None else worsening <= bound,
    }

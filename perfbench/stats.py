"""Harness arithmetic: span self time, percentiles, throughput.

Pure functions over plain numbers, so `selftest.py` can check each one
against hand-computed fixtures.
"""
from __future__ import annotations

import math

# Percentiles the tail rule may pick from, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    `spans` is a sequence of (parent_index, start, end); parent_index is
    None for a root or the index of the enclosing span in the same
    sequence.  Children lie inside their parent's interval, so summing
    their durations is the part of the parent they cover.
    """
    out = [end - start for _, start, end in spans]
    for parent, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence (rank ceil(p*n/100))."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct * n / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (pct, value, n).  With fewer than 20 samples no percentile
    has ten beyond it; the median is returned then, as pct 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = 50.0
    for pct in PERCENTILE_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0))
        if n - rank >= MIN_BEYOND:
            chosen = pct
    return chosen, nearest_rank(ordered, chosen), n


def windows_per_second(periods):
    """Training throughput over periods of (windows, epochs, seconds_per_epoch).

    Windows times epochs over training seconds, summed across periods, so
    each period weighs by the time it took rather than counting once.
    """
    work = sum(w * e for w, e, _ in periods)
    seconds = sum(s * e for _, e, s in periods)
    if seconds <= 0:
        raise ValueError("no training time in %r" % (periods,))
    return work / seconds

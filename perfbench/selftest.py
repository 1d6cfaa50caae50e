"""Hand-computed fixtures for the harness arithmetic.

    python3 perfbench/selftest.py

Every benchmark run calls `run_all()` first and reports itself incorrect
if a fixture fails, so a broken statistic cannot produce a number.
"""
import sys
import types

import stats
from tracer import conv_flops


def _node(shape, needs_grad=True):
    return types.SimpleNamespace(value=types.SimpleNamespace(shape=shape),
                                 needs_grad=needs_grad)


def check_self_times():
    # root [0, 10] holds A [1, 4] and B [5, 9]; B holds C [6, 8]
    spans = [(None, 0.0, 10.0), (0, 1.0, 4.0), (0, 5.0, 9.0), (2, 6.0, 8.0)]
    return stats.self_times(spans), [3.0, 3.0, 2.0, 2.0]


def check_tail_percentile():
    def tail(n):
        return stats.tail_percentile(list(range(n, 0, -1)))  # unsorted on purpose
    got = [tail(19), tail(20), tail(40), tail(100), tail(200), tail(1000)]
    want = [(50.0, 10, 19),    # nothing has ten beyond: the median
            (50.0, 10, 20),    # rank 10 of 20, ten beyond
            (75.0, 30, 40),    # p90 would leave 4 beyond
            (90.0, 90, 100),   # p95 would leave 5 beyond
            (95.0, 190, 200),
            (99.0, 990, 1000)]  # p99.9 would leave 1 beyond
    return got, want


def check_windows_per_second():
    # (windows, epochs, seconds per epoch): 100*3 + 50*2 windows in 2*3 + 0.5*2 s
    got = [stats.windows_per_second([(100, 3, 2.0), (50, 2, 0.5)]),
           stats.windows_per_second([(1177, 8, 2.1)])]
    return got, [400 / 7, 1177 / 2.1]


def check_conv_flops():
    x = _node((2, 3, 4, 5))  # batch 2, time 3, nodes 4, width 5
    tconv = conv_flops("temporal_conv", (None, x, _node((3, 5, 6))), {})
    spatial = conv_flops("graph_conv_spatial", (None, None, x, _node((5, 6), False)), {})
    cheb = conv_flops("graph_conv_cheb", (None, [0, 1, 2], x, _node((3,))), {})
    got = [(f, [b for _, b in back]) for f, back in (tconv, spatial, cheb)]
    want = [(2 * 24 * 3 * 5 * 6, [4320, 4320]),
            (960 + 1440, [2400, 1440]),       # A h: 2*24*4*5, (A h) W: 2*24*5*6
            (3 * 960, [2880, 3 * 2 * 24 * 5])]
    return got, want


def _close(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def run_all():
    """Names and values of the fixtures that fail; empty when all pass."""
    failures = []
    for name, check in sorted(globals().items()):
        if name.startswith("check_"):
            got, want = check()
            if not _close(got, want):
                failures.append("selftest %s: got %r, want %r" % (name, got, want))
    return failures


if __name__ == "__main__":
    problems = run_all()
    print("\n".join(problems) or "selftest: all fixtures pass")
    sys.exit(1 if problems else 0)

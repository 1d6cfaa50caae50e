"""Append-only pool of per-node prompt factors with a shared adjustment matrix.

The pool stores one factor `pool.A<period>` per period, with a row for
each node that appeared in that period, and a single k x d matrix B
shared by all factors.  Materializing concatenates the factors and
multiplies: P = concat(A) @ B.  The pool holds no node ids: its rows
follow the stream's graph order, because every period's graph extends
the previous one's node list (`StreamGraph`) and each period appends the
factor for exactly the nodes it adds.
A `full` pool, the expand-only ablation target, is the rank-d case: n x d
factors and a frozen d x d identity B, which draws nothing from the rng.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn_core import Parameter, rng_stream


class PoolError(ValueError):
    pass


@dataclass
class PromptPool:
    """Rank k and width d are the shape of B; factors are in period order."""

    B: Parameter  # k x d
    factors: list = field(default_factory=list)  # n_tau x k Parameters

    def parameters(self) -> list:
        return self.factors + [self.B]


def init_pool(n: int, d: int, k: int = 6, mode: str = "lowrank", seed: int = 0) -> PromptPool:
    """Pool over the initial n nodes.

    Factors start at zero and B at Gaussian scale 1/sqrt(k): the materialized
    prompt is exactly zero at first (predictions match the bare backbone)
    while gradients still reach the factors through B.  mode="full" ignores
    `k` and builds the rank-d pool over a frozen identity B.
    """
    if n < 1:
        raise PoolError("a pool needs at least one node, got n=%d" % n)
    if mode == "full":
        B = Parameter("pool.B", np.eye(d), trainable=False)
    elif mode != "lowrank":
        raise PoolError("unknown pool mode %r" % mode)
    elif not (1 <= k <= min(n, d)):
        raise PoolError("rank k=%d out of range for n=%d, d=%d" % (k, n, d))
    else:
        B = Parameter("pool.B", rng_stream(seed, "pool.B").standard_normal((k, d)) / np.sqrt(k))
    pool = PromptPool(B=B)
    expand(pool, n, period_index=1)
    return pool


def expand(pool: PromptPool, n_new: int, period_index: int) -> None:
    """Append a zero-initialized factor `pool.A<period_index>`, n_new rows as
    wide as B is tall, for the nodes the period adds; none when it adds none."""
    if n_new:
        pool.factors.append(Parameter("pool.A%d" % period_index,
                                      np.zeros((n_new, pool.B.value.shape[0]))))


def materialize(pool: PromptPool) -> np.ndarray:
    """The n x d prompt matrix in stream node order."""
    return np.concatenate([A.value for A in pool.factors], axis=0) @ pool.B.value

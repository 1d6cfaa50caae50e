"""Append-only pool of per-node prompt factors with a shared adjustment matrix.

The pool stores one factor segment per period (rows for the nodes that
appeared in that period) and a single k x d matrix shared by all segments.
Materializing concatenates the segments and multiplies: P = concat(A) @ B.
`full` mode stores n x d factors directly with an implicit identity B; it
exists as the expand-only ablation target.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn_core import Parameter, rng_stream


class PoolError(ValueError):
    pass


@dataclass
class PoolSegment:
    period_index: int
    node_ids: tuple
    A: Parameter  # n_new x k (lowrank) or n_new x d (full)


@dataclass
class PromptPool:
    segments: list = field(default_factory=list)
    B: Parameter | None = None  # k x d, lowrank mode only
    k: int = 6
    d: int = 64
    mode: str = "lowrank"

    @property
    def node_ids(self) -> tuple:
        out = []
        for seg in self.segments:
            out.extend(seg.node_ids)
        return tuple(out)

    @property
    def n(self) -> int:
        return sum(len(seg.node_ids) for seg in self.segments)

    def parameters(self) -> list:
        params = [seg.A for seg in self.segments]
        if self.mode == "lowrank":
            params.append(self.B)
        return params


def init_pool(nodes, d: int, k: int = 6, mode: str = "lowrank", seed: int = 0) -> PromptPool:
    """Pool over the initial node set.

    Factors start at zero and B at Gaussian scale 1/sqrt(k): the materialized
    prompt is exactly zero at first (predictions match the bare backbone)
    while gradients still reach the factors through B.
    """
    nodes = tuple(nodes)
    if not nodes:
        raise PoolError("empty node list")
    if mode not in ("lowrank", "full"):
        raise PoolError("unknown pool mode %r" % mode)
    if mode == "lowrank" and not (1 <= k <= min(len(nodes), d)):
        raise PoolError("rank k=%d out of range for n=%d, d=%d" % (k, len(nodes), d))
    width = k if mode == "lowrank" else d
    seg = PoolSegment(period_index=1, node_ids=nodes,
                      A=Parameter("pool.A1", np.zeros((len(nodes), width))))
    B = None
    if mode == "lowrank":
        B = Parameter("pool.B",
                      rng_stream(seed, "pool.B").standard_normal((k, d)) / np.sqrt(k))
    return PromptPool(segments=[seg], B=B, k=k, d=d, mode=mode)


def expand(pool: PromptPool, new_node_ids, period_index: int) -> None:
    """Append a zero-initialized factor segment for newly detected nodes."""
    new_node_ids = tuple(new_node_ids)
    if not new_node_ids:
        return
    existing = set(pool.node_ids)
    dup = existing.intersection(new_node_ids)
    if dup or len(set(new_node_ids)) != len(new_node_ids):
        raise PoolError("duplicate node ids in expansion: %s" % sorted(dup or set(new_node_ids)))
    width = pool.k if pool.mode == "lowrank" else pool.d
    pool.segments.append(PoolSegment(
        period_index=period_index, node_ids=new_node_ids,
        A=Parameter("pool.A%d" % period_index, np.zeros((len(new_node_ids), width)))))


def materialize(pool: PromptPool) -> np.ndarray:
    """The n x d prompt matrix in stream node order."""
    stacked = np.concatenate([seg.A.value for seg in pool.segments], axis=0)
    if pool.mode == "lowrank":
        return stacked @ pool.B.value
    return stacked


def param_count(pool: PromptPool) -> dict:
    tunable = sum(seg.A.value.size for seg in pool.segments)
    if pool.mode == "lowrank":
        tunable += pool.B.value.size
    materialized = pool.n * pool.d
    return {"tunable": tunable, "materialized": materialized,
            "ratio": tunable / materialized}

"""Streaming graph data model and adjacency-matrix constructions.

A stream is an ordered sequence of period graphs over a growing sensor
network: every period may add nodes, never remove them.  Node identity is
carried by stable string tokens, and the node ordering of a period is the
canonical index order for every matrix built in that period.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphStreamError",
    "ExpansionViolation",
    "PeriodGraph",
    "StreamGraph",
    "build_adjacency",
    "normalize_adjacency",
    "scaled_laplacian",
    "cheb_polynomials",
    "diff_nodes",
    "read_distances",
]


class GraphStreamError(ValueError):
    """Invalid graph input (shape, sign, or threshold violations)."""


class ExpansionViolation(GraphStreamError):
    """A node present in an earlier period is missing from a later one."""


@dataclass(frozen=True)
class PeriodGraph:
    """One period of the stream: node ordering, distances, adjacency."""

    period_index: int
    nodes: tuple  # ordered NodeId tokens; canonical index order
    distances: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        n = len(self.nodes)
        if len(set(self.nodes)) != n:
            raise GraphStreamError("duplicate node ids in period %d" % self.period_index)
        if self.adjacency.shape != (n, n):
            raise GraphStreamError(
                "adjacency shape %s does not match %d nodes" % (self.adjacency.shape, n)
            )

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class StreamGraph:
    """Expansion-only ordered sequence of period graphs."""

    periods: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for prev, cur in zip(self.periods, self.periods[1:]):
            prefix = cur.nodes[: prev.n]
            if prefix != prev.nodes:
                raise ExpansionViolation(
                    "period %d does not extend period %d as a prefix"
                    % (cur.period_index, prev.period_index)
                )


def _check_distances(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise GraphStreamError("distance matrix must be square, got shape %s" % (d.shape,))
    if np.any(d < 0):
        raise GraphStreamError("negative distance entries are not allowed")
    return d


def build_adjacency(distances, r: float, sigma_override: float | None = None) -> np.ndarray:
    """Thresholded Gaussian-kernel adjacency from a distance matrix.

    Entry (i, j) is exp(-d_ij^2 / sigma^2) when that value clears the
    threshold r and i != j, else 0.  sigma defaults to the standard
    deviation of the off-diagonal distances (the zero diagonal would bias
    the spread); a zero spread falls back to sigma = 1.
    """
    d = _check_distances(distances)
    if not (0.0 <= r < 1.0):
        raise GraphStreamError("threshold r must lie in [0, 1), got %r" % r)
    n = d.shape[0]
    if sigma_override is not None:
        if sigma_override <= 0:
            raise GraphStreamError("sigma_override must be positive")
        sigma = float(sigma_override)
    else:
        off = d[~np.eye(n, dtype=bool)]
        sigma = float(np.std(off)) if off.size else 0.0
        if sigma == 0.0:
            sigma = 1.0
    a = np.exp(-(d ** 2) / sigma ** 2)
    a[a < r] = 0.0
    np.fill_diagonal(a, 0.0)
    return a


def normalize_adjacency(A) -> np.ndarray:
    """Symmetric degree normalization with self-loops: D^-1/2 (A+I) D^-1/2.

    Self-loops are added first so that a node keeps its own signal through
    one propagation step; an isolated node normalizes to weight 1 on itself.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphStreamError("adjacency must be square, got shape %s" % (a.shape,))
    if np.any(a < 0):
        raise GraphStreamError("adjacency entries must be nonnegative")
    a_loop = a + np.eye(a.shape[0])
    deg = a_loop.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a_loop * inv_sqrt[:, None] * inv_sqrt[None, :]


def scaled_laplacian(A) -> np.ndarray:
    """Rescaled Laplacian 2L/lambda_max - I with eigenvalues in [-1, 1]."""
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphStreamError("adjacency must be square")
    if not np.allclose(a, a.T):
        raise GraphStreamError("adjacency must be symmetric")
    if np.any(a < 0):
        raise GraphStreamError("adjacency entries must be nonnegative")
    n = a.shape[0]
    L = np.diag(a.sum(axis=1)) - a
    lam = np.linalg.eigvalsh(L)[-1]
    if lam <= 0.0:
        lam = 1.0  # zero graph: L = 0, rescaled form degenerates to -I
    return 2.0 * L / lam - np.eye(n)


def cheb_polynomials(L_tilde: np.ndarray, order: int) -> list:
    """Chebyshev basis T_0..T_order of the rescaled Laplacian."""
    n = L_tilde.shape[0]
    mats = [np.eye(n)]
    if order >= 1:
        mats.append(L_tilde.copy())
    for _ in range(2, order + 1):
        mats.append(2.0 * L_tilde @ mats[-1] - mats[-2])
    return mats


def diff_nodes(prev: PeriodGraph, cur: PeriodGraph):
    """New node ids in cur's order, plus the old-index to new-index map."""
    cur_pos = {nid: i for i, nid in enumerate(cur.nodes)}
    carry = {}
    for old_i, nid in enumerate(prev.nodes):
        if nid not in cur_pos:
            raise ExpansionViolation(
                "node %r from period %d missing in period %d"
                % (nid, prev.period_index, cur.period_index)
            )
        carry[old_i] = cur_pos[nid]
    prev_set = set(prev.nodes)
    new_ids = [nid for nid in cur.nodes if nid not in prev_set]
    return new_ids, carry


def read_distances(path, node_ids=None) -> np.ndarray:
    """Read a distance matrix from a dense CSV or an edge-list file.

    Dense format: one row per line, comma-separated decimals.  Edge-list
    format: `from_id,to_id,distance` triples (requires node_ids for the
    index order); missing pairs default to 0 on the diagonal and must be
    covered for off-diagonal pairs symmetrically.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise GraphStreamError("empty distance file %s" % path)
    first = lines[0].split(",")
    is_edge_list = len(first) == 3 and not _is_float(first[0])
    if not is_edge_list:
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines]
        d = np.asarray(rows, dtype=float)
        return _check_distances(d)
    if node_ids is None:
        raise GraphStreamError("edge-list distances need an explicit node ordering")
    pos = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    d = np.full((n, n), np.nan)
    np.fill_diagonal(d, 0.0)
    for ln in lines:
        src, dst, val = ln.split(",")
        if src not in pos or dst not in pos:
            raise GraphStreamError("edge references unknown node in %s: %s" % (path, ln))
        w = float(val)
        d[pos[src], pos[dst]] = w
        d[pos[dst], pos[src]] = w
    if np.isnan(d).any():
        raise GraphStreamError("edge list leaves node pairs without distances")
    return _check_distances(d)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False

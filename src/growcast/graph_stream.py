"""Streaming graph data model and adjacency-matrix constructions.

A stream is an ordered sequence of period graphs over a growing sensor
network: every period may add nodes, never remove them.  Node identity is
carried by stable string tokens, and the node ordering of a period is the
canonical index order for every matrix built in that period.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import power_of_two_above

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
    """A period's node list does not start with the previous period's."""


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
        for name in ("distances", "adjacency"):
            if not np.isfinite(getattr(self, name)).all():
                raise GraphStreamError("period %d has non-finite %s"
                                       % (self.period_index, name))

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class StreamGraph:
    """Expansion-only ordered sequence of period graphs (`diff_nodes` between each pair)."""

    periods: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for prev, cur in zip(self.periods, self.periods[1:]):
            diff_nodes(prev, cur)


def diff_nodes(prev: PeriodGraph, cur: PeriodGraph) -> tuple:
    """The ids cur adds, in its order; prev's node list must be a prefix of cur's."""
    if cur.nodes[:prev.n] != prev.nodes:
        raise ExpansionViolation("period %d does not extend period %d as a prefix"
                                 % (cur.period_index, prev.period_index))
    return cur.nodes[prev.n:]


# the Gaussian kernel squares every distance, so a cell must square to a finite value
_MAX_DISTANCE = np.sqrt(np.finfo(float).max)


def _check_distances(distances: np.ndarray, source="distance matrix") -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise GraphStreamError("distance matrix must be square, got shape %s" % (d.shape,))
    if np.any(d < 0):
        raise GraphStreamError("%s has a negative distance" % source)
    if not (d <= _MAX_DISTANCE).all():
        raise GraphStreamError("%s has a non-finite distance or one whose square overflows"
                               % source)
    if not np.array_equal(d, d.T):
        raise GraphStreamError("%s is not symmetric: each distance d_ij must equal d_ji"
                               % source)
    return d


def build_adjacency(distances, r: float) -> np.ndarray:
    """Thresholded Gaussian-kernel adjacency from a distance matrix.

    Entry (i, j) is exp(-d_ij^2 / sigma^2) when that value clears the
    threshold r and i != j, else 0.  sigma defaults to the standard
    deviation of the off-diagonal distances (the zero diagonal would bias
    the spread); a zero spread falls back to sigma = 1.

    Distances are first divided by `power_of_two_above` the largest
    off-diagonal one, so tiny distances do not square to zero before sigma
    and the kernel are computed.  Dividing by a power of two is exact in
    binary and the kernel is scale-free, so the result is otherwise that of
    the unscaled formula.
    """
    d = _check_distances(distances)
    if not (0.0 <= r < 1.0):
        raise GraphStreamError("threshold r must lie in [0, 1), got %r" % r)
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    top = off.max() if off.size else 0.0
    scale = power_of_two_above(top)
    sigma = float(np.std(off / scale)) if off.size else 0.0
    if sigma == 0.0:
        scale, sigma = 1.0, 1.0  # no spread: sigma = 1 in the input's units
    d = d / scale
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
    """Rescaled Laplacian 2L/lambda_max - I with eigenvalues in [-1, 1].

    The adjacency must be finite and exactly symmetric (a near-symmetric one
    gives a non-symmetric L, whose spectrum leaves [-1, 1]), and twice each
    degree must be finite, which bounds lambda_max.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphStreamError("adjacency must be square")
    if not np.isfinite(a).all():
        raise GraphStreamError("adjacency entries must be finite")
    if not np.array_equal(a, a.T):
        raise GraphStreamError("adjacency must be exactly symmetric")
    if np.any(a < 0):
        raise GraphStreamError("adjacency entries must be nonnegative")
    n = a.shape[0]
    with np.errstate(over="ignore"):
        deg = a.sum(axis=1)
        overflow = ~np.isfinite(2.0 * deg)
    if overflow.any():
        node = int(np.argmax(overflow))
        raise GraphStreamError("degree of node %d overflows: %g" % (node, deg[node]))
    if 0 < deg.max(initial=0.0) < np.finfo(float).tiny:
        # subnormal weights carry few digits; scaling by 2**600 is exact
        a = a * 2.0 ** 600
        deg = a.sum(axis=1)
    L = np.diag(deg) - a
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


def read_distances(path, node_ids=None) -> np.ndarray:
    """Read a distance matrix from a dense CSV or an edge-list file.

    Dense format: one row per line, comma-separated decimals.  Edge-list
    format: `from_id,to_id,distance` triples (requires node_ids for the
    index order); missing pairs default to 0 on the diagonal and must be
    covered for off-diagonal pairs symmetrically.
    """
    with open(path) as fh:
        lines = [(no, ln.strip().split(",")) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise GraphStreamError("empty distance file %s" % path)
    first = lines[0][1]
    is_edge_list = len(first) == 3 and not _is_float(first[0])
    width = 3 if is_edge_list else len(first)
    for no, cells in lines:
        if len(cells) != width:
            raise GraphStreamError("%s line %d has %d fields, expected %d"
                                   % (path, no, len(cells), width))
    if not is_edge_list:
        return _check_distances(np.asarray([_floats(cells, path, no) for no, cells in lines]),
                                path)
    if node_ids is None:
        raise GraphStreamError("edge-list distances need an explicit node ordering")
    pos = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    d = np.full((n, n), np.nan)
    np.fill_diagonal(d, 0.0)
    for no, (src, dst, val) in lines:
        if src not in pos or dst not in pos:
            raise GraphStreamError("edge references unknown node in %s line %d: %s,%s"
                                   % (path, no, src, dst))
        (w,) = _floats((val,), path, no)
        d[pos[src], pos[dst]] = w
        d[pos[dst], pos[src]] = w
    if np.isnan(d).any():
        raise GraphStreamError("edge list leaves node pairs without distances")
    return _check_distances(d, path)


def _floats(cells, path, lineno: int) -> list:
    try:
        return [float(tok) for tok in cells]
    except ValueError as exc:
        raise GraphStreamError("non-numeric distance in %s line %d: %s" % (path, lineno, exc))


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False

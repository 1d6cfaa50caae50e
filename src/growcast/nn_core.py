"""Minimal differentiable numeric core.

Forward primitives record onto a ComputeRecord (a linear tape of numpy
operations); reverse-mode accumulation replays the tape backward and
returns gradients for trainable parameters only.  Everything is double
precision, and every random draw comes from a named stream derived from
one experiment seed, so runs replay bit-for-bit on one platform.

Every node holds a finite float64 array.  `leaf` checks a parameter and
`constant` its array once, on entry; a primitive whose arithmetic can
overflow (the GEMMs, dropout scaling, the time mean, the loss) scans its
output, which also covers the raw input of `graph_input`; the others map
finite to finite.  The NonFiniteError names the parameter or the
primitive.  `relu` applies ReLU and dropout as one multiplier, in place
into the fresh output of the primitive before it.  The graph layers,
`graph_conv` and the fused `graph_input`, take a list of n x n matrices
and a weight that is a channel mix or Chebyshev coefficients.  A record
built with `grad=False` keeps no tape, so evaluation frees each
intermediate once the next layer has read it.

What a training record keeps: each node's value, until `backward` has
passed the node and frees its value, grad_fn and parents (leaves and
constants stay); and in each grad_fn, only what the gradients that will
be taken read.  Dropout keeps its bool mask, not the float multiplier;
`graph_conv` keeps G h only for a trainable matrix weight, and
`graph_input` keeps G x and x only for the weights that read them.  So a
step's memory falls as backward replays, and a record that backward has
consumed holds its leaves and nothing else.

Shared steps run overlapping windows once per distinct step: the
backbone hands `graph_input` the batch's distinct steps as one
(1, L, n, 1) timeline, `temporal_conv(..., window=)` stacks the rows the
windows share and each window's padded edge rows, and
`mean_pool_time(..., rows=step_rows(window, K))` pools the windows from
that stack.  Either layout of the temporal conv is a list of slabs, one
tap's GEMM over a block of rows, and one forward and one backward kernel
run both.  Windows start on distinct rows, so no slab reads or writes a
row twice and backward adds each window's gradient with an indexed +=.
Every layer after the first meets each step with the same products in
the same order as the windowed path; the layer-1 GEMM has L rows instead
of B*T, and BLAS may round a row differently with the row count, so
predictions agree with per-window evaluation up to that last-digit
rounding.  Gradients sum the windows' contributions in another order,
so they agree up to rounding too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NnError",
    "ShapeError",
    "NonFiniteError",
    "Parameter",
    "ComputeRecord",
    "Node",
    "rng_stream",
    "linear",
    "relu",
    "concat_rows",
    "graph_input",
    "temporal_conv",
    "step_rows",
    "graph_conv",
    "mean_pool_time",
    "mse_loss",
    "backward",
    "AdamState",
    "adam_step",
    "grad_check",
]


class NnError(ValueError):
    pass


class ShapeError(NnError):
    pass


class NonFiniteError(NnError):
    pass


def rng_stream(seed: int, *names) -> np.random.Generator:
    """Generator for a named substream of one experiment seed (PCG64).

    Streams are derived with numpy's SeedSequence from (seed, names), so
    adding a new stream never perturbs existing ones.
    """
    entropy = [int(seed)] + [abs(hash_name(n)) for n in names]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def hash_name(name) -> int:
    # Stable across processes (hash() is salted per run; this is not).
    h = 2166136261
    for ch in str(name).encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


@dataclass
class Parameter:
    """Named tensor with a trainable flag; frozen values never move."""

    name: str
    value: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)


class Node:
    """A value on the tape, a finite float64 array (module docstring).

    An in-place `relu` sets `value` to None; `backward` sets `value`,
    `grad_fn` and `parents` to None once it is done with the node.
    """

    __slots__ = ("value", "parents", "grad_fn", "needs_grad")

    def __init__(self, value, parents=(), grad_fn=None, needs_grad=False):
        self.value = value
        self.parents = parents
        self.grad_fn = grad_fn
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape


class ComputeRecord:
    """Ordered log of primitive applications, replayable once backward.

    With grad=False nothing is kept for backward: nodes carry their value
    only and are not listed, so each is freed when its last reader is done.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes = []
        self.consumed = False
        self._param_nodes = {}
        self._fresh = None  # last output whose array no other node reads yet

    def leaf(self, param: Parameter) -> Node:
        if not np.isfinite(param.value).all():
            raise NonFiniteError("non-finite parameter %s" % param.name)
        node = Node(param.value, needs_grad=self.grad and param.trainable)
        self._param_nodes[param.name] = (param, node)
        return self._keep(node)

    def constant(self, value) -> Node:
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            raise NonFiniteError("non-finite constant")
        return self._keep(Node(value))

    def record(self, op_name, value, parents, grad_fn, scan=True, fresh=False) -> Node:
        """Add one primitive's output, a float64 array.

        scan=False is for ops that map finite inputs to finite outputs.
        fresh=True says `value` is an array the primitive allocated, which
        a `relu` right after it may overwrite.
        """
        if scan and not np.isfinite(value).all():
            raise NonFiniteError("non-finite output of %s" % op_name)
        if self.grad:
            node = Node(value, tuple(parents), grad_fn, any(p.needs_grad for p in parents))
        else:
            node = Node(value)
        self._fresh = node if fresh else None
        return self._keep(node)

    def _keep(self, node: Node) -> Node:
        if self.grad:
            self.nodes.append(node)
        return node


def _as_node(record: ComputeRecord, x) -> Node:
    if not isinstance(x, Node):
        return record.constant(x)
    if x.value is None:
        if x.parents is None:
            raise NnError("backward has freed this node; build a new record")
        raise NnError("a relu has overwritten this node in place; read the relu's output")
    return x


def _shape_check(op, cond, *shapes):
    if not cond:
        raise ShapeError("%s: incompatible shapes %s" % (op, [tuple(s) for s in shapes]))


def linear(record, x, W, b=None):
    """x @ W + b over the last axis."""
    x, W = _as_node(record, x), _as_node(record, W)
    _shape_check("linear", x.shape[-1] == W.shape[0], x.shape, W.shape)
    out = x.value @ W.value
    parents = [x, W]
    if b is not None:
        b = _as_node(record, b)
        _shape_check("linear", b.shape == (W.shape[1],), b.shape, W.shape)
        out = out + b.value
        parents.append(b)

    def grad_fn(g):
        # frozen weights skip their matmul entirely; backward drops None
        grads = [
            g @ W.value.T if x.needs_grad else None,
            np.einsum("...i,...j->ij", x.value, g, optimize=True)
            if W.needs_grad else None,
        ]
        if b is not None:
            grads.append(g.reshape(-1, g.shape[-1]).sum(axis=0)
                         if b.needs_grad else None)
        return grads

    return record.record("linear", out, parents, grad_fn, fresh=True)


def relu(record, x, p=0.0, rng=None):
    """max(x, 0) followed by inverted dropout at rate p, in one pass.

    p = 0: np.maximum(x, 0) (-0.0 maps to +0.0), no rng; backward takes
    its mask from the output.  p > 0: one rng.random(x.shape) call, as the
    unfused dropout drew, gives the multiplier m = (x > 0) * (draw >= p)
    / (1 - p); the output is x * m (so -0.0 where x < 0).  The tape keeps
    the bool mask, one byte per element, and backward rebuilds m from it
    with the same division, so g * m rounds as before.  The result
    overwrites x's array when x is the fresh output of the primitive
    recorded just before; x's value is then gone.  Leaves,
    constants and outputs another primitive read are never written.  Only
    dropout scaling can overflow, so only then is the output scanned.
    """
    x = _as_node(record, x)
    if not (0.0 <= p < 1.0):
        raise NnError("dropout rate must lie in [0, 1), got %r" % p)
    if p > 0.0 and rng is None:
        raise NnError("dropout with p > 0 needs an explicit rng")
    in_place = record._fresh is x
    out = x.value if in_place else None
    if p == 0.0:
        out = np.maximum(x.value, 0.0, out=out)

        def grad_fn(g):
            return [g * (out > 0)]
    else:
        m = rng.random(x.shape)
        keep = m >= p
        keep &= x.value > 0
        np.divide(keep, 1.0 - p, out=m)
        out = np.multiply(x.value, m, out=out)
        del m  # backward rebuilds the multiplier from the one-byte mask

        def grad_fn(g):
            return [g * np.divide(keep, 1.0 - p)]

    node = record.record("relu", out, [x], grad_fn, scan=p > 0.0)
    if in_place:
        x.value = None
    return node


def concat_rows(record, parts):
    """Stack tape values along axis 0 (pool segments into one factor matrix)."""
    parts = [_as_node(record, p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows of nothing")
    out = np.concatenate([p.value for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]

    def grad_fn(g):
        grads = []
        start = 0
        for size in sizes:
            grads.append(g[start:start + size])
            start += size
        return grads

    return record.record("concat_rows", out, parts, grad_fn, scan=False)


def _taps(K, T):
    """Slabs (k, input rows, output rows, first) of a K-tap conv along axis 1 of (B, T, ...).

    With same-length zero padding, tap k reads input row o + s into output
    row o, where s = k - K // 2; a tap with |s| >= T reads only padding.
    The first tap writes its rows and misses the first min(K // 2, T - 1).
    """
    every = slice(None)
    shifts = [(k, k - K // 2) for k in range(K) if abs(k - K // 2) < T]
    return [(k, (every, slice(max(0, s), T - max(0, -s))),
             (every, slice(max(0, -s), T - max(0, s))), j == 0)
            for j, (k, s) in enumerate(shifts)]


def _step_layout(window, K):
    """(edge rows, shared row count) of windows laid over a timeline, under a K-tap conv.

    window[i, o] is the timeline row of step o of window i.  Window row o
    is an edge row when a tap reads padding for it: the first K // 2 rows
    and the last K - 1 - K // 2.  Shared row j is the interior row at
    timeline row j + K // 2, for every timeline row up to the last one a
    window reads (none when every row is an edge).
    """
    T = window.shape[1]
    edges = [o for o in range(T) if o < K // 2 or o > T - K + K // 2]
    return edges, (int(window.max()) + 2 - K if len(edges) < T else 0)


def step_rows(window, K):
    """(B, T) map from window rows to the rows `temporal_conv(..., window=window)` stacks.

    Interior row o of window i is shared row window[i, o] - K // 2; each
    window's edge rows follow the shared ones, window by window.
    """
    edges, n_shared = _step_layout(window, K)
    B, T = window.shape
    interior = np.arange(K // 2, K // 2 + T - len(edges))
    rows = np.empty((B, T), dtype=np.intp)
    rows[:, interior] = window[:, interior] - K // 2
    rows[:, edges] = n_shared + np.arange(B)[:, None] * len(edges) + np.arange(len(edges))
    return rows


def _shared_slabs(window, K):
    """(slabs, stacked row count) of a K-tap conv over the windows laid on a timeline.

    Slabs are as in `_taps`, into the rows `step_rows` stacks.  Tap k reads
    one timeline slice into all shared rows, and for each edge row o, row
    o + s of every window (a slice when the windows follow one another
    step by step, else an index array) into that row's strided stack
    slice.  Slabs go tap by tap; the first tap to reach a row writes it.
    """
    B, T = window.shape
    edges, n_shared = _step_layout(window, K)
    heads = window[:, 0]
    h = int(heads[0])
    consecutive = np.array_equal(heads, h + np.arange(B))
    slabs = []
    for k in range(K):
        s = k - K // 2
        if n_shared:  # every tap reaches every shared row
            slabs.append((k, slice(K // 2 + s, K // 2 + s + n_shared), slice(0, n_shared), k == 0))
        slabs += [(k, slice(h + o + s, h + o + s + B) if consecutive else heads + o + s,
                   slice(n_shared + e, None, len(edges)), k == 0 or o + s == 0)
                  for e, o in enumerate(edges) if 0 <= o + s < T]
    return slabs, n_shared + B * len(edges)


def _fits_timeline(window, L):
    """Whether window is a (B, T) integer map of consecutive rows of an L-row timeline."""
    return (isinstance(window, np.ndarray) and window.ndim == 2 and window.dtype.kind in "iu"
            and window.size > 0 and window.min() >= 0 and window.max() < L
            and bool((np.diff(window, axis=1) == 1).all()))


def _slab_sum(src, mats, slabs, out):
    """out[o] = sum over slabs (k, i, o, first) of src[i] @ mats[k], in list order.

    A first slab writes its rows and every other slab adds into them, so
    rows no first slab writes must hold zeros; no slab's o repeats a row.
    """
    for k, i, o, first in slabs:
        if first:
            np.matmul(src[i], mats[k], out=out[o])
        else:
            out[o] += src[i] @ mats[k]
    return out


def temporal_conv(record, x, W, b, window=None):
    """1D convolution over the time axis, kernel K, same-length zero padding.

    x: (B, T, n, d_in), W: (K, d_in, d_out), b: (d_out,).  Each tap adds
    one shifted (B, T - |s|, n) slab of x @ W[k] (`_taps`) in kernel order,
    so every row rounds as a loop over a zero-padded copy of x would.  The
    input gradient runs the slabs from output to input with W[k]^T, and
    the weight gradient is one 2-D GEMM per slab over the rows it reads.

    window (shared steps): x is a (1, L, n, d_in) timeline of steps and
    window a (B, T) integer array, window[i, o] the timeline row of step o
    of window i, each window's rows consecutive and no two windows
    starting on one row.  Rows whose taps all land inside their window
    are computed once per timeline step; only the K - 1 rows per window
    that touch padding are computed per window.  The output stacks both as
    `step_rows` maps them, and the same kernels run `_shared_slabs`.
    """
    x, W, b = _as_node(record, x), _as_node(record, W), _as_node(record, b)
    shared = window is not None
    _shape_check("temporal_conv", x.value.ndim == 4 and W.value.ndim == 3
                 and x.shape[-1] == W.shape[1] and b.shape == (W.shape[2],)
                 and (not shared or (x.shape[0] == 1 and _fits_timeline(window, x.shape[1]))),
                 x.shape, W.shape, b.shape, np.shape(window))
    K = W.shape[0]
    if shared:
        if len(np.unique(window[:, 0])) < len(window):
            raise ShapeError("temporal_conv: windows must start on distinct timeline rows")
        src = x.value[0]
        slabs, n_rows = _shared_slabs(window, K)
        out = np.empty((n_rows, x.shape[2], W.shape[2]))
    else:
        src = x.value
        slabs = _taps(K, x.shape[1])
        out = np.empty(x.shape[:3] + (W.shape[2],))
        out[:, :min(K // 2, x.shape[1] - 1)] = 0.0  # the rows the first tap misses
    out = _slab_sum(src, W.value, slabs, out)
    out += b.value

    def grad_fn(g):
        gx = gW = gb = None
        if W.needs_grad:
            gW = np.zeros(W.shape)
            for k, i, o, _ in slabs:
                gW[k] += src[i].reshape(-1, W.shape[1]).T @ g[o].reshape(-1, W.shape[2])
        if x.needs_grad:
            swapped = [(k, o, i, False) for k, i, o, _ in slabs]
            gx = _slab_sum(g, np.ascontiguousarray(W.value.transpose(0, 2, 1)), swapped,
                           np.zeros(src.shape)).reshape(x.shape)
        if b.needs_grad:
            gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return [gx, gW, gb]

    return record.record("temporal_conv", out, [x, W, b], grad_fn, fresh=True)


def _propagator(operator, weight):
    """(G, W) of a graph layer over `operator`, a list of n x n matrices.

    A coefficient vector weighs the basis [T_0, ..., T_K] into one
    operator G = sum_k theta_k T_k and mixes no channels (W is None); a
    matrix weight keeps G = operator[0] and mixes channels by W.
    """
    if weight.ndim == 1:
        return sum(th * Tk for th, Tk in zip(weight, operator)), None
    return operator[0], weight


def _fits(basis, weight, n, d):
    """Whether a weight array suits a basis of n x n matrices and d input channels."""
    return (len(basis) > 0 and all(Tk.shape == (n, n) for Tk in basis)
            and (weight.shape == (len(basis),) if weight.ndim == 1
                 else weight.ndim == 2 and len(basis) == 1 and weight.shape[0] == d))


def graph_conv(record, operator, h, weight):
    """Graph convolution G h W, with (G, W) as `_propagator` gives them.

    operator is a list of constant n x n matrices: [A_hat] with a d x d_out
    matrix weight (spatial), or the Chebyshev basis [T_0, ..., T_K] with
    K+1 coefficients (spectral, no channel mix).  h may carry leading
    batch/time axes with nodes on axis -2.  Forward is one propagation G h
    and the input gradient one G^T g; a coefficient gradient is <T_k, S>
    with S = sum over windows of g h^T, one GEMM.
    """
    h, weight = _as_node(record, h), _as_node(record, weight)
    basis = [np.asarray(Tk, dtype=float) for Tk in operator]
    _shape_check("graph_conv", h.value.ndim >= 2
                 and _fits(basis, weight.value, h.shape[-2], h.shape[-1]),
                 weight.shape, h.shape, *[Tk.shape for Tk in basis])
    G, W = _propagator(basis, weight.value)
    Gh = np.matmul(G, h.value)
    out = Gh if W is None else Gh @ W
    if W is None or not weight.needs_grad:
        Gh = None  # only a matrix weight's gradient reads it

    def grad_fn(g):
        nonlocal Gh
        gh = gw = None
        if weight.needs_grad and W is None:
            axes = [a for a in range(g.ndim) if a != g.ndim - 2]
            S = np.tensordot(g, h.value, axes=(axes, axes))  # (n, n)
            gw = np.array([np.vdot(Tk, S) for Tk in basis])
        elif weight.needs_grad:
            gw = np.einsum("...i,...j->ij", Gh, g, optimize=True)
            Gh = None  # freed before the input gradient allocates
        if h.needs_grad:
            gh = np.matmul(G.T, g if W is None else g @ W.T)
        return [gh, gw]

    return record.record("graph_conv", out, [h, weight], grad_fn, fresh=True)


def graph_input(record, operator, x, W_in, b_in, prompt, weight):
    """Input projection, prompt and first graph convolution as one primitive.

    Computes G (x W_in + 1 b_in^T + P) W for a constant one-channel input
    x of shape (B, T, n, 1), with (G, W) from `_propagator` as in
    `graph_conv`; W is the d x d identity when `weight` holds
    coefficients.  `prompt` is an n x d matrix or None.

    Everything here is linear and x has one channel, so the block factors
    exactly as (G x)(W_in W) + G (1 b_in^T + P) W: a rank-1 outer product
    per window plus one n x d_out constant.  No (B, T, n, d) tensor is
    propagated: the input crosses G as one (B*T, n) GEMM, and backward
    sums the gradient over (B, T) before it meets G^T and W^T.
    """
    W_in, b_in, weight = (_as_node(record, v) for v in (W_in, b_in, weight))
    P = None if prompt is None else _as_node(record, prompt)
    x = np.asarray(x, dtype=float)
    basis = [np.asarray(Tk, dtype=float) for Tk in operator]
    n = x.shape[2] if x.ndim == 4 else -1
    d = W_in.shape[-1] if W_in.value.ndim == 2 else -1
    _shape_check("graph_input", x.ndim == 4 and x.shape[-1] == 1
                 and W_in.shape == (1, d) and b_in.shape == (d,)
                 and (P is None or P.shape == (n, d)) and _fits(basis, weight.value, n, d),
                 x.shape, W_in.shape, b_in.shape, weight.shape,
                 () if P is None else P.shape, *[Tk.shape for Tk in basis])
    parents = [W_in, b_in, weight] + ([] if P is None else [P])
    G, Wm = _propagator(basis, weight.value)
    spectral = Wm is None
    Wm = np.eye(d) if spectral else Wm
    U = W_in.value @ Wm
    M = np.zeros((n, d)) + b_in.value
    if P is not None:
        M += P.value
    GM = G @ M
    Gx = x.reshape(-1, n) @ G.T  # (B*T, n)
    out = Gx.reshape(x.shape) * U[0]
    out += GM @ Wm
    # keep only the operands a gradient that will be taken reads
    if not (W_in.needs_grad or (weight.needs_grad and not spectral)):
        Gx = None
    if not (weight.needs_grad and spectral):
        x = None

    def grad_fn(g):
        d_out = g.shape[-1]
        rows = g.reshape(-1, d_out)
        gC = g.reshape(-1, n, d_out).sum(axis=0)  # every window shares the constant term
        gW_in = gb = gw = gM = None
        if b_in.needs_grad or (P is not None and P.needs_grad):
            gM = G.T @ gC @ Wm.T
            gb = gM.sum(axis=0)
        if W_in.needs_grad or (weight.needs_grad and not spectral):
            gU = Gx.reshape(1, -1) @ rows
            gW_in = gU @ Wm.T
        if weight.needs_grad and spectral:
            # d/dG of the whole block, then one inner product per T_k
            gG = (rows @ U[0]).reshape(-1, n).T @ x.reshape(-1, n) + gC @ M.T
            gw = np.array([np.vdot(Tk, gG) for Tk in basis])
        elif weight.needs_grad:
            gw = W_in.value.T @ gU + GM.T @ gC
        return [gW_in, gb, gw, gM][:len(parents)]

    return record.record("graph_input", out, parents, grad_fn, fresh=True)


def mean_pool_time(record, x, rows=None):
    """Mean over the time axis of a (B, T, n, d) tensor, or of x[rows].

    rows (shared steps): a (B, T) integer index into a stack of steps, as
    `step_rows` gives, with no row twice in one column.  The T gathered
    (B, n, d) slices add into one buffer in time order, as numpy's mean
    over the middle axis of x[rows] adds them, with no (B, T, n, d) copy;
    backward adds each window's gradient into the rows it read.
    """
    x = _as_node(record, x)
    if rows is None:
        _shape_check("mean_pool_time", x.value.ndim == 4, x.shape)
        T = x.shape[1]
        out = x.value.mean(axis=1)
    else:
        _shape_check("mean_pool_time", x.value.ndim == 3 and rows.ndim == 2 and rows.size > 0
                     and rows.min() >= 0 and rows.max() < x.shape[0], rows.shape, x.shape)
        by_column = np.sort(rows, axis=0)
        if (by_column[1:] == by_column[:-1]).any():
            raise ShapeError("mean_pool_time: a row repeats within a column of rows")
        T = rows.shape[1]
        out = x.value[rows[:, 0]]
        for o in range(1, T):
            out += x.value[rows[:, o]]
        out /= T

    def grad_fn(g):
        if rows is None:
            return [np.broadcast_to(g[:, None] / T, x.shape)]
        gx = np.zeros(x.shape)
        g = g / T
        for o in range(T):
            gx[rows[:, o]] += g
        return [gx]

    return record.record("mean_pool_time", out, [x], grad_fn)


def mse_loss(record, pred, target):
    pred = _as_node(record, pred)
    t = np.asarray(target, dtype=float)
    _shape_check("mse_loss", pred.shape == t.shape, pred.shape, t.shape)
    if t.size == 0:
        raise NnError("mse_loss on empty tensors")
    diff = pred.value - t
    out = np.asarray((diff ** 2).mean())

    def grad_fn(g):
        return [g * 2.0 * diff / diff.size]

    return record.record("mse_loss", out, [pred], grad_fn)


def backward(record: ComputeRecord, loss: Node) -> dict:
    """Reverse accumulation; gradients for trainable parameters only.

    Trainable parameters that never touched the loss get zero gradients;
    frozen parameters are absent from the map.  A record replays once, and
    frees itself as it goes: once a node's turn has passed, its value,
    grad_fn and parents are dropped, since every reader of them (the
    node's children) has already run.  Leaves and constants keep their
    values, and `record.nodes` keeps its length.
    """
    if record.consumed:
        raise NnError("compute record already consumed")
    if not record.grad:
        raise NnError("compute record was built with grad=False")
    if loss.value.shape != ():
        raise NnError("loss must be scalar, got shape %s" % (loss.value.shape,))
    record.consumed = True
    grads = {id(loss): np.asarray(1.0)}
    for node in reversed(record.nodes):
        if node.grad_fn is None:
            continue  # leaves keep their value and their accumulated gradient
        g = grads.pop(id(node), None)
        if g is not None:
            for parent, pg in zip(node.parents, node.grad_fn(g)):
                if not parent.needs_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        node.value = node.grad_fn = node.parents = None
    out = {}
    for name, (param, node) in record._param_nodes.items():
        if not param.trainable:
            continue
        g = grads.get(id(node))
        out[name] = np.zeros_like(param.value) if g is None else np.asarray(g)
    return out


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads: dict, state: AdamState, lr: float):
    """One Adam update with bias correction; frozen parameters untouched."""
    by_name = {p.name: p for p in params}
    trainable = {p.name for p in params if p.trainable}
    extra = set(grads) - trainable
    if extra:
        raise NnError("gradients supplied for non-trainable parameters: %s" % sorted(extra))
    missing = trainable - set(grads)
    if missing:
        raise NnError("gradients missing for trainable parameters: %s" % sorted(missing))
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, g in grads.items():
        p = by_name[name]
        if g.shape != p.value.shape:
            raise ShapeError("adam_step: grad shape %s vs parameter %s for %r"
                             % (g.shape, p.value.shape, name))
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        v = state.v[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state.m[name], state.v[name] = m, v
        m_hat = m / (1 - b1 ** state.t)
        v_hat = v / (1 - b2 ** state.t)
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def grad_check(build_loss, params) -> float:
    """Max relative error between tape gradients and central differences.

    build_loss(record) must rebuild the forward pass from the current
    parameter values each time it is called.  Each coordinate keeps the
    better of two step sizes: the small step (1e-5) bounds truncation
    error, the larger one (1e-4) rescues near-zero gradients whose
    differences would otherwise drown in float64 roundoff.
    """
    record = ComputeRecord()
    loss = build_loss(record)
    analytic = backward(record, loss)
    worst = 0.0
    for p in params:
        if not p.trainable:
            continue
        flat = p.value.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            best = np.inf
            for step in (1e-5, 1e-4):
                flat[i] = orig + step
                lp = float(build_loss(ComputeRecord(grad=False)).value)
                flat[i] = orig - step
                lm = float(build_loss(ComputeRecord(grad=False)).value)
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                if not np.isfinite(fd):
                    raise NonFiniteError("finite-difference estimate diverged at %s[%d]"
                                         % (p.name, i))
                rel = abs(ga[i] - fd) / max(1e-8, abs(ga[i]) + abs(fd))
                best = min(best, rel)
            worst = max(worst, best)
    return worst

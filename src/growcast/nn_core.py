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
finite to finite.  Each check reads the array once, as the sum of its
squares (`np.vdot`), which is finite only when every entry is; only a
non-finite sum, from a non-finite entry or from squares that overflow,
pays for the exact elementwise test.  The NonFiniteError names the
parameter or the primitive, and it is the only report: the primitives,
backward and Adam run with numpy's overflow and invalid-value warnings
off.  `relu` applies ReLU and dropout as one multiplier.  The graph
layers, `graph_conv` and the fused `graph_input`, take a list of n x n
matrices and a weight that is a channel mix or Chebyshev coefficients.  A
record built with `grad=False` keeps no tape, so evaluation frees each
intermediate once the next layer has read it.

What a training record keeps: at every point of a step, only arrays that
a grad_fn still to run reads.  A grad_fn keeps only what the gradients
that will be taken read, and never its own node's output: `relu` keeps a
bool mask, one byte per element; `graph_conv` keeps G h only for a
trainable matrix weight and h only for trainable coefficients;
`temporal_conv` keeps its input only for a trainable weight;
`graph_input` keeps G x and x only for the weights that read them.  An
output that its primitive allocated is fresh until the next primitive
is recorded.  The next primitive that reads it takes its array (`_take`),
and the node's value becomes None: `relu` and a square `graph_conv`
write their output into it, `temporal_conv` hands it to its grad_fn
alone, `mean_pool_time` keeps it to receive the input gradient, and a
primitive whose gradient needs no such array drops it.
`backward` frees each node once it has passed it (value, grad_fn and
parents; leaves and constants stay).  It owns a gradient that it alone
holds, one a grad_fn allocated rather than a view or a broadcast, and
the grad_fn it hands an owned gradient to may overwrite it; a grad_fn
may overwrite the arrays its primitive took as well.  So nothing writes
a leaf, a constant, or an array that no primitive took, such as the
prediction a caller holds, and no float operation depends on where its
result is stored.

Windows run once per distinct step: a `Steps` layout says where each
window lies on one timeline of steps, and `temporal_conv` and
`mean_pool_time` take it.  Windows that share no step, such as B
disjoint ones, are a layout too.  The temporal conv is a list of slabs,
one tap's GEMM over a block of rows; the forward forms each tap's
product once and slices its slabs from it, and backward runs one input
GEMM and one weight GEMM per slab.  Backward copies nothing that its
arithmetic does not read: the conv's first tap writes its rows in place,
the time pool adds into each window's block of rows with one slice add,
and a batched product takes W^T or G^T contiguous, not as a view.  Each
gives the bytes of a plain loop over the columns or slabs: the same
float operations on the same operands, in the same order.
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
    "Steps",
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

    A primitive that takes the node's array (`_take`) sets `value` to
    None; `backward` sets `value`, `grad_fn` and `parents` to None once it
    is done with the node.
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
        self._owned = None  # the gradient backward hands over to a grad_fn to overwrite

    def leaf(self, param: Parameter) -> Node:
        if not _finite(param.value):
            raise NonFiniteError("non-finite parameter %s" % param.name)
        node = Node(param.value, needs_grad=self.grad and param.trainable)
        self._param_nodes[param.name] = (param, node)
        return self._keep(node)

    def constant(self, value) -> Node:
        value = np.asarray(value, dtype=float)
        if not _finite(value):
            raise NonFiniteError("non-finite constant")
        return self._keep(Node(value))

    def record(self, op_name, value, parents, grad_fn, scan=True, fresh=False) -> Node:
        """Add one primitive's output, a float64 array.

        scan=False is for ops that map finite inputs to finite outputs.
        fresh=True says `value` is an array the primitive allocated, which
        the primitive right after it may take (`_take`) when C-contiguous.
        """
        if scan and not _finite(value):
            raise NonFiniteError("non-finite output of %s" % op_name)
        if self.grad:
            node = Node(value, tuple(parents), grad_fn, any(p.needs_grad for p in parents))
        else:
            node = Node(value)
        self._fresh = node if fresh and value.flags.c_contiguous else None
        return self._keep(node)

    def _keep(self, node: Node) -> Node:
        if self.grad:
            self.nodes.append(node)
        return node


def _finite(v) -> bool:
    """Whether every entry of the float array v is finite, in one read when it is.

    The sum of squares is finite only when every entry is; np.vdot warns
    of no overflow, and a non-finite sum goes to the exact test.
    """
    return bool(np.isfinite(np.vdot(v, v))) or bool(np.isfinite(v).all())


# arithmetic that may overflow runs under this; the scans report it
_quiet = np.errstate(over="ignore", invalid="ignore")


def _as_node(record: ComputeRecord, x) -> Node:
    if not isinstance(x, Node):
        return record.constant(x)
    if x.value is None:
        if x.parents is None:
            raise NnError("backward has freed this node; build a new record")
        raise NnError("the primitive that read this node took its array in place; "
                      "read that primitive's output")
    return x


def _take(record, x):
    """(x's array, whether the primitive now reading x takes it).

    It does when x is the fresh output of the primitive recorded just
    before, which no other node has read: x's node then gives the array up
    (its value becomes None), and the primitive may overwrite it, keep it
    for its grad_fn alone, or drop it.  Call after the shape checks.
    """
    if record._fresh is not x:
        return x.value, False
    value, x.value = x.value, None
    return value, True


def _shape_check(op, cond, *shapes):
    if not cond:
        raise ShapeError("%s: incompatible shapes %s" % (op, [tuple(s) for s in shapes]))


def _dense(m, g):
    """The transposed view m as the operand of a product with g: contiguous when g is batched.

    A batched np.matmul runs 1.4-1.9x slower on a transposed view than on a
    contiguous copy of it, with the same bytes; a 2-D product hands the view
    to BLAS as a transposed operand, which a copy would round differently.
    """
    return np.ascontiguousarray(m) if g.ndim > 2 else m


@_quiet
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
            g @ _dense(W.value.T, g) if x.needs_grad else None,
            np.einsum("...i,...j->ij", x.value, g, optimize=True)
            if W.needs_grad else None,
        ]
        if b is not None:
            grads.append(g.reshape(-1, g.shape[-1]).sum(axis=0)
                         if b.needs_grad else None)
        return grads

    return record.record("linear", out, parents, grad_fn, fresh=True)


@_quiet
def relu(record, x, p=0.0, rng=None):
    """max(x, 0) followed by inverted dropout at rate p, in one pass.

    p = 0: np.maximum(x, 0) (-0.0 maps to +0.0), no rng.  p > 0: one
    rng.random(x.shape) call, as the unfused dropout drew, gives the
    multiplier m = (x > 0) * (draw >= p) / (1 - p); the output is x * m
    (so -0.0 where x < 0).  The tape keeps a bool mask, one byte per
    element: out > 0, or the entries that dropout keeps.  Backward
    multiplies the mask into g, then for p > 0 scales by 1 / (1 - p),
    which rounds as g * m would; both run in place on an owned g.  When
    relu takes x (`_take`), the output overwrites x's array.  Only dropout
    scaling can overflow, so only then is the output scanned.
    """
    x = _as_node(record, x)
    if not (0.0 <= p < 1.0):
        raise NnError("dropout rate must lie in [0, 1), got %r" % p)
    if p > 0.0 and rng is None:
        raise NnError("dropout with p > 0 needs an explicit rng")
    value, own = _take(record, x)
    out = value if own else None
    if p == 0.0:
        out = np.maximum(value, 0.0, out=out)
        keep = out > 0 if record.grad else None  # evaluation keeps no mask
    else:
        m = rng.random(value.shape)
        keep = m >= p
        keep &= value > 0
        np.divide(keep, 1.0 - p, out=m)
        out = np.multiply(value, m, out=out)
        del m  # backward scales by 1 / (1 - p) after the one-byte mask

    def grad_fn(g):
        g = np.multiply(g, keep, out=g if record._owned is g else None)
        if p > 0.0:
            g *= 1.0 / (1.0 - p)
        return [g]

    return record.record("relu", out, [x], grad_fn, scan=p > 0.0, fresh=True)


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


def _even(first):
    """r -> the rows first + r, a slice when `first` rises in even steps, else an index array."""
    lo, stop = int(first[0]), int(first[-1]) + 1
    step = int(first[1]) - lo if len(first) > 1 else 1
    if step > 0 and first.tolist() == list(range(lo, stop, step)):
        return lambda r: slice(lo + r, stop + r, step)
    return lambda r: first + r


class Steps:
    """Windows laid over one timeline of distinct steps, under a K-tap conv.

    Built from `heads`, where heads[i] is the timeline row on which window
    i starts, so step o of window i is timeline row heads[i] + o; the heads
    are distinct, and the windows read the first `length` rows of the
    timeline.  Built once per batch and passed to `temporal_conv` and
    `mean_pool_time`.  B disjoint windows, heads T * arange(B), are a
    layout like any other.

    Window row o is an edge row when one of the conv's taps reads padding
    for it: the first K // 2 rows and the last K - 1 - K // 2.  Interior
    rows see only their own window's steps, and windows that overlap see
    the same steps there, so the conv computes each interior timeline row
    that some window reads once, and the edge rows per window.  The read
    interior rows form runs, blocks of consecutive timeline rows.  The
    conv's output is a stack of `n_rows` rows: the runs' rows in timeline
    order, then each window's edge rows, window by window, so `n_rows` is
    at most the B*T window rows.  `columns[o]` is the stack rows of window
    row o of every window: a strided slice for an edge row, and for an
    interior row a slice when the windows' rows rise in even steps, else
    an index array.  No row repeats within a column, and every stack row
    is in some column.

    The interior rows of a window are one block of stack rows, and
    `blocks` = (windows, starts, I) lists them by descending start: window
    windows[j]'s I interior rows are stack rows starts[j] onwards.  The
    runs' rows are the first `n_shared` stack rows, and `runs` lists each
    run as (first timeline row, end, first stack row).

    `taps` are the conv's slabs grouped by tap: entries (k, span, in_place,
    slabs), each slab (timeline rows, stack rows, first).  Tap k reads one
    block of timeline rows into each run, and for each edge row o, row
    o + s of every window, s = k - K // 2 (a slice when the heads rise in
    even steps, else an index array), into that row's column.  Slabs go
    tap by tap; the first tap to reach a row writes it.  With distinct
    heads no slab reads or writes a row twice, so backward runs one GEMM
    per slab and adds each window's gradient with an indexed +=.

    The forward instead forms each product row once: tap k multiplies
    `span`, the timeline rows its slabs read, by W[k] in one call, and its
    slabs then slice or gather their rows of that product, so edge rows
    cost no GEMM of their own.  When the stack holds one run, from
    timeline row K // 2, the first tap writes its product straight into
    the stack's leading rows, so its first slab, the run, is `in_place` and
    the forward skips it; the row or two its edges read past the run land
    on the first window's left-edge rows, which only a later tap writes.

    Every layer after the first meets each step with the same products in
    the same order as a loop over each window's zero-padded rows.  The
    caller's layer-1 GEMM has one row per timeline step instead of B*T, and
    BLAS may round a row differently with the row count, so predictions
    agree with per-window evaluation up to that last-digit rounding.
    Gradients sum the windows' contributions in another order, so they
    agree up to rounding too.
    """

    def __init__(self, heads, T, K):
        heads = np.asarray(heads)
        valid = heads.ndim == 1 and heads.size > 0 and heads.dtype.kind in "iu"
        if valid:
            heads = heads.astype(np.intp, copy=False)
            rank = heads.argsort()
            order = heads[rank]
            gaps = order[1:] - order[:-1]
            valid = order[0] >= 0 and (gaps > 0).all()
        if not valid:
            raise ShapeError("steps: heads must be a nonempty 1-D array of distinct "
                             "nonnegative integers, got %s of %s" % (heads.shape, heads.dtype))
        B, a = len(heads), K // 2
        self.T, self.K = T, K
        self.length = int(order[-1]) + T
        edges = [o for o in range(T) if o < a or o > T - K + a]
        E, I = len(edges), T - len(edges)  # interior rows: head + a .. head + a + I - 1
        self.runs, base, down = [], heads, rank[:0]
        if I:
            # a gap wider than a window's interior ends one run and opens the next:
            # order[i] opens a run where wide[i] and closes one where wide[i + 1]
            wide = np.ones(B + 1, dtype=bool)
            wide[1:-1] = gaps > I
            firsts = order[wide[:-1]] + a
            ends = order[wide[1:]] + a + I
            sizes = ends - firsts
            offsets = np.cumsum(sizes) - sizes
            self.runs = list(zip(firsts.tolist(), ends.tolist(), offsets.tolist()))
            run = np.searchsorted(firsts, heads + a, side="right") - 1
            base = heads + (offsets - firsts)[run]  # window row o sits at stack row base + o
            down = rank[::-1]  # stack rows rise with the heads, in and across runs
        self.n_shared = sum(end - first for first, end, _ in self.runs)
        self.n_rows = self.n_shared + B * E
        self.blocks = (down, base[down] + a, I)
        across, inside = _even(heads), _even(base)
        self.columns = [slice(self.n_shared + edges.index(o), None, E) if o in edges
                        else inside(o) for o in range(T)]
        self.taps = []
        for k in range(K):
            s = k - a
            tap = [(slice(first + s, end + s), slice(c, c + end - first), k == 0)
                   for first, end, c in self.runs]
            tap += [(across(o + s), slice(self.n_shared + e, None, E), k == 0 or o + s == 0)
                    for e, o in enumerate(edges) if 0 <= o + s < T]
            if tap:
                span = slice(int(order[0]) + max(s, 0), self.length + min(s, 0))
                in_place = k == 0 and len(self.runs) == 1 and self.runs[0][0] == a
                self.taps.append((k, span, in_place, tap))


def _tap_sum(src, mats, taps, out):
    """The `Steps` forward: each tap's slabs of src @ mats[k], each product row formed once.

    A first slab writes its rows and every other slab adds into them, in
    list order; every row gets the same per-matrix products in the same
    order as one GEMM per slab would give it, so the stack is the same to
    the last bit.
    """
    product = None
    for k, span, in_place, slabs in taps:
        if in_place:
            P = out
        else:
            if product is None:
                product = np.empty((src.shape[0],) + out.shape[1:])
            P = product
        np.matmul(src[span], mats[k], out=P[span])
        for i, o, first in slabs[in_place:]:
            if first:
                out[o] = P[i]
            else:
                out[o] += P[i]
    return out


@_quiet
def temporal_conv(record, x, W, b, steps):
    """1D convolution over the time axis of each window, kernel K, same-length zero padding.

    steps: the `Steps` layout of the windows, with K taps.  x: a (1, L, n,
    d_in) timeline of at least `steps.length` rows, W: (K, d_in, d_out),
    b: (d_out,); the output is the layout's (n_rows, n, d_out) stack.  The
    forward runs `steps.taps`, each tap's product once, adding the taps in
    kernel order, so every window row rounds as a loop over a zero-padded
    copy of its window would.  The input gradient runs the slabs from
    output to input with W[k]^T: the first tap's run slabs, blocks of
    timeline rows that no other of them touches, write their product in
    place, the rows between them are zeroed, and the other slabs add into
    their rows, which gives each row the bytes of zeros plus every slab in
    list order.  The weight gradient is one 2-D GEMM per slab, over its
    rows as one block.

    Only the weight gradient reads x, so a frozen W keeps nothing of it.
    When temporal_conv takes x (`_take`), a frozen W drops x's array and a
    trainable one hands it to the grad_fn alone, which forms the weight
    gradient and then writes the input gradient into it.
    """
    x, W, b = _as_node(record, x), _as_node(record, W), _as_node(record, b)
    _shape_check("temporal_conv", x.value.ndim == 4 and W.value.ndim == 3
                 and x.shape[-1] == W.shape[1] and b.shape == (W.shape[2],)
                 and x.shape[0] == 1 and x.shape[1] >= steps.length and W.shape[0] == steps.K,
                 x.shape, W.shape, b.shape)
    shape, (_, d_in, d_out) = x.shape, W.shape
    value, own = _take(record, x)
    src = value[0]
    out = _tap_sum(src, W.value, steps.taps, np.empty((steps.n_rows, shape[2], d_out)))
    out += b.value
    if not W.needs_grad:
        value = src = None

    def grad_fn(g):
        nonlocal value, src
        slabs = [(k,) + slab for k, _, _, tap in steps.taps for slab in tap]
        gx = gW = gb = None
        if W.needs_grad:
            gW = np.zeros(W.shape)
            for k, i, o, _ in slabs:
                gW[k] += src[i].reshape(-1, d_in).T @ g[o].reshape(-1, d_out)
        if x.needs_grad:
            gx = value if own and value is not None else np.empty(shape)  # taken, no longer read
            Wt = np.ascontiguousarray(W.value.transpose(0, 2, 1))
            # the first tap's run slabs, apart and in timeline order, write their rows
            written, row = slabs[:len(steps.runs)], 0
            for _, i, _, _ in written:
                gx[0, row:i.start] = 0.0
                row = i.stop
            gx[0, row:] = 0.0
            for k, i, o, _ in written:
                np.matmul(g[o], Wt[k], out=gx[0, i])
            for k, i, o, _ in slabs[len(written):]:
                gx[0][i] += g[o] @ Wt[k]
        value = src = None
        if b.needs_grad:
            gb = g.reshape(-1, d_out).sum(axis=0)
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


@_quiet
def graph_conv(record, operator, h, weight):
    """Graph convolution G h W, with (G, W) as `_propagator` gives them.

    operator is a list of constant n x n matrices: [A_hat] with a d x d_out
    matrix weight (spatial), or the Chebyshev basis [T_0, ..., T_K] with
    K+1 coefficients (spectral, no channel mix).  h may carry leading
    batch/time axes with nodes on axis -2.  Forward is one propagation G h
    and the input gradient one G^T g; a coefficient gradient is <T_k, S>
    with S = sum over windows of g h^T, one GEMM.

    A trainable matrix weight keeps G h and trainable coefficients keep h;
    nothing else is kept.  When graph_conv takes h (`_take`), a square
    matrix weight writes (G h) W into h's array; otherwise h's array goes
    unless the coefficients keep it.  Backward forms the weight gradient
    first, then writes g W^T into the kept G h and G^T (g W^T) into an
    owned g of the same shape, or G^T g into a taken h.  A batched g meets
    W^T and G^T as contiguous d x d and n x n copies (`_dense`).
    """
    h, weight = _as_node(record, h), _as_node(record, weight)
    basis = [np.asarray(Tk, dtype=float) for Tk in operator]
    _shape_check("graph_conv", h.value.ndim >= 2
                 and _fits(basis, weight.value, h.shape[-2], h.shape[-1]),
                 weight.shape, h.shape, *[Tk.shape for Tk in basis])
    G, W = _propagator(basis, weight.value)
    value, own = _take(record, h)
    Gh = np.matmul(G, value)
    if W is None:
        out = Gh
    else:
        out = np.matmul(Gh, W, out=value if own and W.shape[0] == W.shape[1] else None)
    if W is None or not weight.needs_grad:
        Gh = None  # only a matrix weight's gradient reads it
    if W is not None or not weight.needs_grad:
        value = None  # only a coefficient gradient reads h

    def grad_fn(g):
        nonlocal Gh, value
        gh = gw = None
        if weight.needs_grad and W is None:
            axes = [a for a in range(g.ndim) if a != g.ndim - 2]
            S = np.tensordot(g, value, axes=(axes, axes))  # (n, n)
            gw = np.array([np.vdot(Tk, S) for Tk in basis])
        elif weight.needs_grad:
            gw = np.einsum("...i,...j->ij", Gh, g, optimize=True)
        if h.needs_grad:
            mixed = g if W is None else np.matmul(g, _dense(W.T, g), out=Gh)
            if W is None:
                into = value if own else None
            else:
                into = g if record._owned is g and g.shape == mixed.shape else None
            gh = np.matmul(_dense(G.T, mixed), mixed, out=into)
        Gh = value = None
        return [gh, gw]

    return record.record("graph_conv", out, [h, weight], grad_fn, fresh=True)


@_quiet
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


@_quiet
def mean_pool_time(record, x, steps):
    """Mean over each window's T rows of a `Steps` stack.

    x is the layout's (n_rows, n, d) stack.  The T (B, n, d) columns, views
    where `steps.columns` are slices, add into one buffer in time order, as
    numpy's mean over the time axis of the gathered (B, T, n, d) windows
    adds them, with no such copy.  Backward zeroes the stack's gradient,
    adds g[i] / T into window i's block of interior rows with one slice
    add per window, going down `steps.blocks`, and then into the edge rows,
    one per window and edge.  A window that starts lower reads a shared
    row at a later window row, so each row adds its windows' terms in time
    order: the bytes of adding g / T into each column in time order,
    without gathering a column of rows.

    Backward reads only x's shape.  When mean_pool_time takes x (`_take`),
    x's array receives x's gradient, an array that size either way, so
    backward need not allocate one while the step is at its largest.
    """
    x = _as_node(record, x)
    _shape_check("mean_pool_time", x.value.ndim == 3 and x.shape[0] == steps.n_rows,
                 x.shape, (steps.n_rows,))
    columns, T, shape = steps.columns, steps.T, x.shape
    value, own = _take(record, x)
    out = np.array(value[columns[0]])
    for c in columns[1:]:
        out += value[c]
    out /= T
    if not (own and x.needs_grad):
        value = None  # the gradient reads no value; a taken array holds x's gradient

    def grad_fn(g):
        nonlocal value
        gx, value = value, None
        if gx is None:
            gx = np.zeros(shape)
        else:
            gx.fill(0.0)
        g = g / T
        windows, starts, I = steps.blocks  # by descending start: each row adds in time order
        for i, start in zip(windows.tolist(), starts.tolist()):
            gx[start:start + I] += g[i]
        edge = gx[steps.n_shared:].reshape((len(g), T - I) + g.shape[1:])  # gx is contiguous
        edge += g[:, None]
        return [gx]

    return record.record("mean_pool_time", out, [x], grad_fn)


@_quiet
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


@_quiet
def backward(record: ComputeRecord, loss: Node) -> dict:
    """Reverse accumulation; gradients for trainable parameters only.

    Trainable parameters that never touched the loss get zero gradients;
    frozen parameters are absent from the map.  A record replays once, and
    frees itself as it goes: once a node's turn has passed, its value,
    grad_fn and parents are dropped, since every reader of them (the
    node's children) has already run.  Leaves and constants keep their
    values, and `record.nodes` keeps its length.

    Each node's gradient goes to its grad_fn alone.  Backward owns it when
    nothing else holds it: a C-contiguous array that a grad_fn allocated
    (not a view, such as a broadcast or a slice) and handed to one parent,
    the owned g that a grad_fn wrote into and returned, or a sum of two
    gradients.  It marks an owned g as `record._owned` for the grad_fn,
    which may then overwrite it.
    """
    if record.consumed:
        raise NnError("compute record already consumed")
    if not record.grad:
        raise NnError("compute record was built with grad=False")
    if loss.value.shape != ():
        raise NnError("loss must be scalar, got shape %s" % (loss.value.shape,))
    record.consumed = True
    grads = {id(loss): (np.asarray(1.0), True)}  # id -> (gradient, owned)
    for node in reversed(record.nodes):
        if node.grad_fn is None:
            continue  # leaves keep their value and their accumulated gradient
        g, owned = grads.pop(id(node), (None, False))
        if g is not None:
            record._owned = g if owned else None
            pgs = node.grad_fn(g)
            record._owned = None
            for parent, pg in zip(node.parents, pgs):
                if not parent.needs_grad:
                    continue
                acc = grads.get(id(parent))
                if acc is None:
                    grads[id(parent)] = (pg, pg.base is None and pg.flags.c_contiguous
                                         and (pg is not g or owned)
                                         and sum(q is pg for q in pgs) == 1)
                else:
                    grads[id(parent)] = (acc[0] + pg, True)
        node.value = node.grad_fn = node.parents = None
    out = {}
    for name, (param, node) in record._param_nodes.items():
        if not param.trainable:
            continue
        g, _ = grads.get(id(node), (None, False))
        out[name] = np.zeros_like(param.value) if g is None else np.asarray(g)
    return out


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


@_quiet
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

"""Minimal differentiable numeric core.

Forward primitives record onto a ComputeRecord (a linear tape of numpy
operations); reverse-mode accumulation replays the tape backward and
returns gradients for trainable parameters only.  Everything is double
precision, and every random draw comes from a named stream derived from
one experiment seed, so runs replay bit-for-bit on one platform.

Non-finite values are caught where they can first appear: GEMM-like
primitives and the loss scan their output; `relu` without dropout,
`concat_rows` and the backbone's transpose map finite to finite and scan
only unscanned inputs (leaves, constants).  The NonFiniteError names the
primitive.  `relu` applies ReLU and dropout as one multiplier, in place
into the fresh output of the primitive before it.  The graph layers,
`graph_conv` and the fused `graph_input`, take a list of n x n matrices
and a weight that is a channel mix or Chebyshev coefficients.  A record
built with `grad=False` keeps no tape, so evaluation frees each
intermediate once the next layer has read it.
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
    """A value on the tape; `scanned` marks a value known to be finite."""

    __slots__ = ("value", "parents", "grad_fn", "needs_grad", "scanned")

    def __init__(self, value, parents=(), grad_fn=None, needs_grad=False, scanned=False):
        self.value = value
        self.parents = parents
        self.grad_fn = grad_fn
        self.needs_grad = needs_grad
        self.scanned = scanned

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
        node = Node(param.value, needs_grad=self.grad and param.trainable)
        self._param_nodes[param.name] = (param, node)
        return self._keep(node)

    def constant(self, value) -> Node:
        return self._keep(Node(np.asarray(value, dtype=float)))

    def record(self, op_name, value, parents, grad_fn, scan=True, fresh=False) -> Node:
        """Add one primitive's output.

        scan=False is for ops that map finite inputs to finite outputs:
        only their unscanned inputs (leaves, constants) are checked.
        fresh=True says `value` is an array the primitive allocated, which
        a `relu` right after it may overwrite.
        """
        value = np.asarray(value, dtype=float)
        if scan:
            if not np.isfinite(value).all():
                raise NonFiniteError("non-finite output of %s" % op_name)
        else:
            for p in parents:
                if not (p.scanned or np.isfinite(p.value).all()):
                    raise NonFiniteError("non-finite input of %s" % op_name)
                p.scanned = True
        if self.grad:
            node = Node(value, tuple(parents), grad_fn,
                        any(p.needs_grad for p in parents), scanned=True)
        else:
            node = Node(value, scanned=True)
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
    / (1 - p); the output is x * m (so -0.0 where x < 0) and backward is
    g * m.  The result overwrites x's array when x is the fresh output of
    the primitive recorded just before; x's value is then gone.  Leaves,
    constants and outputs another primitive read are never written.  Only
    dropout scaling can overflow, so without it only an unscanned x (a
    leaf or constant) is scanned.
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

        def grad_fn(g):
            return [g * m]

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
    """(k, input rows, output rows) of each kernel tap that reaches [0, T).

    With same-length zero padding, tap k reads input row o + s into output
    row o, where s = k - K // 2; a tap with |s| >= T reads only padding.
    """
    shifts = [(k, k - K // 2) for k in range(K)]
    return [(k, slice(max(0, s), T - max(0, -s)), slice(max(0, -s), T - max(0, s)))
            for k, s in shifts if abs(s) < T]


def _tap_sum(src, mats, taps, shape):
    """Sum over taps of src[:, a] @ mats[k] into rows c of a (B, T, ...) array.

    Taps add in kernel order, and rows no tap reaches are zero, so the sum
    rounds exactly as a loop over a zero-padded copy of src would.
    """
    out = np.empty(shape)
    for j, (k, a, c) in enumerate(taps):
        if j == 0:
            out[:, :c.start] = 0.0
            out[:, c.stop:] = 0.0
            np.matmul(src[:, a], mats[k], out=out[:, c])
        else:
            out[:, c] += src[:, a] @ mats[k]
    return out


def temporal_conv(record, x, W, b):
    """1D convolution over the time axis, kernel K, same-length zero padding.

    x: (B, T, n, d_in), W: (K, d_in, d_out), b: (d_out,).  Each tap adds
    one shifted (B, T - |s|, n) slab of x @ W[k]; the input gradient is
    built the same way from g @ W[k]^T, and only the weight gradient
    builds the zero-padded (B, T + K - 1, n, d_in) copy of x.
    """
    x, W, b = _as_node(record, x), _as_node(record, W), _as_node(record, b)
    _shape_check("temporal_conv", x.value.ndim == 4 and W.value.ndim == 3
                 and x.shape[-1] == W.shape[1] and b.shape == (W.shape[2],),
                 x.shape, W.shape, b.shape)
    K = W.shape[0]
    T = x.shape[1]
    taps = _taps(K, T)
    out = _tap_sum(x.value, W.value, taps, x.shape[:3] + (W.shape[2],))
    out += b.value

    def grad_fn(g):
        gx, gW, gb = None, None, None
        if W.needs_grad:
            left = K // 2
            pad = np.zeros((x.shape[0], T + K - 1, x.shape[2], x.shape[3]))
            pad[:, left:left + T] = x.value
            gW = np.zeros_like(W.value)
            for k in range(K):
                gW[k] = np.einsum("btnd,btne->de", pad[:, k:k + T], g, optimize=True)
        if x.needs_grad:
            gx = _tap_sum(g, W.value.transpose(0, 2, 1), [(k, c, a) for k, a, c in taps],
                          x.shape)
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

    def grad_fn(g):
        gh = gw = None
        if h.needs_grad:
            gh = np.matmul(G.T, g if W is None else g @ W.T)
        if weight.needs_grad and W is None:
            axes = [a for a in range(g.ndim) if a != g.ndim - 2]
            S = np.tensordot(g, h.value, axes=(axes, axes))  # (n, n)
            gw = np.array([np.vdot(Tk, S) for Tk in basis])
        elif weight.needs_grad:
            gw = np.einsum("...i,...j->ij", Gh, g, optimize=True)
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


def mean_pool_time(record, x):
    """Mean over the time axis of a (B, T, n, d) tensor."""
    x = _as_node(record, x)
    _shape_check("mean_pool_time", x.value.ndim == 4, x.shape)
    T = x.shape[1]
    out = x.value.mean(axis=1)

    def grad_fn(g):
        return [np.broadcast_to(g[:, None] / T, x.shape)]

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
    frozen parameters are absent from the map.  A record replays once.
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
            continue  # leaves keep their accumulated gradient
        g = grads.pop(id(node), None)
        if g is None:
            continue
        parent_grads = node.grad_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.needs_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    out = {}
    for name, (param, node) in record._param_nodes.items():
        if not param.trainable:
            continue
        g = grads.get(id(node))
        out[name] = np.zeros_like(param.value) if g is None else np.asarray(g)
    return out


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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
    b1, b2 = state.beta1, state.beta2
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
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + state.eps)


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

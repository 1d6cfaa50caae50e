"""Reference implementations that tests compare the program against."""
import numpy as np

from growcast import nn_core as nn


def heterogeneity_D_double_sum(X) -> float:
    """O(n^2 d) definition of the dispersion; oracle for the closed form."""
    x = np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        total += float(((x[i] - x) ** 2).sum())
    return total / (n * n)


def backbone_param_count(backbone) -> int:
    """Every backbone weight, trainable or not."""
    return sum(p.value.size for p in backbone.values())


def pool_param_count(pool) -> dict:
    """Trainable pool entries against the n x d prompt they materialize."""
    tunable = sum(p.value.size for p in pool.parameters() if p.trainable)
    materialized = sum(len(A.value) for A in pool.factors) * pool.B.value.shape[1]
    return {"tunable": tunable, "materialized": materialized,
            "ratio": tunable / materialized}


def neutralize_cross_covariance(X, P) -> np.ndarray:
    """Center P and remove its sample cross-covariance with centered X.

    After this projection the dispersion shift equals the prompt-spread
    term exactly, which is where the >= 0 claim is literally true.
    """
    x = np.asarray(X, dtype=float)
    p = np.asarray(P, dtype=float)
    xc = x - x.mean(axis=0)
    pc = p - p.mean(axis=0)
    # Least-squares removal of the component of P lying in the row space of Xc.
    coef, *_ = np.linalg.lstsq(xc, pc, rcond=None)
    return pc - xc @ coef


def padded_conv(x, W, b) -> np.ndarray:
    """Same-length temporal conv of (B, T, n, d_in) windows: a loop over a zero-padded copy."""
    K, T = W.shape[0], x.shape[1]
    pad = np.zeros((x.shape[0], T + K - 1) + x.shape[2:])
    pad[:, K // 2:K // 2 + T] = x
    out = np.zeros(x.shape[:3] + (W.shape[2],))
    for k in range(K):
        out += pad[:, k:k + T] @ W[k]
    return out + b


def windowed_forward(backbone, operator, x, prompt=None, train=False, rng=None,
                     dropout=0.0) -> np.ndarray:
    """The backbone's prediction with every layer over all B*T window rows.

    The primitives of `forward_predict` in its order, except that the
    temporal conv is `padded_conv` and the time pool numpy's mean over the
    window axis, so nothing here lays windows over a timeline.  With
    dropout each ReLU draws (B, T, n, d) masks from rng.
    """
    record = nn.ComputeRecord(grad=False)
    v = {name: p.value for name, p in backbone.items()}
    w = "W" if "gconv1.W" in backbone else "theta"
    p = dropout if train else 0.0
    h = nn.relu(record, nn.graph_input(record, operator, x, v["input_proj.W"],
                                       v["input_proj.b"], prompt, v["gconv1." + w]), p, rng)
    h = nn.relu(record, padded_conv(h.value, v["tconv.W"], v["tconv.b"]), p, rng)
    h = nn.relu(record, nn.graph_conv(record, operator, h, v["gconv2." + w]))
    out = nn.linear(record, h.value.mean(axis=1), v["head.W"], v["head.b"])
    return np.transpose(out.value, (0, 2, 1))


def keeping_backward(record, loss) -> dict:
    """Reverse accumulation that leaves the whole tape in place.

    The replay `nn.backward` did before it freed each node behind it and
    handed grad_fns gradients to overwrite; the gradients must depend on
    neither.
    """
    grads = {id(loss): np.asarray(1.0)}
    for node in reversed(record.nodes):
        if node.grad_fn is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if parent.needs_grad:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return {name: np.zeros_like(param.value) if id(node) not in grads
            else np.asarray(grads[id(node)])
            for name, (param, node) in record._param_nodes.items() if param.trainable}


def step_rows(steps) -> np.ndarray:
    """The stack row of each window step, as one (B, T) array from `steps.columns`."""
    return np.stack([np.arange(steps.n_rows)[c] for c in steps.columns], axis=1)


def step_slabs(steps) -> list:
    """`steps.taps` flattened, tap by tap, to slabs (k, timeline rows, stack rows, first)."""
    return [(k,) + slab for k, _, _, tap in steps.taps for slab in tap]


def slab_steps_conv(x, W, b, steps) -> np.ndarray:
    """The shared-step temporal conv forward with one GEMM per slab.

    x is the (1, L, n, d_in) timeline; each of `step_slabs(steps)` multiplies
    its own timeline rows by W[k] and writes or adds the product into its
    stack rows, as the forward ran before each tap's product was formed once.
    """
    src = x[0]
    out = np.empty((steps.n_rows, x.shape[2], W.shape[2]))
    for k, i, o, first in step_slabs(steps):
        if first:
            np.matmul(src[i], W[k], out=out[o])
        else:
            out[o] += src[i] @ W[k]
    return out + b


def gathering_pool(stack, steps, g):
    """Time mean of the stack's windows by gathering `step_rows`, and its input gradient.

    One (B, n, d) gather per window row, added in time order; backward adds
    g / T into the gathered rows of each column.
    """
    rows, T = step_rows(steps), steps.T
    out = stack[rows[:, 0]]
    for o in range(1, T):
        out += stack[rows[:, o]]
    out /= T
    gx = np.zeros(stack.shape)
    for o in range(T):
        gx[rows[:, o]] += g / T
    return out, gx


def column_pool_gradient(steps, g):
    """mean_pool_time's input gradient as a loop over `steps.columns`.

    The stack starts at zero, and g / T adds into the rows of each column,
    one column after another in time order.
    """
    gx = np.zeros((steps.n_rows,) + g.shape[1:])
    g = g / steps.T
    for column in steps.columns:
        gx[column] += g
    return gx


def slab_conv_input_gradient(steps, W, g, L):
    """temporal_conv's input gradient over an L-row timeline as a loop over the slabs.

    The timeline starts at zero, and each of `step_slabs(steps)` adds its
    g[stack rows] @ W[k]^T into its timeline rows, slab after slab.
    """
    gx = np.zeros((1, L) + g.shape[1:-1] + (W.shape[1],))
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    for k, i, o, _ in step_slabs(steps):
        gx[0][i] += g[o] @ Wt[k]
    return gx


def observation_cells(path) -> np.ndarray:
    """An observation CSV's data cells, T x n in file column order, cell by cell.

    The rule ingestion followed before numpy read the cells: `float(cell)`,
    or nan for an empty or whitespace-only cell; blank lines are skipped
    and the time cell is never read.
    """
    with open(path) as fh:
        n = len(fh.readline().strip().split(",")) - 1
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if line:
                rows.append([float(tok) if tok.strip() else np.nan
                             for tok in line.split(",")[1:]])
    return np.asarray(rows, dtype=float).reshape(len(rows), n)

"""Trainable forecasting network over a growing graph.

The architecture is node-count-free: an input projection, two graph
convolutions around one temporal convolution, and a pooled linear head,
so the same parameter set serves every period of the stream.

The two variants differ only in `graph_operator` and the graph weights:
spatial layers propagate over [A_hat] with d x d weights `gconv*.W`,
spectral ones over the Chebyshev basis [T_0, ..., T_K] with coefficients
`gconv*.theta`.

The n x d prompt is added to the projected input before the first graph
convolution.  Raw inputs have one channel and nothing before the first
ReLU is nonlinear, so projection, prompt and first convolution run as one
fused primitive (`nn_core.graph_input`): G (x W_in + 1 b^T + P) W equals
(G x)(W_in W) + G (1 b^T + P) W exactly, a rank-1 term per window plus
one n x d constant, and no (B, T, n, d) tensor crosses the graph.

Batches share steps.  Windows of one split overlap: consecutive ones in
all but one step, and a shuffled training batch of 128 of 457 windows
reads only about 460 distinct steps in its 1,536 window rows.  When the
caller passes the windows' start offsets and the batch draws no dropout
mask, every layer up to the time pooling runs once per distinct step:
layer 1 on the sorted distinct steps, passed as one window, the temporal
conv's interior rows once per step and only its padded edge rows per
window, and the second graph conv on both.  The windows are gathered
back for pooling and the head, and backward adds each window's gradient
into the rows it shares.  Every layer after the first meets each step with the
same products in the same order as the windowed path; the layer-1 GEMM
has one row per distinct step instead of B*T, and BLAS may round a row
differently with the row count, so predictions match the windowed path
up to last-digit rounding, and gradients, which sum the windows in
another order, too.  A batch that draws dropout masks keeps the windowed
path and its (B, T, n, d) draws; no other may repeat a start.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core as nn
from .graph_stream import cheb_polynomials, normalize_adjacency, scaled_laplacian

VARIANTS = ("spatial", "spectral")


class BackboneError(ValueError):
    pass


@dataclass
class STGNNBackbone:
    variant: str
    d: int
    kernel: int
    K_order: int
    dropout_p: float
    params: dict  # name -> Parameter

    def parameters(self) -> list:
        return list(self.params.values())

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params.values():
            p.trainable = trainable


def build_backbone(variant: str, d: int = 64, kernel: int = 3, K_order: int = 2,
                   t_out: int = 12, dropout_p: float = 0.0, seed: int = 0) -> STGNNBackbone:
    """Weights uniform in +-1/sqrt(fan_in), drawn from named seed streams."""
    if variant not in VARIANTS:
        raise BackboneError("unknown backbone variant %r" % variant)
    if d <= 0 or t_out <= 0 or kernel <= 0:
        raise BackboneError("layer sizes must be positive")

    def uniform(name, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return nn.Parameter(name, rng(name).uniform(-bound, bound, size=shape))

    def rng(name):
        return nn.rng_stream(seed, "backbone", name)

    params = {}

    def put(p):
        params[p.name] = p

    put(uniform("input_proj.W", (1, d), 1))
    put(uniform("input_proj.b", (d,), 1))
    if variant == "spatial":
        put(uniform("gconv1.W", (d, d), d))
        put(uniform("gconv2.W", (d, d), d))
    else:
        put(uniform("gconv1.theta", (K_order + 1,), K_order + 1))
        put(uniform("gconv2.theta", (K_order + 1,), K_order + 1))
    put(uniform("tconv.W", (kernel, d, d), kernel * d))
    put(uniform("tconv.b", (d,), kernel * d))
    put(uniform("head.W", (d, t_out), d))
    put(uniform("head.b", (t_out,), d))
    return STGNNBackbone(variant=variant, d=d, kernel=kernel, K_order=K_order,
                         dropout_p=dropout_p, params=params)


def graph_operator(backbone: STGNNBackbone, adjacency: np.ndarray) -> list:
    """The graph layers' constant operator for one period: a list of n x n matrices."""
    if backbone.variant == "spatial":
        return [normalize_adjacency(adjacency)]
    return cheb_polynomials(scaled_laplacian(adjacency), backbone.K_order)


def _shared_steps(x, starts, kernel):
    """(timeline, window, rows) that run windows x starting at `starts` once per step.

    The timeline is the sorted distinct steps of all windows, (1, L, n, 1);
    window[i, o] is the timeline row of step o of window i, and rows maps
    window rows to the temporal conv's stacked output (`nn.step_rows`).
    None when that stack would have more rows than the B*T window rows.
    Raises BackboneError when two windows share a start or the windows do
    not agree with their starts.
    """
    B, T = x.shape[:2]
    starts = np.asarray(starts)
    if starts.shape != (B,) or starts.dtype.kind not in "iu":
        raise BackboneError("starts must be %d integer window offsets, got %s of %s"
                            % (B, starts.shape, starts.dtype))
    if len(np.unique(starts)) < B:
        raise BackboneError("two windows of the batch share a start offset")
    steps, window = np.unique(starts[:, None] + np.arange(T), return_inverse=True)
    # the stack holds L - K + 1 shared rows and K - 1 edge rows per window
    if kernel <= T and len(steps) - kernel + 1 > B * (T - kernel + 1):
        return None
    window = window.reshape(B, T)
    rows = nn.step_rows(window, kernel)
    x = x[..., 0]
    timeline = np.empty((len(steps),) + x.shape[2:])
    timeline[window] = x
    got = timeline[window]
    if not ((got == x).all() or np.array_equal(got, x, equal_nan=True)):
        raise BackboneError("windows do not agree with their start offsets")
    return timeline[None, ..., None], window, rows


def forward_predict(backbone: STGNNBackbone, operator, inputs, prompt=None,
                    record=None, train: bool = False, rng=None, starts=None):
    """Run the network on a batch.

    inputs: (B, t_in, n, 1), one input channel; prompt: n x d matrix,
    ndarray or tape Node, or None.  Returns a (B, t_out, n) Node on `record`.
    When none is given, a fresh record is created that keeps a backward
    tape only if `train` is set.  Dropout applies only when `train` is set.
    starts: each window's offset in its segment.  A batch with starts that
    draws no dropout mask takes the shared-step path (module docstring)
    unless its windows overlap too little; it raises BackboneError when
    two windows share a start, or on that path disagree with their starts.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 4 or x.shape[-1] != 1:
        raise BackboneError("inputs must be (B, t_in, n, 1), got %s" % (x.shape,))
    n = x.shape[2]
    if operator[0].shape[0] != n:
        raise BackboneError("graph operator covers %d nodes, inputs have %d"
                            % (operator[0].shape[0], n))
    if record is None:
        record = nn.ComputeRecord(grad=train)
    p = backbone.params
    leaf = {name: record.leaf(param) for name, param in p.items()}

    if prompt is not None:
        prompt = prompt if isinstance(prompt, nn.Node) else record.constant(prompt)
        if prompt.shape != (n, backbone.d):
            raise BackboneError("prompt shape %s does not match (%d, %d)"
                                % (prompt.shape, n, backbone.d))

    weight = "W" if backbone.variant == "spatial" else "theta"
    drop_p = backbone.dropout_p if train else 0.0
    shared = None if starts is None or drop_p > 0.0 else _shared_steps(x, starts,
                                                                       backbone.kernel)
    window = rows = None
    if shared is not None:
        x, window, rows = shared
    h = nn.relu(record, nn.graph_input(record, operator, x, leaf["input_proj.W"],
                                       leaf["input_proj.b"], prompt, leaf["gconv1." + weight]),
                drop_p, rng)
    h = nn.relu(record, nn.temporal_conv(record, h, leaf["tconv.W"], leaf["tconv.b"],
                                         window=window),
                drop_p, rng)
    h = nn.relu(record, nn.graph_conv(record, operator, h, leaf["gconv2." + weight]))
    h = nn.mean_pool_time(record, h, rows)  # (B, n, d)
    out = nn.linear(record, h, leaf["head.W"], leaf["head.b"])  # (B, n, t_out)

    def grad_fn(g):
        return [np.transpose(g, (0, 2, 1))]

    pred = record.record("transpose", np.transpose(out.value, (0, 2, 1)), [out], grad_fn,
                         scan=False)
    return pred, record

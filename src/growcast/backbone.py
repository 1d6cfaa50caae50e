"""Trainable forecasting network over a growing graph.

The architecture is node-count-free: an input projection, two graph
convolutions around one temporal convolution, and a pooled linear head,
so the same parameter set serves every period of the stream.

A backbone is its weights: the name -> `Parameter` dict `build_backbone`
returns.  Everything else is read from them: the layer sizes from their
shapes, and the variant from which graph weight is present.  Spatial
layers propagate over [A_hat] with d x d weights `gconv*.W`, spectral
ones over the Chebyshev basis [T_0, ..., T_K] with coefficients
`gconv*.theta`.  The dropout rate is not a weight: a training phase
passes it to `forward_predict`, and evaluation never applies it.

The n x d prompt is added to the projected input before the first graph
convolution.  Raw inputs have one channel and nothing before the first
ReLU is nonlinear, so projection, prompt and first convolution run as one
fused primitive (`nn_core.graph_input`): G (x W_in + 1 b^T + P) W equals
(G x)(W_in W) + G (1 b^T + P) W exactly, a rank-1 term per window plus
one n x d constant, and no (B, T, n, d) tensor crosses the graph.

Batches share steps.  Windows of one split overlap: consecutive ones in
all but one step, and a shuffled training batch of 128 of 457 windows
reads only about 460 distinct steps in its 1,536 window rows.  Layer 1
runs on the batch's sorted distinct steps, passed as one window, the
temporal conv and the time pooling take the `nn.Steps` layout of the
windows over them, and the second graph conv runs on the conv's stack,
which never has more rows than the batch has window rows.  `nn.Steps`
says what is computed once per step and how closely it matches a loop
over each window.  The caller passes the windows' start offsets, no two
alike; a batch without them is B disjoint windows, laid end to end.

Dropout draws its masks over the rows computed: one (1, L, n, d) draw
over the L distinct steps after layer 1, and one over the conv's stack
after it, whose shared interior rows serve every window and whose edge
rows belong to one window each.  So windows that share a step share its
masks, except at their edge rows after the conv, a mask tied across
positions as in Gal and Ghahramani, "A Theoretically Grounded
Application of Dropout in Recurrent Neural Networks" (NeurIPS 2016).
"""
from __future__ import annotations

import numpy as np

from . import nn_core as nn
from .data_pipeline import T_OUT
from .graph_stream import cheb_polynomials, normalize_adjacency, scaled_laplacian

VARIANTS = ("spatial", "spectral")


class BackboneError(ValueError):
    pass


def build_backbone(variant: str, d: int = 64, kernel: int = 3, K_order: int = 2,
                   t_out: int = T_OUT, seed: int = 0) -> dict:
    """The backbone's name -> Parameter dict.

    Weights uniform in +-1/sqrt(fan_in), drawn from named seed streams.
    """
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
    return params


def graph_operator(backbone: dict, adjacency: np.ndarray) -> list:
    """The graph layers' constant operator for one period: a list of n x n matrices."""
    if "gconv1.W" in backbone:
        return [normalize_adjacency(adjacency)]
    return cheb_polynomials(scaled_laplacian(adjacency), len(backbone["gconv1.theta"].value) - 1)


def _shared_steps(x, starts, kernel):
    """(timeline, layout) that run windows x starting at `starts` once per step.

    The timeline is the sorted distinct steps of all windows, (1, L, n, 1),
    and the layout the `nn.Steps` that lays the windows over it.  Without
    starts the windows are disjoint, starts = T * arange(B), and x laid
    end to end is the timeline.  Raises
    BackboneError when two windows share a start or the windows do not
    agree with their starts.
    """
    B, T = x.shape[:2]
    if starts is None:  # the windows end to end are the timeline
        return x.reshape((1, B * T) + x.shape[2:]), nn.Steps(T * np.arange(B), T, kernel)
    starts = np.asarray(starts)
    if starts.shape != (B,) or starts.dtype.kind not in "iu":
        raise BackboneError("starts must be %d integer window offsets, got %s of %s"
                            % (B, starts.shape, starts.dtype))
    rank = starts.argsort()
    gaps = np.diff(starts[rank])
    if (gaps == 0).any():
        raise BackboneError("two windows of the batch share a start offset")
    # a window's first timeline row counts the distinct steps before it
    heads = np.zeros(B, dtype=np.intp)
    heads[rank[1:]] = np.cumsum(np.minimum(gaps, T))
    window = heads[:, None] + np.arange(T)
    x = x[..., 0]
    timeline = np.empty((int(heads.max(initial=0)) + T,) + x.shape[2:])
    timeline[window] = x
    got = timeline[window]
    if not ((got == x).all() or np.array_equal(got, x, equal_nan=True)):
        raise BackboneError("windows do not agree with their start offsets")
    return timeline[None, ..., None], nn.Steps(heads, T, kernel)


def forward_predict(backbone: dict, operator, inputs, prompt=None,
                    record=None, train: bool = False, rng=None, starts=None,
                    dropout: float = 0.0):
    """Run the network on a batch; returns (pred, record).

    inputs: (B, t_in, n, 1), one input channel; prompt: n x d matrix,
    ndarray or tape Node, or None.  pred is a (B, t_out, n) Node on `record`.
    When none is given, a fresh record is created that keeps a backward
    tape only if `train` is set.  dropout: the training phase's rate after
    the first two ReLUs, masks drawn from `rng`; it applies only when
    `train` is set.  starts: each window's offset in its segment, or None
    for B disjoint windows.  The batch runs once per distinct step (module
    docstring), and windows that share a step share its dropout masks.
    Raises BackboneError when two windows share a start or disagree with
    their starts.
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
    leaf = {name: record.leaf(param) for name, param in backbone.items()}

    if prompt is not None:
        prompt = prompt if isinstance(prompt, nn.Node) else record.constant(prompt)
        d = backbone["input_proj.W"].value.shape[1]
        if prompt.shape != (n, d):
            raise BackboneError("prompt shape %s does not match (%d, %d)"
                                % (prompt.shape, n, d))

    weight = "W" if "gconv1.W" in backbone else "theta"
    drop_p = dropout if train else 0.0
    x, steps = _shared_steps(x, starts, backbone["tconv.W"].value.shape[0])
    h = nn.relu(record, nn.graph_input(record, operator, x, leaf["input_proj.W"],
                                       leaf["input_proj.b"], prompt, leaf["gconv1." + weight]),
                drop_p, rng)
    h = nn.relu(record, nn.temporal_conv(record, h, leaf["tconv.W"], leaf["tconv.b"], steps),
                drop_p, rng)
    h = nn.relu(record, nn.graph_conv(record, operator, h, leaf["gconv2." + weight]))
    h = nn.mean_pool_time(record, h, steps)  # (B, n, d)
    out = nn.linear(record, h, leaf["head.W"], leaf["head.b"])  # (B, n, t_out)

    def grad_fn(g):
        return [np.transpose(g, (0, 2, 1))]

    pred = record.record("transpose", np.transpose(out.value, (0, 2, 1)), [out], grad_fn,
                         scan=False)
    return pred, record

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
    t_out: int
    dropout_p: float
    params: dict  # name -> Parameter

    def parameters(self) -> list:
        return list(self.params.values())

    def set_trainable(self, trainable: bool) -> None:
        for p in self.params.values():
            p.trainable = trainable

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params.values())


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
                         t_out=t_out, dropout_p=dropout_p, params=params)


def graph_operator(backbone: STGNNBackbone, adjacency: np.ndarray) -> list:
    """The graph layers' constant operator for one period: a list of n x n matrices."""
    if backbone.variant == "spatial":
        return [normalize_adjacency(adjacency)]
    return cheb_polynomials(scaled_laplacian(adjacency), backbone.K_order)


def forward_predict(backbone: STGNNBackbone, operator, inputs, prompt=None,
                    record=None, train: bool = False, rng=None):
    """Run the network on a batch.

    inputs: (B, t_in, n, 1), one input channel; prompt: n x d matrix,
    ndarray or tape Node, or None.  Returns a (B, t_out, n) Node on `record`.
    When none is given, a fresh record is created that keeps a backward
    tape only if `train` is set.  Dropout applies only when `train` is set.
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
    h = nn.relu(record, nn.graph_input(record, operator, x, leaf["input_proj.W"],
                                       leaf["input_proj.b"], prompt, leaf["gconv1." + weight]),
                drop_p, rng)
    h = nn.relu(record, nn.temporal_conv(record, h, leaf["tconv.W"], leaf["tconv.b"]),
                drop_p, rng)
    h = nn.relu(record, nn.graph_conv(record, operator, h, leaf["gconv2." + weight]))
    h = nn.mean_pool_time(record, h)  # (B, n, d)
    out = nn.linear(record, h, leaf["head.W"], leaf["head.b"])  # (B, n, t_out)

    def grad_fn(g):
        return [np.transpose(g, (0, 2, 1))]

    pred = record.record("transpose", np.transpose(out.value, (0, 2, 1)), [out], grad_fn,
                         scan=False)
    return pred, record

"""Finite-difference audit of every primitive and of the composed network.

`gradcheck_table` runs `nn_core.grad_check` on small random problems, one
row per primitive (and per layer form, prompt and dropout setting) and
seed; `growcast gradcheck` prints the table.
"""
from __future__ import annotations

import numpy as np

from . import nn_core as nn
from .backbone import build_backbone, forward_predict, graph_operator
from .graph_stream import build_adjacency, cheb_polynomials, normalize_adjacency, scaled_laplacian


def gradcheck_table(seeds=range(20)) -> list:
    """Max relative finite-difference error for every primitive and the
    composed network."""
    n, t_in, d = 4, 6, 5
    rows = []

    def check(name, build, params):
        worst = nn.grad_check(build, params)
        rows.append({"primitive": name, "max_rel_err": worst,
                     "passed": worst < 1e-4})

    for seed in seeds:
        rng = nn.rng_stream(seed, "gradcheck")
        x = rng.standard_normal((2, t_in, n, 1))
        # keep relu probes away from the kink
        x = np.where(np.abs(x) < 1e-3, 1e-3, x)

        W = nn.Parameter("W", rng.standard_normal((1, d)))
        b = nn.Parameter("b", rng.standard_normal(d))
        check("linear:%d" % seed,
              lambda r: nn.mse_loss(r, nn.linear(r, r.constant(x), r.leaf(W), r.leaf(b)),
                                    np.zeros((2, t_in, n, d))), [W, b])

        h0 = rng.standard_normal((2, t_in, n, d))
        Wt = nn.Parameter("Wt", 0.3 * rng.standard_normal((3, d, d)))
        bt = nn.Parameter("bt", 0.3 * rng.standard_normal(d))
        # two disjoint windows, laid end to end on one timeline
        disjoint = nn.Steps(t_in * np.arange(2), t_in, 3)
        check("temporal_conv:%d" % seed,
              lambda r: nn.mse_loss(r, nn.temporal_conv(r, r.constant(h0.reshape(1, -1, n, d)),
                                                        r.leaf(Wt), r.leaf(bt), disjoint),
                                    np.zeros((disjoint.n_rows, n, d))), [Wt, bt])

        # shared steps: three 4-step windows at rows 0, 2 and 1 of a t_in-step timeline
        steps = nn.Steps(np.array([0, 2, 1]), 4, 3)
        Hs = nn.Parameter("Hs", h0[:1])
        check("temporal_conv_shared:%d" % seed,
              lambda r: nn.mse_loss(r, nn.temporal_conv(r, r.leaf(Hs), r.leaf(Wt), r.leaf(bt),
                                                        steps),
                                    np.zeros((steps.n_rows, n, d))), [Hs, Wt, bt])
        S = nn.Parameter("S", nn.rng_stream(seed, "gradcheck", "rows").standard_normal(
            (steps.n_rows, n, d)))
        check("mean_pool_time_rows:%d" % seed,
              lambda r: nn.mse_loss(r, nn.mean_pool_time(r, r.leaf(S), steps),
                                    np.zeros((3, n, d))), [S])

        dist = np.abs(rng.standard_normal((n, n)))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        adj = build_adjacency(dist, r=0.1)
        Wg = nn.Parameter("Wg", rng.standard_normal((d, d)) * 0.3)
        th = nn.Parameter("th", rng.standard_normal(3) * 0.3)
        # (label, operator, weight) of each graph layer form
        graph_layers = (("spatial", [normalize_adjacency(adj)], Wg),
                        ("cheb", cheb_polynomials(scaled_laplacian(adj), 2), th))
        for name, op, w in graph_layers:
            check("graph_conv_%s:%d" % (name, seed),
                  lambda r, op=op, w=w: nn.mse_loss(
                      r, nn.graph_conv(r, op, r.constant(h0), r.leaf(w)),
                      np.zeros((2, t_in, n, d))), [w])

        Wr = nn.Parameter("Wr", rng.standard_normal((n, n)))
        check("relu:%d" % seed,
              lambda r: nn.mse_loss(r, nn.relu(r, nn.linear(r, r.constant(np.eye(n)),
                                                            r.leaf(Wr))),
                                    np.zeros((n, n))), [Wr])
        # the same dropout mask on every rebuild: the stream restarts each time
        check("relu_dropout:%d" % seed,
              lambda r: nn.mse_loss(r, nn.relu(r, nn.linear(r, r.constant(np.eye(n)),
                                                            r.leaf(Wr)),
                                               0.5, nn.rng_stream(seed, "gradcheck", "drop")),
                                    np.zeros((n, n))), [Wr])

        for variant in ("spatial", "spectral"):
            bb = build_backbone(variant, d=d, t_out=3, seed=seed, K_order=2)
            op = graph_operator(bb, adj)
            prompt = nn.Parameter("prompt", 0.1 * rng.standard_normal((n, d)))
            target = rng.standard_normal((2, 3, n))

            # training mode adds both dropouts, in place into fresh conv outputs
            for suffix, train in (("", False), ("_dropout", True)):
                def build(r, bb=bb, op=op, prompt=prompt, target=target, train=train):
                    pred, _ = forward_predict(bb, op, x, prompt=r.leaf(prompt), record=r,
                                              train=train,
                                              rng=nn.rng_stream(seed, "gradcheck", "drop"),
                                              dropout=0.3)
                    return nn.mse_loss(r, pred, target)

                check("backbone_%s%s:%d" % (variant, suffix, seed),
                      build, list(bb.values()) + [prompt])

        P = nn.Parameter("P", 0.3 * rng.standard_normal((n, d)))
        for name, op, w in graph_layers:
            for prompt in (P, None):
                def build(r, op=op, w=w, prompt=prompt):
                    pr = None if prompt is None else r.leaf(prompt)
                    out = nn.graph_input(r, op, x, r.leaf(W), r.leaf(b), pr, r.leaf(w))
                    return nn.mse_loss(r, out, np.zeros((2, t_in, n, d)))

                check("graph_input_%s%s:%d" % (name, "" if prompt is not None else "_noprompt",
                                               seed),
                      build, [W, b, w] + ([] if prompt is None else [prompt]))

        # input-gradient paths with frozen weights, as pool tuning runs them
        H = nn.Parameter("H", rng.standard_normal((1, 3, n, d)))
        window = nn.Steps(np.zeros(1, dtype=int), 3, 3)  # one 3-step window: 3 stack rows
        layers = [("temporal_conv_input",
                   lambda r, h: nn.temporal_conv(r, h, r.constant(Wt.value),
                                                 r.constant(bt.value), window))]
        layers += [("graph_conv_%s_input" % name,
                    lambda r, h, op=op, w=w: nn.graph_conv(r, op, h, r.constant(w.value)))
                   for name, op, w in graph_layers]
        for name, layer in layers:
            def build(r, layer=layer):
                out = layer(r, r.leaf(H))
                return nn.mse_loss(r, out, np.zeros(out.shape))

            check("%s:%d" % (name, seed), build, [H])
    return rows

import os
import subprocess
import sys

import numpy as np
import pytest

from growcast import backbone, nn_core as nn
from growcast.backbone import (
    VARIANTS,
    BackboneError,
    build_backbone,
    forward_predict,
    graph_operator,
)
from growcast.data_pipeline import make_windows
from growcast.graph_stream import build_adjacency
from oracles import backbone_param_count, padded_conv, step_rows, windowed_forward


def small_graph(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return build_adjacency(dist, r=0.1)


class TestBuild:
    def test_deterministic_under_seed(self):
        a = build_backbone("spatial", d=8, seed=5)
        b = build_backbone("spatial", d=8, seed=5)
        assert list(a) == list(b)
        for name in a:
            assert a[name].value.tobytes() == b[name].value.tobytes()

    def test_param_count_formula(self):
        bb = build_backbone("spatial", d=64, t_out=12)
        expected = (1 * 64 + 64) + 2 * (64 * 64) + (3 * 64 * 64 + 64) + (64 * 12 + 12)
        assert backbone_param_count(bb) == expected

    def test_count_invariant_under_node_count(self):
        bb = build_backbone("spatial", d=16)
        count = backbone_param_count(bb)
        for n in (10, 100):
            pred, _ = forward_predict(bb, graph_operator(bb, small_graph(n)),
                                      np.zeros((2, 12, n, 1)))
            assert backbone_param_count(bb) == count

    def test_bad_inputs(self):
        with pytest.raises(BackboneError):
            build_backbone("mystery")
        with pytest.raises(BackboneError):
            build_backbone("spatial", d=0)


class TestForward:
    def test_graph_operator_is_a_list_of_matrices(self):
        adj = small_graph(6)
        for variant, K_order, length in (("spatial", 2, 1), ("spectral", 0, 1),
                                         ("spectral", 3, 4)):
            op = graph_operator(build_backbone(variant, d=4, K_order=K_order), adj)
            assert isinstance(op, list) and len(op) == length
            assert all(Tk.shape == (6, 6) for Tk in op)

    def test_layer_form_follows_the_weights(self):
        # a backbone is its weights: swap the graph weights and the operator
        # and the forward follow them
        adj = small_graph(5)
        x = np.random.default_rng(0).standard_normal((2, 12, 5, 1))
        spatial, spectral = (build_backbone(v, d=6, K_order=3, seed=1) for v in VARIANTS)
        for have, want in ((spatial, spectral), (spectral, spatial)):
            swapped = {name: p for name, p in have.items() if not name.startswith("gconv")}
            swapped.update((name, p) for name, p in want.items() if name.startswith("gconv"))
            op = graph_operator(swapped, adj)
            assert [Tk.tobytes() for Tk in op] == [Tk.tobytes()
                                                    for Tk in graph_operator(want, adj)]
            got, _ = forward_predict(swapped, op, x)
            assert got.value.tobytes() == forward_predict(want, op, x)[0].value.tobytes()

    def test_output_shape(self):
        for variant in ("spatial", "spectral"):
            bb = build_backbone(variant, d=6, t_out=12)
            adj = small_graph(7)
            pred, _ = forward_predict(bb, graph_operator(bb, adj),
                                      np.zeros((3, 12, 7, 1)))
            assert pred.shape == (3, 12, 7)

    def test_zero_prompt_is_identity(self):
        bb = build_backbone("spatial", d=6, seed=1)
        adj = small_graph(5)
        op = graph_operator(bb, adj)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 12, 5, 1))
        bare, _ = forward_predict(bb, op, x)
        zeroed, _ = forward_predict(bb, op, x, prompt=np.zeros((5, 6)))
        assert np.array_equal(bare.value, zeroed.value)

    def test_zero_head_weight_gives_bias(self):
        bb = build_backbone("spatial", d=6, seed=1)
        bb["head.W"].value[:] = 0.0
        adj = small_graph(4)
        pred, _ = forward_predict(bb, graph_operator(bb, adj),
                                  np.ones((2, 12, 4, 1)))
        bias = bb["head.b"].value
        assert np.allclose(pred.value, bias[None, :, None])

    def test_duplicate_samples_identical_rows(self):
        bb = build_backbone("spectral", d=6, seed=2)
        adj = small_graph(4)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 12, 4, 1))
        batch = np.concatenate([x, x], axis=0)
        pred, _ = forward_predict(bb, graph_operator(bb, adj), batch)
        assert np.array_equal(pred.value[0], pred.value[1])

    def test_node_count_mismatch_rejected(self):
        bb = build_backbone("spatial", d=6)
        adj = small_graph(4)
        with pytest.raises(BackboneError):
            forward_predict(bb, graph_operator(bb, adj), np.zeros((1, 12, 5, 1)))
        with pytest.raises(BackboneError):
            forward_predict(bb, graph_operator(bb, adj), np.zeros((1, 12, 4, 1)),
                            prompt=np.zeros((5, 6)))

    def test_fusion_matches_manual_injection(self):
        # the fused input block equals projecting, adding the prompt and
        # propagating, composed step by step in numpy
        adj = small_graph(5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 12, 5, 1))
        P = rng.standard_normal((5, 6))
        for variant, prompt, trainable in (("spatial", P, True), ("spectral", P, True),
                                           ("spatial", None, True), ("spectral", None, True),
                                           ("spatial", P, False), ("spectral", P, False)):
            bb = build_backbone(variant, d=6, seed=3)
            for p in bb.values():
                p.trainable = trainable
            op = graph_operator(bb, adj)
            fused, _ = forward_predict(bb, op, x, prompt=prompt)

            v = {name: p.value for name, p in bb.items()}
            h = x @ v["input_proj.W"] + v["input_proj.b"]
            if prompt is not None:
                h = h + prompt[None, None]
            if variant == "spatial":
                h = np.einsum("ij,btjd->btid", op[0], h) @ v["gconv1.W"]
            else:
                h = sum(th * np.einsum("ij,btjd->btid", Tk, h)
                        for th, Tk in zip(v["gconv1.theta"], op))
            h = np.maximum(padded_conv(np.maximum(h, 0.0), v["tconv.W"], v["tconv.b"]), 0.0)
            if variant == "spatial":
                h = np.einsum("ij,btjd->btid", op[0], h) @ v["gconv2.W"]
            else:
                h = sum(th * np.einsum("ij,btjd->btid", Tk, h)
                        for th, Tk in zip(v["gconv2.theta"], op))
            h = np.maximum(h, 0.0).mean(axis=1)
            manual = np.transpose(h @ v["head.W"] + v["head.b"], (0, 2, 1))
            assert np.allclose(fused.value, manual, atol=1e-12), (variant, trainable)


class DrawLog:
    """A Generator stand-in that logs each random() call's shape and draw."""

    def __init__(self, seed):
        self.rng, self.shapes, self.draws = nn.rng_stream(seed, "dropout"), [], []

    def random(self, shape):
        self.shapes.append(tuple(shape))
        self.draws.append(self.rng.random(shape))
        return self.draws[-1].copy()  # relu writes its multiplier into the draw


class Replay:
    """A Generator stand-in whose random() calls return the given arrays in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == tuple(shape)
        return draw.copy()


class TestDropout:
    def test_one_draw_per_dropout_in_layer_order(self):
        # one draw after the input block, over the timeline of the two
        # disjoint windows, and one after the temporal conv, over its stack
        adj = small_graph(5)
        x = np.random.default_rng(4).standard_normal((2, 12, 5, 1))
        for variant in ("spatial", "spectral"):
            bb = build_backbone(variant, d=6, seed=3)
            op = graph_operator(bb, adj)
            log = DrawLog(1)
            forward_predict(bb, op, x, train=True, rng=log, dropout=0.2)
            assert log.shapes == [(1, 24, 5, 6), (24, 5, 6)]
            log = DrawLog(1)
            forward_predict(bb, op, x, train=False, rng=log, dropout=0.2)
            assert log.shapes == []

    def test_rate_comes_from_the_call(self):
        # the backbone holds weights only: a training call without a rate
        # draws no mask and matches evaluation bit for bit
        adj = small_graph(5)
        x = np.random.default_rng(4).standard_normal((2, 12, 5, 1))
        for variant in VARIANTS:
            bb = build_backbone(variant, d=6, seed=3)
            op = graph_operator(bb, adj)
            log = DrawLog(1)
            trained, _ = forward_predict(bb, op, x, train=True, rng=log)
            assert log.shapes == []
            evaluated, _ = forward_predict(bb, op, x)
            assert trained.value.tobytes() == evaluated.value.tobytes()


def consecutive_windows(B, n, order, seed=0, nan_at=None):
    """x[s:s + B] of a split's window view, as the engine slices evaluation batches.

    The segment is laid out in `order`: observation series store it
    row-major ("C"); "F" shows that sharing does not depend on the layout.
    """
    seg = np.random.default_rng(seed).standard_normal((B + 40, n))
    if nan_at is not None:
        seg[nan_at] = np.nan
    X = make_windows(np.asarray(seg, order=order)).X
    return X[3:3 + B][..., None]


def spy_shared_steps(monkeypatch):
    """The `nn.Steps` layout of each batch, in call order."""
    layouts = []
    shared_steps = backbone._shared_steps

    def spy(*args):
        out = shared_steps(*args)
        layouts.append(out[1])
        return out

    monkeypatch.setattr(backbone, "_shared_steps", spy)
    return layouts


# window starts of one batch, in batch order
LAYOUTS = {"shuffled": [5, 0, 9, 3, 1, 7, 2], "gapped": [0, 30, 31, 50, 7],
           "single": [13], "repeated": [3, 3, 4, 10, 3]}


def per_window_masks(steps, draws, window):
    """Two dropout draws of a batch on `steps`, laid out per (B, T) window row.

    window[i, o] is the timeline row of step o of window i.
    """
    first, second = draws
    assert first.shape[:2] == (1, steps.length) and second.shape[0] == steps.n_rows
    return first[0][window], second[step_rows(steps)]


def disjoint_masks(masks, kernel=3):
    """Per-window masks laid out as the draws of a batch without starts."""
    first, second = masks
    B, T = first.shape[:2]
    steps = nn.Steps(T * np.arange(B), T, kernel)
    stack = np.empty((steps.n_rows,) + second.shape[2:])
    stack[step_rows(steps)] = second
    return Replay([first.reshape((1, B * T) + first.shape[2:]), stack])


def is_disjoint(steps, B):
    """Whether `steps` is the layout of B windows that lie end to end, as without starts."""
    return (steps.length, steps.n_rows) == (B * steps.T, B * steps.T) and np.array_equal(
        step_rows(steps), step_rows(nn.Steps(steps.T * np.arange(B), steps.T, steps.K)))


class TestSharedSteps:
    """Every batch runs on a layout: evaluation keeps the windowed bits, and
    training matches the windowed predictions and gradients up to rounding.
    A batch without starts is B disjoint windows."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_bit_equal_to_gathered_windows(self, variant, kernel, B, monkeypatch):
        shared = spy_shared_steps(monkeypatch)
        bb = build_backbone(variant, d=5, kernel=kernel, seed=kernel)
        op = graph_operator(bb, small_graph(6))
        P = np.random.default_rng(B).standard_normal((6, 5))
        for order in ("C", "F"):
            x = consecutive_windows(B, 6, order, seed=B)
            gathered = np.array(x)
            for prompt in (None, P):
                rec = nn.ComputeRecord(grad=False)
                node = None if prompt is None else rec.constant(prompt)
                got, _ = forward_predict(bb, op, x, prompt=node, record=rec,
                                         starts=np.arange(3, 3 + B))
                want, _ = forward_predict(bb, op, gathered, prompt=node)
                assert got.value.tobytes() == want.value.tobytes()
                assert got.value.tobytes() == windowed_forward(bb, op, gathered,
                                                               prompt).tobytes()
        # with starts, then without: the consecutive windows, then disjoint ones
        assert [(s.length, s.T, s.K) for s in shared] == [(B + 11, 12, kernel),
                                                          (12 * B, 12, kernel)] * 4
        assert all(is_disjoint(s, B) for s in shared[1::2])

    @pytest.mark.parametrize("nan_at", [(3, 2), (3 + 36 + 11, 5)])
    def test_nan_input_names_the_primitive(self, nan_at):
        # the first step of the first window, the last step of the last one
        for variant in VARIANTS:
            bb = build_backbone(variant, d=5, seed=1)
            x = consecutive_windows(37, 6, "F", nan_at=nan_at)
            with pytest.raises(nn.NonFiniteError, match="non-finite output of graph_input"):
                forward_predict(bb, graph_operator(bb, small_graph(6)), x,
                                starts=np.arange(3, 40))

    def test_training_and_gathered_batches_keep_windowed_bits(self, monkeypatch):
        # a batch without starts is B disjoint windows: its dropout draws a
        # (1, B*T, n, d) mask over their timeline and one over the conv's
        # B*T stack rows, and given those masks laid out per window it
        # keeps the windowed bits
        shared = spy_shared_steps(monkeypatch)
        window = np.arange(9 * 12).reshape(9, 12)
        for variant in VARIANTS:
            bb = build_backbone(variant, d=5, seed=2)
            op = graph_operator(bb, small_graph(6))
            x = consecutive_windows(9, 6, "C")
            gathered = np.array(x)
            log = DrawLog(1)
            got, rec = forward_predict(bb, op, gathered, train=True, rng=log, dropout=0.3)
            assert log.shapes == [(1, 108, 6, 5), (108, 6, 5)]
            masks = per_window_masks(shared[-1], log.draws, window)
            want = windowed_forward(bb, op, gathered, train=True, rng=Replay(masks), dropout=0.3)
            assert got.value.tobytes() == want.tobytes()
            assert rec.nodes
            got, _ = forward_predict(bb, op, gathered)
            assert got.value.tobytes() == windowed_forward(bb, op, gathered).tobytes()
            got, rec = forward_predict(bb, op, x, record=nn.ComputeRecord())
            assert got.value.tobytes() == windowed_forward(bb, op, gathered).tobytes()
            assert nn.backward(rec, nn.mse_loss(rec, got, np.zeros(got.shape)))
        assert len(shared) == 6 and all(is_disjoint(s, 9) for s in shared)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("t_in", [1, 2, 12])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_gradients_match_windows(self, variant, kernel, t_in, layout,
                                              monkeypatch):
        shared = spy_shared_steps(monkeypatch)
        starts = np.array(LAYOUTS[layout])
        rng = np.random.default_rng(kernel + 10 * t_in)
        seg = rng.standard_normal((starts.max() + t_in, 6))
        x = seg[starts[:, None] + np.arange(t_in)][..., None]
        bb = build_backbone(variant, d=5, kernel=kernel, t_out=3, seed=kernel)
        op = graph_operator(bb, small_graph(6))
        P = nn.Parameter("prompt", rng.standard_normal((6, 5)))
        target = rng.standard_normal((len(starts), 3, 6))
        if layout == "repeated":
            # the shared layers take windows that start on distinct steps
            with pytest.raises(BackboneError, match="share a start"):
                forward_predict(bb, op, x, prompt=P.value, train=True, starts=starts)
            assert shared == []
            return
        runs = []
        for batch_starts in (starts, None):
            rec = nn.ComputeRecord()
            pred, _ = forward_predict(bb, op, x, prompt=rec.leaf(P), record=rec, train=True,
                                      starts=batch_starts)
            runs.append((pred.value, nn.backward(rec, nn.mse_loss(rec, pred, target))))
        (got, got_grads), (want, want_grads) = runs
        # with starts, the windows share steps; without, they are disjoint,
        # with the windowed bits.  Neither stacks more rows than the batch
        # has window rows
        assert len(shared) == 2 and is_disjoint(shared[1], len(starts))
        assert all(s.n_rows <= len(starts) * t_in for s in shared)
        assert want.tobytes() == windowed_forward(bb, op, x, P.value).tobytes()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert sorted(got_grads) == sorted(want_grads)
        for name, g in want_grads.items():
            assert np.abs(got_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_batch_without_overlap_keeps_windowed_bits(self, monkeypatch):
        # windows that share no step lay one run of interior rows each over
        # their timeline, so the stack holds their B*T rows; with dropout,
        # given the masks laid out per window, they keep the windowed bits
        shared = spy_shared_steps(monkeypatch)
        seg = np.random.default_rng(5).standard_normal((60, 6))
        starts = np.array([0, 24, 12, 40])
        rows = starts[:, None] + np.arange(12)
        x = seg[rows][..., None]
        window = np.searchsorted(np.unique(rows), rows)  # timeline row of each step
        for variant in VARIANTS:
            bb = build_backbone(variant, d=5, seed=2)
            op = graph_operator(bb, small_graph(6))
            for dropout in (0.0, 0.3):
                log = DrawLog(1)
                got, _ = forward_predict(bb, op, x, train=True, rng=log, starts=starts,
                                         dropout=dropout)
                assert (shared[-1].length, shared[-1].n_rows) == (48, 48)
                assert log.shapes == [(1, 48, 6, 5), (48, 6, 5)] if dropout else not log.shapes
                masks = per_window_masks(shared[-1], log.draws, window) if dropout else ()
                want = windowed_forward(bb, op, x, train=True, rng=Replay(masks),
                                        dropout=dropout)
                assert got.value.tobytes() == want.tobytes()
                got, _ = forward_predict(bb, op, x, train=True, dropout=dropout,
                                         rng=disjoint_masks(masks) if dropout else None)
                assert got.value.tobytes() == want.tobytes()
        assert len(shared) == 8 and all(is_disjoint(s, 4) for s in shared[1::2])

    def test_windows_must_agree_with_their_starts(self):
        bb = build_backbone("spatial", d=5, seed=2)
        op = graph_operator(bb, small_graph(6))
        x = consecutive_windows(9, 6, "C")
        for starts, match in ((np.arange(9)[::-1], "agree"), (np.arange(8), "starts"),
                              (np.arange(9.0), "starts")):
            with pytest.raises(BackboneError, match=match):
                forward_predict(bb, op, x, starts=starts)
            with pytest.raises(BackboneError, match=match):
                forward_predict(bb, op, x, train=True, starts=starts)


CYCLE = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
# integer operators: spatial [A + I], spectral [I, A, 2A^2 - I]
EXACT_OPERATORS = {"spatial": [CYCLE + np.eye(4)],
                   "spectral": [np.eye(4), CYCLE, 2 * CYCLE @ CYCLE - np.eye(4)]}
EXACT_LAYOUTS = ("consecutive", "shuffled", "gapped")


def exact_starts(layout, B, rng):
    """B window starts: a run of steps, the same run shuffled, or gaps of 2 or 3 steps."""
    if layout == "consecutive":
        return 1 + np.arange(B)
    if layout == "shuffled":
        return 1 + rng.permutation(B)
    return 1 + np.concatenate([[0], np.cumsum(rng.integers(2, 4, size=B - 1))])


class TestSharedStepsExact:
    """Under exact arithmetic the shared-step path equals the per-window path bit for bit.

    Segment, weights, prompt and targets are small integers and the
    operators integer matrices; with t_in = 8, t_out = 2, n = 4 and B a
    power of two, the time mean and the loss divide by powers of two.
    Every value is then a float64 held exactly, so no sum rounds in any
    order, and the 1e-12 bounds above cover rounding only.
    """

    @pytest.mark.parametrize("layout", EXACT_LAYOUTS)
    @pytest.mark.parametrize("B", [1, 2, 4, 8])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predictions_and_gradients_are_bit_equal(self, variant, kernel, B, layout,
                                                     monkeypatch):
        shared = spy_shared_steps(monkeypatch)
        rng = np.random.default_rng([kernel, B, EXACT_LAYOUTS.index(layout)])
        starts = exact_starts(layout, B, rng)
        seg = rng.integers(0, 4, size=(starts.max() + 10, 4)).astype(float)
        x = seg[starts[:, None] + np.arange(8)][..., None]
        target = seg[starts[:, None] + 8 + np.arange(2)]
        bb = build_backbone(variant, d=3, kernel=kernel, t_out=2, seed=kernel)
        for param in bb.values():
            param.value = rng.integers(-1, 2, size=param.value.shape).astype(float)
        P = nn.Parameter("prompt", rng.integers(-1, 2, size=(4, 3)).astype(float))
        runs = []
        for batch_starts in (starts, None):
            rec = nn.ComputeRecord()
            pred, _ = forward_predict(bb, EXACT_OPERATORS[variant], x, prompt=rec.leaf(P),
                                      record=rec, train=True, starts=batch_starts)
            runs.append((pred.value, nn.backward(rec, nn.mse_loss(rec, pred, target))))
        # with starts, then the disjoint layout of the same windows
        assert len(shared) == 2 and is_disjoint(shared[1], B)
        (got, got_grads), (want, want_grads) = runs
        assert got.tobytes() == want.tobytes()
        assert sorted(got_grads) == sorted(want_grads)
        assert any(g.any() for g in want_grads.values())
        for name, g in want_grads.items():
            assert got_grads[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("layout", EXACT_LAYOUTS)
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_windows_that_share_a_step_share_its_masks(self, variant, kernel, layout,
                                                       monkeypatch):
        # a training batch with starts draws one layer-1 mask per timeline
        # step and one layer-2 mask per stack row, shared interior rows and
        # each window's own edge rows.  At p = 1/2 the kept entries double,
        # which is exact, so the shared path equals bit for bit the disjoint
        # layout of the same windows given those masks laid out per window:
        # windows that share a step read its one mask.
        shared = spy_shared_steps(monkeypatch)
        rng = np.random.default_rng([kernel, 8, EXACT_LAYOUTS.index(layout)])
        starts = exact_starts(layout, 8, rng)
        seg = rng.integers(0, 4, size=(starts.max() + 10, 4)).astype(float)
        rows = starts[:, None] + np.arange(8)
        x = seg[rows][..., None]
        target = seg[starts[:, None] + 8 + np.arange(2)]
        bb = build_backbone(variant, d=3, kernel=kernel, t_out=2, seed=kernel)
        for param in bb.values():
            param.value = rng.integers(-1, 2, size=param.value.shape).astype(float)
        runs, log = [], DrawLog(kernel)
        for batch_starts in (starts, None):
            if batch_starts is None:
                window = np.searchsorted(np.unique(rows), rows)  # timeline row of each step
                log = disjoint_masks(per_window_masks(shared[0], log.draws, window), kernel)
            rec = nn.ComputeRecord()
            pred, _ = forward_predict(bb, EXACT_OPERATORS[variant], x, record=rec, train=True,
                                      rng=log, starts=batch_starts, dropout=0.5)
            runs.append((pred.value, nn.backward(rec, nn.mse_loss(rec, pred, target))))
        assert len(shared) == 2 and is_disjoint(shared[1], 8) and log.draws == []
        (got, got_grads), (want, want_grads) = runs
        assert got.tobytes() == want.tobytes()
        assert any(g.any() for g in want_grads.values())
        for name, g in want_grads.items():
            assert got_grads[name].tobytes() == g.tobytes(), name


SPY_SHARED_STEPS = """
import numpy as np
from growcast import backbone
from growcast.backbone import build_backbone, forward_predict, graph_operator
from test_backbone import consecutive_windows, small_graph

calls = []
shared_steps = backbone._shared_steps
backbone._shared_steps = lambda *a: calls.append(shared_steps(*a)) or calls[-1]
for variant in ("spatial", "spectral"):
    bb = build_backbone(variant, d=4, seed=1)
    for n in (200, 250, 300):
        op = graph_operator(bb, small_graph(n))
        for B in (37, 77, 127, 128):
            del calls[:]
            forward_predict(bb, op, consecutive_windows(B, n, "C", seed=B),
                            starts=np.arange(3, 3 + B))
            print(variant, n, B, sum(c is not None for c in calls))
"""


class TestSharedStepsAtScale:
    def test_shared_path_does_not_depend_on_blas_threads(self):
        # a threaded BLAS splits the rows of a GEMM among threads, which
        # must not decide whether a batch shares its steps
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run([sys.executable, "-c", SPY_SHARED_STEPS], env=env,
                              capture_output=True, text=True, cwd=os.path.dirname(__file__))
        assert proc.returncode == 0, proc.stderr
        batches = [line.split() for line in proc.stdout.splitlines()]
        assert len(batches) == 24
        assert [b for b in batches if b[-1] != "1"] == []

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_within_last_digit_rounding_of_windows(self, variant, n, monkeypatch):
        # the layer-1 GEMM has B + 11 rows here and B * 12 in the windowed
        # path, and BLAS may round a row differently with the row count
        shared = spy_shared_steps(monkeypatch)
        bb = build_backbone(variant, d=8, seed=n)
        op = graph_operator(bb, small_graph(n))
        P = np.random.default_rng(n).standard_normal((n, 8))
        for B in (37, 128):
            x = consecutive_windows(B, n, "C", seed=B)
            got, _ = forward_predict(bb, op, x, prompt=P, starts=np.arange(3, 3 + B))
            want = windowed_forward(bb, op, np.array(x), P)
            assert np.abs(got.value - want).max() <= 1e-12 * np.abs(want).max()
        assert len(shared) == 2


class TestEndToEndGradients:
    def test_full_backbone_grad_check(self):
        for variant in ("spatial", "spectral"):
            bb = build_backbone(variant, d=4, t_out=3, seed=4)
            adj = small_graph(4, seed=4)
            op = graph_operator(bb, adj)
            rng = np.random.default_rng(3)
            x = rng.standard_normal((2, 6, 4, 1))
            x = np.where(np.abs(x) < 1e-3, 1e-3, x)
            target = rng.standard_normal((2, 3, 4))

            def build(rec):
                pred, _ = forward_predict(bb, op, x, record=rec)
                return nn.mse_loss(rec, pred, target)

            assert nn.grad_check(build, list(bb.values())) < 1e-4

import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (column_pool_gradient, gathering_pool, keeping_backward, padded_conv,
                     slab_conv_input_gradient, slab_steps_conv, step_rows, step_slabs)

from growcast import nn_core as nn


def scalar_param(name, v, trainable=True):
    return nn.Parameter(name, np.asarray(v, dtype=float), trainable=trainable)


def disjoint(B, T, K):
    """The layout of B windows of T steps that lie end to end on one timeline."""
    return nn.Steps(T * np.arange(B), T, K)


def as_timeline(windows):
    """(B, T, ...) windows as the (1, B*T, ...) timeline of `disjoint` layouts."""
    return windows.reshape((1, -1) + windows.shape[2:])


def as_stack(steps, windows):
    """(B, T, ...) window rows laid out as the rows of `steps`'s stack."""
    stack = np.zeros((steps.n_rows,) + windows.shape[2:])
    stack[step_rows(steps)] = windows
    return stack


class TestForwardPrimitives:
    def test_linear_identity(self):
        rec = nn.ComputeRecord()
        out = nn.linear(rec, np.array([1.0, 2.0]), np.eye(2), np.zeros(2))
        assert np.array_equal(out.value, [1.0, 2.0])

    def test_graph_conv_spatial_example(self):
        rec = nn.ComputeRecord()
        out = nn.graph_conv(rec, [[[0.5, 0.5], [0.5, 0.5]]],
                            np.array([[2.0], [0.0]]), np.array([[1.0]]))
        assert np.allclose(out.value, [[1.0], [1.0]])

    def test_mse_example(self):
        rec = nn.ComputeRecord()
        loss = nn.mse_loss(rec, rec.constant([1.0, 3.0]), [1.0, 2.0])
        assert loss.value == pytest.approx(0.5)

    def test_mse_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(7)
            rec = nn.ComputeRecord()
            assert nn.mse_loss(rec, rec.constant(a), a).value == 0.0
            rec = nn.ComputeRecord()
            b = a + rng.standard_normal(7) * 0.1 + 0.01
            assert nn.mse_loss(rec, rec.constant(a), b).value > 0.0

    def test_cheb_base_case(self):
        # K_order=1 with theta_0 = 0 reduces to theta_1 * L~ @ H
        rng = np.random.default_rng(1)
        L = rng.standard_normal((3, 3))
        H = rng.standard_normal((3, 2))
        basis = [np.eye(3), L]
        rec = nn.ComputeRecord()
        out = nn.graph_conv(rec, basis, rec.constant(H), rec.constant([0.0, 0.7]))
        assert np.allclose(out.value, 0.7 * L @ H)

    def test_relu_dropout_zero_draws_nothing(self):
        rng = nn.rng_stream(3, "drop")
        state = rng.bit_generator.state
        rec = nn.ComputeRecord()
        x = np.array([[-1.0, 2.0, 0.5], [3.0, -0.0, -4.0]])
        out = nn.relu(rec, rec.constant(x), 0.0, rng)
        assert np.array_equal(out.value, np.maximum(x, 0.0))
        assert rng.bit_generator.state == state

    def test_relu_dropout_deterministic_under_seed(self):
        x = np.ones((4, 5))
        outs = []
        for _ in range(2):
            rec = nn.ComputeRecord()
            out = nn.relu(rec, rec.constant(x), 0.5, nn.rng_stream(3, "drop"))
            outs.append(out.value)
        assert np.array_equal(outs[0], outs[1])

    def test_shape_errors_name_the_op(self):
        rec = nn.ComputeRecord()
        with pytest.raises(nn.ShapeError, match="linear"):
            nn.linear(rec, np.ones(3), np.ones((2, 2)))
        with pytest.raises(nn.ShapeError, match="mse_loss"):
            nn.mse_loss(rec, rec.constant(np.ones(2)), np.ones(3))
        # the fused input block is exact for one input channel only
        with pytest.raises(nn.ShapeError, match="graph_input"):
            nn.graph_input(rec, [np.eye(3)], np.ones((1, 2, 3, 2)), np.ones((2, 4)),
                           np.ones(4), None, np.eye(4))

    def test_graph_conv_shape_errors_name_the_op(self):
        h = np.ones((2, 3, 4))
        basis = [np.eye(3), np.eye(3), np.eye(3)]
        for operator, weight in ((basis, np.ones(2)),         # 2 coefficients, 3 matrices
                                 (basis[:2], np.eye(4)),      # matrix weight, 2 matrices
                                 ([np.eye(5)], np.eye(4)),    # 5-node operator, 3-node h
                                 ([np.eye(5)] * 2, np.ones(2))):
            with pytest.raises(nn.ShapeError, match="graph_conv"):
                nn.graph_conv(nn.ComputeRecord(), operator, h, weight)

    def test_nonfinite_output_rejected(self):
        rec = nn.ComputeRecord()
        with pytest.raises(nn.NonFiniteError):
            nn.linear(rec, np.array([np.inf]), np.ones((1, 1)))

    def test_temporal_conv_same_length(self):
        # one 5-step window: 3 interior rows and 2 edge rows
        rec = nn.ComputeRecord()
        x = np.ones((1, 5, 2, 3))
        out = nn.temporal_conv(rec, rec.constant(x),
                               rec.constant(np.zeros((3, 3, 4))),
                               rec.constant(np.zeros(4)), disjoint(1, 5, 3))
        assert out.shape == (5, 2, 4)

    def test_concat_rows(self):
        rec = nn.ComputeRecord()
        out = nn.concat_rows(rec, [rec.constant(np.ones((2, 3))),
                                   rec.constant(np.zeros((1, 3)))])
        assert out.shape == (3, 3)


def padded_temporal_conv(x, W, b, g):
    """Oracle: forward, gx and gW of a loop over a zero-padded copy of x."""
    K, T = W.shape[0], x.shape[1]
    left = K // 2
    pad = np.zeros((x.shape[0], T + K - 1) + x.shape[2:])
    pad[:, left:left + T] = x
    out = np.zeros(x.shape[:3] + (W.shape[2],))
    gpad = np.zeros_like(pad)
    gW = np.zeros_like(W)
    for k in range(K):
        out += pad[:, k:k + T] @ W[k]
        gpad[:, k:k + T] += g @ W[k].T
        gW[k] = np.einsum("btnd,btne->de", pad[:, k:k + T], g, optimize=True)
    return out + b, gpad[:, left:left + T], gW


def per_term_cheb(basis, h, thetas, g):
    """Oracle: forward, gh and gtheta summed one Chebyshev term at a time."""
    terms = [np.einsum("ij,...jd->...id", Tk, h) for Tk in basis]
    out = sum(th * v for th, v in zip(thetas, terms))
    gh = sum(th * np.einsum("ji,...jd->...id", Tk, g) for th, Tk in zip(thetas, basis))
    gth = np.array([np.sum(v * g) for v in terms])
    return out, gh, gth


def relu_then_dropout(x, g, p, rng):
    """Oracle: the unfused relu -> dropout composition, value and input gradient."""
    if p == 0.0:
        return np.maximum(x, 0.0), g * (x > 0)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return np.maximum(x, 0.0) * mask, (g * mask) * (x > 0)


def primitive_grads(op, *args, g, fresh=False):
    """Forward value and the parents' gradients for upstream gradient g.

    fresh: the first array argument reaches op as a fresh copy of its leaf,
    an array that op takes (`nn._take`).
    """
    rec = nn.ComputeRecord()
    nodes = [rec.leaf(nn.Parameter("a%d" % i, a)) if isinstance(a, np.ndarray) else a
             for i, a in enumerate(args)]
    if fresh:
        i = next(i for i, a in enumerate(args) if isinstance(a, np.ndarray))
        nodes[i] = copied(rec, nodes[i])
    node = op(rec, *nodes)
    return node.value, node.grad_fn(g)


def copied(rec, node):
    """A fresh copy of node's value on rec, whose gradient passes through."""
    return rec.record("copy", node.value.copy(), [node], lambda g: [g], fresh=True)


class TestKernelOracles:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [1, 2, 12])
    def test_temporal_conv_bit_equal_to_padded_loop(self, K, T):
        # disjoint windows, each on its own rows of the timeline and stack;
        # the weight gradient sums slab by slab, so it is held to the loop
        # on exact data (TestSlabLists)
        rng = np.random.default_rng(10 * K + T)
        for shape in ((2, T, 3, 4), (16, T, 40, 16)):
            x = np.maximum(rng.standard_normal(shape), 0.0)
            W = rng.standard_normal((K, shape[-1], 5))
            b = rng.standard_normal(5)
            g = rng.standard_normal(shape[:3] + (5,))
            want_out, want_gx, _ = padded_temporal_conv(x, W, b, g)
            steps = disjoint(shape[0], T, K)
            g_stack = as_stack(steps, g)
            for fresh in (False, True):  # a taken input becomes gx's buffer
                out, (gx, _, gb) = primitive_grads(
                    lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b, steps),
                    as_timeline(x), W, b, g=g_stack, fresh=fresh)
                assert out.shape[0] == shape[0] * T
                assert out[step_rows(steps)].tobytes() == want_out.tobytes()
                assert gx.reshape(shape).tobytes() == want_gx.tobytes()
                assert np.array_equal(gb, g_stack.sum(axis=(0, 1)))

    def test_graph_conv_cheb_matches_per_term_sum(self):
        rng = np.random.default_rng(11)
        for n, K_order in ((5, 0), (7, 2), (40, 3)):
            L = rng.standard_normal((n, n)) / n  # not symmetric: a lost transpose shows
            basis = [np.eye(n), L]
            while len(basis) < K_order + 1:
                basis.append(2 * L @ basis[-1] - basis[-2])
            basis = basis[:K_order + 1]
            h = rng.standard_normal((3, 4, n, 6))
            thetas = rng.standard_normal(K_order + 1)
            g = rng.standard_normal(h.shape)
            out, (gh, gth) = primitive_grads(nn.graph_conv, basis, h, thetas, g=g)
            for got, want in zip((out, gh, gth), per_term_cheb(basis, h, thetas, g)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_graph_conv_spatial_any_operator(self):
        # the table's A_hat is symmetric; this operator is not
        rng = np.random.default_rng(14)
        A = rng.standard_normal((4, 4)) / 4
        h = nn.Parameter("h", rng.standard_normal((2, 3, 4, 5)))
        W = nn.Parameter("W", rng.standard_normal((5, 3)))
        target = rng.standard_normal((2, 3, 4, 3))

        def build(rec):
            return nn.mse_loss(rec, nn.graph_conv(rec, [A], rec.leaf(h), rec.leaf(W)),
                               target)

        assert nn.grad_check(build, [h, W]) < 1e-6

    def test_relu_has_no_negative_zero(self):
        x = np.array([[-0.0, 0.0, -1.5, 2.0], [-np.finfo(float).tiny, 3.0, -0.0, -7.0]])
        g = np.arange(1.0, 9.0).reshape(2, 4)
        out, (gx,) = primitive_grads(nn.relu, x, g=g)
        assert not np.signbit(out).any()
        assert np.array_equal(out, np.where(x > 0, x, 0.0))
        assert np.array_equal(gx, g * (x > 0))

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
    def test_relu_dropout_matches_unfused_composition(self, p):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4, 5, 6))
        x[0, 0, 0, :4] = [0.0, -0.0, np.finfo(float).tiny, -np.finfo(float).tiny]
        g = rng.standard_normal(x.shape)
        oracle_rng = nn.rng_stream(7, "drop")
        want, want_gx = relu_then_dropout(x, g, p, oracle_rng)
        for fresh in (False, True):  # copy, then in place into a fresh output
            rec = nn.ComputeRecord()
            src = rec.record("src", x.copy(), [], None, fresh=fresh)
            fused_rng = nn.rng_stream(7, "drop")
            out = nn.relu(rec, src, p, fused_rng)
            # equal values, except that a dropped or negative x may give -0.0
            assert np.array_equal(out.value, want)
            assert out.value[want != 0].tobytes() == want[want != 0].tobytes()
            (gx,) = out.grad_fn(g)
            assert gx.tobytes() == want_gx.tobytes()
            # one rng.random(x.shape) draw with dropout, none without
            assert fused_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_mean_pool_time_gradient_spreads_evenly(self):
        steps = disjoint(2, 3, 3)
        x = np.random.default_rng(12).standard_normal((steps.n_rows, 4, 5))
        g = np.random.default_rng(13).standard_normal((2, 4, 5))
        _, (gx,) = primitive_grads(lambda rec, x: nn.mean_pool_time(rec, x, steps), x, g=g)
        assert gx.shape == x.shape
        assert np.array_equal(gx[step_rows(steps)], np.repeat(g[:, None] / 3, 3, axis=1))

    def test_nonfinite_output_names_the_op(self):
        # finite inputs whose product, sum or dropout scaling overflows in
        # the primitive's own arithmetic; each scans its output
        big = np.full((1, 2, 3, 4), 1e300)
        cases = [
            ("temporal_conv", lambda rec: nn.temporal_conv(
                rec, big, np.full((3, 4, 4), 1e300), np.zeros(4), disjoint(1, 2, 3))),
            ("graph_conv", lambda rec: nn.graph_conv(
                rec, [np.full((3, 3), 1e300)], big, np.eye(4))),
            ("graph_conv", lambda rec: nn.graph_conv(
                rec, [np.eye(3), np.full((3, 3), 1e300)], big, np.ones(2))),
            ("relu", lambda rec: nn.relu(rec, np.full(64, 1.5e308), 0.5,
                                         nn.rng_stream(0, "drop"))),
            ("mean_pool_time", lambda rec: nn.mean_pool_time(rec, np.full(big.shape[1:], 1.5e308),
                                                             disjoint(1, 2, 3))),
        ]
        for op, call in cases:
            # the scan is the only report: numpy warns of no overflow first
            with warnings.catch_warnings(), pytest.raises(
                    nn.NonFiniteError, match="^non-finite output of %s$" % op):
                warnings.simplefilter("error")
                call(nn.ComputeRecord())


def consecutive(arr, B, T):
    """The B consecutive T-step windows of arr as an overlapping strided view."""
    view = np.lib.stride_tricks.sliding_window_view(arr, T, axis=0)[:B]
    return np.moveaxis(view, -1, 1)


class TestSharedSteps:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 12, 13, 25])
    @pytest.mark.parametrize("T", [1, 3, 12])
    @pytest.mark.parametrize("B", [1, 2, 9])
    def test_temporal_conv_on_a_timeline_matches_windows(self, K, T, B):
        rng = np.random.default_rng(100 * K + 10 * T + B)
        steps = np.maximum(rng.standard_normal((B + T - 1, 5, 4)), 0.0)
        steps[0, 0, :2] = [0.0, -0.0]
        W = rng.standard_normal((K, 4, 3))
        b = rng.standard_normal(3)
        windows = np.ascontiguousarray(consecutive(steps, B, T))
        want = padded_conv(windows, W, b)
        layout = nn.Steps(np.arange(B), T, K)
        got = nn.temporal_conv(nn.ComputeRecord(grad=False), steps[None], W, b,
                               steps=layout).value
        # B + T - K interior rows serve every window; each window adds K - 1 edge rows
        assert got.shape[0] == layout.n_rows == (B + T - K + B * (K - 1) if K <= T else B * T)
        assert layout.length == B + T - 1
        rows = step_rows(layout)
        assert np.array_equal(np.unique(rows), np.arange(got.shape[0]))
        assert got[rows].tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("heads", [[0, 1, 2, 3], [9, 0, 14, 3, 5], [30, 2], [4],
                                       [6, 2, 6, 3, 2]])
    def test_shared_conv_and_pool_match_windows_with_gradients(self, K, T, heads):
        # heads: each window's first timeline row, in batch order; shuffled
        # and gapped windows share rows, and backward must add every
        # window's gradient into them.  Windows must start on distinct rows.
        rng = np.random.default_rng(K + 10 * T + len(heads))
        heads = np.array(heads)
        steps = rng.standard_normal((heads.max() + T, 4, 3))
        W = rng.standard_normal((K, 3, 2))
        b = rng.standard_normal(2)
        g = rng.standard_normal((len(heads), 4, 2))
        window = heads[:, None] + np.arange(T)
        if len(np.unique(heads)) < len(heads):
            with pytest.raises(nn.ShapeError, match="distinct"):
                nn.Steps(heads, T, K)
            return
        layout = nn.Steps(heads, T, K)

        def conv_and_pool(x, layout):
            rec = nn.ComputeRecord()
            h = nn.temporal_conv(rec, rec.leaf(nn.Parameter("x", x)), rec.leaf(nn.Parameter("W", W)),
                                 rec.leaf(nn.Parameter("b", b)), steps=layout)
            out = nn.mean_pool_time(rec, h, steps=layout)
            (gh,) = out.grad_fn(g)
            return [out.value] + h.grad_fn(gh)

        got = conv_and_pool(steps[None], layout)
        # the same windows, gathered and laid end to end
        want = conv_and_pool(as_timeline(steps[window]), disjoint(len(heads), T, K))
        assert got[0].tobytes() == want[0].tobytes()
        gx_windows = np.zeros(steps.shape)
        np.add.at(gx_windows, window, want[1].reshape(window.shape + steps.shape[1:]))
        assert got[1].shape == (1,) + steps.shape
        for a, w in zip([got[1][0]] + got[2:], [gx_windows] + want[2:]):
            assert np.abs(a - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("weight_shape", [(4, 4), (3,)])
    def test_graph_input_timeline_matches_windows(self, weight_shape):
        # the (1, L, n, 1) timeline is an ordinary one-window batch
        rng = np.random.default_rng(16)
        n, B, T = 5, 7, 12
        op = [rng.standard_normal((n, n)) for _ in range(3 if len(weight_shape) == 1 else 1)]
        args = (rng.standard_normal((1, 4)), rng.standard_normal(4),
                rng.standard_normal((n, 4)), rng.standard_normal(weight_shape))
        steps = rng.standard_normal((B + T - 1, n, 1))
        want = nn.graph_input(nn.ComputeRecord(grad=False), op,
                              np.array(consecutive(steps, B, T)), *args).value
        got = nn.graph_input(nn.ComputeRecord(grad=False), op, steps[None], *args).value
        assert got.shape == (1, B + T - 1, n, 4)
        assert np.ascontiguousarray(consecutive(got[0], B, T)).tobytes() == want.tobytes()

    def test_mean_pool_time_over_rows(self):
        rng = np.random.default_rng(18)
        # three 5-step windows at rows 2, 0 and 1 under a 3-tap conv: 5
        # shared rows, then two edge rows per window
        layout = nn.Steps(np.array([2, 0, 1]), 5, 3)
        rows = step_rows(layout)
        assert rows.tolist() == [[5, 2, 3, 4, 6], [7, 0, 1, 2, 8], [9, 1, 2, 3, 10]]
        stack = rng.standard_normal((layout.n_rows, 3, 2))
        got = nn.mean_pool_time(nn.ComputeRecord(grad=False), stack, steps=layout).value
        assert got.tobytes() == stack[rows].mean(axis=1).tobytes()
        # shared rows 1, 2 and 3 each serve two or three windows: each read adds its gradient
        g = rng.standard_normal((3, 3, 2))
        _, (gx,) = primitive_grads(lambda rec, x: nn.mean_pool_time(rec, x, steps=layout),
                                   stack, g=g)
        want = np.zeros(stack.shape)
        for i, o in np.ndindex(rows.shape):
            want[rows[i, o]] += g[i] / 5
        assert np.abs(gx - want).max() <= 1e-15


def steps_case(call):
    """A hostile-input case: call(layout) on a layout of windows at rows 0, 3 and 1, T 4, K 3."""
    return lambda: call(nn.Steps(np.array([0, 3, 1]), 4, 3))


def heads_case(heads):
    return lambda: nn.Steps(heads, 4, 3)


# (case, the op the ShapeError names, the call); the good layout's
# timeline has 7 rows, its stack 5 + 3 * 2 = 11
HOSTILE_STEPS = [
    ("repeated heads", "steps", heads_case(np.array([3, 1, 3]))),
    ("negative head", "steps", heads_case(np.array([-1, 0]))),
    ("float heads", "steps", heads_case(np.array([0.0, 1.0]))),
    ("2-D heads", "steps", heads_case(np.array([[0, 1]]))),
    ("empty heads", "steps", heads_case(np.array([], dtype=int))),
    ("timeline shorter than length", "temporal_conv", steps_case(lambda s: nn.temporal_conv(
        nn.ComputeRecord(), np.zeros((1, 6, 2, 3)), np.zeros((3, 3, 3)), np.zeros(3), steps=s))),
    ("two timelines", "temporal_conv", steps_case(lambda s: nn.temporal_conv(
        nn.ComputeRecord(), np.zeros((2, 7, 2, 3)), np.zeros((3, 3, 3)), np.zeros(3), steps=s))),
    ("mismatched K", "temporal_conv", steps_case(lambda s: nn.temporal_conv(
        nn.ComputeRecord(), np.zeros((1, 7, 2, 3)), np.zeros((2, 3, 3)), np.zeros(3), steps=s))),
    ("stack with a row too many", "mean_pool_time", steps_case(lambda s: nn.mean_pool_time(
        nn.ComputeRecord(), np.zeros((12, 2, 3)), steps=s))),
    ("stack with a row too few", "mean_pool_time", steps_case(lambda s: nn.mean_pool_time(
        nn.ComputeRecord(), np.zeros((10, 2, 3)), steps=s))),
    ("windows instead of a stack", "mean_pool_time", steps_case(lambda s: nn.mean_pool_time(
        nn.ComputeRecord(), np.zeros((3, 4, 2, 3)), steps=s))),
]


class TestStepsLayout:
    def test_good_layout_runs(self):
        # the cases below each break one thing about this layout and its inputs
        layout = nn.Steps(np.array([0, 3, 1]), 4, 3)
        assert (layout.length, layout.n_rows) == (7, 11)
        h = nn.temporal_conv(nn.ComputeRecord(), np.zeros((1, 7, 2, 3)), np.zeros((3, 3, 3)),
                             np.zeros(3), steps=layout)
        assert h.shape == (11, 2, 3)
        assert nn.mean_pool_time(nn.ComputeRecord(), h, steps=layout).shape == (3, 2, 3)
        # a timeline may hold rows no window reads
        h = nn.temporal_conv(nn.ComputeRecord(), np.zeros((1, 9, 2, 3)), np.zeros((3, 3, 3)),
                             np.zeros(3), steps=layout)
        assert h.shape == (11, 2, 3)

    @pytest.mark.parametrize("case, op, call", HOSTILE_STEPS, ids=[c[0] for c in HOSTILE_STEPS])
    def test_hostile_input_is_a_shape_error(self, case, op, call):
        with pytest.raises(nn.ShapeError, match="^%s: " % op):
            call()


# window heads of one batch, in batch order, for the slab lists
HEADS = {"consecutive": [2, 3, 4, 5, 6], "shuffled": [5, 0, 9, 3, 1, 7, 2],
         "gapped": [0, 30, 31, 50, 7], "single": [13]}


def slab_rows(slabs, n_out, n_in):
    """Each slab's (k, input rows, output rows, first) as flat row numbers.

    n_out and n_in are the shapes of the output and input row grids the
    slab indices address: (B, T) per window, or (rows,) of a stack.
    """
    out_ids = np.arange(np.prod(n_out)).reshape(n_out)
    in_ids = np.arange(np.prod(n_in)).reshape(n_in)
    return [(k, in_ids[i].ravel(), out_ids[o].ravel(), first) for k, i, o, first in slabs]


def layout_heads(layout, T, B=3):
    """The heads of one of `HEADS`' layouts, or of B disjoint T-step windows."""
    return T * np.arange(B) if layout == "disjoint" else np.array(HEADS[layout])


class TestSlabLists:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", ["disjoint"] + sorted(HEADS))
    def test_each_row_is_zero_or_written_first_once(self, K, T, layout):
        steps = nn.Steps(layout_heads(layout, T), T, K)
        n_rows = steps.n_rows
        rows = slab_rows(step_slabs(steps), (n_rows,), (steps.length,))
        assert n_rows == step_rows(steps).max() + 1
        first_at, adds = {}, []
        for j, (k, src, dst, first) in enumerate(rows):
            # no slab reads or writes a row twice, so indexed += adds every row
            assert len(np.unique(src)) == len(src) == len(dst) == len(np.unique(dst))
            for r in dst:
                if first:
                    assert r not in first_at, "row %d written first twice" % r
                    first_at[r] = j
                else:
                    adds.append((r, j))
        assert set(first_at) == set(range(n_rows))
        assert all(first_at[r] < j for r, j in adds)

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", ["random", "gapped", "disjoint"])
    def test_stack_holds_only_rows_some_window_reads(self, K, T, layout):
        # the stack holds only rows some window reads, so it is never
        # larger than the B*T window rows
        rng = np.random.default_rng([K, T, len(layout)])
        for B in (1, 2, 7, 40):
            if layout == "random":
                heads = rng.choice(3 * B + T, size=B, replace=False)
            elif layout == "gapped":
                heads = np.cumsum(rng.integers(1, 2 * T + 2, size=B))
            else:
                heads = T * rng.permutation(B)
            steps = nn.Steps(heads, T, K)
            assert steps.n_rows <= B * T
            read = np.concatenate([np.arange(steps.n_rows)[c] for c in steps.columns])
            assert np.array_equal(np.unique(read), np.arange(steps.n_rows))

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", ["disjoint"] + sorted(HEADS))
    def test_weight_gradient_bit_equal_to_padded_loop_on_integers(self, K, T, layout):
        # small integers make every partial sum exact in any order, so the
        # per-slab sums must give the loop's bytes
        rng = np.random.default_rng([K, T, len(layout)])
        heads = layout_heads(layout, T, B=16)
        timeline = rng.integers(0, 4, size=(heads.max() + T, 40, 16)).astype(float)
        windows = timeline[heads[:, None] + np.arange(T)]
        W = rng.integers(-2, 3, size=(K, 16, 5)).astype(float)
        b = np.zeros(5)
        g = rng.integers(-2, 3, size=windows.shape[:3] + (5,)).astype(float)
        _, _, want = padded_temporal_conv(windows, W, b, g)
        steps = nn.Steps(heads, T, K)
        g_stack = np.zeros((steps.n_rows,) + g.shape[2:])
        for o, column in enumerate(steps.columns):
            g_stack[column] += g[:, o]  # a column holds each stack row once

        def conv(rec, x, W, b):
            return nn.temporal_conv(rec, x, W, b, steps=steps)
        for fresh in (False, True):
            _, (_, gW, _) = primitive_grads(conv, timeline[None], W, b, g=g_stack, fresh=fresh)
            assert gW.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_disjoint_weight_gradient_at_training_size(self, K):
        # the weight gradient sums only unpadded rows, one GEMM per slab of
        # one window's interior rows or of every window's edge row; at this
        # size it may round differently from the padded copy's sum
        rng = np.random.default_rng(K)
        x = np.maximum(rng.standard_normal((128, 12, 60, 16)), 0.0)
        W = rng.standard_normal((K, 16, 16))
        b = rng.standard_normal(16)
        g = rng.standard_normal(x.shape)
        steps = disjoint(128, 12, K)
        _, (_, gW, _) = primitive_grads(lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b, steps),
                                        as_timeline(x), W, b, g=as_stack(steps, g))
        _, _, want = padded_temporal_conv(x, W, b, g)
        assert np.abs(gW - want).max() <= 1e-12 * np.abs(want).max()

    def test_weight_gradient_of_a_taken_input_copies_no_slab(self):
        # x has a constant parent, so backward forms gW alone.  One GEMM over
        # a strided tap's flattened rows copied its (B, T - 1, n, d) slab of
        # g, 14.4 MB; on disjoint windows each window's interior rows are one
        # block, and an edge slab copies one row per window, 1.3 MB
        rng = np.random.default_rng(0)
        B, T, n, d = 64, 12, 40, 64
        steps = disjoint(B, T, 3)
        rec = nn.ComputeRecord()
        x = copied(rec, rec.constant(rng.standard_normal((1, B * T, n, d))))
        W = rec.leaf(nn.Parameter("W", rng.standard_normal((3, d, d))))
        node = nn.temporal_conv(rec, x, W, np.zeros(d), steps)
        assert x.value is None and not x.needs_grad  # taken, and no gx is formed
        g = rng.standard_normal((steps.n_rows, n, d))
        tracemalloc.start()
        try:
            gx, gW, _ = node.grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx is None and gW is not None
        assert peak < B * (T - 1) * n * d * 8


class TestSharedStepOracles:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", sorted(HEADS))
    def test_tap_products_and_view_pool_bit_equal_to_slabs_and_gathers(self, K, T, layout):
        # each tap's product formed once gives every stack row the bytes of
        # one GEMM per slab; pooling through column views those of gathers
        rng = np.random.default_rng(100 * K + T)
        steps = nn.Steps(np.array(HEADS[layout]), T, K)
        for d in (8, 16, 64):
            for n in (7, 300):
                x = np.maximum(rng.standard_normal((1, steps.length, n, d)), 0.0)
                W = rng.standard_normal((K, d, d))
                b = rng.standard_normal(d)
                stack = nn.temporal_conv(nn.ComputeRecord(grad=False), x, W, b,
                                         steps=steps).value
                assert stack.tobytes() == slab_steps_conv(x, W, b, steps).tobytes()
                g = rng.standard_normal((len(HEADS[layout]), n, d))
                pooled, (gx,) = primitive_grads(
                    lambda rec, s: nn.mean_pool_time(rec, s, steps=steps), stack, g=g)
                want, want_gx = gathering_pool(stack, steps, g)
                assert pooled.tobytes() == want.tobytes()
                assert gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("layout", sorted(HEADS))
    def test_columns_are_views_where_the_layout_allows(self, layout):
        steps = nn.Steps(np.array(HEADS[layout]), 12, 3)
        for o, column in enumerate(steps.columns):
            # one distinct stack row per window
            assert len(np.unique(np.arange(steps.n_rows)[column])) == len(HEADS[layout])
            # edge columns always, interior ones when the heads are consecutive
            assert isinstance(column, slice) == (o in (0, 11) or layout in ("consecutive",
                                                                            "single"))

    def test_first_tap_writes_one_row_past_the_shared_block(self):
        # four consecutive windows of 12 steps: 13 shared rows, then the
        # first window's left-edge row holds tap 0's product of timeline row 13
        steps = nn.Steps(np.arange(4), 12, 3)
        assert [(k, span, in_place) for k, span, in_place, _ in steps.taps] == [
            (0, slice(0, 14), True), (1, slice(0, 15), False), (2, slice(1, 15), False)]
        assert steps.columns[0] == slice(13, None, 2)


# (primitive, call(record, v)) whose output holds v or its overflow: its
# input enters the tape unchecked, or is graph_input's raw input
class TestBackwardKernels:
    """Backward kernels hold the bytes of the formulas they replaced."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", sorted(HEADS))
    def test_pool_gradient_bit_equal_to_column_loop(self, K, T, layout):
        # one slice add per window's block of interior rows, the lowest block
        # last, then the edge rows; T <= K - 1 leaves no interior rows
        rng = np.random.default_rng([K, T, len(layout)])
        heads = np.array(HEADS[layout])
        steps = nn.Steps(heads, T, K)
        windows, starts, I = steps.blocks
        assert I == max(T - K + 1, 0)
        assert sorted(windows.tolist()) == (list(range(len(heads))) if I else [])
        assert (np.diff(starts) < 0).all()
        g = rng.standard_normal((len(heads), 7, 4))
        g[0, 0, :2] = [-0.0, 0.0]
        want = column_pool_gradient(steps, g)
        for fresh in (False, True):  # a taken stack becomes gx's buffer
            _, (gx,) = primitive_grads(lambda rec, x: nn.mean_pool_time(rec, x, steps),
                                       rng.standard_normal((steps.n_rows, 7, 4)), g=g,
                                       fresh=fresh)
            assert gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("T", [1, 2, 12])
    def test_conv_input_gradient_bit_equal_to_zero_then_add_loop(self, K, T):
        # the first tap's run slabs write their timeline rows, the rows
        # between the runs and past the last start at zero
        rng = np.random.default_rng([K, T])
        for heads in (HEADS["gapped"], HEADS["shuffled"], [0, 2 * T + 1, 4 * T + 3],
                      rng.choice(3 * 40 + T, size=40, replace=False)):
            steps = nn.Steps(np.array(heads), T, K)
            L = steps.length + 2
            W = rng.standard_normal((K, 6, 5))
            g = rng.standard_normal((steps.n_rows, 7, 5))
            want = slab_conv_input_gradient(steps, W, g, L)
            for fresh in (False, True):  # a taken input becomes gx's buffer
                _, (gx, _, _) = primitive_grads(
                    lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b, steps),
                    rng.standard_normal((1, L, 7, 6)), W, np.zeros(5), g=g, fresh=fresh)
                assert gx.tobytes() == want.tobytes()
        assert len(nn.Steps(np.array([0, 2 * T + 1, 4 * T + 3]), T, K).runs) == (
            3 if T >= K else 0)

    @pytest.mark.parametrize("shape", [(288, 60, 64), (240, 300, 8)])
    def test_graph_conv_and_linear_gradients_bit_equal_to_transposed_view_products(self, shape):
        # a batched product on a contiguous copy of W^T or G^T, a 2-D one on the view
        rng = np.random.default_rng(shape)
        R, n, d = shape
        A = rng.standard_normal((n, n)) / n  # not symmetric: a lost transpose shows
        h = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        W = rng.standard_normal((d, d))
        _, (gh, _) = primitive_grads(nn.graph_conv, [A], h, W, g=g)
        assert gh.tobytes() == np.matmul(A.T, np.matmul(g, W.T)).tobytes()
        basis = [np.eye(n), A, 2 * A @ A - np.eye(n)]
        theta = rng.standard_normal(3)
        _, (gh, _) = primitive_grads(nn.graph_conv, basis, h, theta, g=g)
        G = sum(th * Tk for th, Tk in zip(theta, basis))
        assert gh.tobytes() == np.matmul(G.T, g).tobytes()
        head = rng.standard_normal((d, 12))
        g_head = rng.standard_normal((R, n, 12))
        _, (gx, _) = primitive_grads(nn.linear, h, head, g=g_head)
        assert gx.tobytes() == (g_head @ head.T).tobytes()
        # the prompt product: (n, k) factors times the k x d matrix B
        B = rng.standard_normal((6, d))
        g_prompt = rng.standard_normal((n, d))
        _, (gx, _) = primitive_grads(nn.linear, rng.standard_normal((n, 6)), B, g=g_prompt)
        assert gx.tobytes() == (g_prompt @ B.T).tobytes()


def _unscanned(rec, value):
    return rec.record("src", np.asarray(value, dtype=float), [], None, scan=False)


SCANNED = [
    ("linear", lambda rec, v: nn.linear(rec, _unscanned(rec, np.full((2, 3), v)), np.eye(3))),
    ("relu", lambda rec, v: nn.relu(rec, _unscanned(rec, np.full(64, v)), 0.5,
                                    nn.rng_stream(0, "drop"))),
    ("graph_input", lambda rec, v: nn.graph_input(rec, [np.eye(3)], np.full((2, 4, 3, 1), v),
                                                  np.ones((1, 2)), np.zeros(2), None,
                                                  np.eye(2))),
    ("temporal_conv", lambda rec, v: nn.temporal_conv(
        rec, _unscanned(rec, np.full((1, 8, 3, 2), v)), np.stack([np.zeros((2, 2)), np.eye(2),
                                                                  np.zeros((2, 2))]),
        np.zeros(2), steps=disjoint(2, 4, 3))),
    ("temporal_conv", lambda rec, v: nn.temporal_conv(
        rec, _unscanned(rec, np.full((1, 7, 3, 2), v)), np.stack([np.zeros((2, 2)), np.eye(2),
                                                                  np.zeros((2, 2))]),
        np.zeros(2), steps=nn.Steps(np.array([0, 3, 1]), 4, 3))),
    ("graph_conv", lambda rec, v: nn.graph_conv(rec, [np.eye(3)],
                                                _unscanned(rec, np.full((2, 3, 2), v)), np.eye(2))),
    ("graph_conv", lambda rec, v: nn.graph_conv(rec, [np.eye(3), np.zeros((3, 3))],
                                                _unscanned(rec, np.full((2, 3, 2), v)),
                                                np.array([1.0, 0.0]))),
    ("mean_pool_time", lambda rec, v: nn.mean_pool_time(
        rec, _unscanned(rec, np.full((6, 4, 5), v)), steps=disjoint(2, 3, 3))),
    ("mean_pool_time", lambda rec, v: nn.mean_pool_time(
        rec, _unscanned(rec, np.full((11, 2, 3), v)), steps=nn.Steps(np.array([0, 3, 1]), 4, 3))),
    ("mse_loss", lambda rec, v: nn.mse_loss(rec, _unscanned(rec, np.full((2, 3), v)),
                                            np.zeros((2, 3)))),
]


class TestFiniteCheck:
    @pytest.mark.parametrize("op, call", SCANNED, ids=[c[0] for c in SCANNED])
    def test_outputs_whose_squares_overflow_pass_without_a_warning(self, op, call):
        # 1e200 is finite, but its square is not: the one-read sum overflows
        # and the exact test decides, with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # mse_loss squares its input: 1e100 gives 1e200
            out = call(nn.ComputeRecord(), 1e100 if op == "mse_loss" else 1e200)
            assert np.isfinite(out.value).all() and np.abs(out.value).max() > 1e199

    def test_entries_whose_squares_overflow_enter_the_tape(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = nn.ComputeRecord()
            rec.constant(np.full((3, 4), 1e200))
            rec.leaf(nn.Parameter("gconv1.W", np.full((3, 4), -1e200)))
            assert len(rec.nodes) == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("op, call", SCANNED, ids=[c[0] for c in SCANNED])
    def test_a_nonfinite_output_names_the_op(self, op, call, bad):
        with pytest.raises(nn.NonFiniteError, match="^non-finite output of %s$" % op):
            call(nn.ComputeRecord(), bad)

    @pytest.mark.parametrize("where", [0, 5, -1])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_one_bad_entry_anywhere_keeps_the_entry_messages(self, where, bad):
        x = np.random.default_rng(17).standard_normal((40, 7))
        for form in (lambda a: a, lambda a: a[:, ::2], lambda a: a.T):  # strided, transposed
            arr = form(x.copy())
            arr.flat[where] = bad
            rec = nn.ComputeRecord()
            with pytest.raises(nn.NonFiniteError, match="^non-finite constant$"):
                rec.constant(arr)
            with pytest.raises(nn.NonFiniteError, match="^non-finite parameter head.W$"):
                rec.leaf(nn.Parameter("head.W", arr))


def _layout(K):
    return nn.Steps(np.array([5, 0, 9, 3, 1]), 4, K)


# primitives that may take a fresh input or write into an owned g:
# (op over the argument nodes, argument shapes, indices of frozen arguments)
A_HAT = np.random.default_rng(19).standard_normal((4, 4)) / 4
CHEB = [np.eye(4), A_HAT, 2 * A_HAT @ A_HAT - np.eye(4)]
TAKERS = {
    "relu": (lambda rec, x: nn.relu(rec, x), [(3, 4, 5, 2)], ()),
    "relu_dropout": (lambda rec, x: nn.relu(rec, x, 0.3, nn.rng_stream(1, "drop")),
                     [(3, 4, 5, 2)], ()),
    "temporal_conv_k3": (lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b, disjoint(3, 6, 3)),
                         [(1, 18, 4, 5), (3, 5, 5), (5,)], ()),
    "temporal_conv_k4_frozen": (lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b,
                                                                      disjoint(3, 6, 4)),
                                [(1, 18, 4, 5), (4, 5, 2), (2,)], (1,)),
    "temporal_conv_steps": (lambda rec, x, W, b: nn.temporal_conv(rec, x, W, b, _layout(3)),
                            [(1, 13, 4, 5), (3, 5, 5), (5,)], ()),
    "graph_conv_square": (lambda rec, h, W: nn.graph_conv(rec, [A_HAT], h, W),
                          [(3, 2, 4, 5), (5, 5)], ()),
    "graph_conv_square_frozen": (lambda rec, h, W: nn.graph_conv(rec, [A_HAT], h, W),
                                 [(3, 2, 4, 5), (5, 5)], (1,)),
    "graph_conv_wide": (lambda rec, h, W: nn.graph_conv(rec, [A_HAT], h, W),
                        [(3, 2, 4, 5), (5, 7)], ()),
    "graph_conv_cheb": (lambda rec, h, th: nn.graph_conv(rec, CHEB, h, th),
                        [(3, 2, 4, 5), (3,)], ()),
    "graph_conv_cheb_frozen": (lambda rec, h, th: nn.graph_conv(rec, CHEB, h, th),
                               [(3, 2, 4, 5), (3,)], (1,)),
    "mean_pool_time": (lambda rec, x: nn.mean_pool_time(rec, x, disjoint(3, 6, 3)),
                       [(18, 4, 5)], ()),
    "mean_pool_time_steps": (lambda rec, x: nn.mean_pool_time(rec, x, _layout(3)),
                             [(_layout(3).n_rows, 4, 5)], ()),
}


class TestRecordContracts:
    @pytest.mark.parametrize("grad", [True, False])
    def test_nonfinite_leaf_or_constant_is_rejected_on_entry(self, grad):
        # a value enters the tape checked, so no primitive rescans it
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array([[1.0, bad], [-2.0, 3.0]])
            rec = nn.ComputeRecord(grad=grad)
            with pytest.raises(nn.NonFiniteError, match="^non-finite constant$"):
                rec.constant(x)
            with pytest.raises(nn.NonFiniteError, match="^non-finite constant$"):
                nn.relu(rec, x)  # a raw array enters as a constant
            with pytest.raises(nn.NonFiniteError, match="^non-finite parameter gconv1.W$"):
                rec.leaf(nn.Parameter("gconv1.W", x))
            assert rec.nodes == [] and rec._param_nodes == {}

    def test_relu_writes_only_a_fresh_unread_output(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        W = nn.Parameter("W", rng.standard_normal((4, 4)))
        for p in (0.0, 0.5):
            # a parameter's value and a constant's array stay as they were
            rec = nn.ComputeRecord()
            arr = x.copy()
            for node in (rec.leaf(nn.Parameter("P", arr)), rec.constant(arr)):
                out = nn.relu(rec, node, p, nn.rng_stream(0, "drop"))
                assert node.value is arr and arr.tobytes() == x.tobytes()
                assert not np.shares_memory(out.value, arr)
            # an output another primitive has read is not written either
            for read in (lambda rec, h: nn.linear(rec, h, rec.leaf(W)),
                         lambda rec, h: nn.concat_rows(rec, [h])):
                rec = nn.ComputeRecord()
                h = nn.linear(rec, x, rec.leaf(W))
                before = h.value.copy()
                read(rec, h)
                out = nn.relu(rec, h, p, nn.rng_stream(0, "drop"))
                assert h.value.tobytes() == before.tobytes()
                assert not np.shares_memory(out.value, h.value)
            # a fresh, unread output is written in place and is then gone
            rec = nn.ComputeRecord()
            h = nn.linear(rec, x, rec.leaf(W))
            arr = h.value
            out = nn.relu(rec, h, p, nn.rng_stream(0, "drop"))
            assert out.value is arr and h.value is None
            with pytest.raises(nn.NnError, match="in place"):
                nn.linear(rec, h, rec.leaf(W))

    @pytest.mark.parametrize("case", sorted(TAKERS))
    def test_taking_the_input_and_owning_g_change_no_bit(self, case):
        # nn.backward hands each grad_fn an owned g, which the oracle replay
        # never does; a copied input is one the primitive takes
        op, shapes, frozen = TAKERS[case]
        rng = np.random.default_rng(len(case))
        arrays = [np.maximum(rng.standard_normal(shape), 0.0) for shape in shapes]
        runs = []
        for fresh in (False, True):
            for replay in (nn.backward, keeping_backward):
                rec = nn.ComputeRecord()
                params = [nn.Parameter("a%d" % i, a.copy(), trainable=i not in frozen)
                          for i, a in enumerate(arrays)]
                nodes = [rec.leaf(param) for param in params]
                if fresh:
                    nodes[0] = copied(rec, nodes[0])
                out = op(rec, *nodes)
                value = out.value.copy()
                grads = replay(rec, nn.mse_loss(rec, out, np.ones(value.shape)))
                assert nodes[0].value is None or not fresh
                assert all(p.value.tobytes() == a.tobytes() for p, a in zip(params, arrays))
                runs.append([value] + [grads[name] for name in sorted(grads)])
        assert len(runs[0]) == 1 + len(arrays) - len(frozen)
        for run in runs[1:]:
            assert [v.tobytes() for v in run] == [v.tobytes() for v in runs[0]]

    def test_gradient_free_record_keeps_nothing(self):
        rng = np.random.default_rng(17)
        W = nn.Parameter("W", rng.standard_normal((4, 4)))
        x = rng.standard_normal((3, 4))
        rec = nn.ComputeRecord(grad=False)
        h = nn.relu(rec, nn.linear(rec, x, rec.leaf(W)))
        loss = nn.mse_loss(rec, h, np.zeros((3, 4)))
        assert rec.nodes == []
        assert all(n.parents == () and n.grad_fn is None and not n.needs_grad
                   for n in (h, loss))
        with pytest.raises(nn.NnError, match="grad=False"):
            nn.backward(rec, loss)
        assert loss.value == nn.mse_loss(nn.ComputeRecord(), np.maximum(x @ W.value, 0.0),
                                         np.zeros((3, 4))).value


class TestBackward:
    def test_square_derivative(self):
        w = scalar_param("w", [3.0])
        rec = nn.ComputeRecord()
        node = rec.leaf(w)
        # w^2 as mse against zero, times size 1: mean(w^2)
        loss = nn.mse_loss(rec, node, np.zeros(1))
        grads = nn.backward(rec, loss)
        assert grads["w"] == pytest.approx([6.0])

    def test_frozen_absent_from_gradient_map(self):
        w = scalar_param("w", [3.0], trainable=False)
        rec = nn.ComputeRecord()
        loss = nn.mse_loss(rec, rec.leaf(w), np.zeros(1))
        grads = nn.backward(rec, loss)
        assert "w" not in grads

    def test_off_path_trainable_gets_zero(self):
        w = scalar_param("w", [3.0])
        u = scalar_param("u", [1.0])
        rec = nn.ComputeRecord()
        rec.leaf(u)
        loss = nn.mse_loss(rec, rec.leaf(w), np.zeros(1))
        grads = nn.backward(rec, loss)
        assert np.array_equal(grads["u"], [0.0])

    def test_record_consumed_once(self):
        w = scalar_param("w", [1.0])
        rec = nn.ComputeRecord()
        loss = nn.mse_loss(rec, rec.leaf(w), np.zeros(1))
        nn.backward(rec, loss)
        with pytest.raises(nn.NnError):
            nn.backward(rec, loss)

    def test_freed_node_is_refused_naming_backward(self):
        rng = np.random.default_rng(18)
        W = nn.Parameter("W", rng.standard_normal((4, 4)))
        rec = nn.ComputeRecord()
        h = nn.linear(rec, rng.standard_normal((3, 4)), rec.leaf(W))
        out = nn.relu(rec, h)  # h is written in place, out stays readable
        loss = nn.mse_loss(rec, out, np.zeros((3, 4)))
        nn.backward(rec, loss)
        for node in (h, out, loss):
            with pytest.raises(nn.NnError, match="backward has freed") as caught:
                nn.linear(nn.ComputeRecord(), node, W.value)
            assert "in place" not in str(caught.value)

    @pytest.mark.parametrize("case", ["relu", "relu_dropout", "graph_conv_square"])
    def test_a_gradient_two_parents_share_is_written_by_neither(self, case):
        # each parent writes into a gradient it owns; this one both read
        op, shapes, _ = TAKERS[case]
        rng = np.random.default_rng(21)
        arrays = [rng.standard_normal(shape) for shape in shapes + shapes]
        grads = []
        for replay in (nn.backward, keeping_backward):
            rec = nn.ComputeRecord()
            leaves = [rec.leaf(nn.Parameter("a%d" % i, a)) for i, a in enumerate(arrays)]
            half = len(shapes)
            one, two = op(rec, *leaves[:half]), op(rec, *leaves[half:])
            both = rec.record("sum", one.value + two.value, [one, two], lambda g: [g, g])
            grads.append(replay(rec, nn.mse_loss(rec, both, np.ones(both.shape))))
        got, want = grads
        assert [got[k].tobytes() for k in sorted(got)] == [want[k].tobytes() for k in sorted(want)]

    def test_loss_must_be_scalar(self):
        w = scalar_param("w", [1.0, 2.0])
        rec = nn.ComputeRecord()
        node = rec.leaf(w)
        with pytest.raises(nn.NnError):
            nn.backward(rec, node)


class TestAdam:
    def test_first_step_closed_form(self):
        w = scalar_param("w", [0.0])
        state = nn.AdamState()
        nn.adam_step([w], {"w": np.array([1.0])}, state, lr=0.1)
        expected = -0.1 * (0.1 / (1 - 0.9)) / (np.sqrt(0.001 / (1 - 0.999)) + 1e-8)
        assert w.value[0] == pytest.approx(expected, rel=1e-12)
        assert state.t == 1

    def test_zero_gradient_leaves_params(self):
        w = scalar_param("w", [2.0])
        state = nn.AdamState()
        nn.adam_step([w], {"w": np.zeros(1)}, state, lr=0.1)
        assert w.value[0] == 2.0
        assert state.t == 1

    def test_spurious_frozen_grad_rejected(self):
        w = scalar_param("w", [2.0], trainable=False)
        with pytest.raises(nn.NnError):
            nn.adam_step([w], {"w": np.zeros(1)}, nn.AdamState(), lr=0.1)

    def test_shape_mismatch_rejected(self):
        w = scalar_param("w", [2.0])
        with pytest.raises(nn.ShapeError):
            nn.adam_step([w], {"w": np.zeros(2)}, nn.AdamState(), lr=0.1)

    def test_frozen_bit_identical_through_full_step(self):
        rng = np.random.default_rng(2)
        frozen = nn.Parameter("f", rng.standard_normal((3, 3)), trainable=False)
        live = nn.Parameter("l", rng.standard_normal((3, 3)))
        before = frozen.value.tobytes()
        rec = nn.ComputeRecord()
        h = nn.linear(rec, rec.leaf(frozen), rec.leaf(live))
        loss = nn.mse_loss(rec, h, np.ones((3, 3)))
        grads = nn.backward(rec, loss)
        nn.adam_step([frozen, live], grads, nn.AdamState(), lr=0.05)
        assert frozen.value.tobytes() == before


class TestGradCheck:
    def test_linear_layer(self):
        rng = np.random.default_rng(4)
        W = nn.Parameter("W", rng.standard_normal((3, 2)))
        b = nn.Parameter("b", rng.standard_normal(2))
        x = rng.standard_normal((5, 3))
        t = rng.standard_normal((5, 2))

        def build(rec):
            return nn.mse_loss(rec, nn.linear(rec, rec.constant(x), rec.leaf(W),
                                              rec.leaf(b)), t)

        assert nn.grad_check(build, [W, b]) < 1e-6

    def test_graph_input_any_operator(self):
        # The table's operators are symmetric; this one is not, so a lost
        # transpose shows.  Frozen weights are the pool-tuning phase, where
        # only the prompt takes a gradient.
        rng = np.random.default_rng(5)
        L = rng.standard_normal((4, 4)) / 4
        x = rng.standard_normal((2, 3, 4, 1))
        for operator, mix in (([L], rng.standard_normal((5, 3))),
                              ([np.eye(4), L, 2 * L @ L - np.eye(4)],
                               rng.standard_normal(3))):
            for trainable in (True, False):
                W_in = nn.Parameter("W_in", rng.standard_normal((1, 5)), trainable)
                b_in = nn.Parameter("b_in", rng.standard_normal(5), trainable)
                weight = nn.Parameter("weight", mix, trainable)
                P = nn.Parameter("P", rng.standard_normal((4, 5)))
                target = rng.standard_normal((2, 3, 4, 3 if mix.ndim == 2 else 5))

                def build(rec):
                    out = nn.graph_input(rec, operator, x, rec.leaf(W_in), rec.leaf(b_in),
                                         rec.leaf(P), rec.leaf(weight))
                    return nn.mse_loss(rec, out, target)

                assert nn.grad_check(build, [W_in, b_in, weight, P]) < 1e-6

    def test_table_rows_per_seed(self):
        from growcast.gradcheck import gradcheck_table
        labels = [r["primitive"] for r in gradcheck_table(seeds=range(1))]
        assert labels == [
            "linear:0", "temporal_conv:0", "temporal_conv_shared:0", "mean_pool_time_rows:0",
            "graph_conv_spatial:0", "graph_conv_cheb:0",
            "relu:0", "relu_dropout:0", "backbone_spatial:0", "backbone_spatial_dropout:0",
            "backbone_spectral:0", "backbone_spectral_dropout:0", "graph_input_spatial:0",
            "graph_input_spatial_noprompt:0", "graph_input_cheb:0",
            "graph_input_cheb_noprompt:0", "temporal_conv_input:0",
            "graph_conv_spatial_input:0", "graph_conv_cheb_input:0"]

    def test_all_primitives_many_seeds(self):
        from growcast.gradcheck import gradcheck_table
        rows = gradcheck_table(seeds=range(3))
        assert all(r["passed"] for r in rows)

    def test_frozen_skipped(self):
        W = nn.Parameter("W", np.ones((2, 2)), trainable=False)
        assert nn.grad_check(lambda rec: nn.mse_loss(
            rec, rec.constant(np.ones(2)), np.zeros(2)), [W]) == 0.0


class TestRngStreams:
    def test_named_streams_stable(self):
        a = nn.rng_stream(1, "x").standard_normal(4)
        b = nn.rng_stream(1, "x").standard_normal(4)
        c = nn.rng_stream(1, "y").standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

import numpy as np
import pytest

from growcast import nn_core as nn


def scalar_param(name, v, trainable=True):
    return nn.Parameter(name, np.asarray(v, dtype=float), trainable=trainable)


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
        rec = nn.ComputeRecord()
        x = np.ones((1, 5, 2, 3))
        out = nn.temporal_conv(rec, rec.constant(x),
                               rec.constant(np.zeros((3, 3, 4))),
                               rec.constant(np.zeros(4)))
        assert out.shape == (1, 5, 2, 4)

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


def primitive_grads(op, *args, g):
    """Forward value and the parents' gradients for upstream gradient g."""
    rec = nn.ComputeRecord()
    node = op(rec, *[rec.leaf(nn.Parameter("a%d" % i, a)) if isinstance(a, np.ndarray)
                     else a for i, a in enumerate(args)])
    return node.value, node.grad_fn(g)


class TestKernelOracles:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("T", [1, 2, 12])
    def test_temporal_conv_bit_equal_to_padded_loop(self, K, T):
        rng = np.random.default_rng(10 * K + T)
        for shape in ((2, T, 3, 4), (16, T, 40, 16)):
            x = np.maximum(rng.standard_normal(shape), 0.0)
            W = rng.standard_normal((K, shape[-1], 5))
            b = rng.standard_normal(5)
            g = rng.standard_normal(shape[:3] + (5,))
            out, (gx, gW, gb) = primitive_grads(nn.temporal_conv, x, W, b, g=g)
            want_out, want_gx, want_gW = padded_temporal_conv(x, W, b, g)
            assert out.tobytes() == want_out.tobytes()
            assert gx.tobytes() == want_gx.tobytes()
            assert gW.tobytes() == want_gW.tobytes()
            assert np.array_equal(gb, g.sum(axis=(0, 1, 2)))

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
        x = np.random.default_rng(12).standard_normal((2, 3, 4, 5))
        g = np.random.default_rng(13).standard_normal((2, 4, 5))
        _, (gx,) = primitive_grads(nn.mean_pool_time, x, g=g)
        assert gx.shape == x.shape
        assert np.array_equal(gx, np.repeat(g[:, None] / 3, 3, axis=1))

    def test_nonfinite_output_names_the_op(self):
        # finite inputs whose product, sum or dropout scaling overflows in
        # the primitive's own arithmetic; each scans its output
        big = np.full((1, 2, 3, 4), 1e300)
        cases = [
            ("temporal_conv", lambda rec: nn.temporal_conv(
                rec, big, np.full((3, 4, 4), 1e300), np.zeros(4))),
            ("graph_conv", lambda rec: nn.graph_conv(
                rec, [np.full((3, 3), 1e300)], big, np.eye(4))),
            ("graph_conv", lambda rec: nn.graph_conv(
                rec, [np.eye(3), np.full((3, 3), 1e300)], big, np.ones(2))),
            ("relu", lambda rec: nn.relu(rec, np.full(64, 1.5e308), 0.5,
                                         nn.rng_stream(0, "drop"))),
            ("mean_pool_time", lambda rec: nn.mean_pool_time(rec, np.full(big.shape, 1.5e308))),
        ]
        for op, call in cases:
            with np.errstate(all="ignore"), pytest.raises(
                    nn.NonFiniteError, match="^non-finite output of %s$" % op):
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
        want = nn.temporal_conv(nn.ComputeRecord(grad=False), windows, W, b).value
        window = np.arange(B)[:, None] + np.arange(T)
        got = nn.temporal_conv(nn.ComputeRecord(grad=False), steps[None], W, b,
                               window=window).value
        rows = nn.step_rows(window, K)
        # B + T - K interior rows serve every window; each window adds K - 1 edge rows
        assert got.shape[0] == (B + T - K + B * (K - 1) if K <= T else B * T)
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
                nn.temporal_conv(nn.ComputeRecord(), steps[None], W, b, window=window)
            with pytest.raises(nn.ShapeError, match="mean_pool_time"):
                nn.mean_pool_time(nn.ComputeRecord(), steps, window)
            return

        def conv_and_pool(x, shared):
            rec = nn.ComputeRecord()
            h = nn.temporal_conv(rec, rec.leaf(nn.Parameter("x", x)), rec.leaf(nn.Parameter("W", W)),
                                 rec.leaf(nn.Parameter("b", b)), window=window if shared else None)
            out = nn.mean_pool_time(rec, h, nn.step_rows(window, K) if shared else None)
            (gh,) = out.grad_fn(g)
            return [out.value] + h.grad_fn(gh)

        got = conv_and_pool(steps[None], True)
        want = conv_and_pool(steps[window], False)
        assert got[0].tobytes() == want[0].tobytes()
        gx_windows = np.zeros(steps.shape)
        np.add.at(gx_windows, window, want[1])
        assert got[1].shape == (1,) + steps.shape
        for a, w in zip([got[1][0]] + got[2:], [gx_windows] + want[2:]):
            assert np.abs(a - w).max() <= 1e-12 * np.abs(w).max()

    def test_shared_conv_rejects_a_bad_window(self):
        args = (np.zeros((1, 6, 2, 3)), np.zeros((3, 3, 3)), np.zeros(3))
        for window in (np.array([[0, 2]]), np.array([[5, 6]]), np.array([[-1, 0]]),
                       np.array([0, 1]), np.array([[0.0, 1.0]])):
            with pytest.raises(nn.ShapeError, match="temporal_conv"):
                nn.temporal_conv(nn.ComputeRecord(), *args, window=window)

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
        stack = rng.standard_normal((6, 3, 2))
        rows = np.array([[0, 1, 2], [1, 2, 5], [4, 3, 0]])
        got = nn.mean_pool_time(nn.ComputeRecord(grad=False), stack, rows).value
        assert got.tobytes() == stack[rows].mean(axis=1).tobytes()
        # rows 0, 1 and 2 each serve two windows: each read adds its gradient
        g = rng.standard_normal((3, 3, 2))
        _, (gx,) = primitive_grads(lambda rec, x: nn.mean_pool_time(rec, x, rows), stack, g=g)
        want = np.zeros(stack.shape)
        for i, o in np.ndindex(rows.shape):
            want[rows[i, o]] += g[i] / 3
        assert np.abs(gx - want).max() <= 1e-15
        with pytest.raises(nn.ShapeError, match="mean_pool_time"):
            nn.mean_pool_time(nn.ComputeRecord(), stack, rows + 1)
        # a row twice in one column: two windows would read one stacked row at one step
        repeated = np.array([[0, 1, 2], [1, 2, 5], [4, 3, 2]])
        with pytest.raises(nn.ShapeError, match="repeats"):
            nn.mean_pool_time(nn.ComputeRecord(), stack, repeated)


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


class TestSlabLists:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 13])
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("layout", ["windowed"] + sorted(HEADS))
    def test_each_row_is_zero_or_written_first_once(self, K, T, layout):
        if layout == "windowed":
            B = 3
            rows = slab_rows(nn._taps(K, T), (B, T), (B, T))
            n_rows = B * T
            # the rows the first tap misses, which temporal_conv zeroes
            zero = {i * T + o for i in range(B) for o in range(min(K // 2, T - 1))}
        else:
            heads = np.array(HEADS[layout])
            window = heads[:, None] + np.arange(T)
            slabs, n_rows = nn._shared_slabs(window, K)
            rows = slab_rows(slabs, (n_rows,), (window.max() + 1,))
            assert n_rows == nn.step_rows(window, K).max() + 1
            zero = set()
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
        assert set(first_at) | zero == set(range(n_rows)) and not set(first_at) & zero
        assert all(r in zero or first_at[r] < j for r, j in adds)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_windowed_weight_gradient_at_training_size(self, K):
        # the weight gradient sums only unpadded rows, one GEMM per tap; at
        # this size it may round differently from the padded copy's sum
        rng = np.random.default_rng(K)
        x = np.maximum(rng.standard_normal((128, 12, 60, 16)), 0.0)
        W = rng.standard_normal((K, 16, 16))
        b = rng.standard_normal(16)
        g = rng.standard_normal(x.shape)
        _, (_, gW, _) = primitive_grads(nn.temporal_conv, x, W, b, g=g)
        _, _, want = padded_temporal_conv(x, W, b, g)
        assert np.abs(gW - want).max() <= 1e-12 * np.abs(want).max()


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

import numpy as np
import pytest

from growcast import nn_core as nn
from growcast.backbone import (
    BackboneError,
    build_backbone,
    forward_predict,
    graph_operator,
)
from growcast.graph_stream import build_adjacency


def small_graph(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return build_adjacency(dist, r=0.1)


class TestBuild:
    def test_deterministic_under_seed(self):
        a = build_backbone("spatial", d=8, seed=5)
        b = build_backbone("spatial", d=8, seed=5)
        for name in a.params:
            assert a.params[name].value.tobytes() == b.params[name].value.tobytes()

    def test_param_count_formula(self):
        bb = build_backbone("spatial", d=64, t_out=12)
        expected = (1 * 64 + 64) + 2 * (64 * 64) + (3 * 64 * 64 + 64) + (64 * 12 + 12)
        assert bb.param_count() == expected

    def test_count_invariant_under_node_count(self):
        bb = build_backbone("spatial", d=16)
        count = bb.param_count()
        for n in (10, 100):
            pred, _ = forward_predict(bb, graph_operator(bb, small_graph(n)),
                                      np.zeros((2, 12, n, 1)))
            assert bb.param_count() == count

    def test_bad_inputs(self):
        with pytest.raises(BackboneError):
            build_backbone("mystery")
        with pytest.raises(BackboneError):
            build_backbone("spatial", d=0)


class TestForward:
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
        bb.params["head.W"].value[:] = 0.0
        adj = small_graph(4)
        pred, _ = forward_predict(bb, graph_operator(bb, adj),
                                  np.ones((2, 12, 4, 1)))
        bias = bb.params["head.b"].value
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
            bb.set_trainable(trainable)
            op = graph_operator(bb, adj)
            fused, _ = forward_predict(bb, op, x, prompt=prompt)

            v = {name: p.value for name, p in bb.params.items()}
            h = x @ v["input_proj.W"] + v["input_proj.b"]
            if prompt is not None:
                h = h + prompt[None, None]
            if variant == "spatial":
                h = np.einsum("ij,btjd->btid", op, h) @ v["gconv1.W"]
            else:
                h = sum(th * np.einsum("ij,btjd->btid", Tk, h)
                        for th, Tk in zip(v["gconv1.theta"], op))
            rec = nn.ComputeRecord()
            leaf = {n: rec.leaf(p) for n, p in bb.params.items()}
            h = rec.constant(np.maximum(h, 0.0))
            h = nn.relu(rec, nn.temporal_conv(rec, h, leaf["tconv.W"], leaf["tconv.b"]))
            if variant == "spatial":
                h = nn.graph_conv_spatial(rec, op, h, leaf["gconv2.W"])
            else:
                h = nn.graph_conv_cheb(rec, op, h, leaf["gconv2.theta"])
            h = nn.mean_pool_time(rec, nn.relu(rec, h))
            out = nn.linear(rec, h, leaf["head.W"], leaf["head.b"])
            manual = np.transpose(out.value, (0, 2, 1))
            assert np.allclose(fused.value, manual, atol=1e-12), (variant, trainable)


class DrawLog:
    """A Generator stand-in that logs the shape of each random() call."""

    def __init__(self, seed):
        self.rng, self.shapes = nn.rng_stream(seed, "dropout"), []

    def random(self, shape):
        self.shapes.append(tuple(shape))
        return self.rng.random(shape)


class TestDropout:
    def test_one_draw_per_dropout_in_layer_order(self):
        # the unfused relu -> dropout chain drew one (B, T, n, d) array
        # after the input block and one after the temporal conv
        adj = small_graph(5)
        x = np.random.default_rng(4).standard_normal((2, 12, 5, 1))
        for variant in ("spatial", "spectral"):
            bb = build_backbone(variant, d=6, seed=3, dropout_p=0.2)
            op = graph_operator(bb, adj)
            log = DrawLog(1)
            forward_predict(bb, op, x, train=True, rng=log)
            assert log.shapes == [(2, 12, 5, 6)] * 2
            log = DrawLog(1)
            forward_predict(bb, op, x, train=False, rng=log)
            assert log.shapes == []


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

            assert nn.grad_check(build, bb.parameters()) < 1e-4

import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from growcast import engine
from growcast import nn_core as nn
from growcast.analysis import metrics
from growcast.data_pipeline import Normalizer, Windows, make_windows, synth_stream
from growcast.engine import (
    HORIZONS,
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    TrainingAbort,
    _fused_dispersion,
    _induced_subperiod,
    _validation_mae,
    evaluate_period,
    run_stream,
    train_period,
)
from oracles import keeping_backward

TINY = dict(d=8, k=3, epochs_max=5, patience=2, batch_size=64)


def tiny_stream(periods=2, growth=3, T=300, seed=1, n0=8):
    return synth_stream(n0=n0, growth_per_period=growth, periods=periods,
                        T_per_period=T, seed=seed)


def scalar_forward(w):
    def forward(batch_x, train, starts=None):
        rec = nn.ComputeRecord()
        # ones @ w puts the scalar parameter in every prediction
        pred = nn.linear(rec, np.ones((batch_x.shape[0], 1, 1)), rec.leaf(w))
        return pred, rec
    return forward


def scalar_samples(target_value, count=4):
    return Windows(X=np.zeros((count, 1, 1)), Y=np.full((count, 1, 1), target_value),
                   starts=np.arange(count))


def constant_windows(count, value=0.0):
    return Windows(X=np.full((count, 12, 2), value), Y=np.full((count, 12, 2), value),
                   starts=np.arange(count))


class TestConfig:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="Magic")

    def test_missing_scheme_named(self):
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig.from_dict({"d": 8})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"scheme": "EAC", "mystery": 1})

    def test_patience_bound(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="EAC", patience=100, epochs_max=100)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="EAC", seeds=())

    def test_freeze_flag_needs_pool_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="PretrainST", freeze_old_segments=True)


class TestTrainPeriod:
    def test_worsening_validation_stops_and_restores(self):
        # training pushes w toward +1; validation wants -1, so every epoch
        # after the first strictly worsens validation error
        w = nn.Parameter("w", np.zeros((1, 1)))
        epochs_run, _, best_epoch = train_period(
            scalar_forward(w), [w], scalar_samples(1.0), scalar_samples(-1.0),
            Normalizer(0.0, 1.0), lr=0.1, epochs_max=20, patience=1,
            batch_size=4, seed=0, period_index=1)
        assert epochs_run == 2
        assert best_epoch == 1

    def test_zero_lr_leaves_params_and_stops_at_patience(self):
        w = nn.Parameter("w", np.zeros((1, 1)))
        epochs_run, _, _ = train_period(
            scalar_forward(w), [w], scalar_samples(1.0), scalar_samples(1.0),
            Normalizer(0.0, 1.0), lr=1e-300, epochs_max=50, patience=3,
            batch_size=4, seed=0, period_index=1)
        assert np.allclose(w.value, 0.0)
        assert epochs_run == 4  # one improving epoch + patience

    def test_training_improves_validation_on_learnable_signal(self):
        from growcast.backbone import build_backbone, graph_operator, forward_predict
        from growcast.data_pipeline import build_period_dataset
        for seed in range(1, 6):
            stream, series = tiny_stream(periods=1, seed=seed)
            ds = build_period_dataset(stream.periods[0], series[0])
            bb = build_backbone("spatial", d=8, seed=seed)
            op = graph_operator(bb, stream.periods[0].adjacency)

            def forward(batch_x, train, starts=None):
                return forward_predict(bb, op, batch_x, train=train, starts=starts)

            before = _validation_mae(forward, ds.val, ds.normalizer, 64)
            train_period(forward, bb.parameters(), ds.train, ds.val,
                         ds.normalizer, lr=0.03, epochs_max=8, patience=3,
                         batch_size=64, seed=seed, period_index=1)
            after = _validation_mae(forward, ds.val, ds.normalizer, 64)
            assert after < 0.8 * before

    def test_non_finite_step_aborts_naming_primitive_period_and_seed(self):
        from growcast.backbone import build_backbone, graph_operator
        from growcast.engine import _make_forward
        stream, _ = tiny_stream(periods=1)
        bb = build_backbone("spatial", d=4, seed=1)
        forward = _make_forward(bb, graph_operator(bb, stream.periods[0].adjacency), None)
        n = len(stream.periods[0].nodes)
        X = np.zeros((6, 12, n))
        X[4, 7, 2] = np.nan  # in the second batch of the first epoch
        train = Windows(X=X, Y=np.zeros((6, 12, n)), starts=12 * np.arange(6))  # disjoint
        with pytest.raises(TrainingAbort) as info:
            train_period(forward, bb.parameters(), train, train, Normalizer(0.0, 1.0), lr=0.01,
                         epochs_max=3, patience=1, batch_size=4, seed=7, period_index=2)
        abort = info.value
        assert isinstance(abort.__cause__, nn.NonFiniteError)
        assert str(abort) == ("non-finite output of graph_input in period 2, seed 7, "
                              "epoch 1, batch %d, lr 0.01" % abort.batch)
        assert (abort.period_index, abort.seed, abort.epoch) == (2, 7, 1)
        order = nn.rng_stream(7, "shuffle", 2, 1).permutation(6)
        assert 4 in order[4 * abort.batch:4 * abort.batch + 4]

    def test_non_finite_parameter_aborts_naming_it(self):
        from growcast.backbone import build_backbone, graph_operator
        from growcast.engine import _make_forward
        stream, _ = tiny_stream(periods=1)
        bb = build_backbone("spatial", d=4, seed=1)
        bb.params["gconv1.W"].value[1, 2] = np.nan
        forward = _make_forward(bb, graph_operator(bb, stream.periods[0].adjacency), None)
        n = len(stream.periods[0].nodes)
        train = Windows(X=np.zeros((6, 12, n)), Y=np.zeros((6, 12, n)), starts=np.arange(6))
        with pytest.raises(TrainingAbort) as info:
            train_period(forward, bb.parameters(), train, train, Normalizer(0.0, 1.0), lr=0.01,
                         epochs_max=3, patience=1, batch_size=4, seed=7, period_index=2)
        assert str(info.value) == ("non-finite parameter gconv1.W in period 2, seed 7, "
                                   "epoch 1, batch 0, lr 0.01")


def gathered_validation_mae(forward, samples, normalizer, batch_size):
    """_validation_mae as it ran over gathered index batches."""
    abs_sum, count = 0.0, 0
    for start in range(0, len(samples), batch_size):
        idx = np.arange(len(samples))[start:start + batch_size]
        pred, _ = forward(samples.X[idx][..., None], train=False)
        err = normalizer.invert(pred.value) - normalizer.invert(samples.Y[idx])
        abs_sum += float(np.abs(err).sum())
        count += err.size
    return abs_sum / count


def gathered_predictions(forward, samples, batch_size):
    """evaluate_period's predictions as they ran over gathered index batches."""
    idx = np.arange(len(samples))
    preds = [forward(samples.X[idx[s:s + batch_size]][..., None], train=False)[0].value
             for s in range(0, len(samples), batch_size)]
    return np.concatenate(preds)


class TestSlicedEvaluation:
    @pytest.mark.parametrize("variant", ["spatial", "spectral"])
    def test_slices_match_gathered_batches_bitwise(self, variant, monkeypatch):
        from growcast.backbone import build_backbone, graph_operator
        from growcast.data_pipeline import ObservationSeries, build_period_dataset
        from growcast.engine import _make_forward
        from growcast.prompt_pool import init_pool
        stream, series = tiny_stream(periods=1, n0=12)
        graph = stream.periods[0]
        bb = build_backbone(variant, d=6, seed=3)
        pool = init_pool(graph.nodes, d=6, k=2, seed=3)
        pool.segments[0].A.value = np.random.default_rng(3).standard_normal((12, 2))
        forward = _make_forward(bb, graph_operator(bb, graph.adjacency), pool)
        shared = []  # one entry per batch that took the shared-step path
        step_rows = nn.step_rows
        monkeypatch.setattr(nn, "step_rows", lambda *a: shared.append(a) or step_rows(*a))
        for order in ("C", "F"):
            obs = ObservationSeries(series[0].node_ids,
                                    np.asarray(series[0].values, order=order), 1)
            ds = build_period_dataset(graph, obs)
            for batch_size in (7, 64):
                for samples in (ds.val, ds.test):
                    del shared[:]
                    got = _validation_mae(forward, samples, ds.normalizer, batch_size)
                    assert len(shared) == -(-len(samples) // batch_size)
                    assert got == gathered_validation_mae(forward, samples, ds.normalizer,
                                                          batch_size)
                del shared[:]
                got = evaluate_period(forward, ds.test, ds.normalizer, batch_size)
                assert len(shared) == -(-len(ds.test) // batch_size)
                pred = ds.normalizer.invert(gathered_predictions(forward, ds.test, batch_size))
                truth = ds.normalizer.invert(ds.test.Y)
                assert got["avg"] == metrics(pred, truth)
                for h in HORIZONS:
                    assert got[str(h)] == metrics(pred[:, h - 1], truth[:, h - 1])


class TestEvaluatePeriod:
    def perfect_forward(self, samples):
        targets = samples.Y

        def forward(batch_x, train, starts=None):
            rec = nn.ComputeRecord()
            # batches are taken in order for evaluation
            return rec.constant(targets[:batch_x.shape[0]]), rec
        return forward

    def test_perfect_predictor_all_zero(self):
        samples = constant_windows(3, 0.5)
        out = evaluate_period(self.perfect_forward(samples), samples,
                              Normalizer(5.0, 2.0), batch_size=8)
        for h in ("3", "6", "12", "avg"):
            assert out[h]["MAE"] == 0 and out[h]["RMSE"] == 0

    def test_constant_bias_passes_through(self):
        samples = constant_windows(3)

        def forward(batch_x, train, starts=None):
            rec = nn.ComputeRecord()
            return rec.constant(np.ones((batch_x.shape[0], 12, 2))), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0), batch_size=8)
        for h in ("3", "6", "12", "avg"):
            assert out[h]["MAE"] == pytest.approx(1.0)

    def test_horizon_slice_uses_single_step(self):
        samples = constant_windows(4)

        def forward(batch_x, train, starts=None):
            rec = nn.ComputeRecord()
            pred = np.zeros((batch_x.shape[0], 12, 2))
            pred[:, 2] = 1.0  # only forecast step 3 is off
            return rec.constant(pred), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0), batch_size=8)
        assert out["3"]["MAE"] == pytest.approx(1.0)
        assert out["6"]["MAE"] == 0.0
        assert out["avg"]["MAE"] == pytest.approx(1.0 / 12)

    def test_prefix_mode(self):
        samples = constant_windows(2)

        def forward(batch_x, train, starts=None):
            rec = nn.ComputeRecord()
            pred = np.zeros((batch_x.shape[0], 12, 2))
            pred[:, 0] = 3.0
            return rec.constant(pred), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0),
                              batch_size=8, horizon_mode="prefix")
        assert out["3"]["MAE"] == pytest.approx(1.0)
        assert out["6"]["MAE"] == pytest.approx(0.5)


class TestMakeForward:
    @pytest.mark.parametrize("variant", ["spatial", "spectral"])
    def test_eval_forward_keeps_no_tape_and_matches_training_bits(self, variant):
        from growcast.backbone import build_backbone, graph_operator
        from growcast.engine import _make_forward
        from growcast.prompt_pool import expand, init_pool
        stream, _ = tiny_stream(periods=2)
        graph = stream.periods[1]
        pool = init_pool(stream.periods[0].nodes, d=6, k=2, seed=1)
        expand(pool, graph.nodes[len(stream.periods[0].nodes):], period_index=2)
        rng = np.random.default_rng(3)
        for seg in pool.segments:
            seg.A.value = rng.standard_normal(seg.A.value.shape)
        bb = build_backbone(variant, d=6, seed=2)
        forward = _make_forward(bb, graph_operator(bb, graph.adjacency), pool,
                                nn.rng_stream(1, "dropout"))
        x = rng.standard_normal((4, 12, len(graph.nodes), 1))
        bb.dropout_p = 0.0
        train_pred, train_rec = forward(x, train=True)
        bb.dropout_p = 0.3  # evaluation never applies dropout
        eval_pred, eval_rec = forward(x, train=False)
        assert eval_pred.value.tobytes() == train_pred.value.tobytes()
        assert train_rec.nodes and not eval_rec.nodes
        assert eval_pred.parents == () and eval_pred.grad_fn is None


def prompted_step(variant, p=0.0, frozen=False, B=5, n=7, d=6, seed=4):
    """(forward, x, starts, target, params) of one EAC-style training step.

    The backbone is prompted by a low-rank pool; a frozen backbone leaves
    the pool as the only trainable part, as in later periods.
    """
    from growcast.backbone import build_backbone, graph_operator
    from growcast.engine import _make_forward
    from growcast.graph_stream import build_adjacency
    from growcast.prompt_pool import init_pool
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    adjacency = build_adjacency(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)), 0.5)
    bb = build_backbone(variant, d=d, dropout_p=p, seed=seed)
    bb.set_trainable(not frozen)
    pool = init_pool(tuple("s%d" % i for i in range(n)), d=d, k=3, seed=seed)
    for seg in pool.segments:
        seg.A.value = rng.standard_normal(seg.A.value.shape)
    series = rng.standard_normal((2 * B + 12, n))
    starts = np.sort(rng.choice(2 * B, size=B, replace=False))
    x = series[starts[:, None] + np.arange(12)][..., None]
    forward = _make_forward(bb, graph_operator(bb, adjacency), pool,
                            nn.rng_stream(seed, "dropout"))
    return forward, x, starts, rng.standard_normal((B, 12, n)), bb.parameters() + pool.parameters()


def traced_peak(fn):
    """Bytes of the highest traced allocation total while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTapeFreeing:
    def test_backward_frees_every_node_it_passes(self):
        forward, x, starts, target, _ = prompted_step("spatial", p=0.1)
        pred, rec = forward(x, train=True, starts=starts)
        loss = nn.mse_loss(rec, pred, target)
        inner = [node for node in rec.nodes if node.grad_fn is not None]
        leaves = [(node, node.value) for node in rec.nodes if node.grad_fn is None]
        count = len(rec.nodes)
        nn.backward(rec, loss)
        assert len(rec.nodes) == count and inner and leaves
        assert all(node.value is None and node.grad_fn is None and node.parents is None
                   for node in inner)
        assert all(node.value is value for node, value in leaves)
        with pytest.raises(nn.NnError, match="consumed"):
            nn.backward(rec, loss)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    @pytest.mark.parametrize("variant", ["spatial", "spectral"])
    def test_gradients_match_a_tape_keeping_replay(self, variant, p, shared, frozen):
        # a batch with starts and no dropout shares steps; the rest run windowed
        grads = []
        for replay in (nn.backward, keeping_backward):
            forward, x, starts, target, _ = prompted_step(variant, p, frozen)
            pred, rec = forward(x, train=True, starts=starts if shared else None)
            grads.append(replay(rec, nn.mse_loss(rec, pred, target)))
        got, want = grads
        assert sorted(got) == sorted(want) and any(name.startswith("pool.") for name in got)
        assert any(name.startswith("gconv1.") for name in got) != frozen
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    def test_step_peak_memory(self):
        # the tape-keeping replay peaked at 203 MB for this step, this one at 108 MB
        forward, x, starts, target, _ = prompted_step("spatial", p=0.1, B=64, n=50, d=64)

        def step():
            pred, rec = forward(x, train=True, starts=starts)
            nn.backward(rec, nn.mse_loss(rec, pred, target))

        assert traced_peak(step) <= 130e6

    def test_pool_tuning_step_peak_memory(self):
        # a frozen backbone without dropout shares steps.  Pooling that
        # gathered a (B, T, n, d) copy of the windows peaked at 38.7 MB for
        # this step; summing the gathered slices into one buffer, 31.6 MB
        forward, x, starts, target, _ = prompted_step("spatial", p=0.0, frozen=True,
                                                      B=64, n=50, d=64)

        def step():
            pred, rec = forward(x, train=True, starts=starts)
            nn.backward(rec, nn.mse_loss(rec, pred, target))

        assert traced_peak(step) <= 34e6

    def test_two_steps_peak_no_higher_than_one(self):
        # B = 64, n = 20, d = 16.  What one step may leave for the next (Adam
        # moments, the last gradients, the parameter values the consumed
        # record's leaves hold) is parameter-sized, 1% of a step here.  With
        # the whole last tape held, two steps peaked 22% above one.
        peaks = []
        for n_windows in (64, 128):
            forward, _, _, _, params = prompted_step("spatial", p=0.1, B=64, n=20, d=16)
            rng = np.random.default_rng(n_windows)
            train = make_windows(rng.standard_normal((n_windows + 23, 20)))
            val = make_windows(rng.standard_normal((24, 20)))
            peaks.append(traced_peak(lambda: train_period(
                forward, params, train, val, Normalizer(0.0, 1.0), 0.01, 1, 1, 64, 1, 1)))
        one, two = peaks
        assert two <= 1.01 * one


class TestFusedDispersion:
    def test_matches_stacked_windows_bitwise(self):
        # series built from a column-major array are stored row-major, so the
        # strided window view gives the same bits as dense stacked windows
        from growcast.analysis import heterogeneity_D
        from growcast.backbone import build_backbone
        from growcast.data_pipeline import ObservationSeries, build_period_dataset, chrono_split
        from growcast.prompt_pool import init_pool, materialize
        for seed in range(1, 4):
            stream, series = tiny_stream(periods=1, n0=40, seed=seed)
            for order in ("C", "F"):
                values = np.asarray(series[0].values, order=order)
                obs = ObservationSeries(series[0].node_ids, values, 1)
                for fraction, random in ((None, False), (0.3, False), (0.3, True)):
                    ds = build_period_dataset(stream.periods[0], obs, few_shot_fraction=fraction,
                                              seed=seed, few_shot_random=random)
                    bb = build_backbone("spatial", d=8, seed=seed)
                    pool = init_pool(stream.periods[0].nodes, d=8, k=3, seed=seed)
                    seg = ds.normalizer.apply(chrono_split(obs)[0])
                    starts = [int(np.flatnonzero(seg[:, 0] == v)[0]) for v in ds.train.X[:, 0, 0]]
                    dense = np.stack([seg[s:s + 12] for s in starts])
                    x_mean = dense.mean(axis=(0, 1)).reshape(-1, 1)
                    want = heterogeneity_D(x_mean @ bb.params["input_proj.W"].value
                                           + bb.params["input_proj.b"].value + materialize(pool))
                    assert _fused_dispersion(bb, pool, ds) == want


class TestInducedSubperiod:
    def test_series_stored_row_major(self, monkeypatch):
        # the new nodes' columns, values[:, idx], come out column-major
        from growcast import engine
        seen = []
        build = engine.build_period_dataset
        monkeypatch.setattr(engine, "build_period_dataset",
                            lambda graph, series, **kw: seen.append(series) or build(
                                graph, series, **kw))
        stream, series = tiny_stream(periods=2, growth=3)
        new_ids = stream.periods[1].nodes[-3:]
        cfg = ExperimentConfig(scheme="ContinualNN", seeds=(1,), **TINY)
        ds = _induced_subperiod(stream.periods[1], series[1], new_ids, cfg, seed=1)
        (sub,) = seen
        assert sub.node_ids == new_ids and sub.values.flags.c_contiguous
        assert np.array_equal(sub.values, series[1].values[:, -3:])
        assert ds.train.X.shape[2] == 3


class TestSchemes:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_scheme_table(self, scheme):
        stream, series = tiny_stream(periods=3)
        cfg = ExperimentConfig(scheme=scheme, seeds=(1,), **TINY)
        reports, raw = run_stream(cfg, stream, series)
        hashes = [r["backbone_hash"] for r in raw[1]]
        if scheme in ("EAC", "EAC_full", "PretrainST"):
            assert hashes[0] == hashes[1] == hashes[2]
        else:
            assert hashes[0] != hashes[1] != hashes[2] != hashes[0]
        trains_later = SCHEMES[scheme].later != "none"
        assert [rep.epochs_run > 0 for rep in reports] == [True, trains_later, trains_later]

    @pytest.mark.parametrize("scheme,width", [("EAC", TINY["k"]), ("EAC_full", TINY["d"])])
    def test_freeze_old_segments_counts_new_rows_only(self, scheme, width):
        growth = 3
        stream, series = tiny_stream(periods=3, growth=growth)
        cfg = ExperimentConfig(scheme=scheme, seeds=(1,), freeze_old_segments=True, **TINY)
        reports, _ = run_stream(cfg, stream, series)
        assert [rep.tunable_param_count for rep in reports[1:]] == [growth * width] * 2

    @pytest.mark.parametrize("scheme", ["EAC", "EAC_full"])
    def test_freeze_old_segments_without_growth_skips(self, scheme):
        # no new segment, so nothing is trainable: skip like ContinualNN does
        stream, series = tiny_stream(periods=2, growth=0)
        cfg = ExperimentConfig(scheme=scheme, seeds=(1,), freeze_old_segments=True, **TINY)
        with pytest.warns(UserWarning, match="no nodes"):
            reports, raw = run_stream(cfg, stream, series)
        assert reports[1].epochs_run == 0
        assert reports[1].tunable_param_count == 0
        assert raw[1][1]["heterogeneity"]["D_trained"] == raw[1][1]["heterogeneity"]["D_init"]

    def test_eac_pool_growth_formula(self):
        stream, series = tiny_stream(periods=3)
        cfg = ExperimentConfig(scheme="EAC", seeds=(1,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        k, d = TINY["k"], TINY["d"]
        # periods 2 and 3 tune the pool only: k*n_tau + k*d
        for rep, g in zip(reports[1:], stream.periods[1:]):
            assert rep.tunable_param_count == k * g.n + k * d

    def test_eac_full_mode_counts(self):
        stream, series = tiny_stream(periods=2)
        cfg = ExperimentConfig(scheme="EAC_full", seeds=(1,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        assert reports[1].tunable_param_count == stream.periods[1].n * TINY["d"]

    def test_retrain_isolated_from_other_periods(self):
        stream, series = tiny_stream(periods=2)
        cfg = ExperimentConfig(scheme="RetrainST", seeds=(2,), **TINY)
        _, raw_a = run_stream(cfg, stream, series)
        # perturb period-1 observations only
        from growcast.data_pipeline import ObservationSeries
        mutated = ObservationSeries(node_ids=series[0].node_ids,
                                    values=series[0].values + 13.0,
                                    period_index=1)
        _, raw_b = run_stream(cfg, stream, [mutated, series[1]])
        assert json.dumps(raw_a[2][1]["metrics"], sort_keys=True) == \
            json.dumps(raw_b[2][1]["metrics"], sort_keys=True)

    def test_continual_nn_skips_period_without_growth(self):
        stream, series = tiny_stream(periods=2, growth=0)
        cfg = ExperimentConfig(scheme="ContinualNN", seeds=(1,), **TINY)
        with pytest.warns(UserWarning, match="no nodes"):
            reports, _ = run_stream(cfg, stream, series)
        assert reports[1].epochs_run == 0

    def test_continual_nn_trains_on_subgraph_evaluates_full(self):
        stream, series = tiny_stream(periods=2, growth=4)
        cfg = ExperimentConfig(scheme="ContinualNN", seeds=(1,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        assert reports[1].epochs_run > 0
        # metrics exist for the full period-2 graph
        assert reports[1].horizons["avg"]["MAE"]["mean"] is not None

    def test_determinism_across_runs(self):
        stream, series = tiny_stream(periods=2)
        cfg = ExperimentConfig(scheme="ContinualAN", seeds=(1, 2), **TINY)
        r1, _ = run_stream(cfg, stream, series)
        r2, _ = run_stream(cfg, stream, series)
        a = json.dumps([rep.to_dict() for rep in r1], sort_keys=True)
        b = json.dumps([rep.to_dict() for rep in r2], sort_keys=True)
        assert a == b

    def test_single_seed_std_zero(self):
        stream, series = tiny_stream(periods=1)
        cfg = ExperimentConfig(scheme="RetrainST", seeds=(3,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        for by_metric in reports[0].horizons.values():
            for stat in by_metric.values():
                assert stat["std"] in (0.0, None)


GLIBC = platform.libc_ver()[0] == "glibc"

# faults of a warm run_stream; with glibc's default thresholds a warm run
# at these shapes faults about 25k times on x86-64 Linux, with them pinned
# almost never
WARM_FAULTS = """
import resource
from growcast.data_pipeline import synth_stream
from growcast.engine import ExperimentConfig, run_stream
stream, series = synth_stream(n0=20, growth_per_period=5, periods=2,
                              T_per_period=400, seed=0)
cfg = ExperimentConfig(scheme="EAC", d=16, k=3, epochs_max=2, patience=1,
                       batch_size=128, seeds=(1,))
run_stream(cfg, stream, series)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_stream(cfg, stream, series)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# `growcast run`, as shipped or with the line that the format puts in
RUN_CLI = """
import sys
from growcast import cli, engine
{}
sys.exit(cli.main(sys.argv[1:]))
"""

# the variables through which a user sets glibc's allocator
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")


def fresh_python(code, *args):
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class FakeLibc:
    def __init__(self, *names, result=1):
        self.calls = []
        if "mallopt" in names:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or result
        if "gnu_get_libc_version" in names:
            self.gnu_get_libc_version = lambda: b"2.36"


@pytest.mark.skipif(not GLIBC, reason="glibc's mallopt only")
class TestKeepFreedPages:
    @pytest.fixture(autouse=True)
    def no_user_settings(self, monkeypatch):
        for name in MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)

    def calls(self, monkeypatch, libc):
        monkeypatch.setattr(engine, "_libc", lambda: libc)
        engine._keep_freed_pages()
        return libc.calls

    def test_warm_run_stream_takes_no_fresh_pages(self):
        assert int(fresh_python(WARM_FAULTS)) < 1000

    def test_sets_both_thresholds(self, monkeypatch):
        libc = FakeLibc("mallopt", "gnu_get_libc_version")
        assert self.calls(monkeypatch, libc) == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_refused_mmap_threshold_sets_neither(self, monkeypatch):
        # one threshold alone turns off glibc's dynamic adjustment
        libc = FakeLibc("mallopt", "gnu_get_libc_version", result=0)
        assert self.calls(monkeypatch, libc) == [(-3, 32 << 20)]

    @pytest.mark.parametrize("name", MALLOC_ENV)
    def test_user_allocator_settings_win(self, monkeypatch, name):
        monkeypatch.setenv(name, "131072")
        assert self.calls(monkeypatch, FakeLibc("mallopt", "gnu_get_libc_version")) == []

    @pytest.mark.parametrize("names", [("mallopt",), ("gnu_get_libc_version",), ()])
    def test_other_c_library_is_left_alone(self, monkeypatch, names):
        assert self.calls(monkeypatch, FakeLibc(*names)) == []

    def test_no_c_library_handle(self, monkeypatch):
        def fail():
            raise OSError("no handle")
        monkeypatch.setattr(engine, "_libc", fail)
        engine._keep_freed_pages()

    def test_reports_do_not_depend_on_the_allocator(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheme": "EAC", "k": 3, "d": 8, "epochs_max": 2,
                                      "patience": 1, "batch_size": 64, "seeds": [1, 2]}))
        blobs = []
        for tag, line in (("shipped", ""),
                          ("no_mallopt", "engine._keep_freed_pages = lambda: None")):
            out = tmp_path / tag
            fresh_python(RUN_CLI.format(line), "run", "--config", str(config),
                         "--synth", "n0=12,growth=4,periods=3,T=300,seed=2", "--out", str(out))
            blobs.append([(out / name).read_bytes() for name in
                          ("reports.json", "aggregate.csv", "heterogeneity.json")])
        assert blobs[0] == blobs[1]

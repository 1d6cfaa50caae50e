import json

import numpy as np
import pytest

from growcast import nn_core as nn
from growcast.data_pipeline import Normalizer, Windows, synth_stream
from growcast.engine import (
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    _fused_dispersion,
    _validation_mae,
    evaluate_period,
    run_stream,
    train_period,
)

TINY = dict(d=8, k=3, epochs_max=5, patience=2, batch_size=64)


def tiny_stream(periods=2, growth=3, T=300, seed=1, n0=8):
    return synth_stream(n0=n0, growth_per_period=growth, periods=periods,
                        T_per_period=T, seed=seed)


def scalar_forward(w):
    def forward(batch_x, train):
        rec = nn.ComputeRecord()
        # ones @ w puts the scalar parameter in every prediction
        pred = nn.linear(rec, np.ones((batch_x.shape[0], 1, 1)), rec.leaf(w))
        return pred, rec
    return forward


def scalar_samples(target_value, count=4):
    return Windows(X=np.zeros((count, 1, 1)), Y=np.full((count, 1, 1), target_value))


def constant_windows(count, value=0.0):
    return Windows(X=np.full((count, 12, 2), value), Y=np.full((count, 12, 2), value))


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

            def forward(batch_x, train):
                return forward_predict(bb, op, batch_x, train=train)

            before = _validation_mae(forward, ds.val, ds.normalizer, 64)
            train_period(forward, bb.parameters(), ds.train, ds.val,
                         ds.normalizer, lr=0.03, epochs_max=8, patience=3,
                         batch_size=64, seed=seed, period_index=1)
            after = _validation_mae(forward, ds.val, ds.normalizer, 64)
            assert after < 0.8 * before


class TestEvaluatePeriod:
    def perfect_forward(self, samples):
        targets = samples.Y

        def forward(batch_x, train):
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

        def forward(batch_x, train):
            rec = nn.ComputeRecord()
            return rec.constant(np.ones((batch_x.shape[0], 12, 2))), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0), batch_size=8)
        for h in ("3", "6", "12", "avg"):
            assert out[h]["MAE"] == pytest.approx(1.0)

    def test_horizon_slice_uses_single_step(self):
        samples = constant_windows(4)

        def forward(batch_x, train):
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

        def forward(batch_x, train):
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


class TestFusedDispersion:
    def test_matches_stacked_windows_bitwise(self):
        # ingestion's column reorder leaves series column-major; the strided
        # window view must still give the same bits as dense stacked windows
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

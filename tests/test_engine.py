import json

import numpy as np
import pytest

from growcast import nn_core as nn
from growcast.data_pipeline import Normalizer, WindowSample, synth_stream
from growcast.engine import (
    ConfigError,
    ExperimentConfig,
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
    return [WindowSample(input=np.zeros((1, 1)),
                         target=np.full((1, 1), target_value),
                         start_index=i) for i in range(count)]


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
        targets = np.stack([s.target for s in samples])

        def forward(batch_x, train):
            rec = nn.ComputeRecord()
            # batches are taken in order for evaluation
            return rec.constant(targets[:batch_x.shape[0]]), rec
        return forward

    def test_perfect_predictor_all_zero(self):
        samples = [WindowSample(np.full((12, 2), 0.5), np.full((12, 2), 0.5), i)
                   for i in range(3)]
        out = evaluate_period(self.perfect_forward(samples), samples,
                              Normalizer(5.0, 2.0), batch_size=8)
        for h in ("3", "6", "12", "avg"):
            assert out[h]["MAE"] == 0 and out[h]["RMSE"] == 0

    def test_constant_bias_passes_through(self):
        samples = [WindowSample(np.zeros((12, 2)), np.zeros((12, 2)), i)
                   for i in range(3)]

        def forward(batch_x, train):
            rec = nn.ComputeRecord()
            return rec.constant(np.ones((batch_x.shape[0], 12, 2))), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0), batch_size=8)
        for h in ("3", "6", "12", "avg"):
            assert out[h]["MAE"] == pytest.approx(1.0)

    def test_horizon_slice_uses_single_step(self):
        samples = [WindowSample(np.zeros((12, 2)), np.zeros((12, 2)), i)
                   for i in range(4)]

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
        samples = [WindowSample(np.zeros((12, 2)), np.zeros((12, 2)), i)
                   for i in range(2)]

        def forward(batch_x, train):
            rec = nn.ComputeRecord()
            pred = np.zeros((batch_x.shape[0], 12, 2))
            pred[:, 0] = 3.0
            return rec.constant(pred), rec

        out = evaluate_period(forward, samples, Normalizer(0.0, 1.0),
                              batch_size=8, horizon_mode="prefix")
        assert out["3"]["MAE"] == pytest.approx(1.0)
        assert out["6"]["MAE"] == pytest.approx(0.5)


class TestSchemes:
    def test_eac_backbone_frozen_across_periods(self):
        stream, series = tiny_stream(periods=3)
        cfg = ExperimentConfig(scheme="EAC", seeds=(1,), **TINY)
        _, raw = run_stream(cfg, stream, series)
        hashes = [r["backbone_hash"] for r in raw[1]]
        assert hashes[0] == hashes[1] == hashes[2]

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

    def test_pretrain_skips_later_training(self):
        stream, series = tiny_stream(periods=3)
        cfg = ExperimentConfig(scheme="PretrainST", seeds=(1,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        assert reports[0].epochs_run > 0
        assert reports[1].epochs_run == 0
        assert reports[2].epochs_run == 0

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
        a = json.dumps([rep.to_dict(include_timing=False) for rep in r1], sort_keys=True)
        b = json.dumps([rep.to_dict(include_timing=False) for rep in r2], sort_keys=True)
        assert a == b

    def test_single_seed_std_zero(self):
        stream, series = tiny_stream(periods=1)
        cfg = ExperimentConfig(scheme="RetrainST", seeds=(3,), **TINY)
        reports, _ = run_stream(cfg, stream, series)
        for by_metric in reports[0].horizons.values():
            for stat in by_metric.values():
                assert stat["std"] in (0.0, None)

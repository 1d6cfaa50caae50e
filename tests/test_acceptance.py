"""Acceptance suite: nine independent checks, one pass/fail line each.

The stream-based checks share one synthetic stream (40 -> 50 -> 60 nodes,
2000 steps per period) and reduced model sizes so the whole suite stays
inside a ten-minute desktop budget.  Run with `pytest -s` to see the
summary lines for passing checks too.
"""
import json
import time

import numpy as np
import pytest

from growcast.analysis import best_rank_k, dispersion_decomposition, svd_cumulative
from growcast.backbone import build_backbone, graph_operator
from growcast.cli import main
from growcast.gradcheck import gradcheck_table
from growcast.data_pipeline import build_period_dataset, synth_stream
from growcast.engine import ExperimentConfig, _make_forward, run_stream, train_period
from growcast.graph_stream import diff_nodes
from growcast.nn_core import rng_stream
from growcast.prompt_pool import expand, init_pool
from oracles import neutralize_cross_covariance, pool_param_count

SEEDS = (1, 2, 3, 4, 5)
BASE_CONFIG = {"k": 6, "d": 16, "epochs_max": 8, "patience": 3,
               "batch_size": 128, "seeds": SEEDS}


def report(num, label, ok, detail=""):
    line = "criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def stream_series():
    return synth_stream(n0=40, growth_per_period=10, periods=3,
                        T_per_period=2000, seed=0)


def run_scheme(stream_series, scheme):
    stream, series = stream_series
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG, scheme=scheme))
    return run_stream(cfg, stream, series)


@pytest.fixture(scope="module")
def eac_run(stream_series):
    return run_scheme(stream_series, "EAC")


@pytest.fixture(scope="module")
def continual_nn_run(stream_series):
    return run_scheme(stream_series, "ContinualNN")


@pytest.fixture(scope="module")
def pretrain_run(stream_series):
    return run_scheme(stream_series, "PretrainST")


def test_criterion_1_decomposition_residual_and_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    bound_held = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 33))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        P = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        rep = dispersion_decomposition(X, P)
        delta = rep.D_after - rep.D_before
        worst = max(worst, abs(rep.residual) / (1 + abs(delta)))
        Pn = neutralize_cross_covariance(X, P)
        rep_n = dispersion_decomposition(X, Pn)
        delta_n = rep_n.D_after - rep_n.D_before
        if not (abs(delta_n - rep_n.paper_rhs) <= 1e-9 * (1 + abs(delta_n))
                and rep_n.paper_rhs >= -1e-12):
            bound_held = False
    elapsed = time.perf_counter() - t0
    report(1, "dispersion decomposition", worst <= 1e-9 and bound_held
           and elapsed < 5.0,
           "worst residual %.2e, %.1f s" % (worst, elapsed))


def test_criterion_2_gradcheck_all_primitives():
    t0 = time.perf_counter()
    rows = gradcheck_table(seeds=range(20))
    elapsed = time.perf_counter() - t0
    worst = max(r["max_rel_err"] for r in rows)
    report(2, "gradient verification", all(r["passed"] for r in rows)
           and worst < 1e-4 and elapsed < 60.0,
           "%d checks, worst rel err %.2e, %.1f s" % (len(rows), worst, elapsed))


def test_criterion_3_eckart_young_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    monotone = True
    for _ in range(50):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 30))
        M = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
        k = int(rng.integers(1, min(n, d) + 1))
        rep = svd_cumulative(M, k=k)
        tail = np.sqrt(np.sum(np.asarray(rep.singular_values[k:]) ** 2))
        direct = np.linalg.norm(M - best_rank_k(M, k))
        worst = max(worst, abs(rep.rank_k_error - tail), abs(direct - tail))
        ratios = np.asarray(rep.cumulative_ratio)
        if np.any(np.diff(ratios) < -1e-12) or abs(ratios[-1] - 1.0) > 1e-12:
            monotone = False
    elapsed = time.perf_counter() - t0
    report(3, "Eckart-Young oracle", worst <= 1e-8 and monotone and elapsed < 5.0,
           "worst gap %.2e, %.1f s" % (worst, elapsed))


def test_criterion_4_backbone_frozen_across_periods(eac_run):
    _, seed_results = eac_run
    ok = True
    for seed, periods in seed_results.items():
        hashes = [p["backbone_hash"] for p in periods]
        if len(set(hashes)) != 1:
            ok = False
    report(4, "freezing contract", ok,
           "%d seeds x %d periods, sha256 checkpoint match"
           % (len(seed_results), len(next(iter(seed_results.values())))))


def _mean_avg_mae(reports):
    return float(np.mean([r.horizons["avg"]["MAE"]["mean"] for r in reports]))


def test_criterion_5_ordering(eac_run, continual_nn_run, pretrain_run):
    eac = _mean_avg_mae(eac_run[0])
    c_nn = _mean_avg_mae(continual_nn_run[0])
    pre = _mean_avg_mae(pretrain_run[0])
    report(5, "forgetting/ordering", eac <= c_nn and eac <= pre,
           "EAC %.4f, ContinualNN %.4f (margin %.4f), PretrainST %.4f (margin %.4f)"
           % (eac, c_nn, c_nn - eac, pre, pre - eac))


def later_period_epochs(stream_series, tau, rounds):
    """Per-epoch training seconds of EAC and ContinualAN in period tau.

    Each scheme gets its period-tau state (EAC: a frozen backbone and a
    pool grown to the period's nodes; ContinualAN: a trainable backbone),
    and the two train one epoch at a time in alternation, so that load
    from other processes falls on both alike.
    """
    stream, series = stream_series
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG, scheme="EAC"))
    graph = stream.periods[tau - 1]
    data = build_period_dataset(graph, series[tau - 1], seed=1)
    pool = init_pool(stream.periods[0].n, d=cfg.d, k=cfg.k, seed=1)
    for t in range(2, tau + 1):
        expand(pool, len(diff_nodes(stream.periods[t - 2], stream.periods[t - 1])), t)
    runs = {}
    for scheme, scheme_pool in (("EAC", pool), ("ContinualAN", None)):
        bb = build_backbone(cfg.variant, d=cfg.d, kernel=cfg.kernel, K_order=cfg.K_order,
                            seed=1)
        for p in bb.values():
            p.trainable = scheme_pool is None
        params = list(bb.values()) + (pool.parameters() if scheme_pool else [])
        forward = _make_forward(bb, graph_operator(bb, graph.adjacency), scheme_pool,
                                rng_stream(1, "dropout", tau), cfg.dropout_continual)
        runs[scheme] = (forward, params, [])
    for r in range(rounds):
        for scheme in (("EAC", "ContinualAN") if r % 2 == 0 else ("ContinualAN", "EAC")):
            forward, params, seconds = runs[scheme]
            _, per_epoch, _ = train_period(forward, params, data.train, data.val,
                                           lr=cfg.lr_continual,
                                           epochs_max=1, patience=1,
                                           batch_size=cfg.batch_size, seed=1,
                                           period_index=tau)
            seconds.append(per_epoch)
    return runs["EAC"][2], runs["ContinualAN"][2]


def test_criterion_6_per_epoch_speedup(stream_series):
    ratios = []
    for tau in (2, 3):
        eac, an = later_period_epochs(stream_series, tau, rounds=4)
        ratios += [a / e for e, a in zip(eac, an)]
    ratio = float(np.median(ratios))
    report(6, "per-epoch speedup", ratio >= 1.1,
           "median ratio %.2f over %d interleaved epoch pairs, periods 2..3"
           % (ratio, len(ratios)))


def test_criterion_7_lightweight_ratio():
    pool = init_pool(500, k=6, d=64, seed=0)
    counts = pool_param_count(pool)
    exact = (500 * 6 + 6 * 64) / (500 * 64)
    report(7, "lightweight pool ratio",
           counts["tunable"] == 500 * 6 + 6 * 64
           and counts["ratio"] == exact and abs(exact - 0.10575) < 5e-6,
           "ratio %.6f" % counts["ratio"])


def test_criterion_8_heterogeneity_trend(eac_run, tmp_path_factory):
    _, seed_results = eac_run
    grew = 0
    series = {}
    for seed, periods in seed_results.items():
        het = [p["heterogeneity"] for p in periods if p["heterogeneity"]]
        series[str(seed)] = het
        if het and het[0]["D_trained"] > het[0]["D_init"]:
            grew += 1
    out = tmp_path_factory.mktemp("hetero") / "heterogeneity.json"
    out.write_text(json.dumps(series, indent=2))
    report(8, "heterogeneity trend", grew >= 4,
           "D grew under training in %d of %d seeds; series at %s"
           % (grew, len(seed_results), out))


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, scheme="EAC", d=6, k=2,
                                        epochs_max=2, patience=1, seeds=[1])))
    spec = "n0=5,growth=2,periods=2,T=160,seed=3"
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["run", "--config", str(cfg_path), "--synth", spec,
                   "--out", str(out)])
        assert rc == 0
        blobs.append(tuple((out / n).read_bytes()
                     for n in ("reports.json", "aggregate.csv", "heterogeneity.json")))
    report(9, "deterministic reports", blobs[0] == blobs[1],
           "reports.json, aggregate.csv, heterogeneity.json byte-identical")

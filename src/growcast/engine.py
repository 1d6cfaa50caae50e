"""Period-by-period training workflows for all comparison schemes.

One protocol serves every scheme: per period, mini-batch Adam on MSE in
normalized units, early stopping on validation MAE in original units, and
evaluation on the period's test split right after its training phase.
Schemes differ only in what state crosses period boundaries and which
parameters stay trainable.
"""
from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nn_core as nn
from .analysis import heterogeneity_D, metrics
from .backbone import build_backbone, forward_predict, graph_operator
from .data_pipeline import build_period_dataset
from .graph_stream import diff_nodes
from .prompt_pool import expand, init_pool, materialize, param_count

SCHEMES = ("EAC", "EAC_full", "PretrainST", "RetrainST", "ContinualAN", "ContinualNN")
HORIZONS = (3, 6, 12)
MIN_DELTA = 1e-6


class ConfigError(ValueError):
    pass


class TrainingAbort(RuntimeError):
    """Non-finite loss; carries (epoch, batch, lr) diagnostics."""

    def __init__(self, epoch, batch, lr):
        self.epoch, self.batch, self.lr = epoch, batch, lr
        super().__init__("non-finite loss at epoch %d, batch %d, lr %g"
                         % (epoch, batch, lr))


@dataclass
class ExperimentConfig:
    scheme: str
    k: int = 6
    d: int = 64
    lr_initial: float = 0.03
    lr_continual: float = 0.01
    epochs_max: int = 100
    batch_size: int = 128
    patience: int = 10
    dropout_initial: float = 0.1
    dropout_continual: float = 0.0
    few_shot_fraction: float | None = None
    few_shot_random: bool = False
    seeds: tuple = (1, 2, 3, 4, 5)
    variant: str = "spatial"
    freeze_old_segments: bool = False
    K_order: int = 2
    kernel: int = 3
    t_out: int = 12
    t_in: int = 12
    horizon_mode: str = "at_step"  # or "prefix": average over the first h steps

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r (one of %s)" % (self.scheme, SCHEMES))
        if self.lr_initial <= 0 or self.lr_continual <= 0:
            raise ConfigError("learning rates must be positive")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not (0 < self.patience < self.epochs_max):
            raise ConfigError("patience must satisfy 0 < patience < epochs_max")
        if self.horizon_mode not in ("at_step", "prefix"):
            raise ConfigError("horizon_mode must be at_step or prefix")
        if self.freeze_old_segments and self.scheme not in ("EAC", "EAC_full"):
            raise ConfigError("freeze_old_segments only applies to pool schemes")
        self.seeds = tuple(int(s) for s in self.seeds)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "scheme" not in data:
            raise ConfigError("config is missing required field `scheme`")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown config fields: %s" % sorted(unknown))
        return cls(**data)


@dataclass
class PeriodReport:
    """Mean +- std over seeds for one period; std is 0 for a single seed."""

    period_index: int
    horizons: dict  # "3"|"6"|"12"|"avg" -> metric -> {"mean","std"}
    tunable_param_count: int
    epochs_run: float
    wall_seconds_per_epoch: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        if not include_timing:
            out.pop("wall_seconds_per_epoch")
        return out


def _stack(samples):
    X = np.stack([s.input for s in samples])[..., None]
    Y = np.stack([s.target for s in samples])
    return X, Y


def _batches(n_samples, batch_size, rng=None):
    order = np.arange(n_samples) if rng is None else rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start:start + batch_size]


def train_period(forward, params, train_samples, val_samples, normalizer,
                 lr, epochs_max, patience, batch_size, seed, period_index):
    """Adam + early stopping; returns (epochs_run, wall_seconds_per_epoch,
    best_epoch), where best_epoch is the epoch whose parameters are kept.

    `forward(batch_x, train)` must rebuild the tape from the live parameter
    values; best-validation parameters are restored before returning.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and val sample lists must be nonempty")
    trainable = [p for p in params if p.trainable]
    if not trainable:
        raise ConfigError("no trainable parameters")
    X_tr, Y_tr = _stack(train_samples)
    state = nn.AdamState()
    best_mae = np.inf
    best_values = None
    best_epoch = 0
    bad_epochs = 0
    epochs_run = 0
    wall = 0.0
    for epoch in range(1, epochs_max + 1):
        t0 = time.perf_counter()
        shuffle_rng = nn.rng_stream(seed, "shuffle", period_index, epoch)
        for batch_no, idx in enumerate(_batches(len(train_samples), batch_size, shuffle_rng)):
            try:
                pred, record = forward(X_tr[idx], train=True)
                loss = nn.mse_loss(record, pred, Y_tr[idx])
                grads = nn.backward(record, loss)
            except nn.NonFiniteError:
                raise TrainingAbort(epoch, batch_no, lr)
            nn.adam_step(params, grads, state, lr)
        wall += time.perf_counter() - t0
        epochs_run = epoch
        val_mae = _validation_mae(forward, val_samples, normalizer, batch_size)
        if val_mae < best_mae - MIN_DELTA:
            best_mae = val_mae
            best_values = {p.name: p.value.copy() for p in params}
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    if best_values is not None:
        for p in params:
            p.value = best_values[p.name]
    return epochs_run, wall / epochs_run, best_epoch


def _validation_mae(forward, val_samples, normalizer, batch_size):
    X, Y = _stack(val_samples)
    abs_sum, count = 0.0, 0
    for idx in _batches(len(val_samples), batch_size):
        pred, _ = forward(X[idx], train=False)
        err = normalizer.invert(pred.value) - normalizer.invert(Y[idx])
        abs_sum += float(np.abs(err).sum())
        count += err.size
    return abs_sum / count


def evaluate_period(forward, test_samples, normalizer, batch_size,
                    horizon_mode: str = "at_step") -> dict:
    """Per-horizon metrics in original units over the full test split."""
    if not test_samples:
        raise ConfigError("test sample list must be nonempty")
    X, Y = _stack(test_samples)
    preds = []
    for idx in _batches(len(test_samples), batch_size):
        pred, _ = forward(X[idx], train=False)
        preds.append(pred.value)
    pred = normalizer.invert(np.concatenate(preds, axis=0))
    truth = normalizer.invert(Y)
    out = {}
    for h in HORIZONS:
        if horizon_mode == "at_step":
            out[str(h)] = metrics(pred[:, h - 1], truth[:, h - 1])
        else:
            out[str(h)] = metrics(pred[:, :h], truth[:, :h])
    out["avg"] = metrics(pred, truth)
    return out


def _backbone_hash(backbone) -> str:
    h = hashlib.sha256()
    for name in sorted(backbone.params):
        h.update(name.encode())
        h.update(backbone.params[name].value.tobytes())
    return h.hexdigest()


def _fused_dispersion(backbone, pool, dataset):
    """Dispersion of (projected mean input + prompt) rows, one per node."""
    X_mean = np.stack([s.input for s in dataset.train]).mean(axis=(0, 1))  # (N, t_in, n) -> (n,)
    X_mean = X_mean.reshape(-1, 1)
    proj = X_mean @ backbone.params["input_proj.W"].value + backbone.params["input_proj.b"].value
    fused = proj + (materialize(pool) if pool is not None else 0.0)
    return heterogeneity_D(fused)


def _induced_subperiod(graph, series, new_ids, config, seed):
    """Dataset over the induced subgraph of new nodes only."""
    from .data_pipeline import ObservationSeries
    from .graph_stream import PeriodGraph

    pos = {nid: i for i, nid in enumerate(graph.nodes)}
    idx = [pos[nid] for nid in new_ids]
    sub_graph = PeriodGraph(period_index=graph.period_index,
                            nodes=tuple(new_ids),
                            distances=graph.distances[np.ix_(idx, idx)],
                            adjacency=graph.adjacency[np.ix_(idx, idx)])
    sub_series = ObservationSeries(node_ids=tuple(new_ids),
                                   values=series.values[:, idx],
                                   period_index=series.period_index)
    return build_period_dataset(sub_graph, sub_series,
                                few_shot_fraction=config.few_shot_fraction,
                                seed=seed, few_shot_random=config.few_shot_random)


def _run_seed(config: ExperimentConfig, stream, series_list, seed: int) -> list:
    datasets = [build_period_dataset(g, s, few_shot_fraction=config.few_shot_fraction,
                                     seed=seed, few_shot_random=config.few_shot_random)
                for g, s in zip(stream.periods, series_list)]
    uses_pool = config.scheme in ("EAC", "EAC_full")
    pool = None
    backbone = None
    results = []
    for tau, dataset in enumerate(datasets, start=1):
        graph = dataset.graph
        fresh = tau == 1 or config.scheme == "RetrainST"
        if fresh:
            backbone = build_backbone(config.variant, d=config.d, kernel=config.kernel,
                                      K_order=config.K_order, t_out=config.t_out,
                                      dropout_p=config.dropout_initial,
                                      seed=nn.hash_name((seed, "init", tau)))
        operator = graph_operator(backbone, graph.adjacency)
        train_graph = graph
        train_dataset = dataset
        skip_training = False
        hetero = None

        if uses_pool:
            if tau == 1:
                pool = init_pool(graph.nodes, d=config.d, k=config.k,
                                 mode="lowrank" if config.scheme == "EAC" else "full",
                                 seed=seed)
            else:
                new_ids, _ = diff_nodes(stream.periods[tau - 2], graph)
                expand(pool, new_ids, period_index=tau)
                backbone.set_trainable(False)
                if config.freeze_old_segments:
                    for seg in pool.segments:
                        seg.A.trainable = seg.period_index == tau
                    if pool.B is not None:
                        pool.B.trainable = False
            params = backbone.parameters() + pool.parameters()
        elif config.scheme == "PretrainST":
            params = backbone.parameters()
            skip_training = tau > 1
        elif config.scheme == "ContinualNN" and tau > 1:
            new_ids, _ = diff_nodes(stream.periods[tau - 2], graph)
            if not new_ids:
                warnings.warn("period %d adds no nodes; skipping training" % tau)
                skip_training = True
            else:
                train_dataset = _induced_subperiod(graph, series_list[tau - 1],
                                                   new_ids, config, seed)
                train_graph = train_dataset.graph
            params = backbone.parameters()
        else:
            params = backbone.parameters()

        initial_phase = tau == 1 or config.scheme == "RetrainST"
        lr = config.lr_initial if initial_phase else config.lr_continual
        backbone.dropout_p = (config.dropout_initial if initial_phase
                              else config.dropout_continual)
        drop_rng_holder = {}

        def make_forward(op, pool_active, node_count):
            def forward(batch_x, train):
                record = nn.ComputeRecord()
                prompt = None
                if pool_active is not None:
                    stacked = nn.concat_rows(
                        record, [record.leaf(seg.A) for seg in pool_active.segments])
                    if pool_active.mode == "lowrank":
                        prompt = nn.linear(record, stacked, record.leaf(pool_active.B))
                    else:
                        prompt = stacked
                    if prompt.shape[0] != node_count:
                        raise ConfigError("pool covers %d nodes, graph has %d"
                                          % (prompt.shape[0], node_count))
                return forward_predict(backbone, op, batch_x, prompt=prompt,
                                       record=record, train=train,
                                       rng=drop_rng_holder.get("rng"))
            return forward

        pool_for_training = pool if uses_pool else None
        if config.scheme == "ContinualNN" and tau > 1 and not skip_training:
            train_operator = graph_operator(backbone, train_graph.adjacency)
            train_forward = make_forward(train_operator, None, train_graph.n)
        else:
            train_forward = make_forward(operator, pool_for_training, graph.n)
        eval_forward = make_forward(operator, pool_for_training, graph.n)

        if uses_pool:
            hetero = {"D_init": _fused_dispersion(backbone, pool, dataset)}

        if skip_training:
            epochs_run, wall_per_epoch = 0, 0.0
        else:
            drop_rng_holder["rng"] = nn.rng_stream(seed, "dropout", tau)
            epochs_run, wall_per_epoch, _ = train_period(
                train_forward, params, train_dataset.train, train_dataset.val,
                train_dataset.normalizer, lr, config.epochs_max, config.patience,
                config.batch_size, seed, tau)
            drop_rng_holder.pop("rng", None)

        if uses_pool:
            hetero["D_trained"] = _fused_dispersion(backbone, pool, dataset)

        horizon_metrics = evaluate_period(eval_forward, dataset.test,
                                          dataset.normalizer, config.batch_size,
                                          config.horizon_mode)
        if uses_pool:
            tunable = param_count(pool)["tunable"]
            if tau == 1:
                tunable += backbone.param_count()
        else:
            tunable = 0 if skip_training else backbone.param_count()
        results.append({
            "period_index": tau,
            "metrics": horizon_metrics,
            "epochs_run": epochs_run,
            "wall_seconds_per_epoch": wall_per_epoch,
            "tunable_param_count": tunable,
            "backbone_hash": _backbone_hash(backbone),
            "heterogeneity": hetero,
        })
    return results


def _agg(values):
    arr = [v for v in values if v is not None]
    if len(arr) != len(values):
        return {"mean": None, "std": None}
    a = np.asarray(arr, dtype=float)
    return {"mean": float(a.mean()), "std": float(a.std()) if len(a) > 1 else 0.0}


def run_stream(config: ExperimentConfig, stream, series_list):
    """Run every seed of the configured scheme over the stream.

    Returns (reports, seed_results): aggregated PeriodReports plus the raw
    per-seed results (metrics, hashes, timings, dispersion series).
    """
    if not stream.periods:
        raise ConfigError("stream has no periods")
    if len(stream.periods) != len(series_list):
        raise ConfigError("stream has %d periods but %d observation series"
                          % (len(stream.periods), len(series_list)))
    seed_results = {seed: _run_seed(config, stream, series_list, seed)
                    for seed in config.seeds}
    reports = []
    for tau in range(1, len(stream.periods) + 1):
        per_seed = [seed_results[s][tau - 1] for s in config.seeds]
        horizons = {}
        for h in [str(x) for x in HORIZONS] + ["avg"]:
            horizons[h] = {m: _agg([r["metrics"][h][m] for r in per_seed])
                           for m in ("MAE", "RMSE", "MAPE")}
        reports.append(PeriodReport(
            period_index=tau,
            horizons=horizons,
            tunable_param_count=per_seed[0]["tunable_param_count"],
            epochs_run=float(np.mean([r["epochs_run"] for r in per_seed])),
            wall_seconds_per_epoch=float(np.mean([r["wall_seconds_per_epoch"]
                                                  for r in per_seed])),
        ))
    return reports, seed_results

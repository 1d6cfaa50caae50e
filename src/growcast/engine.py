"""Period-by-period training workflows for all comparison schemes.

One protocol serves every scheme: per period, mini-batch Adam on MSE and
early stopping on validation MAE, both in normalized units, and
evaluation in original units on the period's test split right after its
training phase.
Schemes differ only in what state crosses period boundaries and what
trains after period 1; `SCHEMES` is the one place a scheme is defined.

Training batches are shuffled windows, gathered into fresh arrays;
validation and test batches are slices of the split's strided window
view.  Every batch passes its windows' start offsets, so the backbone
computes each distinct time step of a batch once (`nn_core.Steps`) in
every phase, and no layer runs more rows than the batch has window
rows.  A training batch that draws dropout masks (period 1, and
every period of RetrainST) draws one per distinct step, which the
windows that read the step share (`backbone` module docstring).
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import time
import typing
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import nn_core as nn
from .analysis import heterogeneity_D, mae, metrics
from .backbone import VARIANTS, build_backbone, forward_predict, graph_operator
from .data_pipeline import build_period_dataset
from .graph_stream import diff_nodes
from .prompt_pool import expand, init_pool, materialize

HORIZONS = (3, 6, 12)
MIN_DELTA = 1e-6  # in units of the period's training std


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Scheme:
    """What crosses a period boundary and what trains after period 1.

    pool: "lowrank" or "full" prompt pool over a backbone frozen after
    period 1, or None for no pool.  retrain: a fresh backbone, trained with
    the period-1 lr and dropout, in every period.  later: what periods after
    the first train on: "all" nodes, only the "new"-node subgraph, or "none".
    """

    pool: str | None
    retrain: bool
    later: str


SCHEMES = {
    "EAC": Scheme(pool="lowrank", retrain=False, later="all"),
    "EAC_full": Scheme(pool="full", retrain=False, later="all"),
    "PretrainST": Scheme(pool=None, retrain=False, later="none"),
    "RetrainST": Scheme(pool=None, retrain=True, later="all"),
    "ContinualAN": Scheme(pool=None, retrain=False, later="all"),
    "ContinualNN": Scheme(pool=None, retrain=False, later="new"),
}


class TrainingAbort(RuntimeError):
    """A non-finite value in a training step or a validation pass, and where it happened.

    The message keeps the tape's own, which names the primitive or the
    parameter, and adds the period, seed, epoch, batch (None for the
    validation pass that ends an epoch) and learning rate.
    """

    def __init__(self, cause, period_index, seed, epoch, batch, lr):
        self.period_index, self.seed = period_index, seed
        self.epoch, self.batch, self.lr = epoch, batch, lr
        super().__init__("%s in period %d, seed %d, epoch %d, %s, lr %g"
                         % (cause, period_index, seed, epoch,
                            "validation pass" if batch is None else "batch %d" % batch, lr))


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
    horizon_mode: str = "at_step"  # or "prefix": average over the first h steps

    def __post_init__(self):
        for name, kinds in _FIELD_TYPES.items():
            if type(getattr(self, name)) not in kinds:
                raise ConfigError("config field %s has the wrong type: %r"
                                  % (name, getattr(self, name)))
        if any(type(s) is not int or s < 0 for s in self.seeds):
            raise ConfigError("seeds must be a list of non-negative integers, got %r"
                              % (self.seeds,))
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r (one of %s)" % (self.scheme, tuple(SCHEMES)))
        if self.variant not in VARIANTS:
            raise ConfigError("unknown variant %r (one of %s)" % (self.variant, VARIANTS))
        for name in ("lr_initial", "lr_continual"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError("%s must be positive and finite" % name)
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be distinct, got %r" % (self.seeds,))
        for name in ("d", "k", "kernel", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be at least 1" % name)
        if SCHEMES[self.scheme].pool == "lowrank" and self.k > self.d:
            raise ConfigError("k=%d exceeds d=%d: the low-rank pool needs k <= d"
                              % (self.k, self.d))
        if self.few_shot_fraction is not None and not 0.0 < self.few_shot_fraction <= 1.0:
            raise ConfigError("few_shot_fraction must lie in (0, 1]")
        if self.K_order < 0:
            raise ConfigError("K_order must be at least 0")
        for name in ("dropout_initial", "dropout_continual"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError("%s must lie in [0, 1)" % name)
        if not (0 < self.patience < self.epochs_max):
            raise ConfigError("patience must satisfy 0 < patience < epochs_max")
        if self.horizon_mode not in ("at_step", "prefix"):
            raise ConfigError("horizon_mode must be at_step or prefix")
        if self.freeze_old_segments and SCHEMES[self.scheme].pool is None:
            raise ConfigError("freeze_old_segments only applies to pool schemes")
        self.seeds = tuple(self.seeds)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "scheme" not in data:
            raise ConfigError("config is missing required field `scheme`")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown config fields: %s" % sorted(unknown))
        return cls(**data)


# the JSON types a field of each annotation accepts (true is not an int); a
# field of any other annotation fails here, at import
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               tuple: (list, tuple), float | None: (int, float, type(None))}
_FIELD_TYPES = {name: _JSON_TYPES[hint]
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}


@dataclass
class PeriodReport:
    """Mean +- std over seeds for one period; std is 0 for a single seed."""

    period_index: int
    horizons: dict  # "3"|"6"|"12"|"avg" -> metric -> {"mean","std"}
    tunable_param_count: int
    epochs_run: float
    wall_seconds_per_epoch: float

    def to_dict(self) -> dict:
        """The report fields without the wall-clock timing, which varies run to run."""
        out = asdict(self)
        out.pop("wall_seconds_per_epoch")
        return out


def _batches(n_samples, batch_size, rng):
    order = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start:start + batch_size]


def _predict(forward, samples, batch_size):
    """Predictions for every window of `samples`, batch by consecutive batch;
    a slice of a window view stays a view."""
    runs = (slice(start, start + batch_size) for start in range(0, len(samples), batch_size))
    return np.concatenate([forward(samples.X[run][..., None], train=False,
                                   starts=samples.starts[run])[0].value for run in runs])


def train_period(forward, params, train_samples, val_samples,
                 lr, epochs_max, patience, batch_size, seed, period_index):
    """Adam + early stopping; returns (epochs_run, wall_seconds_per_epoch,
    best_epoch), where best_epoch is the epoch whose parameters are kept.

    `forward(batch_x, train, starts)` must rebuild the tape from the live
    parameter values; best-validation parameters are restored before returning.
    An epoch improves on the best one when its validation MAE, in the
    normalized units that training uses, is lower by more than MIN_DELTA, so
    no training decision depends on the units of the data.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and val windows must be nonempty")
    trainable = [p for p in params if p.trainable]
    if not trainable:
        raise ConfigError("no trainable parameters")
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
                pred, record = forward(train_samples.X[idx][..., None], train=True,
                                       starts=train_samples.starts[idx])
                loss = nn.mse_loss(record, pred, train_samples.Y[idx])
                grads = nn.backward(record, loss)
            except nn.NonFiniteError as exc:
                raise TrainingAbort(exc, period_index, seed, epoch, batch_no, lr) from exc
            nn.adam_step(params, grads, state, lr)
        wall += time.perf_counter() - t0
        epochs_run = epoch
        try:
            val_mae = _validation_mae(forward, val_samples, batch_size)
        except nn.NonFiniteError as exc:
            raise TrainingAbort(exc, period_index, seed, epoch, None, lr) from exc
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


def _validation_mae(forward, val_samples, batch_size):
    """Mean absolute error over the validation split, in normalized units."""
    return mae(_predict(forward, val_samples, batch_size), val_samples.Y)


def evaluate_period(forward, test_samples, normalizer, batch_size,
                    horizon_mode: str = "at_step") -> dict:
    """Per-horizon metrics in original units over the full test split."""
    if not test_samples:
        raise ConfigError("test windows must be nonempty")
    pred = normalizer.invert(_predict(forward, test_samples, batch_size))
    truth = normalizer.invert(test_samples.Y)
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
    for name in sorted(backbone):
        h.update(name.encode())
        h.update(backbone[name].value.tobytes())
    return h.hexdigest()


def _fused_dispersion(backbone, pool, dataset):
    """Dispersion of (projected mean input + prompt) rows, one per node."""
    X_mean = dataset.train.X.mean(axis=(0, 1)).reshape(-1, 1)  # (N, T_IN, n) -> (n, 1)
    proj = X_mean @ backbone["input_proj.W"].value + backbone["input_proj.b"].value
    fused = proj + (materialize(pool) if pool is not None else 0.0)
    return heterogeneity_D(fused)


def _induced_subperiod(graph, series, new_ids, config, seed):
    """Dataset over the induced subgraph of the new nodes, the period's last (`diff_nodes`)."""
    from .data_pipeline import ObservationSeries
    from .graph_stream import PeriodGraph

    new = slice(graph.n - len(new_ids), None)
    sub_graph = PeriodGraph(period_index=graph.period_index, nodes=new_ids,
                            distances=graph.distances[new, new],
                            adjacency=graph.adjacency[new, new])
    sub_series = ObservationSeries(values=series.values[:, new], period_index=series.period_index)
    return build_period_dataset(sub_graph, sub_series,
                                few_shot_fraction=config.few_shot_fraction,
                                seed=seed, few_shot_random=config.few_shot_random)


def _make_forward(backbone, operator, pool, rng=None, dropout=0.0):
    """forward(batch_x, train, starts) over the live parameters, prompted by `pool` if given.

    An evaluation forward (train=False) records no backward tape; starts
    are the windows' segment offsets, or None (`forward_predict`).  A
    training phase passes its dropout rate with the stream its masks come
    from; a training batch (train=True) applies it.
    """
    def forward(batch_x, train, starts=None):
        record = nn.ComputeRecord(grad=train)
        prompt = None
        if pool is not None:
            factors = nn.concat_rows(record, [record.leaf(A) for A in pool.factors])
            prompt = nn.linear(record, factors, record.leaf(pool.B))
        return forward_predict(backbone, operator, batch_x, prompt=prompt, record=record,
                               train=train, rng=rng, starts=starts, dropout=dropout)
    return forward


def _run_seed(config: ExperimentConfig, stream, series_list, seed: int) -> list:
    scheme = SCHEMES[config.scheme]
    pool = backbone = None
    results = []
    for tau, (graph, series) in enumerate(zip(stream.periods, series_list), start=1):
        dataset = build_period_dataset(graph, series, few_shot_fraction=config.few_shot_fraction,
                                       seed=seed, few_shot_random=config.few_shot_random)
        initial = tau == 1 or scheme.retrain
        if initial:
            backbone = build_backbone(config.variant, d=config.d, kernel=config.kernel,
                                      K_order=config.K_order,
                                      seed=nn.hash_name((seed, "init", tau)))
        train_on = "all" if initial else scheme.later
        new_ids = diff_nodes(stream.periods[tau - 2], graph) if tau > 1 else ()

        if scheme.pool is not None:
            if tau == 1:
                pool = init_pool(graph.n, d=config.d, k=config.k, mode=scheme.pool, seed=seed)
            else:
                for p in backbone.values():
                    p.trainable = False
                if config.freeze_old_segments:
                    for p in pool.parameters():  # B and the earlier periods' factors
                        p.trainable = False
                expand(pool, len(new_ids), period_index=tau)
        params = list(backbone.values()) + (pool.parameters() if pool is not None else [])

        if (train_on == "new" and not new_ids) or not any(p.trainable for p in params):
            warnings.warn("period %d adds no nodes; skipping training" % tau)
            train_on = "none"
        operator = graph_operator(backbone, graph.adjacency)
        train_dataset, train_operator = dataset, operator
        if train_on == "new":
            train_dataset = _induced_subperiod(graph, series, new_ids, config, seed)
            train_operator = graph_operator(backbone, train_dataset.graph.adjacency)

        hetero = None if pool is None else {"D_init": _fused_dispersion(backbone, pool, dataset)}
        if train_on == "none":
            epochs_run, wall_per_epoch, best_epoch = 0, 0.0, 0
        else:
            lr, dropout = ((config.lr_initial, config.dropout_initial) if initial
                           else (config.lr_continual, config.dropout_continual))
            forward = _make_forward(backbone, train_operator, pool,
                                    nn.rng_stream(seed, "dropout", tau), dropout)
            epochs_run, wall_per_epoch, best_epoch = train_period(
                forward, params, train_dataset.train, train_dataset.val,
                lr, config.epochs_max, config.patience, config.batch_size, seed, tau)
        if hetero is not None:
            hetero["D_trained"] = _fused_dispersion(backbone, pool, dataset)

        horizon_metrics = evaluate_period(_make_forward(backbone, operator, pool), dataset.test,
                                          dataset.normalizer, config.batch_size,
                                          config.horizon_mode)
        results.append({
            "period_index": tau,
            "metrics": horizon_metrics,
            "epochs_run": epochs_run,
            "best_epoch": best_epoch,
            "wall_seconds_per_epoch": wall_per_epoch,
            "tunable_param_count": (0 if train_on == "none" else
                                    sum(p.value.size for p in params if p.trainable)),
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


# glibc's mallopt parameters, and the variables through which a user sets them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")


def _libc():
    return ctypes.CDLL(None)


def _keep_freed_pages():
    """Keep freed step-sized arrays in the process on glibc (process-wide).

    By default glibc returns a training step's freed arrays to the kernel and
    the next step faults them back in.  Pinning both thresholds (setting one
    alone turns off glibc's dynamic adjustment and faults more) keeps up to
    256 MB of freed heap; arrays above 32 MB still go to mmap.  No float
    changes.  A no-op off glibc, when mallopt refuses, or when the user set
    the allocator through the environment.
    """
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    try:
        libc = _libc()
        libc.gnu_get_libc_version  # glibc's own; other C libraries lack it
        mallopt = libc.mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # the mmap threshold has an upper limit, the trim threshold none
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def run_stream(config: ExperimentConfig, stream, series_list):
    """Run every seed of the configured scheme over the stream.

    Returns (reports, seed_results): aggregated PeriodReports plus the raw
    per-seed results (metrics, hashes, timings, best epochs, dispersion series).
    """
    _keep_freed_pages()
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

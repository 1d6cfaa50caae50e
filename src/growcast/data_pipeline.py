"""Observation ingestion, windowing, splits, normalization, synthesis.

A period's observations are a T x n matrix whose columns are its
graph's nodes in order; node ids live in the graph only, and
`build_period_dataset`, where a series meets its graph, checks the
column count.  The raw timeline of each period is split 6:2:2 first and
windowed inside each segment, so no supervised sample ever straddles a
split boundary.
A split's windows are one `Windows(X, Y, starts)` record: X is (N, T_IN, n)
and Y is (N, T_OUT, n), both read-only strided views over the split's
normalized (T_s, n) segment, so windowing copies nothing; starts gives
each window's first step in the segment.
"""
from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analysis import power_of_two_above
from .graph_stream import (
    GraphStreamError,
    PeriodGraph,
    StreamGraph,
    build_adjacency,
    read_distances,
    read_numbers,
)
from .nn_core import rng_stream

T_IN = 12
T_OUT = 12
SPLIT_RATIOS = (0.6, 0.2, 0.2)  # train, val, test shares of each period's timeline
DIURNAL_PERIOD = 96  # steps per cycle of the synthetic signal
DIFFUSION = 0.5  # weight of the neighbours' mean in the synthetic signal


class DataError(ValueError):
    """Malformed observation input or infeasible split/window request."""


@dataclass(frozen=True)
class ObservationSeries:
    """T x n readings for one period, stored row-major.

    Column j is node j of the period's graph; the ids live in the graph
    only, and `build_period_dataset` checks that the counts agree.
    """

    values: np.ndarray
    period_index: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values))
        if self.values.ndim != 2:
            raise DataError("period %d observations must be a T x n matrix, got shape %s"
                            % (self.period_index, self.values.shape))
        if not np.isfinite(self.values).all():
            raise DataError("period %d has non-finite observations" % self.period_index)


@dataclass(frozen=True)
class Windows:
    """N supervised windows: Y[i] is the T_OUT steps right after X[i].

    X[i] is segment steps starts[i] .. starts[i] + T_IN - 1.
    """

    X: np.ndarray  # N x T_IN x n
    Y: np.ndarray  # N x T_OUT x n
    starts: np.ndarray  # N integer offsets into the segment

    def __len__(self):
        return self.X.shape[0]


@dataclass(frozen=True)
class Normalizer:
    """Train-segment z-score; std clamped away from zero."""

    mean: float
    std: float

    @classmethod
    def fit(cls, train_segment: np.ndarray, period_index: int) -> "Normalizer":
        """Statistics of one period's train segment; they must be finite.

        The moments are taken of the segment divided by
        `power_of_two_above` its largest |value| and scaled back, so a
        large constant segment does not square its rounding residue past
        the float range, and ordinary data get the same mean and std as
        the unscaled formula.  A segment whose range squares past the
        float range (about 1.3e154) is rejected too.  No sum or square
        downstream needs that rule, since `analysis.mae` and
        `analysis.metrics` scale errors by a power of two; it is a
        data check.  Beside such a range, readings of ordinary size
        normalize to one and the same float, so training could not tell
        them apart; one reading of 1e20 among readings of order 1 does
        that too, and passes.
        """
        segment = np.asarray(train_segment, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = power_of_two_above(np.max(np.abs(segment), initial=0.0))
            scaled = segment / scale
            mean, std = float(scaled.mean() * scale), float(scaled.std() * scale)
            spread = float(np.ptp(segment))
            wide = not np.isfinite(spread * spread)
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise DataError("period %d training observations overflow the normalizer "
                            "(mean %r, std %r)" % (period_index, mean, std))
        if wide:
            raise DataError("period %d training observations span %r, whose square "
                            "overflows" % (period_index, spread))
        return cls(mean=mean, std=max(std, 1e-8))

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def invert(self, x):
        return np.asarray(x, dtype=float) * self.std + self.mean


@dataclass(frozen=True)
class PeriodDataset:
    train: Windows
    val: Windows
    test: Windows
    normalizer: Normalizer


def ingest_period(observations_path, graph: PeriodGraph) -> ObservationSeries:
    """Read an observation CSV with its columns in the graph order.

    Header: `time,<id1>,<id2>,...`, each id once.  Every data line has one
    cell per header field; the time cell is never read, and the others are
    numbers as `read_numbers` reads them.  Empty and whitespace-only
    cells, and cells that read nan, are missing: filled by the last
    observation of the same column, leading gaps by the mean of the
    forward-filled column.
    """
    with open(observations_path) as fh:
        header = fh.readline().strip()
    cols = header.split(",")
    if not cols or cols[0] != "time":
        raise DataError("observation file %s must start with a `time,...` header"
                        % observations_path)
    file_ids = cols[1:]
    unknown = set(file_ids) - set(graph.nodes)
    if unknown:
        raise DataError("unknown node ids in the header of %s: %s"
                        % (observations_path, sorted(unknown)))
    missing = set(graph.nodes) - set(file_ids)
    if missing:
        raise DataError("graph nodes with no observation column in %s: %s"
                        % (observations_path, sorted(missing)))
    repeated = sorted(nid for nid, count in Counter(file_ids).items() if count > 1)
    if repeated:
        raise DataError("duplicated node ids in the header of %s: %s"
                        % (observations_path, repeated))

    def lines():
        with open(observations_path) as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.count(",") + 1 != len(cols):
                    raise DataError("%s line %d has %d cells, expected %d"
                                    % (observations_path, lineno, line.count(",") + 1,
                                       len(cols)))
                yield lineno, _blank_to_nan(line)

    column = {nid: j for j, nid in enumerate(file_ids, start=1)}
    values = read_numbers(observations_path, lines, DataError, delimiter=",",
                          usecols=[column[nid] for nid in graph.nodes])
    return ObservationSeries(values=_impute(values), period_index=graph.period_index)


# the ASCII characters str.strip() removes, besides the "\n" that ends a line
_ASCII_SPACE = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
_BLANK_CELL = re.compile(r"(^|,)\s*(?=,|$)")


def _blank_to_nan(line: str) -> str:
    """The line with `nan` in each empty or whitespace-only data cell.

    A line without whitespace is patched by string replacement, which
    scans it in C, and its first cell, the time, which is never read,
    stays as it is; any other line goes through `_BLANK_CELL`.
    """
    if not line.isascii() or any(space in line for space in _ASCII_SPACE):
        return _BLANK_CELL.sub(r"\1nan", line)
    if ",," in line:
        line = line.replace(",,", ",nan,").replace(",,", ",nan,")  # two passes fill any run
    return line + "nan" if line.endswith(",") else line


def _impute(values: np.ndarray) -> np.ndarray:
    """Forward-fill per column, then the filled column's mean for leading gaps.

    It works on the gaps alone.  Taken column by column, top down, each
    run of gaps copies the reading just above its first gap, so the
    temporaries beside the output grow with the number of gaps, not with
    T x n.
    """
    out = values.copy()
    col, row = np.nonzero(np.isnan(out).T)
    first = np.ones(row.size, dtype=bool)  # a run's first gap
    first[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1] + 1)
    above = row[np.maximum.accumulate(np.where(first, np.arange(row.size), 0))] - 1
    fill = above >= 0
    out[row[fill], col[fill]] = out[above[fill], col[fill]]
    for j in col[~fill & first]:  # a leading gap, at most one per column
        gaps = np.isnan(out[:, j])
        filled = out[~gaps, j]
        if filled.size == 0:
            raise DataError("column %d has no observed values" % j)
        out[gaps, j] = filled.mean()
    return out


def chrono_split(series: ObservationSeries):
    """Raw-timeline slices at floor(r1*T) and floor((r1+r2)*T), r = SPLIT_RATIOS.

    Every segment must hold at least one T_IN + T_OUT step window.
    """
    T = series.values.shape[0]
    b1 = math.floor(SPLIT_RATIOS[0] * T)
    b2 = math.floor((SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) * T)
    segments = (series.values[:b1], series.values[b1:b2], series.values[b2:])
    for name, seg in zip(("train", "val", "test"), segments):
        if seg.shape[0] < T_IN + T_OUT:
            raise DataError("%s segment of %d steps cannot hold a %d-step window"
                            % (name, seg.shape[0], T_IN + T_OUT))
    return segments


def make_windows(segment: np.ndarray) -> Windows:
    """Every sliding T_IN + T_OUT step supervised window of the segment, as views over it."""
    T_s = segment.shape[0]
    if T_s < T_IN + T_OUT:
        raise DataError("segment of %d steps is shorter than one %d-step window"
                        % (T_s, T_IN + T_OUT))
    view = np.lib.stride_tricks.sliding_window_view(segment, T_IN + T_OUT, axis=0)
    view = view.swapaxes(1, 2)  # (N, n, T_IN + T_OUT) -> (N, T_IN + T_OUT, n)
    return Windows(X=view[:, :T_IN], Y=view[:, T_IN:], starts=np.arange(view.shape[0]))


def few_shot_subsample(train: Windows, fraction: float = 0.2, seed: int = 0,
                       random_policy: bool = False) -> Windows:
    """Keep floor(fraction*len) windows: chronological prefix by default,
    seeded uniform sample under the alternative policy."""
    if not (0.0 < fraction <= 1.0):
        raise DataError("few-shot fraction must lie in (0, 1], got %r" % fraction)
    keep = math.floor(fraction * len(train))
    if keep == 0:
        raise DataError("few-shot fraction %r leaves an empty training set" % fraction)
    idx = slice(keep) if not random_policy else np.sort(
        rng_stream(seed, "few_shot").choice(len(train), size=keep, replace=False))
    return Windows(X=train.X[idx], Y=train.Y[idx], starts=train.starts[idx])


def build_period_dataset(graph: PeriodGraph, series: ObservationSeries,
                         few_shot_fraction=None, seed: int = 0,
                         few_shot_random: bool = False) -> PeriodDataset:
    """Split, normalize on train statistics, window each segment.

    A series with a column count other than the graph's node count, and a
    split whose normalized values overflow, are DataErrors naming the period.
    """
    if series.values.shape[1] != graph.n:
        raise DataError("period %d has %d observation columns for %d graph nodes"
                        % (graph.period_index, series.values.shape[1], graph.n))
    segments = chrono_split(series)
    norm = Normalizer.fit(segments[0], graph.period_index)
    windows = []
    for name, seg in zip(("train", "val", "test"), segments):
        with np.errstate(over="ignore"):
            seg = norm.apply(seg)
        if not np.isfinite(seg).all():
            raise DataError("period %d %s observations overflow once normalized "
                            "(train mean %r, std %r)" % (graph.period_index, name,
                                                         norm.mean, norm.std))
        windows.append(make_windows(seg))
    train, val, test = windows
    if few_shot_fraction is not None:
        train = few_shot_subsample(train, few_shot_fraction, seed, few_shot_random)
    return PeriodDataset(train=train, val=val, test=test, normalizer=norm)


def synth_stream(n0: int, growth_per_period: int, periods: int, T_per_period: int,
                 seed: int = 0, noise: float = 0.1, offset_scale: float = 1.0,
                 r: float = 0.5):
    """Reproducible desk-scale stream with planted per-node heterogeneity.

    Nodes sit uniformly in the unit square; the signal per node is a shared
    diurnal sinusoid plus a fixed node offset, diffused over the graph
    (`DIFFUSION`), plus Gaussian noise.  All randomness comes from named
    PCG64 substreams of `seed`, so node additions never perturb existing
    series.

    Returns (StreamGraph, [ObservationSeries per period]).
    """
    if min(n0, growth_per_period + 1, periods, T_per_period) <= 0:
        raise DataError("synthetic stream sizes must be positive")
    if not (np.isfinite(noise) and noise >= 0):
        raise DataError("synthetic noise must be finite and non-negative, got %r" % noise)
    if not np.isfinite(offset_scale):
        raise DataError("synthetic offset scale must be finite, got %r" % offset_scale)
    n_max = n0 + growth_per_period * (periods - 1)
    pos_rng = rng_stream(seed, "positions")
    positions = pos_rng.uniform(size=(n_max, 2))
    offsets = offset_scale * rng_stream(seed, "offsets").standard_normal(n_max)
    node_ids = tuple("s%03d" % i for i in range(n_max))

    graphs = []
    series = []
    for tau in range(1, periods + 1):
        n = n0 + growth_per_period * (tau - 1)
        pts = positions[:n]
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        adj = build_adjacency(dist, r=r)
        graph = PeriodGraph(period_index=tau, nodes=node_ids[:n],
                            distances=dist, adjacency=adj)
        t0 = (tau - 1) * T_per_period
        t = np.arange(t0, t0 + T_per_period)
        diurnal = np.sin(2 * np.pi * t / DIURNAL_PERIOD)
        base = diurnal[:, None] + offsets[None, :n]
        if noise > 0:
            for i in range(n):
                node_rng = rng_stream(seed, "noise", i)
                base[:, i] += noise * node_rng.standard_normal(periods * T_per_period)[t0:t0 + T_per_period]
        row_sum = adj.sum(axis=1)
        row_norm = adj / np.where(row_sum > 0, row_sum, 1.0)[:, None]
        values = base + DIFFUSION * (base @ row_norm.T)
        graphs.append(graph)
        series.append(ObservationSeries(values=values, period_index=tau))
    return StreamGraph(periods=tuple(graphs)), series


def load_stream_manifest(path):
    """Load a stream from a JSON manifest listing per-period file paths.

    Schema: {"r": 0.5, "periods": [{"nodes": p, "distances": p,
    "observations": p}, ...]}; paths are strings relative to the
    manifest, and `r` (optional, also per period) is a number in [0, 1).
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError("cannot read stream manifest %s: %s" % (path, exc))
    if not isinstance(manifest, dict):
        raise DataError("stream manifest must be a JSON object, got %r" % (manifest,))
    periods = manifest.get("periods")
    if not (isinstance(periods, list) and periods):
        raise DataError("stream manifest field 'periods' must be a nonempty list, got %r"
                        % (periods,))
    _known_fields(manifest, {"r", "periods"}, "stream manifest")
    r = _manifest_r(manifest, 0.5, "stream manifest")
    base = os.path.dirname(os.path.abspath(path))

    def read(tau, entry, key, reader):
        """reader(path) of the period's `key` file, whose every failure is a DataError."""
        path = os.path.join(base, entry[key])  # an absolute entry stays as it is
        try:
            return reader(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError("period %d %s file %s unreadable: %s" % (tau, key, path, exc))
        except GraphStreamError as exc:
            raise DataError(str(exc))

    graphs, series = [], []
    for tau, entry in enumerate(periods, start=1):
        for key in ("nodes", "distances", "observations"):
            if not (isinstance(entry, dict) and isinstance(entry.get(key), str)):
                raise DataError("period %d manifest entry needs a path string %r, got %r"
                                % (tau, key, entry))
        _known_fields(entry, {"nodes", "distances", "observations", "r"}, "period %d" % tau)
        nodes = read(tau, entry, "nodes", _read_nodes)
        dist = read(tau, entry, "distances", lambda p: read_distances(p, node_ids=nodes))
        if dist.shape[0] != len(nodes):
            raise DataError("period %d distance matrix size %d vs %d nodes"
                            % (tau, dist.shape[0], len(nodes)))
        adj = build_adjacency(dist, r=_manifest_r(entry, r, "period %d" % tau))
        graph = PeriodGraph(period_index=tau, nodes=nodes, distances=dist, adjacency=adj)
        graphs.append(graph)
        series.append(read(tau, entry, "observations", lambda p: ingest_period(p, graph)))
    return StreamGraph(periods=tuple(graphs)), series


def _read_nodes(path) -> tuple:
    with open(path) as fh:
        return tuple(ln.strip() for ln in fh if ln.strip())


def _known_fields(fields: dict, known, where):
    unknown = sorted(set(fields) - known)
    if unknown:
        raise DataError("%s has unknown fields %s" % (where, unknown))


def _manifest_r(fields: dict, default, where) -> float:
    value = fields.get("r", default)
    if type(value) not in (int, float):
        raise DataError("%s field 'r' must be a number, got %r" % (where, value))
    if not 0.0 <= value < 1.0:
        raise DataError("%s field 'r' must lie in [0, 1), got %r" % (where, value))
    return float(value)


def write_stream(out_dir, stream: StreamGraph, series, r: float = 0.5) -> str:
    """Write a stream to disk in the manifest file layout; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for graph, obs in zip(stream.periods, series):
        tag = "period%02d" % graph.period_index
        nodes_path = os.path.join(out_dir, tag + "_nodes.txt")
        dist_path = os.path.join(out_dir, tag + "_distances.csv")
        obs_path = os.path.join(out_dir, tag + "_observations.csv")
        with open(nodes_path, "w") as fh:
            fh.write("\n".join(graph.nodes) + "\n")
        with open(dist_path, "w") as fh:
            for row in graph.distances:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(obs_path, "w") as fh:
            fh.write("time," + ",".join(graph.nodes) + "\n")
            for t, row in enumerate(obs.values):
                fh.write(str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n")
        entries.append({"nodes": os.path.basename(nodes_path),
                        "distances": os.path.basename(dist_path),
                        "observations": os.path.basename(obs_path)})
    manifest_path = os.path.join(out_dir, "stream.json")
    with open(manifest_path, "w") as fh:
        json.dump({"r": r, "periods": entries}, fh, indent=2)
    return manifest_path

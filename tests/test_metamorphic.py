"""Metamorphic relations of whole runs: a transformed stream gives the transformed results.

Each row of `ROWS` transforms the probe stream and names the factor by
which every MAE and RMSE must change, bit for bit.  Readings times a
power of two scale them by that power: the normalizer, the kernel's
distance scale and the metrics' error scale all divide by powers of two,
which is exact, and training runs in normalized units.  Distances times a
power of two and renamed node ids change nothing.  In every row each
period's best epoch and epoch count stay, and MAPE stays or, where the
scaled readings fall below its absolute mask, is null.
"""
import functools

import pytest

from growcast.backbone import VARIANTS
from growcast.data_pipeline import ObservationSeries, synth_stream
from growcast.engine import ExperimentConfig, run_stream
from growcast.graph_stream import PeriodGraph, StreamGraph, build_adjacency

# the stream's own kernel threshold (`synth_stream`'s default r)
R = 0.5


def scale_readings(factor):
    def transform(stream, series):
        return stream, [ObservationSeries(s.values * factor, s.period_index) for s in series]
    return transform


def scale_distances(factor):
    def transform(stream, series):
        graphs = tuple(PeriodGraph(g.period_index, g.nodes, g.distances * factor,
                                   build_adjacency(g.distances * factor, r=R))
                       for g in stream.periods)
        return StreamGraph(periods=graphs), series
    return transform


def rename_nodes(stream, series):
    # the new ids sort in the reverse order of the old ones
    names = {v: "node-%04d" % (9999 - i) for i, v in enumerate(stream.periods[-1].nodes)}
    graphs = tuple(PeriodGraph(g.period_index, tuple(names[v] for v in g.nodes),
                               g.distances, g.adjacency)
                   for g in stream.periods)
    return StreamGraph(periods=graphs), series


# row -> (transform of (stream, series), factor of every MAE and RMSE)
ROWS = {
    "readings x 2^-20": (scale_readings(2.0 ** -20), 2.0 ** -20),
    "readings x 2^3": (scale_readings(2.0 ** 3), 2.0 ** 3),
    "distances x 2^-20": (scale_distances(2.0 ** -20), 1.0),
    "distances x 2^30": (scale_distances(2.0 ** 30), 1.0),
    "node ids renamed": (rename_nodes, 1.0),
}
RUNS = [(scheme, variant) for scheme in ("EAC", "RetrainST", "ContinualNN")
        for variant in VARIANTS]


@functools.lru_cache(maxsize=None)
def probe_results(scheme, variant, row=None):
    """Per-seed results on the probe stream, transformed by `row` if given."""
    stream, series = synth_stream(8, 2, 3, 300, seed=3)
    if row is not None:
        stream, series = ROWS[row][0](stream, series)
    config = ExperimentConfig(scheme=scheme, variant=variant, d=8, k=2, epochs_max=3,
                              patience=2, seeds=(1, 2))
    return run_stream(config, stream, series)[1]


@pytest.mark.parametrize("scheme,variant", RUNS)
@pytest.mark.parametrize("row", list(ROWS))
def test_results_transform_with_the_stream(row, scheme, variant):
    factor = ROWS[row][1]
    base, got = probe_results(scheme, variant), probe_results(scheme, variant, row)
    for seed, periods in base.items():
        for want, have in zip(periods, got[seed], strict=True):
            where = "seed %d period %d" % (seed, want["period_index"])
            assert (have["epochs_run"], have["best_epoch"]) == \
                (want["epochs_run"], want["best_epoch"]), where
            for horizon, by_metric in want["metrics"].items():
                for metric in ("MAE", "RMSE"):
                    assert have["metrics"][horizon][metric] == factor * by_metric[metric], \
                        "%s horizon %s %s" % (where, horizon, metric)
                assert have["metrics"][horizon]["MAPE"] in (by_metric["MAPE"], None), \
                    "%s horizon %s MAPE" % (where, horizon)

"""The three benchmark workloads: their configs and their seeded inputs.

Every input comes from the `--seed` the benchmark is given: the in-memory
streams from `synth_stream(seed=...)`, the on-disk stream from this file's
own writer, and the model seed of the config is the same number.  All
three run the EAC scheme (period 1 trains the backbone and the pool,
later periods tune the pool only), with `patience = epochs_max - 1` so that
early stopping can never cut a period short and every seed does the same
amount of work.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

BLANK_SHARE = 0.02  # observation cells left empty in the on-disk stream


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n0: int
    growth: int
    periods: int
    T: int
    config: dict  # ExperimentConfig fields; `seeds` is set from --seed
    on_disk: bool = False
    setup_reps: int = 5  # set-ups per run; setup_s reports their median


WORKLOADS = {w.name: w for w in (
    Workload(
        name="eac-d16",
        why="acceptance shape (40->50->60 nodes, d=16, k=6) in memory: small "
            "tensors, so per-op tape overhead is a large share of a step",
        n0=40, growth=10, periods=3, T=800,
        config={"scheme": "EAC", "d": 16, "k": 6, "epochs_max": 3, "patience": 2,
                "batch_size": 128},
    ),
    Workload(
        name="eac-d64",
        why="same graph at the paper's width d=64: the temporal and graph "
            "convolution kernels dominate training",
        n0=40, growth=10, periods=3, T=300,
        config={"scheme": "EAC", "d": 64, "k": 6, "epochs_max": 2, "patience": 1,
                "batch_size": 64},
    ),
    Workload(
        name="ingest-wide-spectral",
        why="200->250->300-node stream read from CSV with blank cells, Chebyshev "
            "backbone, few-shot: ingest and forward-only passes dominate",
        n0=200, growth=50, periods=3, T=500,
        config={"scheme": "EAC", "variant": "spectral", "d": 8, "k": 6,
                "epochs_max": 2, "patience": 1, "batch_size": 128,
                "few_shot_fraction": 0.2},
        on_disk=True, setup_reps=3,
    ),
)}


def config_text(workload, seed):
    """The config as the JSON text a user would hand to `growcast run`."""
    return json.dumps(dict(workload.config, seeds=[seed]), sort_keys=True)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_stream_files(workload, seed, out_dir):
    """Write the on-disk stream as manifest CSVs; returns (manifest, digests).

    Nodes sit uniformly in the unit square.  Each reading is a shared
    diurnal wave plus a per-node offset plus Gaussian noise, and about
    `BLANK_SHARE` of the cells are left empty for the program to impute.
    """
    import numpy as np  # not at module level: setup_s times the first numpy import
    rng = np.random.default_rng([seed, 20241016])
    w = workload
    n_max = w.n0 + w.growth * (w.periods - 1)
    ids = ["w%04d" % i for i in range(n_max)]
    pos = rng.uniform(size=(n_max, 2))
    offsets = rng.standard_normal(n_max)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for tau in range(1, w.periods + 1):
        n = w.n0 + w.growth * (tau - 1)
        tag = "period%02d" % tau
        names = {"nodes": tag + "_nodes.txt", "distances": tag + "_distances.csv",
                 "observations": tag + "_observations.csv"}
        dist = np.sqrt(((pos[:n, None, :] - pos[None, :n, :]) ** 2).sum(-1))
        t = np.arange((tau - 1) * w.T, tau * w.T)
        values = (np.sin(2 * np.pi * t / 96.0)[:, None] + offsets[None, :n]
                  + 0.1 * rng.standard_normal((w.T, n)))
        blank = rng.random((w.T, n)) < BLANK_SHARE
        with open(os.path.join(out_dir, names["nodes"]), "w") as fh:
            fh.write("\n".join(ids[:n]) + "\n")
        with open(os.path.join(out_dir, names["distances"]), "w") as fh:
            for row in dist:
                fh.write(",".join("%.6f" % v for v in row) + "\n")
        with open(os.path.join(out_dir, names["observations"]), "w") as fh:
            fh.write("time," + ",".join(ids[:n]) + "\n")
            for i in range(w.T):
                cells = ("" if b else "%.5f" % v for v, b in zip(values[i], blank[i]))
                fh.write("%d,%s\n" % (t[i], ",".join(cells)))
        entries.append(names)
    manifest = os.path.join(out_dir, "stream.json")
    with open(manifest, "w") as fh:
        json.dump({"r": 0.5, "periods": entries}, fh, indent=1)
    digests = {name: file_digest(os.path.join(out_dir, name))
               for name in sorted(os.listdir(out_dir))}
    return manifest, digests


def stream_digest(stream, series):
    """SHA-256 over the arrays an in-memory stream hands the program."""
    import numpy as np
    h = hashlib.sha256()
    for graph, obs in zip(stream.periods, series):
        h.update(",".join(graph.nodes).encode())
        h.update(np.ascontiguousarray(graph.adjacency).tobytes())
        h.update(np.ascontiguousarray(obs.values).tobytes())
    return h.hexdigest()


def setup(program, workload, seed, manifest, tracer=None):
    """One set-up as a user would do it: parse the config, build the stream.

    With a tracer, the stream build is recorded as `data_pipeline.load`.
    """
    config = program.engine.ExperimentConfig.from_dict(json.loads(config_text(workload, seed)))
    dp = program.data_pipeline
    if workload.on_disk:
        build, args = dp.load_stream_manifest, (manifest,)
    else:
        build, args = dp.synth_stream, (workload.n0, workload.growth, workload.periods,
                                        workload.T, seed)
    if tracer is None:
        stream, series = build(*args)
    else:
        stream, series = tracer.call("data_pipeline.load", build, *args)
    return config, stream, series

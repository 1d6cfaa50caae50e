"""Smoke test of the benchmark harness against the current program.

perfbench/tracer.py swaps growcast attributes by name and reads their
arguments by position: `engine.forward_predict` with the inputs at
position 2, `engine.train_period`, and the nn_core primitives.  Renaming
a probed function fails the run; renaming a traced one leaves its layer
at 0, which the test reads for every traced name the harness times on
its own (an unnamed primitive's time goes to backbone.glue, so renaming
`relu` or `mean_pool_time` shows nowhere).
The harness runs from a copy beside BENCHMARK.json and a link to src/,
so its results and work files land in a temporary directory, not in
perfbench/.  A fast test pins the positions the tracer reads the probed
calls' arguments from, which the end-to-end metrics are computed with.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from growcast import engine
from growcast.data_pipeline import T_IN, Windows, build_period_dataset, synth_stream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_probed_calls_carry_what_the_tracer_reads(monkeypatch):
    # the tracer counts evaluated windows as shape[0] of forward_predict's
    # argument 2, tells training from evaluation by `train` at position 5 or
    # by keyword, and reads train_period's argument 2 and first three results
    forwards, phases = [], []
    forward_predict, train_period = engine.forward_predict, engine.train_period

    def record_forward(*args, **kwargs):
        assert len(args) > 5 or "train" in kwargs
        train = args[5] if len(args) > 5 else kwargs["train"]
        assert type(train) is bool and isinstance(args[2], np.ndarray)
        assert args[2].shape[0] == len(kwargs["starts"])
        forwards.append((train, args[2].shape))
        return forward_predict(*args, **kwargs)

    def record_train(*args, **kwargs):
        first = len(forwards)
        out = train_period(*args, **kwargs)
        phases.append((args[2], out, first, len(forwards)))
        return out

    monkeypatch.setattr(engine, "forward_predict", record_forward)
    monkeypatch.setattr(engine, "train_period", record_train)
    stream, series = synth_stream(8, 3, 3, 300, seed=2)
    config = engine.ExperimentConfig(scheme="EAC", d=8, k=3, epochs_max=3, patience=2,
                                     batch_size=64, seeds=(4,))
    _, seed_results = engine.run_stream(config, stream, series)

    assert len(phases) == len(stream.periods)
    ends = [first for _, _, first, _ in phases[1:]] + [len(forwards)]
    for (train_windows, out, first, last), end, graph, obs, result in zip(
            phases, ends, stream.periods, series, seed_results[4]):
        data = build_period_dataset(graph, obs, seed=4)
        assert isinstance(train_windows, Windows) and len(train_windows) == len(data.train)
        assert out[:3] == (result["epochs_run"], result["wall_seconds_per_epoch"],
                           result["best_epoch"])
        assert all(shape[1:] == (T_IN, graph.n, 1) for _, shape in forwards[first:end])

        def windows(calls, train):
            return sum(shape[0] for t, shape in calls if t == train)

        # training batches and validation passes, then the test split
        epochs = result["epochs_run"]
        assert windows(forwards[first:last], True) == epochs * len(data.train)
        assert windows(forwards[first:last], False) == epochs * len(data.val)
        assert forwards[last:end] and windows(forwards[last:end], False) == len(data.test)
        assert windows(forwards[last:end], True) == 0


def test_selftest_and_a_short_traced_run(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    outputs = []
    for script, *args in (["selftest.py"],
                          ["run.py", "--workload", "eac-d16", "--seed", "1", "--seconds", "1",
                           "--trace", "1"]):
        proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / script)] + args,
                              capture_output=True, text=True, cwd=tmp_path, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout.splitlines()[-1])
    assert outputs[0] == "selftest: all fixtures pass"
    result = json.loads(outputs[1])
    assert (result["correct"], result["failed"]) == (True, 0)
    unmeasured = [name for name in TRACED if not result["metrics"][name]["value"] > 0]
    assert unmeasured == []


# per-layer metrics of the attributes the tracer swaps, each nonzero in a traced EAC run
TRACED = ("backbone.tconv.fwd_s", "backbone.tconv.bwd_s", "backbone.tconv.gflop",
          "prompt_pool.product.fwd_s", "prompt_pool.concat.fwd_s", "nn_core.loss_s",
          "nn_core.backward_s", "nn_core.adam_s", "engine.evaluate_s",
          "data_pipeline.build_dataset_s", "graph_stream.operator_s", "analysis.metrics_s")

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
perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

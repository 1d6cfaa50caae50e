"""End-to-end command-line tests: exit codes, artifacts, determinism."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from growcast import nn_core as nn
from growcast.cli import main

SYNTH = "n0=5,growth=2,periods=2,T=160,seed=3"


def tiny_config(tmp_path, **overrides):
    cfg = {"scheme": "EAC", "k": 2, "d": 6, "epochs_max": 2, "patience": 1,
           "batch_size": 32, "seeds": [1]}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestRun:
    def test_synth_run_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 0
        for name in ("reports.json", "aggregate.csv", "timings.json",
                     "manifest.json", "heterogeneity.json"):
            assert (out / name).exists()
        reports = json.loads((out / "reports.json").read_text())
        assert [r["period_index"] for r in reports] == [1, 2]
        assert "wall_seconds_per_epoch" not in reports[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] is None
        assert manifest["config"]["scheme"] == "EAC"

    def test_timings_give_each_seeds_best_epoch(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, scheme="PretrainST", epochs_max=3),
                   "--synth", SYNTH, "--out", str(out), "--seeds", "1,2"])
        assert rc == 0
        timings = json.loads((out / "timings.json").read_text())
        assert [t["period_index"] for t in timings] == [1, 2]
        assert sorted(timings[0]["best_epoch"]) == ["1", "2"]
        assert all(1 <= e <= 3 and type(e) is int for e in timings[0]["best_epoch"].values())
        # PretrainST trains only in period 1
        assert timings[1]["best_epoch"] == {"1": 0, "2": 0}
        assert "best_epoch" not in (out / "reports.json").read_text()

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        cfg = tiny_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", "--config", cfg, "--synth", SYNTH,
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("reports.json", "aggregate.csv", "heterogeneity.json"):
            assert digest(outs[0] / name) == digest(outs[1] / name)
        # timing files are the one permitted difference
        assert (outs[0] / "timings.json").exists()

    def test_missing_scheme_exits_1_and_names_field(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 6}))
        rc = main(["run", "--config", str(path), "--synth", SYNTH,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "scheme" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "scheme" in manifest["error"]

    def test_unknown_config_field_exits_1(self, tmp_path):
        rc = main(["run", "--config", tiny_config(tmp_path, learning_rate=0.1),
                   "--synth", SYNTH, "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_window_length_field_exits_1(self, tmp_path):
        # window lengths are fixed at 12; t_out is not a config field
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, t_out=6),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 1
        assert "t_out" in json.loads((out / "manifest.json").read_text())["error"]

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("kernel", 0), ("batch_size", 0), ("K_order", -1),
        ("dropout_initial", 1.5), ("dropout_continual", -0.1),
        ("k", 0), ("few_shot_fraction", 0.0), ("few_shot_fraction", 1.5),
        ("lr_initial", 0), ("lr_initial", float("nan")), ("lr_continual", float("inf"))])
    def test_malformed_model_size_exits_1(self, tmp_path, field, value):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, **{field: value}),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 1
        assert field in json.loads((out / "manifest.json").read_text())["error"]

    def test_pool_rank_above_width_exits_1(self, tmp_path, capsys):
        # k <= d depends only on the config; the low-rank pool needs it
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, k=8, d=6),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 1
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert "k=8" in error and "d=6" in error and error in capsys.readouterr().err

    def test_pool_rank_above_node_count_exits_2(self, tmp_path, capsys):
        # k <= n depends on the data: the first period has 5 nodes
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, k=6, d=6),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert "k=6" in error and "n=5" in error and error in capsys.readouterr().err

    def test_full_pool_ignores_k(self, tmp_path):
        rc = main(["run", "--config", tiny_config(tmp_path, scheme="EAC_full", k=8, d=6),
                   "--synth", SYNTH, "--out", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("field, value", [
        ("variant", "mystery"), ("seeds", "ab"), ("seeds", [1.5]), ("d", "8"),
        ("d", 8.0), ("k", True), ("lr_initial", "0.1"), ("few_shot_random", 1),
        ("few_shot_fraction", "half"), ("scheme", ["EAC"])])
    def test_mistyped_or_unknown_value_exits_1(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, **{field: value}),
                   "--synth", SYNTH, "--out", str(out)])
        assert rc == 1
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert field in error and error in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path):
        rc = main(["run", "--config", tiny_config(tmp_path),
                   "--data", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("dense", [True, False])
    def test_malformed_distances_exit_2(self, tmp_path, capsys, dense):
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        dist = data_dir / "period01_distances.csv"
        if dense:
            rows = dist.read_text().splitlines()
            rows[1] = "abc" + rows[1][rows[1].index(","):]
            dist.write_text("\n".join(rows) + "\n")
        else:
            ids = (data_dir / "period01_nodes.txt").read_text().split()
            dist.write_text("".join("%s,%s,1.0\n" % (a, b) for a in ids for b in ids
                                    if a < b) + "%s,%s,xx\n" % (ids[0], ids[1]))
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--data",
                   str(data_dir / "stream.json"), "--out", str(out)])
        assert rc == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert "period01_distances.csv line" in error and error in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda m: 5, "JSON object"),
        (lambda m: dict(m, periods=3), "'periods'"),
        (lambda m: dict(m, r="abc"), "'r'"),
        (lambda m: dict(m, periods=[dict(m["periods"][0], r="abc")] + m["periods"][1:]),
         "period 1 field 'r'"),
        (lambda m: dict(m, periods=[dict(m["periods"][0], nodes=5)] + m["periods"][1:]),
         "path string 'nodes'")],
        ids=["not-an-object", "periods-not-a-list", "r-not-a-number",
             "period-r-not-a-number", "path-not-a-string"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, edit, named):
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        manifest = data_dir / "stream.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--data", str(manifest),
                   "--out", str(out)])
        assert rc == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert named in error and error in capsys.readouterr().err

    @pytest.mark.parametrize("name, row, cell", [
        ("period02_distances.csv", 1, "nan"), ("period02_distances.csv", 1, "inf"),
        ("period02_distances.csv", 1, "1e308"), ("period01_distances.csv", 2, "1e155"),
        ("period01_observations.csv", 1, "1e200"), ("period02_observations.csv", 5, "1e200")])
    def test_hostile_number_exits_2_naming_where(self, tmp_path, capsys, name, row, cell):
        # distances are squared by the kernel; observations feed the normalizer
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        path = data_dir / name
        rows = path.read_text().splitlines()
        cells = rows[row].split(",")
        cells[1] = cell
        rows[row] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--data",
                   str(data_dir / "stream.json"), "--out", str(out)])
        assert rc == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        named = name if "distances" in name else "period %s" % name[7]
        assert named in error and error in capsys.readouterr().err
        assert not (out / "reports.json").exists()

    @pytest.mark.parametrize("variant", ["spatial", "spectral"])
    def test_asymmetric_distances_exit_2_under_both_backbones(self, tmp_path, capsys,
                                                              variant):
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        path = data_dir / "period01_distances.csv"
        path.write_text(set_cell(0, 3, "0.125")(path.read_text()))
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path, variant=variant), "--data",
                   str(data_dir / "stream.json"), "--out", str(out)])
        assert rc == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert "period01_distances.csv is not symmetric" in error
        assert error in capsys.readouterr().err

    def test_metric_failure_exits_3_with_manifest(self, tmp_path, capsys, monkeypatch):
        from growcast import engine
        from growcast.analysis import AnalysisError

        def fail(pred, truth):
            raise AnalysisError("non-finite values in metric input")

        monkeypatch.setattr(engine, "metrics", fail)
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--synth", SYNTH,
                   "--out", str(out)])
        assert rc == 3
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error == "non-finite values in metric input" and error in capsys.readouterr().err

    def test_malformed_synth_number_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path),
                   "--synth", "n0=abc", "--out", str(out)])
        assert rc == 2
        assert "'n0'" in capsys.readouterr().err
        assert "'n0'" in json.loads((out / "manifest.json").read_text())["error"]

    @pytest.mark.parametrize("spec, named", [
        ("noise=nan", "noise"), ("noise=-0.1", "noise"), ("noise=inf", "noise"),
        ("offsets=nan", "offset"), ("offsets=-inf", "offset")])
    def test_non_finite_synth_value_exits_2(self, tmp_path, capsys, spec, named):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path),
                   "--synth", SYNTH + "," + spec, "--out", str(out)])
        assert rc == 2
        assert named in json.loads((out / "manifest.json").read_text())["error"]
        assert not (out / "reports.json").exists()
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "s")]) == 2
        assert named in capsys.readouterr().err

    def test_no_source_exits_2(self, tmp_path):
        rc = main(["run", "--config", tiny_config(tmp_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_seed_override(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--synth", SYNTH,
                   "--seeds", "7,8", "--out", str(out)])
        assert rc == 0
        hetero = json.loads((out / "heterogeneity.json").read_text())
        assert sorted(hetero) == ["7", "8"]

    def test_malformed_seed_list_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--synth", SYNTH,
                   "--seeds", "a,b", "--out", str(out)])
        assert rc == 1
        assert "--seeds" in capsys.readouterr().err
        assert "--seeds" in json.loads((out / "manifest.json").read_text())["error"]

    def test_inputs_not_mutated(self, tmp_path):
        cfg = tiny_config(tmp_path)
        before = digest(cfg)
        assert main(["run", "--config", cfg, "--synth", SYNTH,
                     "--out", str(tmp_path / "out")]) == 0
        assert digest(cfg) == before


def set_cell(line, col, value):
    """Edit of a CSV text: cell `col` of line `line` set to value."""
    def edit(text):
        lines = text.splitlines()
        cells = lines[line].split(",")
        cells[col] = value
        lines[line] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def swap_lines(i, j):
    def edit(text):
        lines = text.splitlines()
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines) + "\n"
    return edit


def swap_cells(line, i, j):
    def edit(text):
        lines = text.splitlines()
        cells = lines[line].split(",")
        cells[i], cells[j] = cells[j], cells[i]
        lines[line] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def repeat_line(i):
    def edit(text):
        lines = text.splitlines()
        return "\n".join(lines[:i + 1] + lines[i:]) + "\n"
    return edit


def extra_column(text):
    lines = text.splitlines()
    lines[1] += ",0"
    return "\n".join(lines) + "\n"


def truncate(text):
    return text[:len(text) // 2]


def period_two(edit):
    """Edit of the stream manifest's JSON: `edit` applied to period 2's entry."""
    def apply(text):
        manifest = json.loads(text)
        manifest["periods"][1] = edit(manifest["periods"][1])
        return json.dumps(manifest)
    return apply


def repeat_period_one(text):
    manifest = json.loads(text)
    manifest["periods"][1] = manifest["periods"][0]
    return json.dumps(manifest)


VALUES = {"nan": "nan", "inf": "inf", "-1": "-1", "1e308": "1e308", "1e200": "1e200",
          "blank": ""}
# every mutation of every file kind of period 2 of SYNTH (7 nodes, of which 2 new)
MUTATIONS = {
    "period02_nodes.txt": dict(
        {name: set_cell(6, 0, v) for name, v in VALUES.items()},
        extra_column=set_cell(6, 0, "s006,x"), asymmetric=swap_lines(0, 1),
        truncated=truncate, repeated_id=set_cell(6, 0, "s005")),
    "period02_distances.csv": dict(
        {name: set_cell(1, 2, v) for name, v in VALUES.items()},
        extra_column=extra_column, asymmetric=set_cell(1, 2, "0.125"),
        truncated=truncate, repeated_id=repeat_line(2)),
    "period02_observations.csv": dict(
        {name: set_cell(1, 2, v) for name, v in VALUES.items()},
        extra_column=extra_column, asymmetric=swap_cells(0, 1, 2),
        truncated=truncate, repeated_id=set_cell(0, 2, "s000")),
    "stream.json": dict(
        {name: period_two(lambda e, v=v: dict(e, r=float(v) if v else v))
         for name, v in VALUES.items()},
        extra_column=period_two(lambda e: dict(e, extra=0)),
        asymmetric=period_two(lambda e: dict(e, nodes=e["distances"],
                                             distances=e["nodes"])),
        truncated=truncate, repeated_id=repeat_period_one),
}
# legal inputs: a nan or blank reading is missing, -1 is a reading, swapping
# two header ids relabels two columns, and a period may add no nodes
ACCEPTED = {("period02_observations.csv", m) for m in ("nan", "-1", "blank", "asymmetric")}
ACCEPTED |= {("stream.json", "repeated_id")}


class TestHostileInputTable:
    @pytest.mark.parametrize("name, mutation", [(name, m) for name in MUTATIONS
                                                for m in MUTATIONS[name]])
    def test_each_mutation_ends_with_a_code_and_a_manifest(self, tmp_path, capsys,
                                                           name, mutation):
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        path = data_dir / name
        path.write_text(MUTATIONS[name][mutation](path.read_text()))
        out = tmp_path / "out"
        rc = main(["run", "--config", tiny_config(tmp_path), "--data",
                   str(data_dir / "stream.json"), "--out", str(out)])
        error = json.loads((out / "manifest.json").read_text())["error"]
        if (name, mutation) in ACCEPTED:
            assert (rc, error) == (0, None)
        else:
            assert rc in (1, 2) and error and error in capsys.readouterr().err
        if name == "stream.json" and mutation in ("nan", "inf", "-1", "1e308", "1e200"):
            assert "'r'" in error and "period 2" in error


class TestBlasThreads:
    def test_reports_do_not_depend_on_the_thread_count(self, tmp_path):
        # at 40 -> 60 nodes the first layer's GEMMs are large enough for
        # OpenBLAS to split them across threads; periods 2 and 3 tune the
        # pool on shared steps
        config = tiny_config(tmp_path, k=6, d=16, batch_size=128)
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / ("out" + threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            proc = subprocess.run([sys.executable, "-m", "growcast.cli", "run", "--config",
                                   config, "--synth", "n0=40,growth=10,periods=3,T=400,seed=0",
                                   "--out", str(out)], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append([(out / name).read_bytes()
                          for name in ("reports.json", "heterogeneity.json")])
        assert blobs[0] == blobs[1]


class TestSynthRoundTrip:
    def test_synth_then_run_matches_inline(self, tmp_path):
        data_dir = tmp_path / "stream"
        assert main(["synth", "--spec", SYNTH, "--out", str(data_dir)]) == 0
        manifest = data_dir / "stream.json"
        assert manifest.exists()
        cfg = tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--data", str(manifest),
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--synth", SYNTH,
                     "--out", str(out_b)]) == 0
        # the written stream reads back as the same row-major series
        for name in ("reports.json", "aggregate.csv", "heterogeneity.json"):
            assert digest(out_a / name) == digest(out_b / name)

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--spec", "bogus=1",
                     "--out", str(tmp_path / "s")]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, named", [("T=1.5", "'T'"), ("r=1.5", "threshold")])
    def test_malformed_spec_value_exits_2(self, tmp_path, capsys, spec, named):
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "s")]) == 2
        assert named in capsys.readouterr().err


class TestAnalyze:
    def write_matrix(self, tmp_path, M, name="m.txt"):
        path = tmp_path / name
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in M))
        return str(path)

    def test_hetero(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 4))
        path = self.write_matrix(tmp_path, M)
        out = tmp_path / "out"
        assert main(["analyze", "--what", "hetero", "--matrix", path,
                     "--out", str(out)]) == 0
        got = json.loads((out / "hetero.json").read_text())["D"]
        diffs = M[:, None, :] - M[None, :, :]
        want = float(np.mean(np.sum(diffs ** 2, axis=-1)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_svd_cumulative_ends_at_one(self, tmp_path):
        M = np.random.default_rng(1).standard_normal((8, 5))
        out = tmp_path / "out"
        assert main(["analyze", "--what", "svd", "--k", "2",
                     "--matrix", self.write_matrix(tmp_path, M),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "svd.json").read_text())
        assert rep["cumulative_ratio"][-1] == pytest.approx(1.0)
        assert (out / "svd.csv").exists()

    def test_prop1_requires_matrix2(self, tmp_path, capsys):
        M = np.eye(3)
        rc = main(["analyze", "--what", "prop1",
                   "--matrix", self.write_matrix(tmp_path, M),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "matrix2" in capsys.readouterr().err

    def test_prop1_decomposition(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 3))
        P = rng.standard_normal((5, 3))
        out = tmp_path / "out"
        assert main(["analyze", "--what", "prop1",
                     "--matrix", self.write_matrix(tmp_path, X, "x.txt"),
                     "--matrix2", self.write_matrix(tmp_path, P, "p.txt"),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "prop1.json").read_text())
        delta = rep["D_after"] - rep["D_before"]
        assert abs(rep["residual"]) <= 1e-9 * (1 + abs(delta))

    def test_prop2_probe(self, tmp_path):
        M = np.random.default_rng(3).standard_normal((10, 4))
        out = tmp_path / "out"
        assert main(["analyze", "--what", "prop2", "--k", "3",
                     "--trials", "20",
                     "--matrix", self.write_matrix(tmp_path, M),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "prop2.json").read_text())
        assert 0.0 <= rep["empirical_success_rate"] <= 1.0
        assert rep["spectral_obstruction"] is not None

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = main(["analyze", "--what", "hetero", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["hetero", "svd"])
    def test_non_finite_cell_exits_2(self, tmp_path, capsys, what):
        path = tmp_path / "nan.txt"
        path.write_text("1 2\n3 nan\n")
        rc = main(["analyze", "--what", what, "--matrix", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nan.txt" in capsys.readouterr().err
        assert not (tmp_path / "o" / ("%s.json" % what)).exists()

    @pytest.mark.parametrize("what, k", [("svd", "-2"), ("svd", "0"), ("prop2", "0")])
    def test_k_below_one_exits_2(self, tmp_path, capsys, what, k):
        M = np.random.default_rng(4).standard_normal((6, 4))
        out = tmp_path / "out"
        rc = main(["analyze", "--what", what, "--k", k,
                   "--matrix", self.write_matrix(tmp_path, M), "--out", str(out)])
        assert rc == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert not (out / ("%s.json" % what)).exists()

    def test_unparsable_matrix_exits_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nthree four\n")
        rc = main(["analyze", "--what", "hetero", "--matrix", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestGradcheck:
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seed_count_below_one_exits_1(self, capsys, seeds):
        assert main(["gradcheck", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds must be at least 1, got %s\n" % seeds

    def test_passes_on_small_seed_set(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "backbone_spectral:0" in out
        assert "FAIL" not in out

    def test_scaled_relu_gradient_detected(self, capsys, monkeypatch):
        # a relu whose analytic gradient is 1% too large must fail its rows
        relu = nn.relu

        def scaled_relu(record, x, p=0.0, rng=None):
            node = relu(record, x, p, rng)
            if node.grad_fn is not None:
                grad_fn = node.grad_fn
                node.grad_fn = lambda g: [1.01 * gx for gx in grad_fn(g)]
            return node

        monkeypatch.setattr(nn, "relu", scaled_relu)
        rc = main(["gradcheck", "--seeds", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "relu:0" in err and "relu_dropout:0" in err
        assert "linear:0" not in err and "temporal_conv:0" not in err

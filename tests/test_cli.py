"""End-to-end command-line tests: exit codes, artifacts, determinism."""
import hashlib
import json
import os

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
        # byte equality holds for reruns of one command but not across the
        # two data paths: equal arrays with different buffer alignment can
        # round matmul sums differently in the last ulp
        rep_a = json.loads((out_a / "reports.json").read_text())
        rep_b = json.loads((out_b / "reports.json").read_text())
        for pa, pb in zip(rep_a, rep_b):
            assert pa["tunable_param_count"] == pb["tunable_param_count"]
            for h in pa["horizons"]:
                for m in pa["horizons"][h]:
                    assert pa["horizons"][h][m]["mean"] == pytest.approx(
                        pb["horizons"][h][m]["mean"], rel=1e-9)

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

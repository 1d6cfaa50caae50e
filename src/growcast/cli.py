"""Command-line entry point: run, analyze, gradcheck, synth.

Every command is deterministic given its inputs and seed list.  Reports are
JSON plus flat CSV series; wall-clock timings go to a separate file so the
report files themselves are byte-reproducible.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import nn_core as nn
from .analysis import (
    AnalysisError,
    dispersion_decomposition,
    heterogeneity_D,
    random_projection_probe,
    svd_cumulative,
)
from .data_pipeline import DataError, load_stream_manifest, synth_stream, write_stream
from .engine import ConfigError, ExperimentConfig, TrainingAbort, run_stream
from .gradcheck import gradcheck_table
from .graph_stream import GraphStreamError
from .prompt_pool import PoolError

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_synth_spec(spec: str) -> dict:
    fields = {"n0": 40, "growth": 10, "periods": 3, "T": 2000,
              "seed": 0, "noise": 0.1, "offsets": 1.0, "r": 0.5}
    int_keys = {"n0", "growth", "periods", "T", "seed"}
    for tok in spec.split(","):
        if "=" not in tok:
            raise DataError("bad synth spec token %r" % tok)
        key, val = tok.split("=", 1)
        if key not in fields:
            raise DataError("unknown synth spec key %r" % key)
        try:
            fields[key] = int(val) if key in int_keys else float(val)
        except ValueError:
            raise DataError("bad value %r for synth spec key %r" % (val, key))
    return fields


def _build_synth(fields):
    return synth_stream(n0=fields["n0"], growth_per_period=fields["growth"],
                        periods=fields["periods"], T_per_period=fields["T"],
                        seed=fields["seed"], noise=fields["noise"],
                        offset_scale=fields["offsets"], r=fields["r"])


def cmd_run(args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"version": __version__, "inputs": {}, "error": None,
                "report_paths": [], "total_wall_seconds": None}
    t_start = time.perf_counter()
    try:
        try:
            with open(args.config) as fh:
                raw_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc))
        if args.seeds:
            try:
                raw_config["seeds"] = [int(s) for s in args.seeds.split(",")]
            except ValueError:
                raise ConfigError("--seeds must be comma-separated integers, got %r"
                                  % args.seeds)
        config = ExperimentConfig.from_dict(raw_config)
        manifest["config"] = raw_config
        manifest["inputs"][args.config] = _digest(args.config)

        if args.data:
            stream, series = load_stream_manifest(args.data)
            manifest["inputs"][args.data] = _digest(args.data)
        elif args.synth:
            fields = _parse_synth_spec(args.synth)
            manifest["synth_spec"] = fields
            stream, series = _build_synth(fields)
        else:
            raise DataError("one of --data or --synth is required")

        reports, seed_results = run_stream(config, stream, series)
    except ConfigError as exc:
        return _fail(out_dir, manifest, exc, EXIT_CONFIG)
    except (DataError, GraphStreamError, PoolError) as exc:
        return _fail(out_dir, manifest, exc, EXIT_DATA)
    except (TrainingAbort, nn.NonFiniteError, AnalysisError) as exc:
        return _fail(out_dir, manifest, exc, EXIT_NUMERIC)

    report_path = os.path.join(out_dir, "reports.json")
    _json_dump(report_path, [r.to_dict() for r in reports])
    timing_path = os.path.join(out_dir, "timings.json")
    _json_dump(timing_path, [{"period_index": r.period_index,
                              "wall_seconds_per_epoch": r.wall_seconds_per_epoch,
                              "epochs_run": r.epochs_run,
                              "best_epoch": {str(seed): results[r.period_index - 1]["best_epoch"]
                                             for seed, results in seed_results.items()}}
                             for r in reports])
    table_path = os.path.join(out_dir, "aggregate.csv")
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "horizon", "metric", "mean", "std"])
        for rep in reports:
            for h, by_metric in rep.horizons.items():
                for m, stat in by_metric.items():
                    writer.writerow([rep.period_index, h, m,
                                     stat["mean"], stat["std"]])
    hetero_series = {
        str(seed): [r["heterogeneity"] for r in results]
        for seed, results in seed_results.items()
        if any(r["heterogeneity"] for r in results)
    }
    if hetero_series:
        _json_dump(os.path.join(out_dir, "heterogeneity.json"), hetero_series)
    manifest["report_paths"] = [report_path, table_path]
    manifest["total_wall_seconds"] = time.perf_counter() - t_start
    _json_dump(os.path.join(out_dir, "manifest.json"), manifest)
    print("wrote %s" % report_path)
    return 0


def _fail(out_dir, manifest, exc, code) -> int:
    manifest["error"] = str(exc)
    try:
        _json_dump(os.path.join(out_dir, "manifest.json"), manifest)
    except OSError:
        pass
    print("error: %s" % exc, file=sys.stderr)
    return code


def _load_matrix(path) -> np.ndarray:
    try:
        rows = []
        with open(path) as fh:
            for ln in fh:
                ln = ln.strip()
                if ln:
                    rows.append([float(t) for t in ln.replace(",", " ").split()])
        matrix = np.asarray(rows, dtype=float)
    except (OSError, ValueError) as exc:
        raise DataError("cannot parse matrix file %s: %s" % (path, exc))
    if not np.isfinite(matrix).all():
        raise DataError("matrix file %s has non-finite cells" % path)
    return matrix


def cmd_analyze(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    try:
        if not args.matrix:
            print("error: --matrix required", file=sys.stderr)
            return EXIT_CONFIG
        matrix = _load_matrix(args.matrix)

        if args.what == "hetero":
            result = {"D": heterogeneity_D(matrix)}
            series = [("D", result["D"])]
        elif args.what == "svd":
            rep = svd_cumulative(matrix, k=args.k)
            result = dataclasses.asdict(rep)
            series = list(enumerate(rep.cumulative_ratio or []))
        elif args.what == "prop1":
            if not args.matrix2:
                print("error: prop1 needs --matrix2 (the additive matrix)",
                      file=sys.stderr)
                return EXIT_CONFIG
            other = _load_matrix(args.matrix2)
            rep = dispersion_decomposition(matrix, other)
            result = dataclasses.asdict(rep)
            series = list(result.items())
        else:  # prop2
            rep = random_projection_probe(matrix, k=6 if args.k is None else args.k,
                                          epsilon=args.epsilon,
                                          trials=args.trials, seed=args.seed)
            series = list(enumerate(rep.pop("errors")))
            result = rep
    except (DataError, AnalysisError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA

    _json_dump(os.path.join(args.out, "%s.json" % args.what), result)
    with open(os.path.join(args.out, "%s.csv" % args.what), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"])
        writer.writerows(series)
    print("wrote %s" % os.path.join(args.out, "%s.json" % args.what))
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        print("error: --seeds must be at least 1, got %d" % args.seeds, file=sys.stderr)
        return EXIT_CONFIG
    rows = gradcheck_table(seeds=range(args.seeds))
    failed = [r for r in rows if not r["passed"]]
    width = max(len(r["primitive"]) for r in rows)
    for r in rows:
        print("%-*s  %.3e  %s" % (width, r["primitive"], r["max_rel_err"],
                                  "pass" if r["passed"] else "FAIL"))
    if failed:
        print("gradcheck failed: %s" % ", ".join(r["primitive"] for r in failed),
              file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_synth(args) -> int:
    try:
        fields = _parse_synth_spec(args.spec)
        stream, series = _build_synth(fields)
        path = write_stream(args.out, stream, series, r=fields["r"])
    except (DataError, GraphStreamError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    print("wrote %s" % path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="growcast")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train a scheme over a stream")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--data", help="stream manifest JSON")
    p_run.add_argument("--synth", help="inline spec, e.g. n0=40,growth=10,periods=3,T=2000")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seeds", help="comma-separated seed list override")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="run a standalone analysis")
    p_an.add_argument("--what", required=True,
                      choices=("hetero", "svd", "prop1", "prop2"))
    p_an.add_argument("--matrix", help="dense matrix text file")
    p_an.add_argument("--matrix2", help="second matrix (prop1 additive term)")
    p_an.add_argument("--k", type=int, default=None)
    p_an.add_argument("--epsilon", type=float, default=0.9)
    p_an.add_argument("--trials", type=int, default=200)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_gc.add_argument("--seeds", type=int, default=20)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_sy = sub.add_parser("synth", help="emit a synthetic stream to disk")
    p_sy.add_argument("--spec", required=True)
    p_sy.add_argument("--out", required=True)
    p_sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

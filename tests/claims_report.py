"""Criterion 5's ordering and criterion 8's count on several acceptance-shaped streams.

    python tests/claims_report.py --json claims.json
    python tests/claims_report.py --streams 1,2 --extra --epochs-max 20 --json claims.json

Runs EAC, ContinualNN and PretrainST (with --extra also EAC_full and
ContinualAN) on `synth_stream(40, 10, 3, 2000, seed=s)` for each stream
seed s (default 0-4), with test_acceptance's BASE_CONFIG (model seeds 1-5)
and one BLAS thread; --epochs-max overrides its cap.  Stream 0 is the
acceptance stream.  Prints, per stream:
- criterion 5's quantity, each scheme's avg-horizon MAE averaged over
  periods, and whether EAC is at most ContinualNN's and PretrainST's;
- per period, each scheme's mean and seed std of that MAE, and each
  other scheme's margin over EAC (its mean minus EAC's) with the seed std
  of the per-seed margin;
- criterion 8's count: the seeds whose EAC dispersion D grew under
  training in the first period that tunes the pool.
--json writes the same numbers as one JSON object.  pytest does not
collect this file.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from growcast.data_pipeline import synth_stream  # noqa: E402
from growcast.engine import ExperimentConfig, run_stream  # noqa: E402
from test_acceptance import BASE_CONFIG  # noqa: E402

SCHEMES = ("EAC", "ContinualNN", "PretrainST")
EXTRA = ("EAC_full", "ContinualAN")


def avg_mae(seed_results):
    """(seeds, periods) array of each seed's avg-horizon MAE per period."""
    return np.array([[period["metrics"]["avg"]["MAE"] for period in periods]
                     for periods in seed_results.values()])


def grew(seed_results):
    """Seeds whose D grew under training in the first period that tunes the pool."""
    count = 0
    for periods in seed_results.values():
        het = [p["heterogeneity"] for p in periods if p["heterogeneity"]]
        count += bool(het) and het[0]["D_trained"] > het[0]["D_init"]
    return count


def report_stream(stream_seed, schemes, config):
    stream, series = synth_stream(n0=40, growth_per_period=10, periods=3,
                                  T_per_period=2000, seed=stream_seed)
    mae = {}
    for scheme in schemes:
        _, seed_results = run_stream(ExperimentConfig.from_dict(dict(config, scheme=scheme)),
                                     stream, series)
        mae[scheme] = avg_mae(seed_results)
        if scheme == "EAC":
            count = grew(seed_results)
    means = {scheme: float(np.mean(a.mean(axis=0))) for scheme, a in mae.items()}
    periods = []
    for tau in range(mae["EAC"].shape[1]):
        row = {"period": tau + 1}
        for scheme, a in mae.items():
            row[scheme] = {"mean": float(a[:, tau].mean()), "std": float(a[:, tau].std())}
            if scheme != "EAC":
                margin = a[:, tau] - mae["EAC"][:, tau]
                row[scheme].update(margin=float(margin.mean()), margin_std=float(margin.std()))
        periods.append(row)
    return {"stream_seed": stream_seed, "criterion_5": {
        "means": means,
        "margins": {s: means[s] - means["EAC"] for s in ("ContinualNN", "PretrainST")},
        "holds": means["EAC"] <= means["ContinualNN"] and means["EAC"] <= means["PretrainST"]},
        "periods": periods, "criterion_8_grew": count, "seeds": len(config["seeds"])}


def show(result):
    c5 = result["criterion_5"]
    print("stream %d: criterion 5 %s; %s; criterion 8: D grew in %d of %d seeds"
          % (result["stream_seed"], "holds" if c5["holds"] else "FAILS",
             ", ".join("%s %.4f" % item for item in c5["means"].items()),
             result["criterion_8_grew"], result["seeds"]))
    for row in result["periods"]:
        cells = []
        for scheme, cell in row.items():
            if scheme == "period":
                continue
            text = "%s %.4f +- %.4f" % (scheme, cell["mean"], cell["std"])
            if "margin" in cell:
                text += " (margin %+.4f +- %.4f)" % (cell["margin"], cell["margin_std"])
            cells.append(text)
        print("  period %d: %s" % (row["period"], "; ".join(cells)))


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--streams", default="0,1,2,3,4",
                        help="comma-separated stream seeds (default 0,1,2,3,4)")
    parser.add_argument("--extra", action="store_true", help="also run EAC_full and ContinualAN")
    parser.add_argument("--epochs-max", type=int, help="override BASE_CONFIG's epochs_max")
    parser.add_argument("--json", help="write the results here")
    args = parser.parse_args(argv)
    config = dict(BASE_CONFIG)
    if args.epochs_max:
        config["epochs_max"] = args.epochs_max
    schemes = SCHEMES + (EXTRA if args.extra else ())
    results = []
    for stream_seed in (int(s) for s in args.streams.split(",")):
        results.append(report_stream(stream_seed, schemes, config))
        show(results[-1])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"config": config, "streams": results}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    cli()

"""Digests of the acceptance stream's report files, and their drift from an earlier run.

    python tests/acceptance_digests.py --out DIR
    python tests/acceptance_digests.py --out DIR --parent PARENT_DIR --json drift.json
    python tests/acceptance_digests.py --out DIR --reference BENCH_29.json

Runs `growcast run` for the six schemes and for EAC on the spectral
backbone, on the acceptance stream (test_acceptance's BASE_CONFIG and
stream, seeds 1-5) with one BLAS thread, into DIR/<scheme>/.  Prints the
first 16 hex digits of the SHA-256 of each scheme's reports.json,
aggregate.csv and heterogeneity.json.  With --parent, a DIR that this
script wrote from another checkout, it also prints for each scheme the
largest relative difference of any number in reports.json and
heterogeneity.json, every epochs_run or best_epoch in timings.json
that changed, and per period the avg-horizon MAE's mean and seed std of
both runs.  --json writes the digests and the drift as one JSON
object.  With --reference, a BENCH file, it compares the digests with
that file's acceptance_stream.digests, prints each one that differs,
and exits 1 if any does.  pytest does not collect this file.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from growcast.cli import main  # noqa: E402
from test_acceptance import BASE_CONFIG  # noqa: E402

STREAM = "n0=40,growth=10,periods=3,T=2000,seed=0"
RUNS = {name: {"scheme": name} for name in
        ("EAC", "EAC_full", "PretrainST", "RetrainST", "ContinualAN", "ContinualNN")}
RUNS["EAC_spectral"] = {"scheme": "EAC", "variant": "spectral"}
FILES = ("reports.json", "aggregate.csv", "heterogeneity.json")


def run(out):
    for name, fields in RUNS.items():
        run_dir = os.path.join(out, name)
        os.makedirs(run_dir, exist_ok=True)
        config = os.path.join(run_dir, "config.json")
        with open(config, "w") as fh:
            json.dump(dict(BASE_CONFIG, **fields), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", config, "--synth", STREAM, "--out", run_dir])
        if code:
            raise SystemExit("growcast run failed for %s with exit code %d" % (name, code))


def digests(out):
    found = {}
    for name in RUNS:
        found[name] = {}
        for file in FILES:
            path = os.path.join(out, name, file)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    found[name][file] = hashlib.sha256(fh.read()).hexdigest()[:16]
            else:
                found[name][file] = "absent"
    return found


def numbers(value, where=""):
    """(path, number) for every number in a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numbers(item, "%s/%s" % (where, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numbers(item, "%s/%d" % (where, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where, float(value)


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def drift(out, parent):
    """Per scheme: the largest relative difference and the changed epoch counts."""
    table = {}
    for name in RUNS:
        worst, at = 0.0, None
        for file in ("reports.json", "heterogeneity.json"):
            got, want = (load(os.path.join(d, name, file)) for d in (out, parent))
            if (got is None) != (want is None):
                raise SystemExit("%s/%s exists in one run only" % (name, file))
            if got is None:
                continue
            got, want = dict(numbers(got)), dict(numbers(want))
            if got.keys() != want.keys():
                raise SystemExit("%s/%s holds other fields than the parent's" % (name, file))
            for key, b in want.items():
                a = got[key]
                rel = abs(a - b) / abs(b) if b else abs(a)
                if rel > worst:
                    worst, at = rel, file + key
        changed = []
        got, want = (load(os.path.join(d, name, "timings.json")) for d in (out, parent))
        for now, before in zip(got, want):
            period = before["period_index"]
            if now["epochs_run"] != before["epochs_run"]:
                changed.append("period %d epochs_run %s -> %s"
                               % (period, before["epochs_run"], now["epochs_run"]))
            for seed, epoch in before["best_epoch"].items():
                if now["best_epoch"][seed] != epoch:
                    changed.append("period %d seed %s best_epoch %s -> %s"
                                   % (period, seed, epoch, now["best_epoch"][seed]))
        periods = []
        for now, before in zip(*(load(os.path.join(d, name, "reports.json"))
                                 for d in (out, parent))):
            periods.append({"period": before["period_index"],
                            **{side: report["horizons"]["avg"]["MAE"]
                               for side, report in (("parent", before), ("change", now))}})
        table[name] = {"max_rel_diff": worst, "at": at, "epochs_changed": changed,
                       "avg_MAE": periods}
    return table


def mismatches(found, path):
    """'scheme file digest != reference' for each digest that differs from the BENCH file's."""
    with open(path) as fh:
        reference = json.load(fh).get("acceptance_stream", {}).get("digests")
    if reference is None:
        raise SystemExit("%s has no acceptance_stream.digests" % path)
    if reference.keys() != found.keys():
        raise SystemExit("%s holds digests of other runs: %s" % (path, sorted(reference)))
    return ["%s %s %s != %s" % (name, file, digest, reference[name].get(file))
            for name, files in found.items() for file, digest in files.items()
            if digest != reference[name].get(file)]


def cli(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="directory for this checkout's runs")
    parser.add_argument("--parent", help="a directory this script wrote from another checkout")
    parser.add_argument("--json", help="write the digests (and drift) here")
    parser.add_argument("--reference", help="a BENCH_N.json whose acceptance digests must match")
    args = parser.parse_args(argv)
    run(args.out)
    result = {"digests": digests(args.out)}
    for name, found in result["digests"].items():
        print("%-13s %s" % (name, "  ".join("%s %s" % item for item in found.items())))
    if args.parent:
        result["drift"] = drift(args.out, args.parent)
        for name, row in result["drift"].items():
            print("%-13s max rel diff %.3g at %s; epochs changed: %s"
                  % (name, row["max_rel_diff"], row["at"], row["epochs_changed"] or "none"))
            for cell in row["avg_MAE"]:
                print("%-13s period %d avg MAE %.4f +- %.4f -> %.4f +- %.4f"
                      % ((name, cell["period"]) + tuple(cell[side][stat] for side in
                         ("parent", "change") for stat in ("mean", "std"))))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    if args.reference:
        differ = mismatches(result["digests"], args.reference)
        for line in differ:
            print("differs from %s: %s" % (args.reference, line))
        if differ:
            raise SystemExit(1)
        print("all %d digests equal %s" % (sum(map(len, result["digests"].values())),
                                           args.reference))


if __name__ == "__main__":
    cli()

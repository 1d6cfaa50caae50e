"""Training-phase seconds of two checkouts, alternating in one process.

    python tests/phase_ab.py --parent PARENT_ROOT --workload eac-d64
    python tests/phase_ab.py --parent A --change B --workload eac-d16 --reps 20 --seeds 7,8

Imports PARENT_ROOT/src/growcast and CHANGE_ROOT/src/growcast (default:
this checkout) under two package names, growcast_parent and
growcast_change, and builds the workload's stream and config for each
with perfbench/workloads.py of the change checkout, which it only reads.
After one warm-up call per side, it alternates warm `engine.run_stream`
calls, the parent first in even repetitions and the change first in odd
ones, each on the next seed of --seeds.  Each call's wall seconds are
split by its `engine.train_period` calls: the first trains period 1, the
later ones tune the pool (the EAC scheme of every workload).  Prints the
median and quartiles of each phase per side, the change/parent ratio of
the medians, the repetitions the change won, and whether every per-seed
MAE of every period and horizon is bit-equal between the sides.  One
BLAS thread.  pytest does not collect this file.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PHASES = ("wall_s", "period1_s", "pool_tune_s")


def load_module(name, path, package_dir=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [package_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_program(side, root):
    """The checkout's growcast as package growcast_<side>, in the shape workloads.setup takes."""
    src = os.path.join(root, "src", "growcast")
    name = "growcast_" + side
    load_module(name, os.path.join(src, "__init__.py"), src)
    return types.SimpleNamespace(**{m: importlib.import_module("%s.%s" % (name, m))
                                    for m in ("engine", "data_pipeline")})


def timed_run(program, config, stream, series):
    """(phase seconds, per-seed MAEs) of one run_stream call."""
    engine = program.engine
    train_period, spans = engine.train_period, []

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return train_period(*args, **kwargs)
        finally:
            spans.append(time.perf_counter() - t0)

    gc.collect()
    engine.train_period = wrapper
    try:
        t0 = time.perf_counter()
        _, seed_results = engine.run_stream(config, stream, series)
        wall = time.perf_counter() - t0
    finally:
        engine.train_period = train_period
    maes = [(seed, p["period_index"], h, m["MAE"]) for seed, periods in seed_results.items()
            for p in periods for h, m in p["metrics"].items()]
    return {"wall_s": wall, "period1_s": spans[0], "pool_tune_s": sum(spans[1:])}, maes


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", default=ROOT, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--reps", type=int, default=20, help="timed calls per side")
    ap.add_argument("--seeds", default="7", help="comma-separated seeds, used in turn")
    args = ap.parse_args(argv)

    workloads = load_module("phase_ab_workloads",
                            os.path.join(args.change, "perfbench", "workloads.py"))
    wl = workloads.WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    programs = {side: load_program(side, root)
                for side, root in zip(SIDES, (args.parent, args.change))}
    times = {side: {phase: [] for phase in PHASES} for side in SIDES}
    differ = set()
    with tempfile.TemporaryDirectory() as work:
        inputs = {}
        for seed in seeds:
            manifest = None
            if wl.on_disk:
                manifest, _ = workloads.write_stream_files(wl, seed, os.path.join(work, str(seed)))
            inputs[seed] = {side: workloads.setup(programs[side], wl, seed, manifest)
                            for side in SIDES}
        for side in SIDES:  # warm-up, not timed
            timed_run(programs[side], *inputs[seeds[0]][side])
        for rep in range(args.reps):
            seed = seeds[rep % len(seeds)]
            maes = {}
            for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
                phases, maes[side] = timed_run(programs[side], *inputs[seed][side])
                for phase in PHASES:
                    times[side][phase].append(phases[phase])
            differ.update(a[:3] for a, b in zip(maes["parent"], maes["change"])
                          if a[:3] != b[:3] or float(a[3]).hex() != float(b[3]).hex())

    print("%s, %d alternating repetitions per side, seeds %s" % (wl.name, args.reps, args.seeds))
    print("%-12s %-28s %-28s %-8s %s" % ("phase", "parent median [q1, q3]",
                                         "change median [q1, q3]", "ratio", "change wins"))
    for phase in PHASES:
        p, c = times["parent"][phase], times["change"][phase]
        wins = sum(b < a for a, b in zip(p, c))
        (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
        print("%-12s %.4f [%.4f, %.4f]     %.4f [%.4f, %.4f]     %.3f    %d/%d"
              % (phase, p2, p1, p3, c2, c1, c3, c2 / p2, wins, len(p)))
    if differ:
        print("per-seed MAE differs in %d (seed, period, horizon) cells, e.g. %s"
              % (len(differ), sorted(differ)[:3]))
    else:
        print("per-seed MAE: bit-equal in every seed, period and horizon")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

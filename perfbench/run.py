"""growcast benchmark: one workload per fresh process, or all of them.

    python3 perfbench/run.py --workload eac-d16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload eac-d16 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload, both modes

Each run is one batch job: a closed loop with one client that calls
`run_stream` once after another on inputs made from `--seed`, for
`--seconds`, and reports medians over those repetitions.  With `--trace 0`
it prints the end-to-end metrics of BENCHMARK.json, with `--trace 1` the
per-layer ones.  The last line of standard output is the result as JSON;
the full record (machine, inputs, work counts, per-repetition figures and,
when traced, every span) goes to perfbench/results/.
"""
import os

# One process, one BLAS thread: the machine has few cores and is shared,
# and a single thread keeps run-to-run spread low.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import selftest
import stats
from tracer import Tracer
from workloads import WORKLOADS, setup, stream_digest, write_stream_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


class HarnessError(RuntimeError):
    """The benchmark cannot run here (missing program or spec)."""


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "growcast", "__init__.py")):
        raise HarnessError("no growcast sources under %s" % src)
    sys.path.insert(0, src)
    names = ("engine", "nn_core", "backbone", "data_pipeline", "graph_stream",
             "prompt_pool", "analysis")
    mods = {n: importlib.import_module("growcast." + n) for n in names}
    where = os.path.dirname(mods["engine"].__file__)
    if os.path.realpath(where) != os.path.realpath(os.path.join(src, "growcast")):
        raise HarnessError("imported growcast from %s, not from this checkout" % where)
    return types.SimpleNamespace(**mods)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError("cannot read %s: %s" % (path, exc))
    return spec


# -- machine and code identity ---------------------------------------------

def blas_threads(np):
    """Threads the bundled OpenBLAS uses, asked of the library itself."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the enclosing git checkout, read from .git; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over src/growcast/*.py, names and contents: the code measured."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "growcast", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- one repetition ----------------------------------------------------------

def run_once(program, config, stream, series, full):
    """One run_stream call under a tracer; returns the tracer and its outputs."""
    gc.collect()
    tracer = Tracer(program, full=full)
    with tracer.installed():
        if any(m.endswith((".train_period", ".forward_predict")) for m in tracer.missing):
            raise HarnessError("cannot probe %s" % tracer.missing)
        t0 = time.perf_counter()
        _, seed_results = tracer.call("engine.run_stream", program.engine.run_stream,
                                      config, stream, series)
        wall = time.perf_counter() - t0
    (periods,) = seed_results.values()
    return tracer, periods, wall


def end_to_end(tracer, periods, wall):
    calls = tracer.train_calls
    return {
        "run_wall_s": wall,
        # EAC: period 1 trains the backbone, later periods only the pool.
        "full_train_windows_per_s": stats.windows_per_second([c[:3] for c in calls[:1]]),
        "pool_tune_windows_per_s": stats.windows_per_second([c[:3] for c in calls[1:]]),
        "eval_windows_per_s": tracer.eval_windows / tracer.eval_seconds,
        "test_mae": sum(p["metrics"]["avg"]["MAE"] for p in periods) / len(periods),
    }


def work_counts(tracer):
    counts = {
        "train_windows": sum(w * e for w, e, _, _ in tracer.train_calls),
        "epochs_per_period": [e for _, e, _, _ in tracer.train_calls],
        "forward_calls": tracer.forward_calls,
        "eval_windows": tracer.eval_windows,
    }
    if tracer.full:
        counts.update({
            "optimizer_steps": tracer.totals()["nn_core.adam"].count,
            "tape_nodes": tracer.tape_nodes,
            "tconv_flop": tracer.flops["tconv"],
            "gconv_flop": tracer.flops["gconv"],
            "dataset_windows": tracer.dataset_windows,
        })
    return counts


def per_layer(tracer, periods, wall):
    """Per-layer figures of one traced repetition, seconds per run_stream."""
    t = tracer.totals()
    m = {}
    for layer in ("input_proj", "gconv1", "tconv", "gconv2", "head", "glue"):
        m["backbone.%s.fwd_s" % layer] = t["backbone.%s.fwd" % layer].dur
        m["backbone.%s.bwd_s" % layer] = t["backbone.%s.bwd" % layer].dur
    # forward_predict's own code (leaves, checks, the final transpose) is glue
    m["backbone.glue.fwd_s"] += t["backbone.forward_predict"].own
    m["backbone.tconv.gflop"] = tracer.flops["tconv"] / 1e9
    m["backbone.gconv.gflop"] = tracer.flops["gconv"] / 1e9
    m["backbone.forward_calls"] = tracer.forward_calls
    for part in ("product", "concat"):
        m["prompt_pool.%s.fwd_s" % part] = t["prompt_pool.%s.fwd" % part].dur
        m["prompt_pool.%s.bwd_s" % part] = t["prompt_pool.%s.bwd" % part].dur
    m["prompt_pool.tunable_params"] = periods[-1]["tunable_param_count"]
    m["nn_core.loss_s"] = t["nn_core.loss.fwd"].dur + t["nn_core.loss.bwd"].dur
    m["nn_core.backward_s"] = t["nn_core.backward"].dur
    m["nn_core.backward_self_s"] = t["nn_core.backward"].own
    m["nn_core.tape_nodes_per_step"] = tracer.tape_nodes / t["nn_core.backward"].count
    m["nn_core.adam_s"] = t["nn_core.adam"].dur
    m["nn_core.adam_steps"] = t["nn_core.adam"].count
    m["engine.train_windows"] = sum(w * e for w, e, _, _ in tracer.train_calls)
    m["engine.validation_s"] = tracer.eval_seconds_under("engine.train_period")
    m["engine.evaluate_s"] = tracer.eval_seconds_under("engine.evaluate_period")
    m["engine.self_s"] = sum(t[n].own for n in ("engine.run_stream", "engine.train_period",
                                                 "engine.evaluate_period"))
    epochs = sum(e for _, e, _, _ in tracer.train_calls)
    m["engine.epochs_run"] = epochs
    m["engine.useful_epoch_ratio"] = sum(b for _, _, _, b in tracer.train_calls) / epochs
    m["data_pipeline.build_dataset_s"] = t["data_pipeline.build_dataset"].dur
    m["data_pipeline.windows"] = tracer.dataset_windows
    m["graph_stream.operator_s"] = t["graph_stream.operator"].dur
    m["analysis.heterogeneity_s"] = t["analysis.heterogeneity"].dur
    m["analysis.metrics_s"] = t["analysis.metrics"].dur
    m["trace.unattributed_share"] = t["engine.run_stream"].own / wall
    return m


def setup_layers(tracer, on_disk):
    t = tracer.totals()
    load = t["data_pipeline.load"].dur
    return {
        "data_pipeline.load_s": load,
        # An in-memory stream is synthesized, not ingested: its ingest is the
        # whole synth_stream call.
        "data_pipeline.ingest_s": t["data_pipeline.ingest"].dur if on_disk else load,
        "graph_stream.adjacency_s": t["graph_stream.adjacency"].dur,
    }


def check_rep(periods, e2e):
    """Output checks of one repetition; returns a list of failures."""
    bad = []
    hashes = {p["backbone_hash"] for p in periods}
    if len(hashes) != 1:
        bad.append("EAC backbone changed across periods (%d hashes)" % len(hashes))
    for p in periods:
        if p["epochs_run"] < 1:
            bad.append("period %d trained %r epochs" % (p["period_index"], p["epochs_run"]))
        for h, ms in p["metrics"].items():
            for key in ("MAE", "RMSE", "MAPE"):
                v = ms[key]
                if (v is None and key != "MAPE") or (v is not None and not math.isfinite(v)):
                    bad.append("period %d horizon %s %s = %r" % (p["period_index"], h, key, v))
    bad += ["%s = %r" % (k, v) for k, v in e2e.items() if not math.isfinite(v) or v <= 0]
    return bad


# -- one workload run ------------------------------------------------------

def measure(args, spec):
    """Run one workload for --seconds; returns (result line, full record)."""
    failures = selftest.run_all()
    t0 = time.perf_counter()  # nothing has loaded numpy yet
    try:
        program = load_program()
    except ImportError as exc:
        raise HarnessError("cannot import growcast: %s" % exc)
    import_s = time.perf_counter() - t0
    import numpy as np

    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(np),
              "config": dict(wl.config, seeds=[args.seed])}
    work_dir = os.path.join(HERE, ".work", "%s-seed%d-pid%d" % (wl.name, args.seed, os.getpid()))
    try:
        manifest, digests = None, {}
        if wl.on_disk:
            manifest, digests = write_stream_files(wl, args.seed, work_dir)
        setup_times = []
        for _ in range(wl.setup_reps):
            stream = series = None  # free the previous stream first
            gc.collect()
            t0 = time.perf_counter()
            config, stream, series = setup(program, wl, args.seed, manifest)
            setup_times.append(time.perf_counter() - t0)
        if not wl.on_disk:
            digests = {"synth_stream arrays": stream_digest(stream, series)}
        record["inputs_sha256"] = digests
        record["setup"] = {"import_s": import_s, "stream_s": setup_times}
        layers = {}
        if args.trace:
            setup_tracer = Tracer(program, full=True)
            with setup_tracer.installed():
                config, stream, series = setup(program, wl, args.seed, manifest, setup_tracer)
            layers.update(setup_layers(setup_tracer, wl.on_disk))

        reps = []
        attempted = failed = 0
        # The first run_stream of a process is the slowest (its arrays touch
        # fresh pages), so a warm-up repetition goes first: it is checked but
        # left out of every median, and --seconds starts after it.  A traced
        # run then makes exactly two traced repetitions, so its pooled step
        # times have a fixed count, between untraced ones for the overhead
        # ratio.  Untraced repetitions fill the rest of the time.
        first = ("warmup",) + (("probe", "full", "full", "probe") if args.trace
                               else ("probe", "probe"))
        last_wall = 0.0
        deadline = None
        spans_out = []
        while True:
            kind = first[attempted] if attempted < len(first) else "probe"
            # start another repetition only if it would end by half of one past the deadline
            if attempted >= len(first) and time.perf_counter() + last_wall / 2 > deadline:
                break
            attempted += 1
            try:
                tracer, periods, wall = run_once(program, config, stream, series,
                                                 full=kind == "full")
                e2e = end_to_end(tracer, periods, wall)
                rep = {"kind": kind, "e2e": e2e, "counts": work_counts(tracer),
                       "checks": check_rep(periods, e2e)}
                if kind == "full":
                    rep["layers"] = per_layer(tracer, periods, wall)
                    rep["steps_ms"] = tracer.steps_ms
                    spans_out.append(tracer.spans)
            except Exception:
                failed += 1
                failures.append("repetition %d raised:\n%s" % (attempted, traceback.format_exc()))
                break
            last_wall = wall
            if deadline is None:
                deadline = time.perf_counter() + args.seconds
            if rep["checks"]:
                failed += 1
                failures += rep["checks"]
            reps.append(rep)

        failures += run_checks(reps)
        probe = [r for r in reps if r["kind"] == "probe"]
        full = [r for r in reps if r["kind"] == "full"]
        values = {}
        if probe:
            values = {k: statistics.median([r["e2e"][k] for r in probe]) for k in probe[0]["e2e"]}
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if full and probe:
            for key in full[0]["layers"]:
                layers[key] = statistics.median([r["layers"][key] for r in full])
            steps = [t for r in full for t in r["steps_ms"]]
            pct, tail, n = stats.tail_percentile(steps)
            layers.update({"engine.train_step_samples": n,
                           "engine.train_step_ms_p50": stats.nearest_rank(sorted(steps), 50),
                           "engine.train_step_ms_tail": tail,
                           "engine.train_step_tail_pct": pct})
            layers["trace.overhead_ratio"] = (
                statistics.median([r["e2e"]["run_wall_s"] for r in full])
                / statistics.median([r["e2e"]["run_wall_s"] for r in probe]))
        produced = layers if args.trace else values
        metrics = {}
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            if m["name"] in produced:
                metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
            else:
                failures.append("metric %s was not measured" % m["name"])
        record.update({"repetitions": reps, "failures": failures,
                       "counts": (full or probe or [{"counts": None}])[0]["counts"],
                       "end_to_end": values, "per_layer": layers})
        if spans_out:
            write_spans(wl.name, args.seed, spans_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {"correct": not failures and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def run_checks(reps):
    """Checks across repetitions: identical work and bit-identical test MAE."""
    bad = []
    maes = {r["e2e"]["test_mae"].hex() for r in reps}
    if len(maes) > 1:
        bad.append("test_mae differs between repetitions: %s" % sorted(maes))
    untraced = [r["counts"] for r in reps if r["kind"] != "full"]
    traced = [r["counts"] for r in reps if r["kind"] == "full"]
    for group in (untraced, traced):
        for c in group[1:]:
            if c != group[0]:
                bad.append("repetitions did different work: %s vs %s" % (group[0], c))
    if untraced and traced and any(untraced[0][k] != traced[0][k] for k in untraced[0]):
        bad.append("traced and untraced repetitions did different work")
    return bad


def write_spans(workload, seed, spans_per_rep):
    """Every span of the traced repetitions, one CSV row each."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-spans.csv" % (workload, seed))
    with open(path, "w") as fh:
        fh.write("rep,index,parent,name,start_s,end_s\n")
        for rep, spans in enumerate(spans_per_rep):
            t0 = spans[0][2]
            for i, (name, parent, start, end, _) in enumerate(spans):
                fh.write("%d,%d,%s,%s,%.9f,%.9f\n" % (rep, i, "" if parent is None else parent,
                                                       name, start - t0, end - t0))


# -- every workload ---------------------------------------------------------

def run_suite(args, spec):
    """Each workload untraced then traced, each in a fresh process."""
    rows, suite = [], {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise HarnessError("%s --trace %d exited %d" % (name, trace, proc.returncode))
            result = json.loads(lines[-1])
            suite["%s/trace%d" % (name, trace)] = result
            ok = ok and result["correct"]
            for metric, v in result["metrics"].items():
                rows.append((name, metric, v["value"], v["unit"]))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print("%-22s %-*s %14.6g %s" % (name, width, metric, value, unit))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "suite-seed%d.json" % args.seed)
    with open(path, "w") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload is None:
            return run_suite(args, spec)
        result, record = measure(args, spec)
    except HarnessError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in record["failures"]:
        print("FAILED CHECK: %s" % failure, file=sys.stderr)
    print("machine: %s" % json.dumps(record["machine"], sort_keys=True))
    print("inputs: %s" % json.dumps(record["inputs_sha256"], sort_keys=True))
    print("work counts: %s" % json.dumps(record["counts"], sort_keys=True))
    for name, m in result["metrics"].items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

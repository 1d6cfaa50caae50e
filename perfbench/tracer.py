"""Spans around calls into growcast, recorded from the benchmark's own files.

The program is not changed: `Tracer.installed()` swaps module attributes
for timing wrappers and puts the originals back on exit.  The engine and
the backbone look these names up at call time (`nn.linear`,
`engine.train_period`, ...), so the wrappers see every call.

Two levels:

* probe (`full=False`): only `engine.train_period` and
  `engine.forward_predict` are wrapped, a few hundred calls per run.  This
  is what the end-to-end metrics are measured with: the train windows and
  the engine's own per-epoch wall time per period, and the seconds spent
  forward-passing windows without gradients.
* full (`full=True`): every primitive of `nn_core` plus the public entry
  points of the other layers.  A primitive's forward is a span around the
  call; its backward is a span around the `grad_fn` of the node it
  returned.  A primitive's layer follows from its call order inside
  `forward_predict` (first `linear` is `input_proj`, later ones `head`;
  first graph conv is `gconv1`, the second `gconv2`); a `linear` outside
  `forward_predict` is the prompt-pool product.
"""
from __future__ import annotations

import collections
import contextlib
import math
import time

import stats

perf_counter = time.perf_counter

GLUE = ("relu", "dropout", "add", "mean_pool_time")
Total = collections.namedtuple("Total", "count dur own")
GCONV = ("graph_conv_spatial", "graph_conv_cheb")


def _shape(x):
    value = getattr(x, "value", x)
    return tuple(getattr(value, "shape", ()))


def _needs_grad(x):
    return bool(getattr(x, "needs_grad", False))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def conv_flops(prim, args, kwargs):
    """Forward flops of one graph or temporal conv, and per-input backward flops.

    Counts the matrix products only, two flops per multiply-add.  The
    second value lists (input, flops of its gradient), so that only the
    gradients the tape actually takes are counted.
    """
    if prim == "temporal_conv":
        x, W = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "W")
        xs = _shape(x)
        k, d_in, d_out = _shape(W)
        f = 2 * math.prod(xs[:-1]) * k * d_in * d_out
        return f, [(x, f), (W, f)]
    h = _arg(args, kwargs, 2, "h")
    hs = _shape(h)
    rows, n, d_in = math.prod(hs[:-1]), hs[-2], hs[-1]  # rows: batch x time x nodes
    if prim == "graph_conv_spatial":
        W = _arg(args, kwargs, 3, "W")
        prop = 2 * rows * n * d_in
        mix = 2 * rows * d_in * _shape(W)[1]
        return prop + mix, [(h, prop + mix), (W, mix)]
    basis, thetas = _arg(args, kwargs, 1, "cheb_basis"), _arg(args, kwargs, 3, "thetas")
    prop = len(basis) * 2 * rows * n * d_in
    return prop, [(h, prop), (thetas, len(basis) * 2 * rows * d_in)]


class Tracer:
    """Records spans and work counts for one run_stream (one repetition)."""

    def __init__(self, program, full):
        self.program = program
        self.full = full
        self.spans = []  # [name, parent index or None, start, end, attrs]
        self.stack = []
        self.missing = []
        # forward_predict bookkeeping
        self._fp = None
        self.forward_calls = 0
        self.eval_windows = 0
        self.eval_seconds = 0.0
        # per train_period call: (train windows, epochs_run, s/epoch, best_epoch)
        self.train_calls = []
        # full level only
        self.flops = {"tconv": 0, "gconv": 0}
        self.tape_nodes = 0
        self.dataset_windows = 0
        self.steps_ms = []
        self._step_start = None

    # -- span recording ---------------------------------------------------

    def _open(self, name, attrs=None):
        parent = self.stack[-1] if self.stack else None
        rec = [name, parent, 0.0, 0.0, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        # A train step runs from the first call the engine makes for a batch
        # to the end of its Adam update.
        if (self.full and self._step_start is None and parent is not None
                and self.spans[parent][0] == "engine.train_period"):
            self._step_start = rec[2]
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(rec, args, kwargs, out)
            return out
        return wrapper

    def _timed_grad(self, node, name, flops=None):
        grad_fn = node.grad_fn

        def timed(g):
            rec = self._open(name)
            try:
                return grad_fn(g)
            finally:
                self._close(rec)
                if flops is not None:
                    kind, amount = flops
                    self.flops[kind] += amount

        node.grad_fn = timed

    # -- wrappers -----------------------------------------------------------

    def _after_train_period(self, rec, args, kwargs, out):
        train = _arg(args, kwargs, 2, "train_samples")
        epochs_run, seconds_per_epoch, best_epoch = out[:3]
        self.train_calls.append((len(train), epochs_run, seconds_per_epoch, best_epoch))

    def _forward_predict(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            train = bool(_arg(args, kwargs, 5, "train"))
            saved = tracer._fp
            tracer._fp = {"linear": 0, "gconv": 0}
            rec = tracer._open("backbone.forward_predict", {"train": train})
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                tracer._fp = saved
            tracer.forward_calls += 1
            if not train:
                tracer.eval_windows += _shape(_arg(args, kwargs, 2, "inputs"))[0]
                tracer.eval_seconds += rec[3] - rec[2]
                if tracer.full and rec[1] is not None \
                        and tracer.spans[rec[1]][0] == "engine.train_period":
                    tracer._step_start = None  # a validation batch, not a step
            if tracer.full:
                pred = out[0]
                if getattr(pred, "grad_fn", None) is not None:
                    tracer._timed_grad(pred, "backbone.glue.bwd")
            return out
        return wrapper

    def _layer(self, prim):
        fp = self._fp
        if fp is None:
            return {"linear": "prompt_pool.product", "concat_rows": "prompt_pool.concat",
                    "mse_loss": "nn_core.loss"}.get(prim, "other." + prim)
        if prim == "linear":
            fp["linear"] += 1
            return "backbone.input_proj" if fp["linear"] == 1 else "backbone.head"
        if prim in GCONV:
            fp["gconv"] += 1
            return "backbone.gconv1" if fp["gconv"] == 1 else "backbone.gconv2"
        if prim == "temporal_conv":
            return "backbone.tconv"
        return "backbone.glue"

    def _primitive(self, prim, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            layer = tracer._layer(prim)
            conv = None
            if prim == "temporal_conv" or prim in GCONV:
                conv = conv_flops(prim, args, kwargs)
                tracer.flops["tconv" if prim == "temporal_conv" else "gconv"] += conv[0]
            rec = tracer._open(layer + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if getattr(out, "grad_fn", None) is not None \
                    and not any(out is a for a in args):
                flops = None
                if conv is not None:
                    back = sum(f for x, f in conv[1] if _needs_grad(x))
                    flops = ("tconv" if prim == "temporal_conv" else "gconv", back)
                tracer._timed_grad(out, layer + ".bwd", flops)
            return out
        return wrapper

    def _after_backward(self, rec, args, kwargs, out):
        self.tape_nodes += len(_arg(args, kwargs, 0, "record").nodes)

    def _after_build_dataset(self, rec, args, kwargs, out):
        self.dataset_windows += len(out.train) + len(out.val) + len(out.test)

    def _after_adam(self, rec, args, kwargs, out):
        if self._step_start is not None:
            self.steps_ms.append((rec[3] - self._step_start) * 1e3)
        self._step_start = None

    def _patches(self):
        p = self.program
        yield p.engine, "train_period", lambda f: self._timed(
            "engine.train_period", f, after=self._after_train_period)
        yield p.engine, "forward_predict", self._forward_predict
        if not self.full:
            return
        for prim in ("linear", "concat_rows", "temporal_conv", "mse_loss") + GLUE + GCONV:
            yield p.nn_core, prim, lambda f, prim=prim: self._primitive(prim, f)
        yield p.nn_core, "backward", lambda f: self._timed(
            "nn_core.backward", f, after=self._after_backward)
        yield p.nn_core, "adam_step", lambda f: self._timed(
            "nn_core.adam", f, after=self._after_adam)
        yield p.engine, "build_period_dataset", lambda f: self._timed(
            "data_pipeline.build_dataset", f, after=self._after_build_dataset)
        for attr, name in (("evaluate_period", "engine.evaluate_period"),
                           ("graph_operator", "graph_stream.operator"),
                           ("heterogeneity_D", "analysis.heterogeneity"),
                           ("metrics", "analysis.metrics")):
            yield p.engine, attr, lambda f, name=name: self._timed(name, f)
        for attr, name in (("build_adjacency", "graph_stream.adjacency"),
                           ("ingest_period", "data_pipeline.ingest")):
            yield p.data_pipeline, attr, lambda f, name=name: self._timed(name, f)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, make in self._patches():
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append("%s.%s" % (module.__name__, attr))
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """{span name: Total(count, summed duration, summed self time)}; zeros if absent."""
        selfs = stats.self_times([(s[1], s[2], s[3]) for s in self.spans])
        out = collections.defaultdict(lambda: Total(0, 0.0, 0.0))
        for span, own in zip(self.spans, selfs):
            t = out[span[0]]
            out[span[0]] = Total(t.count + 1, t.dur + span[3] - span[2], t.own + own)
        return out

    def eval_seconds_under(self, parent_name):
        return sum(s[3] - s[2] for s in self.spans
                   if s[0] == "backbone.forward_predict" and not s[4]["train"]
                   and s[1] is not None and self.spans[s[1]][0] == parent_name)

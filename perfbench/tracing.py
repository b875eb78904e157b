"""Span tracer for the benchmark's traced pass.

`Tracer.install()` replaces the public entry points of each spectral_attn
layer (numerics, spectral, attention, models, data, analysis) with wrappers
that record one span per call; `uninstall()` puts the original objects back,
so untraced passes run the unmodified program. No file under `src/` knows
about the tracer.

A span holds a name, start, end, parent span and the id of the benchmark
operation (train run, forecast call, analysis, set-up) it belongs to. Spans
live in parallel in-memory arrays and are written out once, at the end.
Backward time is attributed per primitive by wrapping `GradientTape.record`:
each recorded vjp is timed under the primitive that recorded it.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "relu", "gelu", "softmax_rows",
    "layer_norm", "conv2d", "transpose", "reshape", "tile_planes",
    "concat_rows", "mean_all", "dropout",
)


def _rows(args, kwargs, result):
    return args[0].shape[0]


def _count(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _window_loss_name(args, kwargs):
    return "models.window_loss.train" if kwargs.get("training") else "models.window_loss.eval"


# (module, attribute or Class.method, span name, counter name, counter function).
# A callable span name picks the name per call.
ENTRY_POINTS = tuple(
    [("numerics", op, f"numerics.{op}", None, None) for op in PRIMITIVES]
    + [
        ("numerics", "backward", "numerics.backward", None, None),
        ("numerics", "Adam.step", "numerics.adam_step", None, None),
        ("numerics", "svd_singular_values", "numerics.svd", None, None),
        ("spectral", "amplitude_matrix", "spectral.amplitude_matrix",
         "spectral.amplitude_rows", _rows),
        ("attention", "ConventionalAttention.forward", "attention.forward", None, None),
        ("attention", "SpectrumAttention.forward", "attention.forward", None, None),
        ("attention", "hcc", "attention.hcc", None, None),
        ("models", "ForecastModel.forward_window", "models.forward_window", None, None),
        ("models", "ForecastModel.window_loss", _window_loss_name, None, None),
        ("models", "EncoderLayer.forward", "models.encoder_layer", None, None),
        ("models", "instance_normalize", "models.instance_normalize", None, None),
        ("models", "patchify", "models.patchify", None, None),
        ("models", "train", "models.train", None, None),
        ("models", "forecast", "models.forecast", None, None),
        ("models", "save_checkpoint", "models.checkpoint_save",
         "models.checkpoint_bytes", _file_bytes),
        ("models", "load_checkpoint", "models.checkpoint_load", None, None),
        ("data", "synth_multisine", "data.synth", None, None),
        ("data", "save_csv", "data.save_csv", None, None),
        ("data", "load_csv", "data.load_csv", None, None),
        ("data", "split", "data.split", None, None),
        ("data", "windows", "data.windows", "data.windows_count", _count),
        ("analysis", "attention_report", "analysis.report", None, None),
        ("analysis", "average_attention", "analysis.average_attention", None, None),
        ("analysis", "numerical_rank", "analysis.numerical_rank", None, None),
        ("analysis", "condition_number", "analysis.condition_number", None, None),
    ]
)

TAPE_RECORDS = "numerics.tape_records"


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spectral_attn" or name.startswith("spectral_attn."))
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = defaultdict(float)  # (counter name, op id) -> total
        self._patches = []                  # (owner, attribute, original)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.start)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, counter=None, count_fn=None):
        tracer = self
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(fixed if fixed is not None else tracer.name_id(name(args, kwargs)))
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                tracer.counters[(counter, tracer.op_id)] += count_fn(args, kwargs, result)
            return result

        return traced

    def _wrap_record(self, original):
        """Time each recorded vjp under the primitive whose span is open."""
        tracer = self
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        counters = self.counters
        backward_ids = {
            self.name_id(f"numerics.{op}"): self.name_id(f"numerics.{op}.bwd")
            for op in PRIMITIVES
        }

        def timed(vjp, nid):
            def timed_vjp(g):
                sid = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(tracer.op_id)
                ends.append(0.0)
                stack.append(sid)
                starts.append(clock())
                try:
                    return vjp(g)
                finally:
                    ends[sid] = clock()
                    stack.pop()
            return timed_vjp

        @functools.wraps(original)
        def record(tape, out, inputs, vjp):
            top = stack[-1]
            counters[(TAPE_RECORDS, tracer.op_id)] += 1
            nid = backward_ids.get(names[top]) if top >= 0 else None
            if nid is not None:
                vjp = timed(vjp, nid)
            return original(tape, out, inputs, vjp)

        return record

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every entry point, in its defining module and wherever it was imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for original, sites, span, counter, count_fn in list(_entry_points()):
            wrapper = self._wrap(original, span, counter, count_fn)
            for owner, attribute in sites:
                self._patch(owner, attribute, wrapper)
        tape = _tape_class()
        self._patch(tape, "record", self._wrap_record(vars(tape)["record"]))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def totals(self, ops=None):
        """Per span name: {"calls", "total_s", "self_s"}, optionally only over some op ids.

        A span's self time is its duration minus the time its child spans cover.
        """
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered
        if ops is not None:
            keep = np.isin(np.array(self.op, dtype=np.int64), np.fromiter(ops, dtype=np.int64))
            name, duration, self_time = name[keep], duration[keep], self_time[keep]
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=duration, minlength=size)
        own = np.bincount(name, weights=self_time, minlength=size)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def counter(self, name, ops=None):
        return sum(v for (n, op), v in self.counters.items()
                   if n == name and (ops is None or op in ops))

    def write_spans(self, path, origin):
        """One CSV row per span: id, parent, op, name, start and end in seconds from `origin`."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "op", "name", "start_s", "end_s"))
            names = self.names
            for sid in range(len(self)):
                writer.writerow((
                    sid, self.parent[sid], self.op[sid], names[self.name[sid]],
                    "%.9f" % (self.start[sid] - origin), "%.9f" % (self.end[sid] - origin),
                ))


def _tape_class():
    return sys.modules["spectral_attn.numerics"].GradientTape


def _entry_points():
    """Per entry point: (current object, [(owner, attribute), ...], span name,
    counter, count function). The sites are its class, or every module of
    the package that holds the function under some name."""
    import spectral_attn  # noqa: F401  (loads every layer module)

    package = sys.modules["spectral_attn"]
    modules = _package_modules()
    for module_name, attribute, span, counter, count_fn in ENTRY_POINTS:
        home = getattr(package, module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            yield vars(cls)[method], [(cls, method)], span, counter, count_fn
            continue
        target = getattr(home, attribute)
        sites = [(module, key) for module in modules
                 for key, value in vars(module).items() if value is target]
        yield target, sites, span, counter, count_fn


def entry_point_objects():
    """Every (owner, attribute) the tracer patches, mapped to the object it holds now."""
    found = {site: current for current, sites, *_ in _entry_points() for site in sites}
    tape = _tape_class()
    found[(tape, "record")] = vars(tape)["record"]
    return found

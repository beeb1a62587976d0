"""Spans and counters around gazekit's public calls, installed from outside.

The tracer replaces public functions in the namespaces that call them
(``gazekit.train.backward``, ``gazekit.layers.conv2d``, ...) and swaps the
class of each top-level module of a model for a subclass whose ``__call__``
records a span. Everything is restored on leaving :meth:`Tracer.installed`,
so untraced and traced segments can share one process.

Per-step values go to a record: one record per training step (closed by the
optimizer step) and one per evaluation batch (one predictor call). Backward
time is attributed per tape entry: each entry's backward function is wrapped
to stamp its start, and an entry owns the time until the next entry starts,
which includes the gradient accumulation the replay does for it.
"""

from __future__ import annotations

import os
import statistics
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

from gazekit import layers, netpbm, synth, tensor, train

# GazeNet attribute -> metric prefix, in forward order
MODULES = {
    "eye_encoder": "model.eye_encoder",
    "face_encoder": "model.face_encoder",
    "splitter": "model.mask_split",
    "kept_attention": "attention.kept_cascade",
    "dropped_attention": "attention.dropped_cascade",
    "eye_decoder": "model.eye_decoder",
    "region_decoder": "model.region_decoder",
    "pose_branch": "model.pose_branch",
    "gaze_head": "model.gaze_head",
}
CONV_GROUPS = ("conv_strided", "conv_head3x3", "conv_spatial7x7", "conv_pointwise", "conv_transpose")
LOSS_FUNCTIONS = ("eye_recon_loss", "region_recon_loss", "gaze_loss", "total_loss")
MB = 1e6


def conv_group(layer) -> str:
    """Name the group a conv-like layer's timings are summed into."""
    if isinstance(layer, layers.ConvTranspose2d):
        return "conv_transpose"
    kernel, stride = layer.kernel, layer.stride
    if kernel == (1, 1):
        return "conv_pointwise"
    if kernel == (7, 7):
        return "conv_spatial7x7"
    if kernel == (3, 3):
        return "conv_head3x3" if stride == (1, 1) else "conv_strided"
    raise ValueError(f"no conv group for kernel {kernel} stride {stride}")


def held_mb(entries) -> float:
    """Bytes of the op outputs a tape holds, each underlying buffer once."""
    buffers = {}
    for _, out, _ in entries:
        arr = out.data
        while isinstance(arr.base, type(arr)):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    return sum(buffers.values()) / MB


class StepRecord:
    __slots__ = ("values", "ranges", "convs")

    def __init__(self):
        self.values = defaultdict(float)  # seconds for times, plain counts otherwise
        self.ranges = []  # (first tape index, end index, metric prefix) per traced call
        self.convs = {}  # tape index -> conv group


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, parent index or -1, start s, end s]
        self._stack = []
        self.records = {"train": [], "eval": []}
        self.calls = defaultdict(list)  # per-call values, for metrics that are not per step
        self._train = None
        self._eval = None
        self._tapes = []  # weak references to earlier steps' tapes
        self._patches = []

    # -- spans and records --------------------------------------------------

    def _begin(self, name: str) -> int:
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx: int) -> float:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        return span[3] - span[2]

    def _record(self):
        return self._eval if self._eval is not None else self._train

    def _add(self, key: str, value: float) -> None:
        rec = self._record()
        if rec is not None:
            rec.values[key] += value

    def _open_train(self) -> None:
        self._tapes = [r for r in self._tapes if r() is not None]
        self._train = StepRecord()
        self._train.values["tensor.tapes_alive"] = len(self._tapes)

    def _close_train(self) -> None:
        self.records["train"].append(self._train)
        self._open_train()

    # -- installation -------------------------------------------------------

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    @contextmanager
    def installed(self, model=None, optimizer=None):
        """Trace gazekit's public calls, and ``model`` and ``optimizer`` if given."""
        self._install_functions()
        if model is not None:
            self._install_model(model)
        if optimizer is not None:
            self._install_optimizer(optimizer)
        try:
            yield self
        finally:
            for obj, attr, old in reversed(self._patches):
                setattr(obj, attr, old)
            self._patches.clear()

    def _timed_call(self, obj, attr: str, metric: str, per_item=None, after=None) -> None:
        """Replace obj.attr by a version that appends its ms (per item) to ``metric``."""
        orig = getattr(obj, attr)
        span = f"{obj.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            idx = self._begin(span)
            out = orig(*args, **kwargs)
            seconds = self._end(idx)
            n = per_item(args, out) if per_item else 1
            self.calls[metric].append(1000.0 * seconds / n)
            if after:
                after(args)
            return out

        self._patch(obj, attr, traced)

    def _install_functions(self) -> None:
        self._timed_call(synth, "make_sample", "synth.render_ms_per_sample")
        self._timed_call(synth, "dump_split", "synth.dump_split_ms_per_sample", per_item=lambda a, out: len(a[1]))
        self._timed_call(synth, "load_split", "synth.load_split_ms_per_sample", per_item=lambda a, out: len(out))
        self._timed_call(netpbm, "write_ppm", "netpbm.write_ppm_ms")
        self._timed_call(netpbm, "read_ppm", "netpbm.read_ppm_ms")
        self._timed_call(
            train, "save_checkpoint", "model.checkpoint.save_ms",
            after=lambda a: self.calls["model.checkpoint.mb"].append(os.path.getsize(a[0]) / MB),
        )
        self._timed_call(train, "load_checkpoint", "model.checkpoint.load_ms")
        for name in LOSS_FUNCTIONS:
            self._patch(train, name, self._taped(getattr(train, name), "losses"))
        self._patch(train, "batch_tensors", self._per_step(train.batch_tensors, "train.batch"))
        self._patch(train, "backward", self._backward(train.backward))
        self._patch(train, "train_loop", self._train_loop(train.train_loop))
        self._patch(train, "model_predictor", self._model_predictor(train.model_predictor))
        self._patch(layers, "conv2d", self._conv(layers.conv2d))
        self._patch(layers, "conv_transpose2d", self._conv(layers.conv_transpose2d))

    def _install_model(self, model) -> None:
        for attr, prefix in MODULES.items():
            module = getattr(model, attr)
            cls = type(module)
            sub = type(cls.__name__, (cls,), {"__call__": self._taped(cls.__call__, prefix)})
            self._patch(module, "__class__", sub)
        cls = type(model)
        forward = self._per_step(cls.forward, "model.forward")
        self._patch(model, "__class__", type(cls.__name__, (cls,), {"forward": forward, "__call__": forward}))

    def _install_optimizer(self, optimizer) -> None:
        step = optimizer.step

        def traced(lr):
            idx = self._begin("train.optimizer")
            step(lr)
            self._add("train.optimizer_ms", self._end(idx))
            self._close_train()

        self._patch(optimizer, "step", traced)

    # -- wrappers -----------------------------------------------------------

    def _per_step(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            out = fn(*args, **kwargs)
            self._add(name + "_ms", self._end(idx))
            return out

        return traced

    def _taped(self, fn, prefix: str):
        """Span + the tape entries the call recorded, labelled for backward."""

        def traced(*args, **kwargs):
            tape = tensor.Tape._active
            first = len(tape.entries) if tape is not None else 0
            idx = self._begin(prefix)
            out = fn(*args, **kwargs)
            self._add(prefix + ".fwd_ms", self._end(idx))
            rec = self._record()
            if tape is not None and rec is not None:
                end = len(tape.entries)
                rec.values[prefix + ".tape_entries"] += end - first
                rec.ranges.append((first, end, prefix))
            return out

        return traced

    def _conv(self, fn):
        def traced(layer, x):
            group = conv_group(layer)
            tape = tensor.Tape._active
            idx = self._begin("layers." + group)
            out = fn(layer, x)
            self._add(f"layers.{group}.fwd_ms", self._end(idx))
            self._add(f"layers.{group}.calls", 1)
            rec = self._record()
            if tape is not None and rec is not None and tape.entries and tape.entries[-1][1] is out:
                rec.convs[len(tape.entries) - 1] = group
            return out

        return traced

    def _backward(self, fn):
        def traced(loss):
            rec = self._train
            tape = loss._tape
            entries = tape.entries
            n = len(entries)
            rec.values["tensor.tape_entries"] = n
            rec.values["tensor.tape_mb"] = held_mb(entries)
            self._tapes.append(weakref.ref(tape))
            label = [None] * n
            for first, end, prefix in rec.ranges:
                label[first:end] = [prefix] * (end - first)
            starts = [None] * n
            ends = [None] * n
            for i, (inputs, out, back) in enumerate(entries):
                entries[i] = (inputs, out, _stamped(back, i, starts, ends))
            idx = self._begin("tensor.backward")
            fn(loss)
            rec.values["tensor.backward_ms"] += self._end(idx)
            replayed = [i for i in range(n - 1, -1, -1) if starts[i] is not None]
            for k, i in enumerate(replayed):
                until = starts[replayed[k + 1]] if k + 1 < len(replayed) else ends[i]
                if label[i] is not None:
                    rec.values[label[i] + ".bwd_ms"] += until - starts[i]
                group = rec.convs.get(i)
                if group is not None:
                    rec.values[f"layers.{group}.bwd_ms"] += until - starts[i]

        return traced

    def _train_loop(self, fn):
        def traced(*args, **kwargs):
            self._open_train()
            idx = self._begin("train.train_loop")
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
                self._train = None  # the step left open after the last update is not a step

        return traced

    def _model_predictor(self, fn):
        def traced_factory(model):
            predict = fn(model)

            def traced(face, eye_l, eye_r):
                self._eval = StepRecord()
                idx = self._begin("train.predict")
                out = predict(face, eye_l, eye_r)
                self._eval.values["train.predict_ms"] = self._end(idx)
                self.records["eval"].append(self._eval)
                self._eval = None
                return out

            return traced

        return traced_factory

    # -- results ------------------------------------------------------------

    def per_layer(self, overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics, as medians over training steps, except for the
        predictor and I/O calls. The first training step of the trace is
        dropped as warm-up."""
        steps = self.records["train"][1:]
        if not steps or not self.records["eval"]:
            raise RuntimeError("the trace holds no training steps or no predictor calls")

        def med(recs, key, scale=1.0):
            return scale * statistics.median(r.values.get(key, 0.0) for r in recs)

        out = {}
        for prefix in MODULES.values():
            out[prefix + ".fwd_ms"] = med(steps, prefix + ".fwd_ms", 1e3)
            out[prefix + ".bwd_ms"] = med(steps, prefix + ".bwd_ms", 1e3)
            out[prefix + ".tape_entries"] = med(steps, prefix + ".tape_entries")
        for group in CONV_GROUPS:
            out[f"layers.{group}.fwd_ms"] = med(steps, f"layers.{group}.fwd_ms", 1e3)
            out[f"layers.{group}.bwd_ms"] = med(steps, f"layers.{group}.bwd_ms", 1e3)
            out[f"layers.{group}.calls"] = med(steps, f"layers.{group}.calls")
        out["model.forward_ms"] = med(steps, "model.forward_ms", 1e3)
        out["losses.fwd_ms"] = med(steps, "losses.fwd_ms", 1e3)
        out["losses.bwd_ms"] = med(steps, "losses.bwd_ms", 1e3)
        out["tensor.tape_entries"] = med(steps, "tensor.tape_entries")
        out["tensor.tape_mb"] = med(steps, "tensor.tape_mb")
        out["tensor.tapes_alive_max"] = float(max(r.values["tensor.tapes_alive"] for r in steps))
        out["tensor.backward_ms"] = med(steps, "tensor.backward_ms", 1e3)
        out["train.optimizer_ms"] = med(steps, "train.optimizer_ms", 1e3)
        out["train.batch_ms"] = med(steps, "train.batch_ms", 1e3)
        out["train.predict_ms_per_batch"] = med(self.records["eval"], "train.predict_ms", 1e3)
        for key in (
            "synth.render_ms_per_sample",
            "synth.dump_split_ms_per_sample",
            "synth.load_split_ms_per_sample",
            "netpbm.write_ppm_ms",
            "netpbm.read_ppm_ms",
            "model.checkpoint.save_ms",
            "model.checkpoint.load_ms",
            "model.checkpoint.mb",
        ):
            if not self.calls[key]:
                raise RuntimeError(f"the trace made no call for {key}")
            out[key] = statistics.median(self.calls[key])
        fwd_cover = [
            sum(r.values[p + ".fwd_ms"] for p in MODULES.values()) / r.values["model.forward_ms"] for r in steps
        ]
        bwd_cover = [
            sum(r.values[p + ".bwd_ms"] for p in (*MODULES.values(), "losses")) / r.values["tensor.backward_ms"]
            for r in steps
        ]
        out["trace.fwd_coverage_pct"] = 100.0 * statistics.median(fwd_cover)
        out["trace.bwd_coverage_pct"] = 100.0 * statistics.median(bwd_cover)
        out["trace.overhead_pct"] = overhead_pct
        return out

    def spans_json(self) -> list:
        """Spans as [name, parent index, start ms, duration ms] from tracer start."""
        return [
            [name, parent, round(1e3 * (start - self.t0), 4), round(1e3 * (end - start), 4)]
            for name, parent, start, end in self.spans
        ]


def _stamped(back, i, starts, ends):
    def stamped(g):
        starts[i] = time.perf_counter()
        out = back(g)
        ends[i] = time.perf_counter()
        return out

    return stamped

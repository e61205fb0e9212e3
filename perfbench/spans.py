"""In-memory span tracer that times rescale_lab's public functions from outside.

Nothing in the library is edited.  While a :class:`Tracer` is installed,
every module-level name that refers to one of the functions in
:data:`TRACED` is replaced by a timing wrapper.  The name is replaced in
every module that holds it, not only where the function is defined:
``cli`` and ``trainer`` call ``evaluate_int`` through their own imported
name, and ``errmodel`` calls ``layer_forward_int`` the same way, so wrapping
only ``kernels`` would miss those calls.

Each call records a span (name, start, end, parent) in a list.  Self time
is a span's duration minus the durations of its child spans; the program is
single-threaded, so children never overlap and the self times of a span
tree add up to its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# Public functions timed, by the module that defines them.
TRACED = {
    "datagen": ("generate_dataset", "load_dataset", "render_digits"),
    "floatnet": ("forward", "forward_intermediates", "conv2d_real",
                 "depthwise_real", "avgpool_real", "load_float_model"),
    "trainer": ("train_float", "float_accuracy", "finetune", "init_shadow",
                "emulated_forward", "ste_backward", "softmax_cross_entropy",
                "weight_change_stats"),
    "model_io": ("quantize_float_model", "materialize_rescalers",
                 "validate_model", "redeploy_weights", "model_to_bytes",
                 "save_idx_images", "save_idx_labels",
                 "load_idx_dataset"),
    "qcore": ("quantize_rescaler",),
    "kernels": ("evaluate_int", "predict_int", "run_model_int",
                "layer_forward_int", "conv2d_int", "depthwise_conv2d_int",
                "dense_int", "rescale_accumulator", "compute_effective_bias",
                "quantize_real"),
    "errmodel": ("model_error_report", "layer_error_report"),
    "cli": ("run_sweep",),
}

LAYER_FORWARD = "kernels.layer_forward_int"
_MAC_KERNELS = ("kernels.conv2d_int", "kernels.depthwise_conv2d_int",
                "kernels.dense_int")
_BYTE_KERNELS = _MAC_KERNELS + ("kernels.rescale_accumulator",)


def _operand_bytes(values) -> int:
    """Bytes of the array operands; a QTensor counts its int8 data."""
    total = 0
    for value in values:
        if not isinstance(value, np.ndarray):
            value = getattr(value, "data", None)
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``spans`` holds ``[name, start, end, parent]`` lists in call order;
    ``counts`` holds the event counters recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.bindings: set[str] = set()
        self._stack: list[int] = []
        self._last_child: dict[int, tuple[str, int]] = {}
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        # Both callers of layer_forward_int (run_model_int and
        # errmodel.layer_error_report) walk the layers from index 0 with
        # no other traced call in between, so a layer's index is its
        # position in the run of consecutive layer_forward_int siblings.
        last = self._last_child.get(parent)
        if name == LAYER_FORWARD:
            position = last[1] + 1 if last and last[0] == name else 0
            self.spans[idx].append(f"kernels.L{position}")
            self._last_child[parent] = (name, position)
        else:
            self._last_child[parent] = (name, 0)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._last_child.pop(idx, None)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; a no-op while disabled."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, via: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count_call(name, via, args, result)
            return result

        return wrapper

    def _count_call(self, name: str, via: str, args, result) -> None:
        if name == LAYER_FORWARD and via == "errmodel":
            self.count("errmodel.upstream_layer_calls")
        elif name in _MAC_KERNELS:
            # Products per output element = weight elements per channel.
            weights = args[1].data
            self.count("kernels.macs",
                       result.size * (weights.size // result.shape[-1]))
        elif name == "datagen.render_digits":
            self.count("datagen.images", len(args[0]))
        elif name == "trainer.ste_backward":
            self.count("trainer.steps")
        if name in _BYTE_KERNELS:
            self.count("kernels.bytes_computed",
                       _operand_bytes(args) + result.nbytes)

    @contextmanager
    def installed(self):
        """Replace every binding of the traced functions and record spans
        until exit, then restore the original bindings."""
        modules = {m: importlib.import_module(f"rescale_lab.{m}") for m in TRACED}
        originals = {}
        for mod_name, names in TRACED.items():
            for fn_name in names:
                originals[id(getattr(modules[mod_name], fn_name))] = (
                    f"{mod_name}.{fn_name}")
        patched = []
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                setattr(module, attr, self._wrap(value, name, mod_name))
                patched.append((module, attr, value))
                self.bindings.add(f"{mod_name}.{attr} -> {name}")
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        ``kernels.L<i>`` entries carry the inclusive time of
        ``layer_forward_int`` by layer index.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent, *tag) in enumerate(self.spans):
            duration = end - start
            keys = [name] + tag
            for key in keys:
                entry = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["s"] += duration
                entry["self_s"] += duration - child_time[idx]
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write the spans, one JSON array per line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": self.counts,
                                 "bindings": sorted(self.bindings),
                                 "fields": ["name", "start", "end", "parent"]})
                     + "\n")
            for name, start, end, parent, *_ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

"""Spans around calls into the public functions of each cascade_synth module.

``install`` replaces every listed function, in every loaded cascade_synth
module that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and op id.  Because calls inside the package go
through the same module globals, nesting is real: ``passive_realize`` opens
``decompose_cascade``, which opens ``is_cascade_realizable``.  Spans stay in
memory until ``summary`` and ``write`` are called at the end of the run.
The untraced runs never call ``install``, so they time the package as is.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer -> (spans, which end-to-end metric the layer should move, on which workload)
LAYERS = {
    "model": (
        ("build_state_space", "drift_matrix", "is_passive", "to_passive_form", "from_passive_form"),
        "ops_per_s on batch-small; latency_p50_s on large-n",
    ),
    "passive": (
        ("passive_realize", "mode_matrix", "schur_lower", "build_symplectic"),
        "latency_p50_s on large-n",
    ),
    "realizability": (
        ("is_cascade_realizable", "decompose_cascade"),
        "latency_p50_s on large-n; nothing on cli-cold",
    ),
    "composition": (
        ("cascade", "residual_interaction", "one_mode_stages"),
        "latency_p50_s on large-n",
    ),
    "verification": (
        ("certify_equivalence", "certify_symplectic", "ccr_preservation", "transfer_function"),
        "latency_p50_s on large-n; ops_per_s on batch-small",
    ),
    "documents": (
        ("SystemDocument.dumps", "SystemDocument.loads", "RealizationDocument.dumps", "RealizationDocument.loads"),
        "latency_p50_s on large-n and cli-cold",
    ),
    "cli": (("main",), "latency_p50_s on cli-cold; setup_s everywhere"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, (names, _) in LAYERS.items() for name in names)
COUNTERS = ("documents.bytes_written", "documents.bytes_read")


class Tracer:
    """In-memory span recorder.  ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op))
            if counter is not None:
                key, text = counter(args, result)
                self.counters[key] += len(text.encode())
            return result

        return traced

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self):
        """Patch every listed function at every module that imports it.

        The patch list is found once, on the unpatched package; ``install``
        and ``uninstall`` then only swap references, so a run can alternate
        traced and untraced ops cheaply.
        """
        if not self._patches:
            self._patches = self._find_patches()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_patches(self) -> list:
        importlib.import_module("cascade_synth.cli")
        modules = [m for key, m in sys.modules.items() if key == "cascade_synth" or key.startswith("cascade_synth.")]
        patches = []
        for layer, (names, _) in LAYERS.items():
            home = sys.modules[f"cascade_synth.{layer}"]
            for name in names:
                if "." in name:
                    patches.append(self._method_patch(layer, home, name))
                    continue
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            patches.append((module, attr, original, wrapped))
        return patches

    def _method_patch(self, layer, home, dotted):
        cls_name, method = dotted.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[method]
        key = "documents.bytes_written" if method == "dumps" else "documents.bytes_read"
        if isinstance(raw, classmethod):  # loads(cls, text)
            replacement = classmethod(self.wrap(f"{layer}.{dotted}", raw.__func__, lambda args, _: (key, args[1])))
        else:  # dumps(self) -> text
            replacement = self.wrap(f"{layer}.{dotted}", raw, lambda _, result: (key, result))
        return cls, method, raw, replacement

    def summary(self, ops: int) -> dict:
        """Per span name: calls, total_s and self_s, each divided by ``ops``.

        Self time is a span's duration minus the durations of its direct
        children, which nest strictly inside it.
        """
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for span_id, name, start, end, _, _ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(span_id, 0.0)
        per_op = max(ops, 1)
        return {
            name: {"calls": c / per_op, "total_s": t / per_op, "self_s": s / per_op}
            for name, (c, t, s) in totals.items()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

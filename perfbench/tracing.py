"""Per-layer spans around qrakit's public functions, installed from outside.

The tracer replaces each public function of a layer by a wrapper that
records a span (layer, start, end, parent span). It replaces the function
under every name a qrakit module holds it by, so calls through imported
names (``engine.group``, ``engine.cv_star_pipeline``, the ``t_quantile``
that ``stdev_ci95`` looks up) are traced too. ``uninstall`` puts every
original back. Spans stay in memory until ``take`` folds them into
per-layer totals; a layer's self time is its spans' duration minus the
time of their direct children.
"""
from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> (module, attribute) of each public function it covers;
# "Class.method" names a method of a model class.
LAYERS = {
    "cli.main": (("qrakit.cli", "main"),),
    "io.load": (("qrakit.io", "load_dataset"), ("qrakit.io", "bundled_paper_dataset")),
    "io.validate": (("qrakit.io", "validate_dataset"),),
    "io.save": (("qrakit.io", "save_dataset"),),
    "model.pairs": (("qrakit.model", "QraDataset.pairs"),),
    "model.group": (("qrakit.model", "group"),),
    "model.lookup": (("qrakit.model", "QraDataset.object_by_id"),
                     ("qrakit.model", "QraDataset.measurand_by_id")),
    "engine.assess": (("qrakit.engine", "run_qra_test"), ("qrakit.engine", "subgroup_assess")),
    "engine.condition_diff": (("qrakit.engine", "condition_diff"),),
    "precision.pipeline": (("qrakit.precision", "cv_star_pipeline"),),
    "precision.t_quantile": (("qrakit.precision", "t_quantile"),),
    "render": (("qrakit.render", "render_precision_table"),
               ("qrakit.render", "render_condition_matrix")),
    "sim.simulate": (("qrakit.sim", "simulate"),),
}

# span fields
_LAYER, _START, _END, _PARENT, _BYTES, _SCANNED, _RETURNED = range(7)


class _CountedRows(tuple):
    """A dataset's measurements that count the rows handed to each scan.

    A scan counts the whole tuple when iteration starts; indexing and
    ``len`` are not counted.
    """

    def __iter__(self):
        self.tracer.scanned += len(self)
        return tuple.__iter__(self)


class Tracer:
    def __init__(self):
        self.spans = []
        self.scanned = 0
        self.missing = set()
        self._open = []
        self._patched = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0, self.scanned, 0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if layer == "io.load":
                self.count_scans(result)
            elif layer == "model.group":
                span[_SCANNED] = self.scanned - span[_SCANNED]
                span[_RETURNED] = len(result)
            elif layer == "render":
                span[_BYTES] = len(result.encode("utf-8"))
            return result

        return traced

    def count_scans(self, dataset):
        """Make scans of ``dataset.measurements`` count toward ``scanned``."""
        rows = _CountedRows(dataset.measurements)
        rows.tracer = self
        object.__setattr__(dataset, "measurements", rows)

    def install(self):
        """Wrap every LAYERS function; qrakit must already be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qrakit" or name.startswith("qrakit.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                owner_name, _, attr = attr.rpartition(".")
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, original))

    def uninstall(self):
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    @contextmanager
    def installed(self, *datasets):
        """Trace while the block runs; ``datasets`` (already loaded) also
        count their scans and get their plain measurements back after."""
        plain = [d.measurements for d in datasets]
        for d in datasets:
            self.count_scans(d)
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            for d, rows in zip(datasets, plain):
                object.__setattr__(d, "measurements", rows)

    def take(self):
        """Per-layer totals of the spans recorded so far; clears them."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        totals = {}
        for span, child_s in zip(self.spans, child):
            t = totals.setdefault(span[_LAYER], dict.fromkeys(
                ("self_s", "calls", "bytes", "scanned", "returned"), 0))
            t["self_s"] += span[_END] - span[_START] - child_s
            t["calls"] += 1
            t["bytes"] += span[_BYTES]
            t["scanned"] += span[_SCANNED]
            t["returned"] += span[_RETURNED]
        self.spans.clear()
        return totals


def merge(into, totals):
    """Add one op's per-layer totals to a running sum."""
    for layer, t in totals.items():
        acc = into.setdefault(layer, dict.fromkeys(t, 0))
        for key, value in t.items():
            acc[key] += value


def layer_metrics(totals, ops):
    """The per-op layer metrics of BENCHMARK.json from summed totals; a
    layer that did not run reads 0."""
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0) / ops

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (get(layer, "self_s") * 1000.0, "ms")
    for layer in ("io.load", "io.validate", "model.group", "model.lookup",
                  "engine.assess", "precision.t_quantile"):
        metrics[f"{layer}.calls"] = (get(layer, "calls"), "count")
    returned = get("model.group", "returned")
    metrics["model.group.rows_scanned_per_row_returned"] = (
        get("model.group", "scanned") / returned if returned else 0.0, "ratio")
    metrics["render.bytes"] = (get("render", "bytes"), "bytes")
    return metrics

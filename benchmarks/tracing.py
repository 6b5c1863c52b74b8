"""Per-layer tracing of pmx from outside the package.

``Tracer.install`` replaces every public function of the seven pmx modules
with a wrapper that records a span (name, start, end, parent span, operation
number) while the tracer is active.  A function is replaced at every binding
through which pmx or its users reach it, e.g. ``pmx.process_space.coefficient_tensor``
as well as ``pmx.hs_algebra.coefficient_tensor``, so calls across modules are
seen.  The dense LAPACK entry points pmx uses form one more layer, ``linalg``.
No file of pmx changes; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "operator_core",
    "hs_algebra",
    "process_space",
    "supermaps",
    "rigidity",
    "extremality",
    "cli",
)

LINALG = (
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "svd"),
    ("scipy.sparse.linalg", "eigsh"),
    ("scipy.linalg", "expm"),
)

# span name -> metric category; a span without one inherits the category of
# its parent when both sit in the same layer (helpers of a categorized call)
CATEGORY = {
    "hs_algebra.coefficient_tensor": "hs_algebra.decompose",
    "hs_algebra.batch_coefficient_tensors": "hs_algebra.decompose",
    "hs_algebra.hs_decompose": "hs_algebra.decompose",
    "hs_algebra.from_coefficient_tensor": "hs_algebra.recompose",
    "hs_algebra.batch_from_coefficient_tensors": "hs_algebra.recompose",
    "hs_algebra.hs_recompose": "hs_algebra.recompose",
    "supermaps.validate_supermap": "supermaps.validate",
    "supermaps.apply": "supermaps.apply",
    "process_space.validate": "process_space.validate",
    "process_space.causal_order_flags": "process_space.flags",
    "process_space.comb_order_satisfied": "process_space.flags",
    "process_space.born_probabilities": "process_space.born",
    "rigidity.build_constraints": "rigidity.build",
    "rigidity.generator_kernel": "rigidity.kernel",
    "rigidity.verify_rigidity": "rigidity.verify",
    "cli.write_pmx": "cli.write",
    "cli.load_pmx": "cli.load",
    "cli.main": "cli.main",
    "linalg.eigvalsh": "linalg.eig",
    "linalg.eigh": "linalg.eig",
    "linalg.eigsh": "linalg.eig",
    "linalg.svd": "linalg.svd",
    "linalg.expm": "linalg.expm",
}

# (metric name, unit); every one is reported per operation
PER_LAYER = (
    ("hs_algebra.decompose_ms", "ms"),
    ("hs_algebra.recompose_ms", "ms"),
    ("hs_algebra.calls", "count"),
    ("hs_algebra.coeffs", "count"),
    ("supermaps.validate_ms", "ms"),
    ("supermaps.apply_ms", "ms"),
    ("supermaps.validate_peak_mb", "MB"),
    ("linalg.eig_ms", "ms"),
    ("linalg.svd_ms", "ms"),
    ("linalg.expm_ms", "ms"),
    ("process_space.validate_ms", "ms"),
    ("process_space.validate_calls", "count"),
    ("process_space.flags_ms", "ms"),
    ("process_space.born_ms", "ms"),
    ("operator_core.ms", "ms"),
    ("operator_core.calls", "count"),
    ("rigidity.build_ms", "ms"),
    ("rigidity.kernel_ms", "ms"),
    ("rigidity.verify_ms", "ms"),
    ("rigidity.rows", "count"),
    ("extremality.ms", "ms"),
    ("extremality.calls", "count"),
    ("cli.write_ms", "ms"),
    ("cli.load_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.bytes", "count"),
)


def _coeffs_out(args, kwargs, result):
    return "hs_algebra.coeffs", result.size


def _coeffs_in(args, kwargs, result):
    return "hs_algebra.coeffs", args[0].size


def _rows(args, kwargs, result):
    return "rigidity.rows", result.rows.shape[0]


def _file_bytes(args, kwargs, result):
    return "cli.bytes", os.path.getsize(args[0])


# exact work counts taken from a call's arguments or result
COUNTERS = {
    "hs_algebra.coefficient_tensor": _coeffs_out,
    "hs_algebra.batch_coefficient_tensors": _coeffs_out,
    "hs_algebra.from_coefficient_tensor": _coeffs_in,
    "hs_algebra.batch_from_coefficient_tensors": _coeffs_in,
    "rigidity.build_constraints": _rows,
    "cli.write_pmx": _file_bytes,
    "cli.load_pmx": _file_bytes,
}

PEAK_SPAN = "supermaps.validate_supermap"


class Tracer:
    """Records nested spans around pmx calls while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: Counter = Counter()
        self.peak_bytes = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        peak = name == PEAK_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if peak:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap the pmx modules' public functions and the linalg entry points."""
        package = importlib.import_module("pmx")
        modules = [importlib.import_module(f"pmx.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
        for modname, attr in LINALG:
            mod = importlib.import_module(modname)
            setattr(mod, attr, self.wrap(f"linalg.{attr}", getattr(mod, attr)))

    def per_layer(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, per operation over ``ops`` operations."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ms: Counter = Counter()
        calls: Counter = Counter()
        category: list[str | None] = []
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            cat = CATEGORY.get(name)
            if cat is None and parent >= 0 and self.spans[parent][0].split(".", 1)[0] == layer:
                cat = category[parent]
            category.append(cat)
            self_ms = (end - start - child[k]) * 1e3
            ms[layer] += self_ms
            calls[layer] += 1
            calls[name] += 1
            if cat is not None:
                ms[cat] += self_ms
        values = {
            "hs_algebra.decompose_ms": ms["hs_algebra.decompose"],
            "hs_algebra.recompose_ms": ms["hs_algebra.recompose"],
            "hs_algebra.calls": calls["hs_algebra"],
            "hs_algebra.coeffs": self.counts["hs_algebra.coeffs"],
            "supermaps.validate_ms": ms["supermaps.validate"],
            "supermaps.apply_ms": ms["supermaps.apply"],
            "linalg.eig_ms": ms["linalg.eig"],
            "linalg.svd_ms": ms["linalg.svd"],
            "linalg.expm_ms": ms["linalg.expm"],
            "process_space.validate_ms": ms["process_space.validate"],
            "process_space.validate_calls": calls["process_space.validate"],
            "process_space.flags_ms": ms["process_space.flags"],
            "process_space.born_ms": ms["process_space.born"],
            "operator_core.ms": ms["operator_core"],
            "operator_core.calls": calls["operator_core"],
            "rigidity.build_ms": ms["rigidity.build"],
            "rigidity.kernel_ms": ms["rigidity.kernel"],
            "rigidity.verify_ms": ms["rigidity.verify"],
            "rigidity.rows": self.counts["rigidity.rows"],
            "extremality.ms": ms["extremality"],
            "extremality.calls": calls["extremality"],
            "cli.write_ms": ms["cli.write"],
            "cli.load_ms": ms["cli.load"],
            "cli.main_ms": ms["cli.main"],
            "cli.bytes": self.counts["cli.bytes"],
        }
        out = {key: value / ops for key, value in values.items()}
        # a peak is per call already, not a sum over operations
        out["supermaps.validate_peak_mb"] = self.peak_bytes / 2**20
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, with its index, in start order."""
        with open(path, "w", encoding="ascii") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": k, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

"""Span tracing of bigsurf's public functions, installed from outside.

The package carries no instrumentation, so the traced run rebinds every
name under which a listed function is reachable: the defining module, the
modules that did ``from .x import f`` (each holds its own binding) and the
classes whose attributes are the function (``PicardLattice.pair``, the
``DivisorClass`` operators).  A function that cannot be found raises, so
that a rename cannot silently drop its layer from the per-layer metrics.

Spans stay in memory as ``[name, parent, start_ns, end_ns]`` and are
written out once, after the measurement.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

# layer name -> "module:attribute path" of each function it covers
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg.integer_kernel": ("bigsurf.linalg:integer_kernel",),
    "linalg.gram_restrict": ("bigsurf.linalg:gram_restrict",),
    "linalg.is_negative_definite": ("bigsurf.linalg:is_negative_definite",),
    "linalg.short_vectors": ("bigsurf.linalg:short_vectors",),
    "picard.config_lattice": ("bigsurf.picard:config_lattice",),
    "picard.anticanonical_components": ("bigsurf.picard:anticanonical_components",),
    "picard.PicardLattice.pair": ("bigsurf.picard:PicardLattice.pair",),
    "picard.DivisorClass.arith": ("bigsurf.picard:DivisorClass.__add__",
                                  "bigsurf.picard:DivisorClass.__sub__",
                                  "bigsurf.picard:DivisorClass.__mul__",
                                  "bigsurf.picard:DivisorClass.__rmul__"),
    "picard.verify_witness": ("bigsurf.picard:verify_witness",),
    "bigness.cross_check": ("bigsurf.bigness:cross_check",),
    "bigness.orthogonal_complement": ("bigsurf.bigness:orthogonal_complement",),
    "bigness.classify_anticanonical": ("bigsurf.bigness:classify_anticanonical",),
    "roots.extract_roots": ("bigsurf.roots:extract_roots",),
    "roots.classify": ("bigsurf.roots:classify",),
    "zariski.zariski_decompose": ("bigsurf.zariski:zariski_decompose",),
    "enumeration.negative_classes": ("bigsurf.enumeration:negative_classes",),
    # every public *_to_dict codec; resolved by name pattern below
    "serialize.to_dict": (),
    "cli.main": ("bigsurf.cli:main",),
}

# counts taken from a call's arguments or result, keyed by layer
_COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "linalg.short_vectors": ("vectors_out", lambda args, out: len(out)),
    "roots.classify": ("roots_in", lambda args, out: len(args[0])),
}


def _resolve(path: str) -> Any:
    module_name, _, attrs = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for attr in attrs.split("."):
        try:
            obj = vars(obj)[attr]
        except KeyError:
            raise LookupError(f"traced function {path} is missing") from None
    if not callable(obj):
        raise LookupError(f"traced name {path} is not a function")
    return obj


def _targets() -> dict[str, list[Any]]:
    serialize = importlib.import_module("bigsurf.serialize")
    codecs = [fn for name, fn in vars(serialize).items()
              if name.endswith("_to_dict") and not name.startswith("_")
              and callable(fn)]
    if not codecs:
        raise LookupError("bigsurf.serialize has no *_to_dict functions to trace")
    targets = {layer: [_resolve(p) for p in paths] for layer, paths in LAYERS.items()}
    targets["serialize.to_dict"] = codecs
    return targets


def _package_modules() -> list[Any]:
    package = importlib.import_module("bigsurf")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"bigsurf.{info.name}"))
    return modules


class Tracer:
    """Records a span for every call of a listed function while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(spans)
            span = [layer, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counts[f"{layer}.{counter[0]}"] += counter[1](args, out)
            return out

        return traced

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run fn under a span of its own; the benchmark marks each
        operation this way, so the spans of one operation share a root."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Rebind every reachable name of every listed function."""
        wrappers: dict[int, Callable] = {}
        for layer, functions in _targets().items():
            for fn in functions:
                wrappers.setdefault(id(fn), self._wrap(layer, fn))
        found: set[int] = set()
        owners: list[Any] = []
        for module in _package_modules():
            owners.append(module)
            owners.extend(v for v in vars(module).values()
                          if isinstance(v, type) and v.__module__.startswith("bigsurf"))
        seen: set[int] = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for name, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((owner, name, value))
                    setattr(owner, name, wrapper)
                    found.add(id(value))
        if found != set(wrappers):
            self.uninstall()
            raise LookupError("a traced function is bound nowhere in the bigsurf package")

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def self_times(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Per layer: total self time in seconds, and every span's duration.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because calls do.
        """
        child_ns = [0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (layer, _, start, end), inner in zip(self.spans, child_ns):
            self_s[layer] += (end - start - inner) / 1e9
            durations[layer].append((end - start) / 1e9)
        return self_s, durations

    def calls_under(self, layer: str, ancestor: str) -> int:
        """Number of calls of layer made, directly or not, from ancestor."""
        count = 0
        for name, parent, _, _ in self.spans:
            if name == layer:
                while parent >= 0 and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][1]
                count += parent >= 0
        return count

    def write(self, path: Path) -> None:
        """One JSON line per span: id, parent id, operation id (the id of
        its outermost span), name, start and end in nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        root: list[int] = []
        with path.open("w", encoding="utf-8") as out:
            for sid, (layer, parent, start, end) in enumerate(self.spans):
                root.append(root[parent] if parent >= 0 else sid)
                out.write(json.dumps([sid, parent, root[sid], layer, start, end]) + "\n")

"""Span tracing from outside the program: timing wrappers on module attributes.

``Tracer.install`` replaces a function with a wrapper under every module
attribute of ``sdprel`` that refers to it (``sdprel.training.forward`` and
``sdprel.infer_eval.forward`` are both ``sdprel.network.forward``), so calls
are caught whichever module a caller looks the name up in.  ``restore`` puts
the original objects back.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``(name, start, end, parent, ok)`` tuples, where
``parent`` is the index of the enclosing span (-1 at top level) and ``ok`` is
False when the call raised.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

#: The modules searched for aliases of a wrapped function.
PACKAGE_MODULES = (
    "sdprel.corpus", "sdprel.deppath", "sdprel.embeddings", "sdprel.network",
    "sdprel.training", "sdprel.infer_eval", "sdprel.model", "sdprel.cli",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, ok)

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def install(self, targets: dict[str, str]) -> None:
        """Wrap each ``module:attr`` or ``module:Class.attr`` target.

        A target that no longer exists is recorded in ``missing``.
        """
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for target, name in targets.items():
            module_name, _, attr = target.partition(":")
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(target)
                continue
            wrapper = self.wrap(original, name)
            if path:  # a method: callers look it up on the class
                self._replace(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner: object, key: str, original: object, wrapper: object) -> None:
        setattr(owner, key, wrapper)
        self._replaced.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._replaced):
            setattr(owner, key, original)
        self._replaced.clear()

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for s in self.finished():
                f.write(json.dumps(list(s)) + "\n")


def leaked_wrappers() -> list[str]:
    """Module and class attributes of ``sdprel`` that are still timing wrappers."""
    found = []
    for module in map(importlib.import_module, PACKAGE_MODULES):
        for key, value in vars(module).items():
            owners = [(key, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                owners += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [f"{module.__name__}.{k}" for k, v in owners if hasattr(v, "span_name")]
    return found


# ---------------------------------------------------------------------------
# Derived statistics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def percentile_us(durations: list[float], q: float) -> float:
    """The q-th percentile in microseconds; 0.0 when there are no calls."""
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), q)) * 1e6

"""Outside-in layer trace: timing wrappers around the program's public functions.

The wrappers exist only while a :class:`LayerTrace` is installed, so the
untraced (timed) phases run the unmodified program. Installing replaces
*every* binding of each target function: the defining module, every
module namespace that imported the name (``from x import f``), and, for
methods, the defining class plus every subclass that overrides the
method. A call that enters a layer which is already open on the stack
belongs to the outer span (``solve`` -> ``solve_batch`` ->
``solve_batch_arrays`` is one contention solve), so each layer counts
its outermost calls only. A span's self time is its duration minus the
time of the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


class LayerStats:
    """Call count, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


def _resolve(spec: str):
    """``"pkg.module:Name.attr"`` -> (owner, attribute name, object)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class LayerTrace:
    """Span and counter recorder; use as a context manager around the
    traced phase (installs on enter, restores every binding on exit)."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []  # child seconds of open spans
        self._open: Counter = Counter()
        self._plan: List[Tuple[str, str, bool, Optional[Callable]]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Declaring targets
    # ------------------------------------------------------------------ #

    def span(self, layer: str, *specs: str, after: Optional[Callable] = None) -> None:
        """Time every call of ``specs`` as a span of ``layer``.
        ``after(args, result)`` runs after each outermost call."""
        self.layers.setdefault(layer, LayerStats())
        for spec in specs:
            self._plan.append((layer, spec, True, after))

    def count(self, name: str, *specs: str) -> None:
        """Count calls of ``specs`` under ``name`` without opening a span
        (the caller's self time keeps the call's duration)."""
        self.counts.setdefault(name, 0)
        for spec in specs:
            self._plan.append((name, spec, False, None))

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _timed(self, layer: str, fn, after):
        stats = self.layers[layer]
        stack = self._stack
        open_layers = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers[layer]:
                return fn(*args, **kwargs)
            open_layers[layer] = 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_layers[layer] = 0
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.incl_s += dt
                stats.self_s += dt - child[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make(self, name, fn, timed, after):
        return self._timed(name, fn, after) if timed else self._counted(name, fn)

    # ------------------------------------------------------------------ #
    # Install / restore
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "LayerTrace":
        for name, spec, timed, after in self._plan:
            owner, attr, obj = _resolve(spec)
            if isinstance(owner, type):
                # The method on its class and on every overriding subclass.
                for cls in _subclasses(owner):
                    fn = cls.__dict__.get(attr)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(cls, attr, self._make(name, fn, timed, after))
                continue
            # A module-level function: rebind it in every namespace.
            wrapper = self._make(name, obj, timed, after)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is obj:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

"""Span tracer that instruments conicproj from outside the library.

A span is recorded by wrapping a library function and replacing every
binding through which the library looks that function up: module globals
(``from .cones import _project_ambient`` copies the binding into the
importing module, so patching only ``cones`` would miss the calls made by
``regsolver`` and ``altschemes``), dict registries held in module globals
(``dualproj._SOLVERS`` captured the engines at import), and class
attributes for methods.  Nothing under ``src/`` is edited; the patches are
installed only around traced passes and removed afterwards, so untraced
passes run the unmodified program.

Spans stay in memory as parallel arrays (name id, start, end, parent index,
instance id, time covered by direct children) and are written out once,
when the run ends.  Self time is duration minus the time the span's direct
children cover; spans nest strictly because the solvers are single
threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One library callable to wrap: ``module.attr`` or ``module.cls.attr``.

    ``on_return(tracer, args, kwargs, result)`` adds counters derived from a
    call (iterations reported by a solver, computed flops or bytes).
    """

    span: str
    module: str
    attr: str
    cls: str | None = None
    on_return: Callable | None = None

    @property
    def qualname(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        owner = f"{short}.{self.cls}" if self.cls else short
        return f"{owner}.{self.attr}"


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.child = array("d")
        self.instances: list[str] = []
        self._instance = -1
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.bindings: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_instance(self, instance_id: str | None) -> None:
        if instance_id is None:
            self._instance = -1
            return
        if instance_id not in self.instances:
            self.instances.append(instance_id)
        self._instance = self.instances.index(instance_id)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self._instance)
        self.child.append(0.0)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        par = self.parent[idx]
        if par >= 0:
            self.child[par] += now - self.start[idx]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def mark(self) -> int:
        """Index of the next span, to summarise only the spans after it."""
        return len(self.start)

    # -- call-site patching ------------------------------------------------

    def wrap(self, target: Target, fn):
        nid = self.name_id(target.span)
        hook = target.on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Replace every binding of each target inside ``conicproj``.

        A target whose module, class or attribute does not exist is recorded
        in ``absent`` and skipped.
        """
        if self._patches:
            raise RuntimeError("tracer patches are already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conicproj" or name.startswith("conicproj."))
        ]
        self.bindings = {}
        self.absent = []
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            if owner is not None and target.cls is not None:
                owner = getattr(owner, target.cls, None)
            original = (
                vars(owner).get(target.attr) if owner is not None else None
            )
            if original is None:
                self.absent.append(target.qualname)
                continue
            wrapper = self.wrap(target, original)
            where = self.bindings.setdefault(target.qualname, [])
            if target.cls is not None:
                self._patch(owner, target.attr, original, wrapper, True)
                where.append(target.qualname)
                continue
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        self._patch(space, key, original, wrapper, False)
                        where.append(f"{mod.__name__}.{key}")
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patch(value, dkey, original, wrapper, False)
                                where.append(f"{mod.__name__}.{key}[{dkey!r}]")

    def _patch(self, container, key, original, wrapper, is_attr):
        if is_attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._patches.append((container, key, original, is_attr))

    def uninstall(self) -> None:
        for container, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches = []

    # -- summaries -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "child": np.frombuffer(self.child, dtype=np.float64).copy(),
        }

    def instances_with(self, name: str, lo: int = 0) -> set[str]:
        """Instances that opened a span called ``name`` at index >= lo."""
        nid = self._ids.get(name)
        if nid is None:
            return set()
        names = np.frombuffer(self.name, dtype=np.int32)[lo:]
        inst = np.frombuffer(self.instance, dtype=np.int32)[lo:]
        hits = np.unique(inst[(names == nid) & (inst >= 0)])
        return {self.instances[i] for i in hits}

    def summary(self, lo: int = 0) -> dict[str, dict]:
        """Per span name: calls, total duration and self time over the
        spans from index ``lo`` on (all spans by default)."""
        a = self.arrays()
        names = a["name"][lo:]
        dur = a["end"][lo:] - a["start"][lo:]
        own = dur - a["child"][lo:]
        out = {}
        for nid, label in enumerate(self.names):
            sel = names == nid
            out[label] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out


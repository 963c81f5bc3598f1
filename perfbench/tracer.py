"""Outside-in span tracer for the grounddial package.

The tracer wraps package functions in place, from outside the package: it
replaces the function in its defining module and in every other module of
the package that bound the same object with ``from ... import``, and puts
every binding back when it is removed. Spans nest; each open span keeps the
time its wrapped children took, so self time is the span's duration minus
its direct children's. Spans are kept in memory in flat arrays and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from types import ModuleType
from typing import Callable, Iterable, Optional


def bindings_of(obj, package: str) -> list[tuple[ModuleType, str]]:
    """Every (module, attribute) of the loaded package that holds `obj`."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                found.append((mod, attr))
    return found


class Patch:
    """Replace a package function everywhere it is bound; undo on remove().

    `make(original)` returns the replacement. A target the package no longer
    has leaves `absent` set and patches nothing.
    """

    def __init__(self, package: str, target: str, make: Callable[[Callable], Callable]):
        module_name, _, self.attr = target.rpartition(".")
        self.package = package
        self.target = target
        self._make = make
        self._restore: list[tuple[ModuleType, str, Callable]] = []
        try:
            self.module: Optional[ModuleType] = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            self.module = None
        self.absent = self.module is None or not callable(getattr(self.module, self.attr, None))

    def install(self) -> None:
        if self.absent or self._restore:
            return
        # resolved now, so a patch installed on top of another wraps it
        original = getattr(self.module, self.attr)
        replacement = self._make(original)
        for mod, attr in bindings_of(original, self.package):
            setattr(mod, attr, replacement)
            self._restore.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []


class Tracer:
    """Spans and counts for a list of ``module.function`` targets.

    `counters` maps a target to ``(name, count)``, where ``count(args,
    kwargs)`` gives an amount to add under `name` on every call. The clock
    is injectable so tests can check the self-time arithmetic exactly.
    """

    def __init__(self, targets: Iterable[str], package: str = "grounddial",
                 counters: Optional[dict] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.names = list(targets)
        self.clock = clock
        self.counters = dict(counters or {})
        self.counts: dict[str, float] = {name: 0 for name, _ in self.counters.values()}
        self.absent_counts: set[str] = set()
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []  # [span index, time spent in wrapped children]
        self._patches = [Patch(package, name, functools.partial(self._wrap, i, name))
                         for i, name in enumerate(self.names)]

    @property
    def absent(self) -> list[str]:
        absent = [p.target for p in self._patches if p.absent]
        absent += [name for target, (name, _) in self.counters.items()
                   if target in absent or name in self.absent_counts]
        return absent

    def _wrap(self, fid: int, target: str, fn: Callable) -> Callable:
        counter = self.counters.get(target)
        stack, clock = self._stack, self.clock
        fids, parents, starts, ends, selfs = self.fid, self.parent, self.start, self.end, self.self_time

        def traced(*args, **kwargs):
            if counter is not None:
                self._count(counter, args, kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            selfs.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                selfs[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return functools.update_wrapper(traced, fn)

    def _count(self, counter, args, kwargs) -> None:
        name, count = counter
        if name in self.absent_counts:
            return
        try:
            self.counts[name] += count(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError):
            # the package no longer has what the counter reads
            self.absent_counts.add(name)

    def __enter__(self) -> "Tracer":
        for p in self._patches:
            p.install()
        return self

    def __exit__(self, *exc) -> None:
        for p in reversed(self._patches):
            p.remove()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over every span."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.fid)):
            row = out[self.names[self.fid[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self.self_time[i]
        return {name: (c, t, s) for name, (c, t, s) in out.items()}

"""Per-layer tracing from outside the program.

Each traced name ("model.encode", "training.Adam.step", ...) is wrapped in
every stylerec module namespace that holds the function, because callers
that imported a function by name look it up in their own module: wrapping
``model.score`` alone would miss the calls ``training.py`` makes.

A span is one call of a wrapped function. Its self time is its duration
minus the time covered by the spans it caused. Spans are aggregated in
memory per name as calls, seconds and self seconds.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Optional


class LivenessError(RuntimeError):
    """A wrapper or clock recorded a call count other than the one expected."""


class Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = 0.0


@contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


# counter(args, kwargs) -> number, summed into Stat.extra after each call
Counter = Callable[[tuple, dict], float]


class Tracer:
    def __init__(self, names: Iterable[str], counters: Optional[Dict[str, Counter]] = None):
        self.names = tuple(names)
        self.counters = dict(counters or {})
        self.stats: Dict[str, Stat] = {name: Stat() for name in self.names}
        self._stack = []
        self._undo = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        counter = self.counters.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - covered[0]
                if stack:
                    stack[-1][0] += dur
                if counter is not None:
                    stat.extra += counter(args, kwargs)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "stylerec" or key.startswith("stylerec.")]
        for name in self.names:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"stylerec.{module_name}")
            if len(path) == 2:  # Class.method
                owner = getattr(owner, path[0], None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                raise LivenessError(f"traced function {name} no longer exists")
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    self._set(owner, path[-1], classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, path[-1], self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, raw)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def check_counts(self, expected: Dict[str, Optional[int]]) -> None:
        """Fail loudly unless every traced name has its expected call count.

        ``expected`` maps a name to an exact count, or to None for "at least
        one call"; names it leaves out must not have been called at all.
        """
        bad = []
        for name in self.names:
            want = expected.get(name, 0)
            got = self.stats[name].calls
            if (want is None and got == 0) or (want is not None and got != want):
                bad.append(f"{name}: {got} calls, expected "
                           f"{'at least 1' if want is None else want}")
        if bad:
            raise LivenessError("traced call counts are off (was a function renamed "
                                "or folded?):\n  " + "\n  ".join(bad))

"""Span tracing of legrid's layers from outside the package.

:class:`Tracer` replaces a public function of the package, in every
``legrid`` module that binds it, by a wrapper that records a span
(name, start, end, parent index).  Nothing inside ``src/`` changes, and
:meth:`Tracer.restore` puts the originals back.  A target that no
longer exists is recorded as absent instead of failing the run, so the
benchmark survives refactors that remove or rename functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Each is wrapped wherever a legrid
# module binds the same object, e.g. ``legrid.invariants.to_front``.
TARGETS = (
    ("grid.to_front", "legrid.grid", "to_front"),
    ("grid.parse_grid", "legrid.grid", "parse_grid"),
    ("grid.new_grid", "legrid.grid", "new_grid"),
    ("invariants.classical", "legrid.invariants", "classical"),
    ("invariants.relative_invariants", "legrid.invariants", "relative_invariants"),
    ("invariants.tb_grid_oracle", "legrid.invariants", "tb_grid_oracle"),
    ("moves.parse_move_script", "legrid.moves", "parse_move_script"),
    ("moves.apply_move", "legrid.moves", "apply_move"),
    ("moves.apply_script", "legrid.moves", "apply_script"),
    ("simulator.parse_event_script", "legrid.simulator", "parse_event_script"),
    ("simulator.run_trace", "legrid.simulator", "run_trace"),
    ("simulator.cross", "legrid.simulator", "cross"),
    ("simulator.resolve_pattern", "legrid.simulator", "resolve_pattern"),
)
SELFTEST_MODULE = "legrid.selftest"
SELFTEST_PREFIX = "selftest.check."


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.absent = []
        self.grid_calls = []  # (name, positional args) of to_front and oracle calls
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        record_grid = self.grid_calls.append if name in ("grid.to_front", "invariants.tb_grid_oracle") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if record_grid is not None:
                    record_grid((name, args))

        return traced

    def install(self):
        for name, module, attr in TARGETS:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "legrid" or mod_name.startswith("legrid.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        try:
            mod = importlib.import_module(SELFTEST_MODULE)
            checks = mod.CHECKS
        except (ImportError, AttributeError):
            self.absent.append(SELFTEST_PREFIX + "*")
            return
        self._patches.append((mod, "CHECKS", checks))
        mod.CHECKS = type(checks)(
            self.wrap(SELFTEST_PREFIX + check.__name__.removeprefix("_check_"), check) for check in checks
        )

    def restore(self):
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def take(self):
        """Return the recorded spans and grid calls, and start afresh."""
        spans, grids = self.spans[:], self.grid_calls[:]
        self.spans.clear()
        self.grid_calls.clear()
        return spans, grids


def fold(spans, totals):
    """Add each span's count, inclusive time and self time into
    ``totals[name] = [calls, seconds, self seconds]``.  Self time is the
    span's duration minus the durations of its direct children."""
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[idx]
    return totals

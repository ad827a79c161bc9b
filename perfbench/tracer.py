"""Span recorder for the traced run.

``Tracer.installed()`` wraps every public function of the traced ``lcsplit``
modules, plus a few ``Qasst`` methods, under every name a caller looks it up
by (``lcsplit.orbit.canonical_key`` is the same function as
``lcsplit.graphs.canonical_key`` and both names get the wrapper).  Nothing
under ``src/`` is edited, and leaving the ``with`` block restores every
original.  Spans are recorded only while ``active`` is set, so the
benchmark's own correctness checks are not counted.

Spans are aggregated in memory by name: calls, total time (outermost span of
a name only, so recursion is not counted twice) and self time (span time
minus the time of wrapped child spans).  A few hooks read return values to
count work: orbit members, eliminated vertices, kernel sizes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "lcsplit"
TRACED_MODULES = ("graphs", "orbit", "counting", "qasst", "qasst_ops", "cli")
TRACED_METHODS = (("qasst", "Qasst", ("copy", "normalize", "validate")),)

# One-vertex extension entry points; an outermost one inside compute_qasst
# is an extension replayed by the decomposition.
EXTEND_FAMILY = frozenset(
    {"qasst_ops.extend", "qasst_ops.extend_with_label", "qasst_ops.extend_with_subcase"}
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth: Counter = Counter()  # open spans per name or group
        self._patches: list[tuple[object, str, object]] = []
        self._seen_members: set[int] = set()

    # -- installation ---------------------------------------------------------

    def _targets(self) -> dict:
        """Function -> span name, for every function to wrap."""
        out = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out[obj] = f"{short}.{attr}"
        return out

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        targets = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, methods in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)
        if name.startswith("counting."):
            group = "counting"
        elif name in EXTEND_FAMILY:
            group = "qasst_ops.replay"
        else:
            group = None
        group_stat = self.stats.setdefault(group, [0, 0.0, 0.0]) if group else None
        tracer, stack, depth, clock = self, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            in_group = group is not None and not depth[group] and (
                group != "qasst_ops.replay" or depth["qasst.compute_qasst"] > 0
            )
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            if group is not None:
                depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if group is not None:
                    depth[group] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                if not depth[name]:
                    stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if in_group:
                    group_stat[0] += 1
                    group_stat[1] += elapsed
            if hook is not None:
                hook(tracer, args, result)
            return result

        return span

    def value(self, name: str, stat: str):
        """``calls``, ``total_s`` or ``self_s`` of a span name; None if never wrapped."""
        entry = self.stats.get(name)
        if entry is None:
            return None
        return entry[("calls", "total_s", "self_s").index(stat)]


# -- hooks that count work from return values ------------------------------------------


def _orbit_hook(tracer: Tracer, args, orbit) -> None:
    members = getattr(orbit, "members", None)
    if not isinstance(members, dict) or not args:
        return
    size, n = len(members), getattr(args[0], "n", 0)
    tracer.counts["orbit.members"] += size
    tracer.counts["orbit.lc_applications"] += size * n
    tracer.counts["orbit.new_members"] += size - 1
    seen = tracer._seen_members
    for g in members.values():
        h = hash(g)
        if h in seen:
            tracer.counts["orbit.repeated_members"] += 1
        else:
            seen.add(h)


def _elimination_hook(tracer: Tracer, args, result) -> None:
    try:
        kernel, trace = result
        kernel_n, removed = len(kernel), len(trace)
    except (TypeError, ValueError):
        return
    tracer.counts["qasst.eliminated_vertices"] += removed
    if tracer._depth["qasst.compute_qasst"]:
        tracer.counts["qasst.kernel_vertices"] += kernel_n
        tracer.counts["qasst.kernel_max"] = max(tracer.counts["qasst.kernel_max"], kernel_n)


_HOOKS = {
    "orbit.enumerate_orbit": _orbit_hook,
    "qasst.eliminate_extensions": _elimination_hook,
}

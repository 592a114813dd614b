"""Benchmark-owned wrappers around the program's public functions.

Nothing inside ``src/`` is instrumented: a :class:`Probe` patches the
binding each caller actually uses (a class attribute, or the name a
module imported), records spans around the call, and restores every
original on :meth:`Probe.restore`.

Three parts:

* the *entry* wrappers (``DrimAnnEngine.search``,
  ``ClusterFrontend.search``) are always on. They time each top-level
  search call (the host-clock ``host_call_ms_*`` samples) and keep every
  returned outcome (the modeled-clock ledgers);
* ``pace=True`` runs the reference kernel of :mod:`pace` right after
  each top-level call, outside the call's time, and keeps its time
  next to the call's (see :mod:`pace`);
* ``trace=True`` adds one wrapper per layer below. A span's *self time*
  is its duration minus the time its child spans cover, so the self
  times of all spans plus the time outside any span add up to the wall.

Spans are recorded only while :attr:`Probe.enabled` is set (the timed
window); correctness gates and state copies run with it cleared.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, List, Optional

from pace import kernel_s

perf_counter = time.perf_counter


class Probe:
    def __init__(self, trace: bool, pace: bool = False) -> None:
        self.trace = trace
        self.pace = pace
        self.enabled = False
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.call_s: List[float] = []  # host seconds per top-level search call
        self.pace_s: List[float] = []  # kernel seconds right after each call
        self.engine_outcomes: list = []  # every DrimAnnEngine.search outcome
        self.frontend_reports: list = []  # every ClusterFrontend.search report
        self._stack: List[float] = []  # child time of each open span
        self._search_depth = 0
        self._patches: list = []

    # ----- span bookkeeping -------------------------------------------
    @contextmanager
    def span(self, name: str):
        """One benchmark-side span around the enclosed calls."""
        if not self.enabled:
            yield
            return
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float) -> float:
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.self_s[name] += dt - child
        self.incl_s[name] += dt
        if self._stack:
            self._stack[-1] += dt
        return dt

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        self.call_s.clear()
        self.pace_s.clear()
        self.engine_outcomes.clear()
        self.frontend_reports.clear()

    # ----- patching ---------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # keeps classmethod wrappers
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _spanned(self, name: str, on_call: Optional[Callable] = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = self._enter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(name, t0)
                if on_call is not None:
                    on_call(args, out)
                return out

            return wrapper

        return make

    def _counted(self, on_call: Callable):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.enabled:
                    on_call(args, out)
                return out

            return wrapper

        return make

    def _entry(self, name: str, keep: Callable):
        """Search entry point: times top-level calls, keeps outcomes."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                top = self._search_depth == 0
                self._search_depth += 1
                t0 = self._enter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = self._exit(name, t0)
                    self._search_depth -= 1
                if top:
                    self.call_s.append(dt)
                    if self.pace:
                        self.pace_s.append(kernel_s())
                keep(out)
                return out

            return wrapper

        return make

    def install(self) -> "Probe":
        from repro.cluster import frontend as frontend_mod
        from repro.cluster.frontend import ClusterFrontend
        from repro.core import engine as engine_mod
        from repro.core.engine import DrimAnnEngine

        self._patch(
            DrimAnnEngine, "search",
            self._entry("engine", self.engine_outcomes.append),
        )
        self._patch(
            ClusterFrontend, "search",
            self._entry(
                "rack.frontend",
                lambda out: self.frontend_reports.append(out.report),
            ),
        )
        if not self.trace:
            return self

        from repro.cluster import index as cluster_index_mod
        from repro.ann.ivfpq import IVFPQIndex
        from repro.core.quantized import QuantizedIndexData
        from repro.core.scheduler import RuntimeScheduler
        from repro.core.square_lut import SquareLut
        from repro.pim import system as system_mod
        from repro.pim.backend import resolve_backend
        from repro.pim.parallel import ExecutionPlanner
        from repro.pim.system import PimSystem

        # Set-up layers (the benchmark opens the enclosing build span).
        self._patch(IVFPQIndex, "build", self._spanned("setup.train"))
        for mod in (engine_mod, cluster_index_mod):
            self._patch(
                mod, "build_quantized_index", self._spanned("setup.quantize")
            )

        # Search layers.
        self._patch(QuantizedIndexData, "locate", self._spanned("cl"))

        def sched_counts(args, out):
            self.counts["sched.tasks"] += len(args[1])
            self.counts["sched.deferred"] += len(out.deferred)

        self._patch(
            RuntimeScheduler, "schedule_batch",
            self._spanned("sched", sched_counts),
        )
        self._patch(engine_mod, "merge_topk_pools", self._spanned("merge"))
        self._patch(PimSystem, "run_batch", self._spanned("round"))

        def square_calls(args, out):
            self.counts["lut.square_calls"] += 1

        self._patch(
            SquareLut, "square", self._spanned("lut.square", square_calls)
        )
        self._patch(
            type(resolve_backend("auto")), "build_luts",
            self._spanned("lut.backend"),
        )

        def group_cells(args, out):
            luts, codes = args[0], args[1]
            self.counts["scan.cells"] += (
                luts.shape[0] * codes.shape[0] * codes.shape[1]
            )

        def stacked_cells(args, out):
            for luts, codes, _ids, _k in args[0]:
                self.counts["scan.cells"] += (
                    luts.shape[0] * codes.shape[0] * codes.shape[1]
                )

        # repro.pim.system imported both scan entry points by name; the
        # executor's pool path is idle here (shard_workers=0).
        self._patch(
            system_mod, "scan_shard_group", self._spanned("scan", group_cells)
        )
        self._patch(
            system_mod, "scan_jobs_stacked", self._spanned("scan", stacked_cells)
        )

        def plan_count(args, out):
            self.counts["plan." + out] += 1

        self._patch(ExecutionPlanner, "choose", self._counted(plan_count))
        self._patch(
            frontend_mod, "merge_shard_results", self._spanned("rack.merge")
        )
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


#!/usr/bin/env python3
"""DRIM-ANN end-to-end benchmark: one workload per process, two clocks.

    python3 perfbench/run.py --workload search-lc-bound --seed 1 \\
        --seconds 6 --trace 0

Builds the workload's inputs from ``--seed``, sets the program up
SETUP_REPS times (real builds; ``setup_s`` is their median) with one
pass of the workload after each, then repeats the pass, each on a
fresh copy of the warmed state, until ``--seconds`` of host time are
measured and at least MIN_PASSES passes are made. Host-clock metrics
other than ``setup_s`` are paced by a reference kernel run after each
search call (see pace.py) and take each call's median across passes.
Correctness gates run outside the measured time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, each kind with half of ``--seconds``, and
prints the per-layer metrics; the traced passes must match the
untraced ones exactly, in results and in modeled numbers.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a provenance record. The exit code
is 1 on any gate violation and 2 when the program cannot be imported.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before NumPy loads: a single-threaded driver
    os.environ[_var] = "1"

from pace import REFERENCE_S  # noqa: E402
from probe import Probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search-lc-bound", "search-dc-bound", "serve-skewed-rw", "rack-serve")
SETUP_REPS = 3
#: Fewest passes a phase makes, so that a per-call median across passes
#: can drop one slowed-down pass.
MIN_PASSES = 3
MODELED_UNITS = {"pim.transfer_s": "s/pass", "pim.rounds": "count/pass"}


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def close(state) -> None:
    cluster = getattr(state, "cluster", None)
    (cluster if cluster is not None else state).close()


class Setups:
    """Real builds plus warm-ups; ``setup_s`` is the median wall time."""

    def __init__(self, wl, inp, trace: bool) -> None:
        self.wl, self.inp = wl, inp
        self.probe = Probe(trace=trace)
        self.walls = []
        self.parts = []

    def build(self):
        """One timed set-up; returns the warmed state."""
        probe = self.probe
        with probe:
            probe.reset()
            probe.enabled = True
            t0 = perf_counter()
            state = self.wl.setup(self.inp, probe)
            self.walls.append(perf_counter() - t0)
            probe.enabled = False
        incl = probe.incl_s
        train, quantize = incl["setup.train"], incl["setup.quantize"]
        self.parts.append(
            {
                "setup.train_s": train,
                "setup.quantize_s": quantize,
                "setup.layout_load_s": incl["setup.build"] - train - quantize,
                "setup.warmup_s": incl["setup.warmup"],
            }
        )
        probe.reset()
        return state

    @property
    def setup_s(self) -> float:
        return statistics.median(self.walls)

    def layers(self) -> dict:
        return {
            k: statistics.median(p[k] for p in self.parts) for k in self.parts[0]
        }


class Phase:
    """Passes of one workload under one probe; :meth:`step` adds a pass.

    A phase with a ``lead`` checks its passes against the lead's first
    pass; otherwise its own first pass is gated against the oracle and
    is the reference for the rest.
    """

    def __init__(self, label, wl, inp, trace: bool, lead=None):
        from workloads import Context

        self.label, self.wl, self.inp, self.lead = label, wl, inp, lead
        self.probe = Probe(trace=trace, pace=not trace)
        self.ctx = Context(self.probe)
        self.passes = []
        self.reference = None
        self.failed = 0
        self.attempted = 0
        self.problems = []
        self.hedges = self.retries = 0
        self.shard_ratio = []
        self.call_s = []  # per pass: host seconds of each top-level call
        self.pace_s = []  # per pass: kernel seconds right after each call
        self.other_s = []  # per pass: measured host seconds outside calls

    def done(self, seconds: float) -> bool:
        return len(self.passes) >= MIN_PASSES and self.ctx.timed_s >= seconds

    def step(self, pristine) -> None:
        """One pass on a fresh copy of ``pristine``, checked."""
        from workloads import bad_rows, modeled_metrics

        probe = self.probe
        if self.reference is None and self.lead is not None:
            self.reference = self.lead.reference
        state = copy.deepcopy(pristine)
        t0, c0 = self.ctx.timed_s, len(probe.call_s)
        with probe:
            out = self.wl.run_pass(
                state, self.inp, self.ctx, first=self.reference is None
            )
        close(state)
        calls, paces = probe.call_s[c0:], probe.pace_s[c0:]
        self.call_s.append(calls)
        self.pace_s.append(paces)
        self.other_s.append(self.ctx.timed_s - t0 - sum(calls) - sum(paces))
        modeled = modeled_metrics(out, probe.engine_outcomes)
        probe.engine_outcomes.clear()
        for rep in probe.frontend_reports:
            self.hedges += rep.hedged_requests
            self.retries += rep.node_retries
            lat = list(rep.shard_latencies_s.values())
            if lat:
                self.shard_ratio.append(max(lat) / (sum(lat) / len(lat)))
        probe.frontend_reports.clear()
        self.attempted += out.num_queries + out.write_ops
        self.failed += out.failed
        where = f"{self.label} pass {len(self.passes)}"
        if out.failed:
            self.problems.append(f"{where}: {out.failed} gate violations")
        if self.reference is None:
            self.reference = (out, modeled)
        else:
            ref_out, ref_modeled = self.reference
            diff = bad_rows(out.ids, out.distances)
            diff |= (out.ids != ref_out.ids).any(axis=1)
            diff |= (out.distances != ref_out.distances).any(axis=1)
            if diff.any():
                self.failed += int(diff.sum())
                self.problems.append(
                    f"{where}: {int(diff.sum())} rows differ from the "
                    "reference pass"
                )
            if modeled != ref_modeled:
                self.failed += 1
                self.problems.append(
                    f"{where}: modeled metrics differ from the reference pass"
                )
        self.passes.append((out, modeled))

    def host_qps(self, paced: bool = True) -> float:
        """Queries of one pass over its typical measured host time: each
        call's median across passes, plus the median time outside calls
        (writes, the serving loop)."""
        other = self.other_s
        if paced:
            other = [
                s * REFERENCE_S / statistics.median(k)
                for s, k in zip(other, self.pace_s)
            ]
        pass_s = sum(self.call_ms(paced)) / 1e3 + statistics.median(other)
        return self.passes[0][0].num_queries / pass_s

    def call_ms(self, paced: bool = True) -> list:
        """Host milliseconds of each top-level call, median across passes;
        paced, each call is scaled by the kernel run right after it."""
        calls = self.call_s
        if paced:
            calls = [
                [c * REFERENCE_S / k for c, k in zip(cs, ks)]
                for cs, ks in zip(calls, self.pace_s)
            ]
        return [s * 1e3 for s in across_passes(calls)]


def across_passes(samples: list) -> list:
    """Element-wise median of per-pass sample lists.

    Every pass makes the same calls in the same order, so the i-th
    sample of each pass times the same work; its median across passes
    drops a pass that other load on the host slowed down at that point.
    Should the lists differ in length (never seen), the list of the
    pass with the median total stands in.
    """
    if len({len(s) for s in samples}) != 1:
        return sorted(samples, key=sum)[len(samples) // 2]
    return [statistics.median(col) for col in zip(*samples)]


def end_to_end(phase: Phase, setup_s: float, paced: bool = True) -> dict:
    modeled = phase.reference[1]
    deciles = statistics.quantiles(
        phase.call_ms(paced), n=10, method="inclusive"
    )
    return {
        "host_qps": (phase.host_qps(paced), "1/s"),
        "host_call_ms_p50": (deciles[4], "ms"),
        "host_call_ms_p90": (deciles[8], "ms"),
        "modeled_qps": (modeled["modeled_qps"], "1/s"),
        "modeled_p50_ms": (modeled["modeled_p50_ms"], "ms"),
        "modeled_p99_ms": (modeled["modeled_p99_ms"], "ms"),
        "recall_at_10": (modeled["recall_at_10"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(phase: Phase, untraced: Phase, setup_layers: dict) -> dict:
    probe = phase.probe
    n = len(phase.passes)
    s, incl, c = probe.self_s, probe.incl_s, probe.counts
    outs = [out for out, _ in phase.passes]
    batches = [b for out in outs for b in out.batch_sizes]
    write_s = sum(out.write_s for out in outs)
    rack = bool(probe.incl_s.get("rack.frontend"))
    m = {k: (v, "s") for k, v in setup_layers.items()}
    per_pass = {
        "cl.host_s": s["cl"],
        "sched.host_s": s["sched"],
        "engine.self_s": s["engine"],
        "merge.host_s": s["merge"],
        "round.self_s": s["round"],
        "lut.square_s": s["lut.square"],
        "lut.backend_s": s["lut.backend"],
        "scan.host_s": s["scan"],
        "serving.self_s": s["serving"],
        "rack.frontend_self_s": s["rack.frontend"],
        "rack.node_search_s": incl["engine"] if rack else 0.0,
        "rack.merge_s": s["rack.merge"],
        "write.add_s": s["write.add"],
        "write.delete_s": s["write.delete"],
        "write.compact_s": s["write.compact"],
        "unattributed_s": phase.ctx.timed_s - sum(s.values()),
        "trace.wall_s": phase.ctx.timed_s,
    }
    m.update({k: (v / n, "s/pass") for k, v in per_pass.items()})
    counts = {
        "sched.tasks": c["sched.tasks"],
        "sched.deferred": c["sched.deferred"],
        "lut.square_calls": c["lut.square_calls"],
        "scan.cells": c["scan.cells"],
        "serving.batches": len(batches),
        "rack.hedges": phase.hedges,
        "rack.retries": phase.retries,
    }
    for path in ("serial", "vectorized", "compiled", "pool"):
        counts["plan." + path] = c["plan." + path]
    m.update({k: (v / n, "count/pass") for k, v in counts.items()})
    m["scan.cells_per_s"] = (
        c["scan.cells"] / incl["scan"] if incl["scan"] else 0.0,
        "1/s",
    )
    m["serving.batch_size_mean"] = (
        sum(batches) / len(batches) if batches else 0.0,
        "queries",
    )
    m["rack.shard_latency_max_over_mean"] = (
        statistics.mean(phase.shard_ratio) if phase.shard_ratio else 0.0,
        "ratio",
    )
    m["write.tombstone_ratio"] = (
        max(out.tombstone_ratio for out in outs),
        "ratio",
    )
    m["write.vps"] = (
        sum(out.vectors_written for out in outs) / write_s if write_s else 0.0,
        "1/s",
    )
    m["trace.overhead"] = (
        untraced.host_qps(paced=False) / phase.host_qps(paced=False),
        "ratio",
    )
    m["gate.tie_substitutions"] = (untraced.reference[0].ties, "count/pass")
    for k, v in phase.reference[1].items():
        if k.startswith("pim.cycles."):
            m[k] = (v, "cycles/pass")
        elif k.startswith(("pim.", "adaptive.")):
            m[k] = (v, MODELED_UNITS.get(k, "ratio"))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = os.cpu_count() or 1
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from repro.pim.backend import resolve_backend
    from workloads import WORKLOADS as DEFS

    wl = DEFS[args.workload]
    inp = wl.inputs(args.seed)

    # Set-ups and passes alternate, so the passes whose medians make the
    # host metrics are spread over the whole run rather than bunched in
    # one stretch of the host's load.
    setups = Setups(wl, inp, trace=bool(args.trace))
    untraced = Phase("untraced", wl, inp, trace=False)
    phases = [untraced]
    if args.trace:
        phases.append(Phase("traced", wl, inp, trace=True, lead=untraced))
    seconds = args.seconds / len(phases)
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            close(state)
        state = setups.build()
        for phase in phases:
            phase.step(state)
    while not all(phase.done(seconds) for phase in phases):
        for phase in phases:
            if not phase.done(seconds):
                phase.step(state)
    close(state)

    if args.trace:
        metrics = per_layer(phases[1], untraced, setups.layers())
    else:
        metrics = end_to_end(untraced, setups.setup_s)
    wall = end_to_end(untraced, setups.setup_s, paced=False)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    writes = [out for out, _ in untraced.passes if out.write_s]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": nproc,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": resolve_backend("auto").name,
        "passes": [len(p.passes) for p in phases],
        "error_rate": failed / attempted,
        "tie_substitutions": untraced.reference[0].ties,
        "problems": [msg for p in phases for msg in p.problems],
        "pace_kernel_ms": 1e3 * statistics.median(
            k for ks in untraced.pace_s for k in ks
        ),
        "wall": {
            name: wall[name][0]
            for name in ("host_qps", "host_call_ms_p50", "host_call_ms_p90")
        },
    }
    if writes:
        record["host_write_vps"] = sum(o.vectors_written for o in writes) / sum(
            o.write_s for o in writes
        )
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

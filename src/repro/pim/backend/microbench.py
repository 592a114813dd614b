"""Shared scan/LUT/round microbenchmark for the kernel backends.

Used by ``benchmarks/bench_kernels.py`` (the CI ``--smoke`` gate) and
the ``repro bench kernels`` CLI entry point. Measures every available
backend against the staged reference kernels
(:func:`repro.pim.kernels.scan_distances_stacked` /
the quantized pipeline's LUT build math) at a fixed shape, checks the
outputs are bit-identical, and reports best-of-N wall-clock speedups;
the round leg times the ragged round scan against the per-group loop.

Timing here never flows into engine results — the record is pure
observability, which is why the wall-clock reads are fine in this
module (the data plane itself stays deterministic).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

import numpy as np

from repro.pim.backend import available_backends, resolve_backend
from repro.pim.kernels import scan_distances_stacked
from repro.pim.parallel import scan_jobs_stacked, scan_shard_group
from repro.utils.rng import SeedLike, ensure_rng

#: The gate shape: 16 stacked shard groups of 32 LUT rows x 2000
#: points, M=16 subspaces, CB=128 — the steady-state round shape of
#: the canonical sift-like configs, large enough that gather traffic
#: (not dispatch overhead) dominates.
SCAN_SHAPE = {"jobs": 16, "g": 32, "n": 2000, "m": 16, "cb": 128}

#: LUT-build shape: one 64-query chunk against the canonical M=16,
#: CB=128, dsub=8 codebooks.
LUT_SHAPE = {"g": 64, "m": 16, "cb": 128, "dsub": 8}

#: Round shape: 40 groups of 1-3 LUT rows x 100-300 uint8 codes, M=32, CB=128.
ROUND_SHAPE = {"jobs": 40, "g": (1, 3), "n": (100, 300), "m": 32, "cb": 128}

#: The CI gate: the best backend's stacked scan must beat the staged
#: reference by at least this factor at bit-identical output.
MIN_SCAN_SPEEDUP = 3.0

#: The same gate for the best backend's LUT build.
MIN_LUT_SPEEDUP = 5.0

#: The same gate for the ragged round scan over the per-group loop.
MIN_ROUND_SPEEDUP = 1.5


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock for a timing harness.

    drimsan: allow wallclock-in-result — this module IS the stopwatch;
    nothing here flows into engine results or cycle ledgers.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reference_build_luts(
    residuals: np.ndarray, codebooks: np.ndarray
) -> np.ndarray:
    """The per-call-cast staged LUT build the backends replace."""
    m, _cb, dsub = codebooks.shape
    r = residuals.astype(np.int64).reshape(len(residuals), m, 1, dsub)
    diff = r - codebooks.astype(np.int64)
    return (diff * diff).sum(axis=3)


def run_microbench(
    repeats: int = 5, seed: SeedLike = 0
) -> Dict[str, Any]:
    """Measure every available backend; return the machine-readable record.

    The record's ``gate_ok`` is True when the best backend clears
    :data:`MIN_SCAN_SPEEDUP` on the stacked scan,
    :data:`MIN_LUT_SPEEDUP` on the LUT build and
    :data:`MIN_ROUND_SPEEDUP` on the round scan, with bit-equal output;
    ``backends[name]["bit_identical"]`` must be True for every backend
    regardless (a mismatch fails the gate outright).
    """
    rng = ensure_rng(seed)
    sh = SCAN_SHAPE
    luts = rng.integers(
        0, 1 << 20, size=(sh["jobs"], sh["g"], sh["m"], sh["cb"])
    ).astype(np.int64)
    codes = rng.integers(
        0, sh["cb"], size=(sh["jobs"], sh["n"], sh["m"])
    ).astype(np.uint8)

    lh = LUT_SHAPE
    residuals = rng.integers(
        -300, 300, size=(lh["g"], lh["m"] * lh["dsub"])
    ).astype(np.int32)
    codebooks = rng.integers(
        -255, 255, size=(lh["m"], lh["cb"], lh["dsub"])
    ).astype(np.int16)

    rh = ROUND_SHAPE
    bounds = np.array([rh["g"], rh["n"]]).T + [0, 1]  # inclusive -> half-open
    sizes = rng.integers(*bounds, size=(rh["jobs"], 2))
    ends = np.cumsum(sizes[:, 0])
    round_luts = rng.integers(0, 1 << 20, size=(ends[-1], rh["m"], rh["cb"]))
    round_jobs = [  # (LUT row index, codes, ids, k), as the engine builds them
        (np.arange(e - g, e), rng.integers(0, rh["cb"], (n, rh["m"]), np.uint8),
         np.arange(n), 10) for e, (g, n) in zip(ends, sizes)
    ]
    round_blocks = [(round_luts[j[0]],) + j[1:] for j in round_jobs]

    ref_scan = scan_distances_stacked(luts, codes)
    t_ref_scan = _best_seconds(
        lambda: scan_distances_stacked(luts, codes), repeats
    )
    ref_luts = _reference_build_luts(residuals, codebooks)
    t_ref_luts = _best_seconds(
        lambda: _reference_build_luts(residuals, codebooks), repeats
    )

    record: Dict[str, Any] = {
        "scan_shape": dict(sh),
        "lut_shape": dict(lh),
        "repeats": repeats,
        "min_scan_speedup": MIN_SCAN_SPEEDUP,
        "min_lut_speedup": MIN_LUT_SPEEDUP,
        "min_round_speedup": MIN_ROUND_SPEEDUP,
        "reference": {
            "scan_seconds": t_ref_scan,
            "lut_seconds": t_ref_luts,
        },
        "backends": {},
        "best_backend": None,
        "best_scan_speedup": 0.0,
        "best_lut_speedup": 0.0,
        "gate_ok": False,
    }

    all_bit_identical = True
    for name in available_backends():
        backend = resolve_backend(name)
        backend.warmup()
        got_scan = backend.scan_stacked(luts, codes)
        got_luts = backend.build_luts(residuals, codebooks)
        bit_identical = bool(
            got_scan.dtype == ref_scan.dtype
            and np.array_equal(got_scan, ref_scan)
            and got_luts.dtype == ref_luts.dtype
            and np.array_equal(got_luts, ref_luts)
        )
        all_bit_identical = all_bit_identical and bit_identical
        t_scan = _best_seconds(
            lambda: backend.scan_stacked(luts, codes), repeats
        )
        t_luts = _best_seconds(
            lambda: backend.build_luts(residuals, codebooks), repeats
        )
        entry = {
            "scan_seconds": t_scan,
            "scan_speedup": t_ref_scan / t_scan if t_scan > 0 else 0.0,
            "lut_seconds": t_luts,
            "lut_speedup": t_ref_luts / t_luts if t_luts > 0 else 0.0,
            "bit_identical": bit_identical,
            "compiled": bool(backend.compiled),
        }
        record["backends"][name] = entry
        if entry["scan_speedup"] > record["best_scan_speedup"]:
            record["best_scan_speedup"] = entry["scan_speedup"]
            record["best_backend"] = name
        best_lut = max(record["best_lut_speedup"], entry["lut_speedup"])
        record["best_lut_speedup"] = best_lut

    # The round leg times the engine's `vectorized` path, which always
    # runs the NumPy ragged scan (compiled rounds keep the per-group loop).
    numpy_backend = resolve_backend("numpy")

    def loop():
        return [scan_shard_group(*j, backend=numpy_backend) for j in round_blocks]

    def ragged():
        return scan_jobs_stacked(round_jobs, numpy_backend, luts=round_luts)

    same = [np.array_equal(a, b) for x, y in zip(ragged(), loop())
            for p, q in zip(x, y) for a, b in zip(p, q)]
    t_round = _best_seconds(ragged, repeats)
    record["round"] = {"seconds": t_round, "bit_identical": all(same),
                       "speedup": _best_seconds(loop, repeats) / max(t_round, 1e-12)}

    record["gate_ok"] = bool(
        all_bit_identical
        and record["best_scan_speedup"] >= MIN_SCAN_SPEEDUP
        and record["best_lut_speedup"] >= MIN_LUT_SPEEDUP
        and record["round"]["bit_identical"]
        and record["round"]["speedup"] >= MIN_ROUND_SPEEDUP
    )
    return record


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_microbench` record."""
    sh = record["scan_shape"]
    lines = [
        (
            f"stacked scan J={sh['jobs']} g={sh['g']} n={sh['n']} "
            f"M={sh['m']} CB={sh['cb']}; reference "
            f"{record['reference']['scan_seconds'] * 1e3:.1f} ms"
        )
    ]
    for name, entry in record["backends"].items():
        lines.append(
            f"  {name:8s} scan {entry['scan_seconds'] * 1e3:7.1f} ms "
            f"({entry['scan_speedup']:.2f}x)  lut "
            f"{entry['lut_seconds'] * 1e3:6.2f} ms "
            f"({entry['lut_speedup']:.2f}x)  "
            f"bit_identical={entry['bit_identical']}"
        )
    lines.append(
        f"best: {record['best_backend']} at "
        f"{record['best_scan_speedup']:.2f}x "
        f"(gate >= {record['min_scan_speedup']:.1f}x); best lut "
        f"{record['best_lut_speedup']:.2f}x "
        f"(gate >= {record['min_lut_speedup']:.1f}x); numpy round "
        f"{record['round']['speedup']:.2f}x (gate >= {record['min_round_speedup']:.1f}x, "
        f"bit_identical={record['round']['bit_identical']}): "
        f"{'OK' if record['gate_ok'] else 'FAIL'}"
    )
    return "\n".join(lines)


__all__ = [
    "LUT_SHAPE",
    "MIN_LUT_SPEEDUP",
    "MIN_ROUND_SPEEDUP",
    "MIN_SCAN_SPEEDUP",
    "ROUND_SHAPE",
    "SCAN_SHAPE",
    "format_record",
    "run_microbench",
]

"""Extension — compiled kernel backends: fused scans vs the staged path.

The staged reference kernels (``repro.pim.kernels.distance_scan``)
materialize a per-subspace gather before reducing; the backend registry
(``repro.pim.backend``) replaces the hot path with fused
gather-accumulate implementations — the guaranteed NumPy backend plus
an optional numba build — that return bit-identical int64 distances
and LUTs while changing only host wall-clock (cycle ledgers are
charged from closed forms and cannot move).

Run with ``--smoke`` as the CI kernel gate: every registered backend
must be bit-identical to the staged reference, the best backend's
stacked scan must clear ``MIN_SCAN_SPEEDUP`` (3x), and the best LUT
build must clear ``MIN_LUT_SPEEDUP`` (5x). When numba is
importable, the compiled backend must additionally clear the same bar
itself — a regression that leaves only NumPy fast is a packaging bug
worth failing on. Writes a machine-readable ``BENCH_kernels.json``
artifact.
"""


def run_smoke(repeats: int = 5, seed: int = 0) -> dict:
    """CI gate: bit-identical backends, best scan >= 3x, best LUT >= 5x."""
    from repro.pim.backend.microbench import (
        MIN_SCAN_SPEEDUP,
        format_record,
        run_microbench,
    )

    record = run_microbench(repeats=repeats, seed=seed)
    record["gate"] = "kernel_backend_speedup_at_bit_equality"
    print(format_record(record))

    ok = record["gate_ok"]
    numba_entry = record["backends"].get("numba")
    if numba_entry is not None:
        compiled_ok = bool(
            numba_entry["bit_identical"]
            and numba_entry["scan_speedup"] >= MIN_SCAN_SPEEDUP
        )
        record["compiled_gate_ok"] = compiled_ok
        if not compiled_ok:
            print(
                f"FAIL: numba backend at {numba_entry['scan_speedup']:.2f}x "
                f"(bit_identical={numba_entry['bit_identical']}) misses the "
                f"{MIN_SCAN_SPEEDUP:.1f}x compiled bar"
            )
        ok = ok and compiled_ok
    record["ok"] = bool(ok)
    return record


def main(argv=None) -> int:
    import argparse

    from benchmarks.common import write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI kernel gate: all backends bit-identical to the staged "
        "reference; best stacked scan >= 3x (numba too when importable) "
        "and best LUT build >= 5x",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--artifact",
        default="BENCH_kernels.json",
        help="where the machine-readable smoke record is written",
    )
    args = parser.parse_args(argv)
    record = run_smoke(repeats=args.repeats, seed=args.seed)
    if args.smoke:
        write_bench_artifact(
            args.artifact, {"bench": "kernels_smoke", "gates": [record]}
        )
    print("OK" if record["ok"] else "FAIL")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

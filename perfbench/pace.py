"""Host-speed pacing: a fixed reference kernel timed after every call.

The benchmark's host is shared. Its speed for this single-threaded
process moves by up to 2x as other load comes and goes, often for a
whole run at a time, so wall time alone cannot tell a slower program
from a busier host. Each top-level search call is therefore paired
with a run of :func:`reference_kernel` right after it, and the
per-call host-clock metrics are reported in *paced* seconds:

    paced seconds = call's wall seconds x REFERENCE_S / kernel's seconds

A program change moves paced and wall seconds alike, since the kernel
never calls the program. A slow stretch of the host slows the kernel
and the program together and mostly cancels. The wall numbers stay in
the run's record line.

The kernel is what the program's host time per call is mostly made
of: interpreter work and many NumPy calls on tiny arrays. Its working
set is small, so the program's own memory use barely touches it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The kernel's seconds on a quiet 2-core x86 VM, so paced seconds
#: read close to wall seconds there.
REFERENCE_S = 1e-3

_KEYS = [f"key{i}" for i in range(1500)]
_SMALL = np.arange(64, dtype=np.int32).reshape(8, 8)


def reference_kernel() -> int:
    acc = 0
    for rnd in range(3):
        table = {}
        for i, key in enumerate(_KEYS):
            table[key] = (i + rnd) * 7 % 11
        acc += sum(v for v in table.values() if v > 3)
    for i in range(180):
        acc += int((_SMALL[i % 8] * 3).sum())
    return acc


def kernel_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0

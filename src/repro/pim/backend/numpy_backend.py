"""The guaranteed kernel backend: fused NumPy, no extra dependencies.

Same math as the reference kernels in
:mod:`repro.pim.kernels.distance_scan`, restructured for speed:

* the scan accumulates one ``(g, n)`` gather per subspace instead of
  materializing the staged ``(g, n, M)`` / ``(J, g, n, M)`` gather
  tensor — at the bench shape this alone is ~3-4x over the staged
  reference;
* when every LUT entry fits int32 (always true for the quantized
  pipeline, whose entries are bounded by ``dim * CODEBOOK_CLIP**2``)
  the gathers run on an int32 copy of the LUTs, halving gather
  traffic; the accumulator stays int64 so the sums are exact;
* tiny jobs (``g * n`` below :data:`FUSED_MIN_CELLS`) keep the staged
  reference path, where one big gather beats M small ones;
* the LUT build is ``||r||^2 - 2 r.c + ||c||^2`` with one float64 GEMM
  per subspace, exact for small-integer operands (int64 einsum beyond).

Every variant computes the identical int64 sums (integer addition is
exact and order-independent), so the outputs are bit-identical to the
reference kernels — property-tested in ``tests/test_pim_backend.py``.
No cost accounting here: callers charge the closed forms.
"""

from __future__ import annotations

import numpy as np

from repro.pim.backend import KernelBackend, _gather_view
from repro.pim.kernels import scan_distances, scan_distances_stacked

#: Below this many output cells (``g * n``) the fused per-subspace loop
#: loses to the reference's single staged gather; the variants are
#: bit-identical, so the cutover is purely a wall-clock choice.
FUSED_MIN_CELLS = 1024


def _scan_fused(luts: np.ndarray, gather: np.ndarray, codes: np.ndarray) -> np.ndarray:
    g = luts.shape[0]
    n, m = codes.shape
    idx = codes.astype(np.intp)
    acc = np.zeros((g, n), dtype=np.int64)
    for mi in range(m):
        acc += gather[:, mi, :][:, idx[:, mi]]
    return acc


class NumpyBackend(KernelBackend):
    """Fused NumPy implementation of the three hot kernels."""

    name = "numpy"
    compiled = False

    def scan(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        luts = np.asarray(luts)
        codes = np.asarray(codes)
        if luts.ndim != 3:
            raise ValueError(f"luts must be (g, M, CB), got {luts.shape}")
        if codes.ndim != 2 or codes.shape[1] != luts.shape[1]:
            raise ValueError(
                f"codes must be (n, {luts.shape[1]}), got {codes.shape}"
            )
        if luts.shape[0] * codes.shape[0] < FUSED_MIN_CELLS:
            return scan_distances(luts, codes)
        return _scan_fused(luts, _gather_view(luts), codes)

    def scan_stacked(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        luts = np.asarray(luts)
        codes = np.asarray(codes)
        if luts.ndim != 4:
            raise ValueError(f"luts must be (J, g, M, CB), got {luts.shape}")
        if (
            codes.ndim != 3
            or codes.shape[0] != luts.shape[0]
            or codes.shape[2] != luts.shape[2]
        ):
            raise ValueError(
                f"codes must be ({luts.shape[0]}, n, {luts.shape[2]}), "
                f"got {codes.shape}"
            )
        num_jobs, g = luts.shape[0], luts.shape[1]
        n = codes.shape[1]
        if num_jobs == 0 or g * n < FUSED_MIN_CELLS:
            return scan_distances_stacked(luts, codes)
        gather = _gather_view(luts)
        out = np.empty((num_jobs, g, n), dtype=np.int64)
        for j in range(num_jobs):
            out[j] = _scan_fused(luts[j], gather[j], codes[j])
        return out

    def build_luts(
        self, residuals: np.ndarray, codebooks: np.ndarray
    ) -> np.ndarray:
        residuals = np.asarray(residuals)
        codebooks = np.asarray(codebooks)
        if codebooks.ndim != 3:
            raise ValueError(
                f"codebooks must be (M, CB, dsub), got {codebooks.shape}"
            )
        m, cb, dsub = codebooks.shape
        if residuals.ndim != 2 or residuals.shape[1] != m * dsub:
            raise ValueError(
                f"residuals must be (g, {m * dsub}), got {residuals.shape}"
            )
        g = residuals.shape[0]
        a = max(-int(residuals.min(initial=0)), int(residuals.max(initial=0)))
        b = max(-int(codebooks.min(initial=0)), int(codebooks.max(initial=0)))
        # Every term and partial sum of the expanded form is an integer
        # of magnitude at most dsub * (a + b)^2; below 2^53 float64 holds
        # each one exactly in any summation order.
        if dsub * (a + b) ** 2 >= 1 << 53:
            r = residuals.astype(np.int64).reshape(g, m, 1, dsub)
            diff = r - codebooks.astype(np.int64)
            return np.einsum("gmcd,gmcd->gmc", diff, diff)
        r = residuals.astype(np.float64).reshape(g, m, dsub).transpose(1, 0, 2)
        c = codebooks.astype(np.float64)
        out = np.matmul(r, c.transpose(0, 2, 1))
        out *= -2.0
        out += np.einsum("mgd,mgd->mg", r, r)[:, :, None]
        out += np.einsum("mcd,mcd->mc", c, c)[:, None, :]
        return out.transpose(1, 0, 2).astype(np.int64, order="C")

"""TS kernel: per-query top-k maintenance over scanned distances.

On real DPUs each tasklet keeps a bounded max-heap of size K in WRAM
and offers every scanned candidate to it. Functionally we take the
exact top-k with vectorized selection; the *cost* charged is the heap's
expected work:

* every candidate pays one comparison against the heap root;
* a candidate that improves the heap pays a ``log2 K`` sift.

For n candidates arriving in random order against a running top-k, the
expected number of improvements is ``K + K * ln(n / K)`` (the k-record
count of a random permutation), which we use as the deterministic
estimate — summed candidate counts make it exact enough that Fig. 8's
TS share matches the paper's shape. ``BoundedMaxHeap`` in
``repro.ann.heap`` is the operation-exact (but Python-loop) variant
used by the tests to validate this estimate.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.analysis.contracts import KernelShape, ResourceContract, WramTerm
from repro.ann.heap import topk_smallest
from repro.pim.dpu import KernelCost
from repro.pim.isa import InstructionMix
from repro.pim.memory import MemoryTraffic


def expected_heap_updates(n: int, k: int) -> float:
    """Expected number of heap insertions for n random-order candidates."""
    if n <= 0:
        return 0.0
    if n <= k:
        return float(n)
    return k + k * math.log(n / k)


def topk_sort_cost(g: int, n: int, k: int) -> KernelCost:
    """TS cost for ``g`` rows of ``n`` candidates kept to top-``k``.

    Closed form shared by :func:`run_topk_sort` and the batched
    executor (cost charged per shard group, functional work possibly in
    worker processes)."""
    kk = min(k, n) if n else k
    updates = expected_heap_updates(n, k)
    log_k = math.log2(max(k, 2))
    mix = InstructionMix(
        compare=float(g * n) + g * updates * log_k,
        store=g * updates,
    )
    # Per-task result write-back staged in WRAM; MRAM write of the k
    # (id, distance) pairs for the host gather.
    traffic = MemoryTraffic(
        sequential_write=float(g * kk * 8), transactions=float(g)
    )
    return KernelCost(kernel="TS", instructions=mix, traffic=traffic)


def topk_rows(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Functional core of TS: per-row top-k of a ``(g, n)`` block.

    Returns ``(ids_k, dists_k)`` per row in the canonical
    ``(distance, id)`` order that :func:`~repro.utils.merge_topk_pools`
    and the host reference use: a tie at the k-th distance keeps the
    smallest ids, and equal distances come out in ascending id order.
    The unpadded case of :func:`topk_segments` (same selection and tie
    rule). No cost accounting — callers that model timing charge
    :func:`topk_sort_cost` separately.
    """
    dists = np.asarray(dists)
    ids = np.asarray(ids)
    if dists.ndim != 2:
        raise ValueError(f"dists must be 2-D, got {dists.shape}")
    if ids.shape != (dists.shape[1],):
        raise ValueError(f"ids shape {ids.shape} != ({dists.shape[1]},)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g, n = dists.shape
    if not n:
        return [(np.empty(0, dtype=np.int64), np.empty(0, dists.dtype))] * g
    return _topk_block(dists, n, ids, 0, k)


def segment_buckets(seg_len) -> List[np.ndarray]:
    """Segment indices grouped for padded selection, longest first: a
    group pads to its first segment and takes the next while its padded
    cells stay within twice its real cells (empty segments group
    apart), so padding never exceeds the real cells. No cost accounting.
    """
    lens = np.asarray(seg_len)
    order = np.argsort(-lens, kind="stable")
    groups: List[List[int]] = []
    width = real = 0
    for s, n in zip(order.tolist(), lens[order].tolist()):
        full = (len(groups[-1]) + 1) * width > 2 * (real + n) if groups else True
        if full or (width and not n):
            groups.append([])
            width, real = n, 0
        groups[-1].append(s)
        real += n
    return [np.array(g, dtype=np.intp) for g in groups]


def topk_segments(
    dists: np.ndarray, seg_len, ids: np.ndarray, seg_start, k: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """TS over ragged segments, each in :func:`topk_rows` order: segment
    ``s`` owns the next ``seg_len[s]`` of the flat integer ``dists`` and
    scores ``ids[seg_start[s]:][:seg_len[s]]``. Each :func:`segment_buckets`
    group is padded with the dtype's maximum for one selection call.
    No cost accounting — callers charge :func:`topk_sort_cost`."""
    dists, ids = np.asarray(dists), np.asarray(ids)
    seg_len = np.asarray(seg_len, dtype=np.intp)
    seg_start = np.asarray(seg_start, dtype=np.intp)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    offs = np.cumsum(seg_len) - seg_len
    out = [(np.empty(0, dtype=np.int64), dists[:0])] * len(seg_len)
    for sel in segment_buckets(seg_len):
        lens = seg_len[sel]
        real = np.arange(lens.max()) < lens[:, None]
        block = np.full(real.shape, np.iinfo(dists.dtype).max, dtype=dists.dtype)
        block[real] = dists[(offs[sel][:, None] + np.arange(real.shape[1]))[real]]
        if real.shape[1]:  # an all-empty group keeps the empty rows
            rows = _topk_block(block, lens, ids, seg_start[sel][:, None], k)
            for s, row in zip(sel.tolist(), rows):
                out[s] = row
    return out


def _topk_block(
    block: np.ndarray, lens, ids: np.ndarray, starts, k: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Top-k of the first ``lens[r] >= 1`` cells of each row (padding
    after them sorts last), scoring ``ids[starts[r, 0]:]``; ``lens`` and
    the ``starts`` column may be scalars. One extra candidate exposes a
    tie at the k-th distance: rows with a tie, or too short to fill it,
    re-rank every candidate up to it by (distance, id).
    No cost accounting.
    """
    width = block.shape[1]
    pos, vals = topk_smallest(block, min(k + 1, width), axis=1)
    kk = min(k, width)
    # Clipped ids only land in short rows, which are re-ranked below.
    rows = list(zip(ids.take(pos[:, :kk] + starts, mode="clip"), vals[:, :kk]))
    redo = (vals[:, 1:] == vals[:, :-1]).any(axis=1) | (lens < min(k + 1, width))
    if not redo.any():
        return rows
    lens = np.broadcast_to(lens, len(block))
    starts = np.broadcast_to(starts, (len(block), 1))
    for r in np.flatnonzero(redo).tolist():
        n, lo = int(lens[r]), int(starts[r, 0])
        row, rid, kr = block[r, :n], ids[lo : lo + n], min(k, n)
        cand = np.flatnonzero(row <= vals[r, kr - 1])
        keep = cand[np.lexsort((rid[cand], row[cand]))[:kr]]
        rows[r] = (rid[keep], row[keep])
    return rows


def run_topk_sort(
    dists: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], KernelCost]:
    """Top-k per row of a ``(g, n)`` distance block.

    Parameters
    ----------
    dists: ``(g, n)`` int64 (DC output for one cluster shard).
    ids: ``(n,)`` int64 point ids of the shard.
    k: neighbors to keep.

    Returns
    -------
    A list of ``(ids_k, dists_k)`` per row (each sorted ascending), and
    the kernel cost. Rows with fewer than k candidates return what
    exists.
    """
    dists = np.asarray(dists)
    results = topk_rows(dists, ids, k)
    g, n = dists.shape
    return results, topk_sort_cost(g, n, k)


def _ts_mix(s: KernelShape) -> InstructionMix:
    updates = expected_heap_updates(s.n, s.k)
    log_k = math.log2(max(s.k, 2))
    return InstructionMix(
        compare=float(s.g * s.n) + s.g * updates * log_k,
        store=s.g * updates,
    )


def _ts_traffic(s: KernelShape) -> MemoryTraffic:
    kk = min(s.k, s.n) if s.n else s.k
    return MemoryTraffic(
        sequential_write=float(s.g * kk * 8), transactions=float(s.g)
    )


def _ts_wram(s: KernelShape):
    kk = min(s.k, s.n) if s.n else s.k
    return [
        # Bounded max-heap of (id, distance) pairs, one per tasklet.
        WramTerm("topk_heap", 8 * s.k, per_tasklet=True),
        WramTerm("topk_writeback_staging", 8 * kk, per_tasklet=True),
    ]


#: Closed-form resource claim checked by ``repro lint``.
CONTRACT = ResourceContract(
    kernel="TS",
    instruction_mix=_ts_mix,
    memory_traffic=_ts_traffic,
    wram_terms=_ts_wram,
    dma_transfers=lambda s: {
        "topk_writeback": float(8 * (min(s.k, s.n) if s.n else s.k))
    },
    notes="expected k-record heap work; see expected_heap_updates()",
)

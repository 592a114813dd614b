"""The four benchmark workloads: seeded inputs, set-up, one pass.

Every workload is a fixed *pass* (a script of search calls, serving
segments and writes) that the runner repeats, each time on a fresh copy
of the warmed post-set-up state. Passes are therefore identical in
their outputs and in every modeled-clock number; only host time
differs. The runner checks the first pass against the oracle and every
later pass against the first.

Host clock: ``time.perf_counter`` around calls into the program.
Modeled clock: the PIM-side seconds the program reports
(``TimingBreakdown.e2e_seconds``, ``ServingReport``, ``ClusterReport``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    PimSystemConfig,
    load_dataset,
)
from repro.ann.recall import recall_at_k
from repro.cluster import ClusterConfig, ClusterFrontend, build_cluster_index
from repro.cluster.serving import simulate_cluster_serving
from repro.core.params import SearchParams
from repro.core.serving import BatchingPolicy, PoissonArrivals, simulate_serving
from repro.data.ground_truth import exact_topk
from repro.data.queries import make_query_workload

K = 10
#: Seed of the corpus, its heat sample and every build.
CORPUS_SEED = 0
#: Queries for cluster-heat estimation and warm-up; never measured.
HEAT_QUERIES = 64
#: The quickstart index (README): the high-nlist end of Fig. 6(a).
QUICKSTART = IndexParams(
    nlist=128, nprobe=8, k=K, num_subspaces=32, codebook_size=128
)
LAYOUT = LayoutConfig(min_split_size=300, max_copies=2)
#: Queries per Zipf hot set (see _dataset).
HOT_PERIOD = 16
#: Size-or-timeout micro-batches for both serving workloads.
POLICY = BatchingPolicy(batch_size=64, max_wait_s=2e-3)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class PassOut:
    """What one pass produced, in query order."""

    ids: np.ndarray
    distances: np.ndarray
    latencies_ms: np.ndarray  # modeled, per query
    busy_s: float  # modeled busy seconds
    recall: float
    failed: int = 0  # queries failing a gate, plus shed/rejected/degraded
    ties: int = 0  # boundary-tie id substitutions (see gate)
    write_ops: int = 0
    vectors_written: int = 0
    write_s: float = 0.0  # host seconds in add/delete/compact
    tombstone_ratio: float = 0.0  # highest ratio before compaction
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return len(self.ids)


class Context:
    """Host clock and probe handle shared by a phase's passes."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.timed_s = 0.0

    @contextmanager
    def timed(self):
        """A measured section: host time counts, probe spans record."""
        self.probe.enabled = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.timed_s += perf_counter() - t0
            self.probe.enabled = False


def bad_rows(ids, distances, deleted=None) -> np.ndarray:
    """Rows with a missing or repeated id, a negative distance, or a
    deleted id."""
    valid = ids >= 0
    bad = ~valid.all(axis=1)
    bad |= ((distances < 0) & valid).any(axis=1)
    srt = np.sort(ids, axis=1)
    bad |= ((srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)).any(axis=1)
    if deleted is not None and len(deleted):
        bad |= np.isin(ids, deleted).any(axis=1)
    return bad


def adc_distance(index, query: np.ndarray, point_id: int, nprobe: int):
    """Exact integer distance of one point, or None if its cluster is
    not among the query's probes (or the id is not stored)."""
    for cid in index.locate(query[None], nprobe)[0]:
        rows = np.flatnonzero(np.asarray(index.cluster_ids[cid]) == point_id)
        if len(rows):
            lut = index.build_lut(index.residual(query, int(cid)))
            codes = np.asarray(index.cluster_codes[cid])[rows[0]].astype(np.intp)
            return int(lut[np.arange(len(codes)), codes].sum())
    return None


def gate(ids, distances, oracle, index, queries, nprobe, deleted=None):
    """Oracle gate; returns ``(bad rows, boundary-tie substitutions)``.

    Distances must equal the oracle's byte for byte. Ids must too, except
    among points tied at a row's k-th distance: the engine truncates
    each shard's local top-k in row order rather than by id, so it may
    keep a different member of that tie than the oracle's canonical
    (distance, id) order. Each such id is re-scored from the index and
    must be a probed point at exactly that distance; the substitution
    is counted, not failed.
    """
    bad = bad_rows(ids, distances, deleted)
    if ids.dtype != oracle.ids.dtype or distances.dtype != oracle.distances.dtype:
        return np.ones(len(ids), dtype=bool), 0
    bad |= (distances != oracle.distances).any(axis=1)
    ties = 0
    for r in np.flatnonzero((ids != oracle.ids).any(axis=1) & ~bad):
        kth = distances[r, -1]
        got = set(ids[r][distances[r] == kth].tolist())
        want = set(oracle.ids[r][distances[r] == kth].tolist())
        same_elsewhere = np.array_equal(
            ids[r][distances[r] != kth], oracle.ids[r][distances[r] != kth]
        )
        # The engine's merge still orders a tie by id, so only a different
        # member set is tolerated, never a different order.
        in_order = bool(np.all(np.diff(ids[r][distances[r] == kth]) > 0))
        if same_elsewhere and in_order and got != want and all(
            adc_distance(index, queries[r], x, nprobe) == kth
            for x in got - want
        ):
            ties += 1
        else:
            bad[r] = True
    return bad, ties


def _dataset(name: str, skew: float, seed: int, num_queries: int):
    """The fixed corpus and heat sample, plus a query stream from ``seed``.

    The corpus, its heat sample and the build are the system under test
    and stay fixed (CORPUS_SEED); the seed draws the traffic, with the
    dataset preset's skew and noise. The Zipf hot set is redrawn every
    HOT_PERIOD queries: one hot set per pass would make every modeled
    number depend on which few components the seed made hot.
    """
    ds = load_dataset(name, seed=CORPUS_SEED, num_queries=HEAT_QUERIES)
    stream = make_query_workload(
        ds,
        num_queries=num_queries,
        batch_size=HOT_PERIOD,
        zipf_skew=skew,
        drift=1.0,
        noise_scale=5.0,
        seed=rng_for(seed, 0),
    )
    return ds.base, ds.queries, stream.queries


def _engine_setup(config: EngineConfig, inp: dict, probe) -> DrimAnnEngine:
    with probe.span("setup.build"):
        engine = DrimAnnEngine.from_config(
            inp["base"], config, heat_queries=inp["heat"], seed=CORPUS_SEED
        )
    with probe.span("setup.warmup"):
        engine.search(inp["heat"][:16])
    return engine


class Workload:
    name = ""

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inp: dict, probe):
        """Real build plus warm-up; returns the pristine serving state."""
        raise NotImplementedError

    def run_pass(self, state, inp: dict, ctx: Context, first: bool) -> PassOut:
        raise NotImplementedError


class OfflineSearch(Workload):
    """Closed loop: back-to-back ``engine.search`` calls of CHUNK queries."""

    CHUNK = 16
    NUM_QUERIES = 768

    def __init__(self, name: str, params: IndexParams) -> None:
        self.name = name
        self.config = EngineConfig(
            index=params,
            system=PimSystemConfig(num_dpus=32),
            layout=LAYOUT,
        )

    def inputs(self, seed: int) -> dict:
        base, heat, queries = _dataset(
            "sift-like-20k", 1.0, seed, self.NUM_QUERIES
        )
        return {
            "base": base,
            "heat": heat,
            "queries": queries,
            "gt": exact_topk(base, queries, K),
        }

    def setup(self, inp, probe):
        return _engine_setup(self.config, inp, probe)

    def run_pass(self, engine, inp, ctx, first):
        queries = inp["queries"]
        outs = []
        with ctx.timed():
            for q0 in range(0, len(queries), self.CHUNK):
                outs.append(engine.search(queries[q0 : q0 + self.CHUNK]))
        ids = np.concatenate([o.results.ids for o in outs])
        dist = np.concatenate([o.results.distances for o in outs])
        lat = np.concatenate(
            [
                np.full(len(o.results.ids), o.breakdown.e2e_seconds * 1e3)
                for o in outs
            ]
        )
        bad, ties = bad_rows(ids, dist), 0
        if first:
            bad, ties = gate(
                ids, dist, engine.reference_search(queries),
                engine.quantized, queries, engine.params.nprobe,
            )
        return PassOut(
            ids=ids,
            distances=dist,
            latencies_ms=lat,
            busy_s=float(sum(o.breakdown.e2e_seconds for o in outs)),
            recall=recall_at_k(ids, inp["gt"], K),
            failed=int(bad.sum()),
            ties=ties,
        )


class ServeSkewedRW(Workload):
    """Open-loop serving on the skewed corpus with write bursts.

    A pass is SEGMENTS Poisson stream segments. Between segments a
    burst adds and deletes BURST vectors; before the last segment the
    engine compacts. Host time covers reads and writes alike, so a read
    gain that costs writes shows in ``host_qps``.
    """

    name = "serve-skewed-rw"
    SEGMENTS = 4
    SEGMENT_QUERIES = 250
    BURST = 200
    RATE_QPS = 2000.0

    def __init__(self) -> None:
        self.config = EngineConfig(
            index=QUICKSTART,
            search=SearchParams(adaptive="bound"),
            system=PimSystemConfig(num_dpus=32),
            layout=LAYOUT,
        )

    def inputs(self, seed: int) -> dict:
        n_q = self.SEGMENTS * self.SEGMENT_QUERIES
        base, heat, queries = _dataset(
            "sift-like-20k-skewed", 2.5, seed, n_q
        )
        rng = rng_for(seed, 1)
        n = len(base)
        bursts = self.SEGMENTS - 1
        deleted = rng.choice(n, size=bursts * self.BURST, replace=False)
        src = base[rng.integers(0, n, size=bursts * self.BURST)]
        noise = rng.normal(0.0, 4.0, size=src.shape)
        added = np.clip(np.rint(src + noise), 0, 255).astype(np.uint8)
        added_ids = np.arange(n, n + len(added), dtype=np.int64)
        arrivals = [
            PoissonArrivals(self.RATE_QPS).sample(
                self.SEGMENT_QUERIES, seed=rng_for(seed, 10 + s)
            )
            for s in range(self.SEGMENTS)
        ]
        # Exact ground truth per segment against the live set it sees.
        gts = []
        for s in range(self.SEGMENTS):
            cut = s * self.BURST
            live = np.ones(n, dtype=bool)
            live[deleted[:cut]] = False
            vecs = np.concatenate([base[live], added[:cut]])
            vids = np.concatenate([np.flatnonzero(live), added_ids[:cut]])
            seg = queries[s * self.SEGMENT_QUERIES : (s + 1) * self.SEGMENT_QUERIES]
            gts.append(vids[exact_topk(vecs, seg, K)])
        return {
            "base": base,
            "heat": heat,
            "queries": queries,
            "arrivals": arrivals,
            "deleted": deleted.astype(np.int64),
            "added": added,
            "added_ids": added_ids,
            "gts": gts,
        }

    def setup(self, inp, probe):
        return _engine_setup(self.config, inp, probe)

    def run_pass(self, engine, inp, ctx, first):
        probe = ctx.probe
        seg_q = self.SEGMENT_QUERIES
        parts = []
        failed = 0
        write_s = 0.0
        writes = 0
        tombstones = 0.0
        hits = 0.0
        ties = 0
        for s in range(self.SEGMENTS):
            if s:
                sl = slice((s - 1) * self.BURST, s * self.BURST)
                t0 = perf_counter()
                with ctx.timed():
                    with probe.span("write.add"):
                        engine.add(inp["added"][sl], ids=inp["added_ids"][sl])
                    with probe.span("write.delete"):
                        engine.delete(inp["deleted"][sl])
                    tombstones = max(tombstones, engine.quantized.tombstone_ratio)
                    if s == self.SEGMENTS - 1:
                        with probe.span("write.compact"):
                            engine.compact(
                                heat_queries=inp["heat"], seed=CORPUS_SEED
                            )
                write_s += perf_counter() - t0
                writes += 2 * self.BURST
            queries = inp["queries"][s * seg_q : (s + 1) * seg_q]
            with ctx.timed(), probe.span("serving"):
                out = simulate_serving(
                    engine, queries, inp["arrivals"][s], POLICY,
                    return_results=True,
                )
            res, rep = out.results, out.report
            failed += rep.shed_queries + rep.degraded_queries
            deleted = inp["deleted"][: s * self.BURST]
            bad = bad_rows(res.ids, res.distances, deleted)
            if first:
                bad, seg_ties = gate(
                    res.ids, res.distances, engine.reference_search(queries),
                    engine.quantized, queries, engine.params.nprobe, deleted,
                )
                ties += seg_ties
            failed += int(bad.sum())
            hits += recall_at_k(res.ids, inp["gts"][s], K) * len(queries)
            parts.append((res, rep))
        return PassOut(
            ids=np.concatenate([r.ids for r, _ in parts]),
            distances=np.concatenate([r.distances for r, _ in parts]),
            latencies_ms=np.concatenate([p.latencies_s for _, p in parts]) * 1e3,
            busy_s=float(sum(p.busy_seconds for _, p in parts)),
            recall=hits / (self.SEGMENTS * seg_q),
            failed=failed,
            ties=ties,
            write_ops=2 * (self.SEGMENTS - 1) + 1,
            vectors_written=writes,
            write_s=write_s,
            tombstone_ratio=tombstones,
            batch_sizes=[b for _, p in parts for b in p.batch_sizes],
        )


class RackServe(Workload):
    """Open-loop serving through the rack tier (global CL, scatter-gather,
    hedging, shard merge)."""

    name = "rack-serve"
    NUM_QUERIES = 1000
    RATE_QPS = 8000.0

    def __init__(self) -> None:
        self.config = EngineConfig(
            index=QUICKSTART,
            system=PimSystemConfig(num_dpus=16),
            layout=LAYOUT,
        )
        self.topology = ClusterConfig(num_shards=4, replication=2)

    def inputs(self, seed: int) -> dict:
        base, heat, queries = _dataset(
            "sift-like-20k-skewed", 2.5, seed, self.NUM_QUERIES
        )
        return {
            "base": base,
            "heat": heat,
            "queries": queries,
            "arrivals": PoissonArrivals(self.RATE_QPS).sample(
                self.NUM_QUERIES, seed=rng_for(seed, 2)
            ),
            "gt": exact_topk(base, queries, K),
        }

    def setup(self, inp, probe):
        with probe.span("setup.build"):
            cluster = build_cluster_index(
                inp["base"], self.config, self.topology,
                heat_queries=inp["heat"], seed=CORPUS_SEED,
            )
        frontend = ClusterFrontend(cluster, seed=CORPUS_SEED)
        with probe.span("setup.warmup"):
            # One round per replica: the primary rotates by round.
            for r in range(self.topology.replication):
                frontend.search(inp["heat"][16 * r : 16 * (r + 1)])
        return frontend

    def run_pass(self, frontend, inp, ctx, first):
        queries = inp["queries"]
        with ctx.timed(), ctx.probe.span("serving"):
            out = simulate_cluster_serving(
                frontend, queries, inp["arrivals"], POLICY, return_results=True
            )
        res, rep = out.results, out.report
        failed = rep.shed_queries + rep.admission_rejected + rep.degraded_queries
        bad, ties = bad_rows(res.ids, res.distances), 0
        if first:
            cluster = frontend.cluster
            bad, ties = gate(
                res.ids, res.distances, cluster.oracle_search(queries),
                cluster.router, queries, cluster.params.nprobe,
            )
        failed += int(bad.sum())
        return PassOut(
            ids=res.ids,
            distances=res.distances,
            latencies_ms=rep.latencies_s * 1e3,
            busy_s=rep.busy_seconds,
            recall=recall_at_k(res.ids, inp["gt"], K),
            failed=failed,
            ties=ties,
            batch_sizes=list(rep.batch_sizes),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # LUT build dominates host time: the high-nlist end of Fig. 6(a).
        OfflineSearch("search-lc-bound", QUICKSTART),
        # ~1,250-point clusters: DC scan and top-k dominate; a LUT-build
        # change should leave this workload unchanged.
        OfflineSearch(
            "search-dc-bound",
            IndexParams(
                nlist=16, nprobe=2, k=K, num_subspaces=32, codebook_size=64
            ),
        ),
        ServeSkewedRW(),
        RackServe(),
    )
}


def modeled_metrics(out: PassOut, outcomes: list) -> Dict[str, float]:
    """Every modeled-clock number of one pass (repeats exactly)."""
    cycles: Dict[str, float] = {}
    busy: List[float] = []
    batch_s: List[float] = []
    transfer = 0.0
    rounds = 0
    executed = expected = 0
    for o in outcomes:
        bd = o.breakdown
        for kname, c in bd.kernel_cycles.items():
            cycles[kname] = cycles.get(kname, 0.0) + c
        busy.extend(bd.per_batch_busy)
        batch_s.extend(bd.per_batch_seconds)
        transfer += bd.transfer_seconds
        rounds += bd.num_batches
        if o.adaptive is not None:
            executed += int(np.sum(o.adaptive.probes_executed))
            expected += len(o.adaptive.probes_executed) * o.adaptive.nprobe_max
    med = float(np.percentile(batch_s, 50)) if batch_s else 0.0
    m = {
        "modeled_qps": out.num_queries / out.busy_s,
        "modeled_p50_ms": float(np.percentile(out.latencies_ms, 50)),
        "modeled_p99_ms": float(np.percentile(out.latencies_ms, 99)),
        "recall_at_10": out.recall,
    }
    for kname in ("CL", "RC", "LC", "DC", "TS"):
        m["pim.cycles." + kname] = cycles.get(kname, 0.0)
    m["pim.rounds"] = float(rounds)
    m["pim.transfer_s"] = transfer
    m["pim.busy_frac_mean"] = float(np.mean(busy)) if busy else 1.0
    m["pim.tail_ratio"] = (
        float(np.percentile(batch_s, 95)) / med if med > 0 else 1.0
    )
    m["adaptive.probes_ratio"] = executed / expected if expected else 1.0
    return m

"""Ablation — OPQ preprocessing accuracy gain (paper §I: "supports
IVF-PQ and its variants, including OPQ").

OPQ's rotation balances variance across PQ sub-spaces before encoding;
on the PIM it is folded into a host-side rotate+requantize transform
(the DPUs need uint8 input — see repro.core.opq_preprocess). This
ablation measures its recall effect at a fixed operating point and the
PQ reconstruction error behind it, at small scale (OPQ training is a
full extra index build).
"""

import numpy as np
import pytest

from benchmarks.common import print_table
from repro.ann import recall_at_k
from repro.core import DrimAnnEngine, EngineConfig, IndexParams
from repro.data import load_dataset
from repro.pim.config import PimSystemConfig


def _compare_opq():
    ds = load_dataset("sift-like-20k", seed=0, num_queries=200, ground_truth_k=10)
    params = IndexParams(
        nlist=128, nprobe=8, k=10, num_subspaces=16, codebook_size=128
    )
    rows = []
    recalls = {}
    for use_opq in (False, True):
        engine = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(
                index=params,
                system=PimSystemConfig(num_dpus=16),
                use_opq=use_opq,
            ),
            seed=0,
        )
        res, bd = engine.search(ds.queries)
        rec = recall_at_k(res.ids, ds.ground_truth, 10)
        recalls[use_opq] = rec
        rows.append(
            (
                "OPQ" if use_opq else "plain PQ",
                f"{rec:.3f}",
                f"{200 / bd.e2e_seconds:,.0f}",
            )
        )
    return rows, recalls


def test_ablation_opq(benchmark):
    rows, recalls = benchmark.pedantic(_compare_opq, rounds=1, iterations=1)
    print_table(
        "OPQ ablation (sift-like-20k, M=16, CB=128)",
        ("variant", "recall@10", "QPS"),
        rows,
    )
    # OPQ must not hurt (it may help little when sub-spaces already
    # balance; M=16 on 128-d low-rank data leaves room).
    assert recalls[True] >= recalls[False] - 0.02

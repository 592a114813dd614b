#!/usr/bin/env python
"""Export Fig. 5-style DPU execution traces.

Runs the same query stream twice — naive id-order layout vs the full
load-balancing stack — with the tracer attached, prints the imbalance
summary of each, and writes Chrome-trace JSON files you can open at
https://ui.perfetto.dev (each row is one DPU; ragged right edges are
the stragglers the paper's Fig. 5 illustrates).

Run:  python examples/execution_trace.py
Outputs: trace_naive.json, trace_balanced.json
"""

from repro import (
    DrimAnnEngine,
    EngineConfig,
    IndexParams,
    LayoutConfig,
    PimSystemConfig,
    load_dataset,
)
from repro.pim.trace import Tracer


def main() -> None:
    print("Loading sift-like-20k ...")
    ds = load_dataset("sift-like-20k", seed=0, num_queries=200)
    params = IndexParams(
        nlist=128, nprobe=8, k=10, num_subspaces=32, codebook_size=128
    )
    system = PimSystemConfig(num_dpus=16)

    arms = [
        (
            "naive",
            LayoutConfig(min_split_size=None, max_copies=0, allocation="id_order"),
            False,
        ),
        ("balanced", LayoutConfig(min_split_size=300, max_copies=2), True),
    ]

    quant = None
    for name, layout, sched in arms:
        tracer = Tracer()
        engine = DrimAnnEngine.from_config(
            ds.base,
            EngineConfig(
                index=params,
                system=system,
                layout=layout,
            ),
            heat_queries=ds.queries[:50],
            prebuilt_quantized=quant,
            tracer=tracer,
            seed=0,
        )
        quant = engine.quantized
        _, timing = engine.search(ds.queries, with_scheduler=sched)
        out = f"trace_{name}.json"
        tracer.export_chrome_trace(out)
        print(f"\n{name}:")
        print(f"  {tracer.summary()}")
        print(f"  pim time {timing.pim_seconds * 1e3:.2f} ms, "
              f"tail ratio {timing.tail_ratio:.2f}")
        print(f"  wrote {out} ({tracer.num_events} events)")


if __name__ == "__main__":
    main()

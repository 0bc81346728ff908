"""Budget benchmark of the columnar pass pipeline.

Measures the trace-transform families — elementwise-chain + attention
fusion, activation checkpointing, and the windowed-attention swap — as
:class:`~repro.trace.passes.PassManager` pipelines over a BERT Large
iteration trace, charging each run what the rest of the stack consumes:
the rewritten table.  Each repeat forks a fresh table-backed trace view.

Writes ``BENCH_pass_pipeline.json`` at the repo root and exits non-zero if
the three pipelines' best times combined exceed ``BUDGET_S``, so CI
catches a regression of the passes back into per-kernel scans.  The
budget is half of what the per-kernel list scans took, materialization
and re-columnarization included (about 46 ms for the three on a 2-vCPU
x86-64 host, Python 3.11, NumPy 2.4).

Run: ``PYTHONPATH=src python benchmarks/bench_pass_pipeline.py``
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.config import BERT_LARGE, Precision, training_point
from repro.fusion.attention_fusion import FusedAttentionPass
from repro.fusion.passes import ElementwiseChainFusionPass
from repro.fusion.windowed_transform import WindowedAttentionPass
from repro.memoryplan.checkpointing import CheckpointingPass
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.passes import PassManager

#: Maximum acceptable combined (all pipelines) best seconds.
BUDGET_S = 0.022

REPEATS = 3

TRAINING = training_point(1, 32, Precision.FP32)

PIPELINES = {
    "optimized": PassManager((ElementwiseChainFusionPass(),
                              FusedAttentionPass())),
    "checkpointing": PassManager((CheckpointingPass(),)),
    "windowed": PassManager((WindowedAttentionPass(),)),
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pass_pipeline.json"


def _run(base, manager: PassManager) -> tuple[float, int]:
    trace = base.fork()
    t0 = time.perf_counter()
    out = manager.run(trace)
    out.table
    t1 = time.perf_counter()
    return t1 - t0, len(out)


def run() -> dict:
    base = build_iteration_trace(BERT_LARGE, TRAINING)
    results = {}
    for name, manager in PIPELINES.items():
        samples = [_run(base, manager) for _ in range(REPEATS)]
        results[name] = {
            "signature": manager.signature,
            "kernels_in": len(base),
            "kernels_out": samples[0][1],
            "best_s": min(s[0] for s in samples),
        }
    return {
        "model": "BERT Large",
        "point": TRAINING.label,
        "repeats": REPEATS,
        "budget_combined_s": BUDGET_S,
        "pipelines": results,
        "combined_s": sum(p["best_s"] for p in results.values()),
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    for name, point in payload["pipelines"].items():
        print(f"{name}: {point['kernels_in']} -> {point['kernels_out']} "
              f"kernels | {point['best_s'] * 1e3:.2f} ms")
    combined = payload["combined_s"]
    print(f"combined: {combined * 1e3:.2f} ms "
          f"(budget {BUDGET_S * 1e3:.0f} ms)")
    if combined > BUDGET_S:
        print(f"FAIL: combined {combined * 1e3:.2f} ms "
              f"> {BUDGET_S * 1e3:.0f} ms budget")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Frozen kernel tables: the corpus both engine golden suites compare to.

Every case is one trace the columnar engine builds — a pre-training,
inference, fine-tuning or tensor-sliced build, a pass pipeline applied
to one, or a registered operating point under a named pipeline — timed
on one device model.  Per case ``tests/golden/kernel_tables.json`` pins:

* ``kernel_sha256``: SHA-256 over every field of every materialized
  :class:`~repro.ops.base.Kernel`, in launch order;
* ``times_sha256``: SHA-256 of the little-endian float64 bytes of the
  per-kernel times;
* ``summary`` / ``regions``: the exact :func:`~repro.profiler.breakdown.
  summarize` values and Transformer-region fractions.

The corpus was cut while the per-layer builder walk, the scalar timing
loop, the record-scan aggregation and the list-scan transforms still
existed: regeneration then required identical kernels, bit-identical
times and summaries within ``rel=1e-12`` of those oracles for every case
before it wrote the file.  Regenerating now re-pins the columnar engine's
own output, so do it only for an intentional model change and review the
diff::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_profile_engine_golden.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, FIG3_POINTS,
                          Precision, training_point)
from repro.distributed import build_sliced_iteration_trace
from repro.experiments.points import POINT_REGISTRY
from repro.fusion import (ElementwiseChainFusionPass, FusedAttentionPass,
                          WindowedAttentionPass)
from repro.hw.device import a100_like, mi100, v100_like
from repro.memoryplan import CheckpointingPass
from repro.ops.base import Kernel
from repro.ops.windowed_attention import WindowConfig
from repro.profiler.breakdown import region_breakdown, summarize
from repro.profiler.profiler import profile_trace
from repro.trace import PassManager, Trace, build_pipeline
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.variants import build_finetuning_trace, build_inference_trace

GOLDEN = Path(__file__).parent / "golden" / "kernel_tables.json"

DEVICES = {"a100": a100_like, "mi100": mi100, "v100": v100_like}

#: Pipelines every registered operating point is pinned under.
POINT_PIPELINES = ("", "fuse_elementwise,fused_attention", "checkpointing",
                   "windowed_attention:64")

#: The pass-suite operating points.
TINY = training_point(1, 2, Precision.FP32)
LARGE = training_point(2, 4, Precision.MIXED)

#: Case name -> (trace builder, device name).
CASES: dict[str, tuple[Callable[[], Trace], str]] = {}


def _case(name: str, build: Callable[[], Trace],
          device: str = "mi100") -> None:
    CASES[name] = (build, device)


def _pretrain(model, training) -> Callable[[], Trace]:
    return lambda: build_iteration_trace(model, training)


def _piped(passes, model, training) -> Callable[[], Trace]:
    return lambda: PassManager(passes).run(
        build_iteration_trace(model, training))


# Every pre-training family the registry experiments touch: the Fig. 3
# points, checkpointing (Sec. 4), the unfused-optimizer ablation
# (Fig. 12) and the adam/sgd emitters.
for _name, _training in zip(("ph1-b32", "ph1-b4", "ph2-b4", "ph1-b32-mixed",
                             "ph2-b4-mixed"), FIG3_POINTS):
    _case(f"pretrain.large-{_name}", _pretrain(BERT_LARGE, _training))
for _name, _model, _training in (
        ("base-ph1-b16", BERT_BASE, training_point(1, 16, Precision.FP32)),
        ("tiny-ph1-b32", BERT_TINY, training_point(1, 32, Precision.FP32)),
        ("tiny-ph2-b4-ckpt", BERT_TINY,
         training_point(2, 4, Precision.FP32, activation_checkpointing=True)),
        ("tiny-ph1-b32-unfused", BERT_TINY,
         training_point(1, 32, Precision.FP32, fuse_optimizer=False)),
        ("tiny-ph1-b8-adam", BERT_TINY,
         training_point(1, 8, Precision.MIXED, optimizer="adam")),
        ("tiny-ph1-b8-sgd", BERT_TINY,
         training_point(1, 8, Precision.FP32, optimizer="sgd"))):
    _case(f"pretrain.{_name}", _pretrain(_model, _training))

# The batched timing path on every device model.
for _device in sorted(DEVICES):
    _case(f"device.{_device}",
          _pretrain(BERT_TINY, training_point(2, 4, Precision.MIXED)),
          _device)

_case("inference.base-ph1-b8-mixed", lambda: build_inference_trace(
    BERT_BASE, training_point(1, 8, Precision.MIXED)))
_case("finetuning.base-ph1-b8-fp32", lambda: build_finetuning_trace(
    BERT_BASE, training_point(1, 8, Precision.FP32)))
for _ways in (1, 4):
    _case(f"sliced.tiny-ways{_ways}",
          lambda ways=_ways: build_sliced_iteration_trace(BERT_TINY, TINY,
                                                          ways))

# Each transform family on the tiny and large pass-suite traces.
for _size, _model, _training in (("tiny", BERT_TINY, TINY),
                                 ("large", BERT_LARGE, LARGE)):
    for _name, _pass in (("fuse_elementwise", ElementwiseChainFusionPass()),
                         ("checkpointing", CheckpointingPass()),
                         ("fused_attention", FusedAttentionPass()),
                         ("windowed_attention", WindowedAttentionPass())):
        _case(f"pass.{_name}.{_size}", _piped((_pass,), _model, _training))
_case("pass.checkpointing-4.large",
      _piped((CheckpointingPass(4),), BERT_LARGE, LARGE))
_case("pass.windowed_attention-32x5.large",
      _piped((WindowedAttentionPass(WindowConfig(block=32,
                                                 window_blocks=5)),),
             BERT_LARGE, LARGE))
_case("compose.fuse_elementwise+checkpointing.tiny",
      _piped((ElementwiseChainFusionPass(), CheckpointingPass()),
             BERT_TINY, TINY))

# Every registered operating point under the named pipelines.
for _point, (_model, _training) in POINT_REGISTRY.items():
    for _spec in POINT_PIPELINES:
        _case(f"point.{_point}[{_spec}]",
              _piped(build_pipeline(_spec).passes, _model, _training))


def _canonical(value) -> str:
    """Type-stable text of one kernel field (enums by name, ints as int)."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return "(" + ",".join(_canonical(v) for v in
                              dataclasses.astuple(value)) + ")"
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(value)


_KERNEL_FIELDS = tuple(f.name for f in dataclasses.fields(Kernel))


def kernel_digest(kernels) -> str:
    """SHA-256 over every field of every kernel, in order."""
    sha = hashlib.sha256()
    for kernel in kernels:
        sha.update("\x1f".join(_canonical(getattr(kernel, name))
                               for name in _KERNEL_FIELDS).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def times_digest(times: np.ndarray) -> str:
    """SHA-256 of the little-endian float64 bytes of ``times``."""
    return hashlib.sha256(
        np.ascontiguousarray(times, dtype="<f8").tobytes()).hexdigest()


def fingerprint(trace: Trace, device: str) -> dict:
    """What the corpus pins for one trace timed on one device."""
    profile = profile_trace(trace, DEVICES[device]())
    return {
        "device": device,
        "kernels": len(trace),
        "kernel_sha256": kernel_digest(trace.kernels),
        "times_sha256": times_digest(profile.times),
        "summary": summarize(profile),
        "regions": {region.value: entry.fraction
                    for region, entry in region_breakdown(profile).items()},
    }


def case_fingerprint(name: str) -> dict:
    build, device = CASES[name]
    return fingerprint(build(), device)


def load_golden() -> dict:
    """The frozen corpus (rewritten first under ``REPRO_REGEN_GOLDEN``)."""
    if os.environ.get("REPRO_REGEN_GOLDEN") and not _regenerated:
        GOLDEN.parent.mkdir(exist_ok=True)
        payload = {name: case_fingerprint(name) for name in CASES}
        GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")
        _regenerated.append(True)
    return json.loads(GOLDEN.read_text())


_regenerated: list[bool] = []

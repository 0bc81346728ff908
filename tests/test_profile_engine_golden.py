"""Golden: the columnar build/profile/aggregate engine against its frozen corpus.

The layer-templated trace build, the batched GEMM/bandwidth timing of
``kernel_times`` and the masked-reduction aggregation of ``Profile`` are
optimizations over a per-layer walk + scalar loop — they must not change
a single number.  ``tests/golden/kernel_tables.json`` (see
:mod:`tests.kernel_golden`) pins, for every operating point the registry
experiments exercise, on every device model:

* the kernel sequence (count, order and every field);
* the per-kernel times, bit for bit;
* the exact ``summarize()`` values and Transformer-region fractions.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import BERT_TINY, Precision, training_point
from repro.hw.device import mi100
from repro.hw.timing import kernel_time, kernel_times
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace
from tests.kernel_golden import CASES, case_fingerprint, load_golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


def _assert_matches_golden(name: str, golden: dict) -> None:
    got, want = case_fingerprint(name), golden[name]
    for field in ("device", "kernels", "kernel_sha256", "times_sha256",
                  "summary", "regions"):
        assert got[field] == want[field], (name, field)


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


PRETRAIN_CASES = sorted(name.removeprefix("pretrain.") for name in CASES
                        if name.startswith("pretrain."))
POINT_CASES = sorted(name.removeprefix("point.") for name in CASES
                     if name.startswith("point."))


@pytest.mark.parametrize("name", PRETRAIN_CASES)
def test_pretraining_point_equivalence(name, golden):
    _assert_matches_golden(f"pretrain.{name}", golden)


@pytest.mark.parametrize("device_name", ["a100", "mi100", "v100"])
def test_devices_equivalence(device_name, golden):
    """The batched timing path on every device model."""
    _assert_matches_golden(f"device.{device_name}", golden)


def test_inference_equivalence(golden):
    _assert_matches_golden("inference.base-ph1-b8-mixed", golden)


def test_finetuning_equivalence(golden):
    _assert_matches_golden("finetuning.base-ph1-b8-fp32", golden)


def test_region_breakdown_equivalence(golden):
    """Masked-reduction region fractions are pinned exactly."""
    _assert_matches_golden("pretrain.tiny-ph1-b32", golden)
    assert len(golden["pretrain.tiny-ph1-b32"]["regions"]) == 6


@pytest.mark.parametrize("name", POINT_CASES)
def test_registered_point_pipelines(name, golden):
    """Every registered operating point under every named pipeline."""
    _assert_matches_golden(f"point.{name}", golden)


def test_kernel_times_matches_scalar_rowwise():
    """kernel_times == [kernel_time(k) for k] including fused-GEMM rows."""
    from repro.fusion.attention_fusion import apply_fused_attention

    trace = build_iteration_trace(BERT_TINY,
                                  training_point(1, 4, Precision.FP32))
    fused = apply_fused_attention(trace)  # produces fused-GEMM records
    device = mi100()
    batched = kernel_times(fused, device)
    scalar = np.array([kernel_time(k, device) for k in fused.kernels])
    assert (batched == scalar).all()


def test_mutated_trace_still_equivalent():
    """A trace rebuilt from a prefix of its kernels times those rows
    exactly as the full trace did."""
    training = training_point(1, 4, Precision.FP32)
    trace = build_iteration_trace(BERT_TINY, training)
    device = mi100()
    half = len(trace) // 2
    truncated = trace.replaced(trace.kernels[:half])
    assert truncated.kernels == trace.kernels[:half]
    full = profile_trace(trace, device)
    part = profile_trace(truncated, device)
    assert (part.times == full.times[:half]).all()
    assert part.total_time == pytest.approx(float(np.sum(full.times[:half])),
                                            rel=1e-12)


def test_pickle_roundtrip_preserves_equivalence():
    """The columnar pickle form (runner cache payload) loses nothing."""
    training = training_point(2, 4, Precision.FP32)
    trace = build_iteration_trace(BERT_TINY, training)
    device = mi100()
    profile = profile_trace(trace, device)

    trace2 = pickle.loads(pickle.dumps(trace))
    profile2 = pickle.loads(pickle.dumps(profile))
    assert trace2.kernels == trace.kernels
    assert (profile2.times == profile.times).all()
    assert profile2.records == profile.records

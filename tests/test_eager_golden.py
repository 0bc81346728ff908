"""Frozen golden of the eager autograd engine's numerics.

The tensor engine is the executable oracle that the analytic trace is
cross-checked against, so its bytes are pinned here: SHA-256 digests of
tiny-BERT's loss, every named parameter's gradient (bytes and dtype) and
the recorded op stream, plus a small fp32/fp16 matmul chain.  A change
that moves any of them — a reordered reduction, a dtype promotion, an
extra recorded op — fails here even when it stays within tolerance.

The digests are specific to the NumPy/BLAS build they were made on;
regenerate after an intentional numerics change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_eager_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import BERT_TINY, TrainingConfig
from repro.model import BertForPreTraining
from repro.tensor import recording, tensor

GOLDEN = Path(__file__).parent / "golden" / "eager_autograd.json"


def _batch():
    training = TrainingConfig(batch_size=2, seq_len=8)
    rng = np.random.default_rng(3)
    tokens = rng.integers(4, BERT_TINY.vocab_size,
                          size=(training.batch_size, training.seq_len))
    labels = np.full_like(tokens, -100)
    labels[:, 3] = 7
    nsp = np.zeros(training.batch_size, dtype=int)
    return tokens, labels, nsp


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str(part.dtype).encode())
            sha.update(repr(part.shape).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _op_stream(ops) -> str:
    return _digest(*((r.kind, r.shapes, r.dtype, r.out_shape) for r in ops))


def _tiny_bert(dropout_p: float, masked: bool) -> dict[str, str]:
    tokens, labels, nsp = _batch()
    kwargs = {}
    if masked:
        padding = np.ones(tokens.shape, dtype=bool)
        padding[1, 6:] = False
        segments = np.zeros(tokens.shape, dtype=int)
        segments[:, 4:] = 1
        kwargs = {"segment_ids": segments, "padding_mask": padding}
    model = BertForPreTraining(BERT_TINY, seed=0, dropout_p=dropout_p)
    with recording.capture() as ops:
        loss = model.loss(tokens, labels, nsp, **kwargs)
        loss.backward()
    grads = []
    for name, param in model.named_parameters():
        assert param.grad is not None, name
        grads += [name, param.grad]
    return {"loss": _digest(loss.data), "grads": _digest(*grads),
            "ops": _op_stream(ops)}


def _matmul_chain(dtype) -> dict[str, str]:
    rng = np.random.default_rng(7)
    a_data = rng.standard_normal((4, 6)).astype(dtype)
    b_data = rng.standard_normal((6, 3)).astype(dtype)
    with recording.capture() as ops:
        a = tensor(a_data, requires_grad=True, dtype=dtype)
        b = tensor(b_data, requires_grad=True, dtype=dtype)
        out = (a.matmul(b) * 2.0).sum()
        out.backward()
    return {"out": _digest(out.data), "grads": _digest(a.grad, b.grad),
            "ops": _op_stream(ops)}


CASES = {
    "tiny_bert.dropout0": lambda: _tiny_bert(0.0, masked=False),
    "tiny_bert.dropout0.1.masked": lambda: _tiny_bert(0.1, masked=True),
    "matmul_chain.fp32": lambda: _matmul_chain(np.float32),
    "matmul_chain.fp16": lambda: _matmul_chain(np.float16),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        payload = {name: build() for name, build in CASES.items()}
        GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, golden):
    assert CASES[case]() == golden[case]


def test_repeat_runs_are_bit_identical():
    # Determinism is what makes a digest meaningful at all.
    assert _tiny_bert(0.1, masked=True) == _tiny_bert(0.1, masked=True)

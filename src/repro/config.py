"""Model and training configurations for the BERT characterization study.

This module defines the hyperparameters from Table 2a of the paper together
with the named configurations its evaluation uses:

* ``BERT_BASE`` / ``BERT_LARGE``: the standard BERT sizes (Devlin et al.).
* ``C1`` / ``C2`` / ``C3``: the layer-size sweep of Fig. 9, where ``C2`` is
  BERT Large and ``C3`` is a Megatron-LM-like model with a 2x wider hidden
  dimension.
* ``Ph1-Bj-FPk`` style training points of Figs. 3/4/8 via
  :func:`training_point`.

All downstream subsystems (trace generation, the executable NumPy model, the
distributed analytical model) consume these two dataclasses, so the exact
hyperparameter vocabulary of the paper lives in one place.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from enum import Enum


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer (``bool`` excluded).

    Boundaries use this instead of ``int()``, which would silently turn
    ``2.5`` into ``2`` and ``True`` into ``1``.
    """
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


class Precision(Enum):
    """Numeric precision of a training run.

    ``FP32`` is single precision throughout.  ``MIXED`` follows the paper's
    "FP16" configurations: forward/backward tensors, weights and gradients in
    FP16 while the optimizer holds FP32 master weights and runs entirely in
    FP32 (Sec. 3.2.1).
    """

    FP32 = "fp32"
    MIXED = "fp16"

    @property
    def activation_bytes(self) -> int:
        """Bytes per element of activations/gradients in FWD/BWD."""
        return 4 if self is Precision.FP32 else 2

    @property
    def optimizer_bytes(self) -> int:
        """Bytes per element of optimizer state (always FP32, Sec. 2.4)."""
        return 4


@dataclass(frozen=True)
class BertConfig:
    """Architecture hyperparameters of a BERT-style encoder (Table 2a).

    Attributes:
        num_layers: Transformer encoder layer count ``N``.
        d_model: hidden dimension ``d_model``.
        num_heads: attention head count ``h``.
        d_ff: FC intermediate dimension ``d_ff`` (usually ``4 * d_model``).
        vocab_size: WordPiece vocabulary size.
        max_position: maximum sequence length the position table supports.
        type_vocab_size: segment (sentence A/B) vocabulary size.
        name: human-readable label used in reports.
    """

    num_layers: int = 24
    d_model: int = 1024
    num_heads: int = 16
    d_ff: int = 4096
    vocab_size: int = 30522
    max_position: int = 512
    type_vocab_size: int = 2
    name: str = "bert"

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        for field in ("num_layers", "d_model", "num_heads", "d_ff", "vocab_size"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @property
    def d_head(self) -> int:
        """Per-head feature dimension ``d_model / h``."""
        return self.d_model // self.num_heads

    # ----------------------------------------------------------------- sizes
    def encoder_layer_parameters(self) -> int:
        """Parameter count of one Transformer encoder layer.

        Q/K/V/output projections, two FC weights, their biases, and the two
        LayerNorm gain/bias pairs.
        """
        d, f = self.d_model, self.d_ff
        attention = 4 * (d * d + d)
        feed_forward = (d * f + f) + (f * d + d)
        layer_norms = 2 * (2 * d)
        return attention + feed_forward + layer_norms

    def embedding_parameters(self) -> int:
        """Parameters of the token/position/segment embedding tables + LN."""
        d = self.d_model
        tables = (self.vocab_size + self.max_position + self.type_vocab_size) * d
        return tables + 2 * d

    def output_head_parameters(self) -> int:
        """Parameters of the MLM transform + decoder bias and NSP/pooler head.

        The MLM decoder weight is tied to the token embedding table (as in the
        reference implementation), so only its bias counts here.
        """
        d = self.d_model
        mlm_transform = d * d + d + 2 * d  # dense + LayerNorm
        mlm_decoder_bias = self.vocab_size
        pooler = d * d + d
        nsp = 2 * d + 2
        return mlm_transform + mlm_decoder_bias + pooler + nsp

    def total_parameters(self) -> int:
        """Total trainable parameter count of the pre-training model."""
        return (
            self.num_layers * self.encoder_layer_parameters()
            + self.embedding_parameters()
            + self.output_head_parameters()
        )

    def scaled(self, *, num_layers: int | None = None, d_model: int | None = None,
               d_ff: int | None = None, num_heads: int | None = None,
               name: str | None = None) -> "BertConfig":
        """Return a copy with some hyperparameters replaced (Fig. 8/9 sweeps)."""
        return dataclasses.replace(
            self,
            num_layers=num_layers if num_layers is not None else self.num_layers,
            d_model=d_model if d_model is not None else self.d_model,
            d_ff=d_ff if d_ff is not None else self.d_ff,
            num_heads=num_heads if num_heads is not None else self.num_heads,
            name=name if name is not None else self.name,
        )


@dataclass(frozen=True)
class TrainingConfig:
    """One training operating point: phase, input size and technique choices.

    Attributes:
        batch_size: per-device mini-batch ``B``.
        seq_len: input sequence length ``n`` (128 for Phase-1, 512 for
            Phase-2 of pre-training).
        precision: FP32 or mixed precision.
        masked_fraction: fraction of tokens selected for the MLM objective;
            the output head gathers only those positions.
        activation_checkpointing: recompute activations during backprop
            (Sec. 4), checkpointing ``sqrt(N)`` boundaries.
        fuse_optimizer: emit Apex-style per-layer fused LAMBStage1/2 kernels
            (the paper's baseline) rather than one kernel per elementwise op.
        optimizer: optimizer family used for the update phase.
    """

    batch_size: int = 32
    seq_len: int = 128
    precision: Precision = Precision.FP32
    masked_fraction: float = 0.15
    activation_checkpointing: bool = False
    fuse_optimizer: bool = True
    optimizer: str = "lamb"

    def __post_init__(self) -> None:
        for field in ("batch_size", "seq_len"):
            value = getattr(self, field)
            if not is_integer(value):
                raise ValueError(f"{field} must be an integer, "
                                 f"got {value!r}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.seq_len <= 0:
            raise ValueError("seq_len must be positive")
        if not 0.0 < self.masked_fraction < 1.0:
            raise ValueError("masked_fraction must be in (0, 1)")
        if self.optimizer not in ("lamb", "adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def tokens_per_iteration(self) -> int:
        """Token count ``B * n`` processed by one iteration."""
        return self.batch_size * self.seq_len

    @property
    def masked_positions(self) -> int:
        """Number of MLM positions gathered by the output head per batch."""
        return max(1, int(round(self.tokens_per_iteration * self.masked_fraction)))

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``Ph1-B32-FP32``."""
        phase = 1 if self.seq_len <= 128 else 2
        bits = 32 if self.precision is Precision.FP32 else 16
        return f"Ph{phase}-B{self.batch_size}-FP{bits}"


# --------------------------------------------------------------------- presets
BERT_BASE = BertConfig(num_layers=12, d_model=768, num_heads=12, d_ff=3072,
                       name="bert-base")
BERT_LARGE = BertConfig(num_layers=24, d_model=1024, num_heads=16, d_ff=4096,
                        name="bert-large")

#: Fig. 9 layer-size sweep.  C2 is BERT Large; C1 halves the hidden sizes and
#: C3 doubles them (Megatron-LM-BERT-like, "2x higher d_model than BERT-Large").
C1 = BERT_LARGE.scaled(d_model=512, d_ff=2048, num_heads=8, name="C1")
C2 = BERT_LARGE.scaled(name="C2")
C3 = BERT_LARGE.scaled(d_model=2048, d_ff=8192, num_heads=32, name="C3")

#: A small configuration for unit tests and the executable NumPy model.
BERT_TINY = BertConfig(num_layers=2, d_model=64, num_heads=4, d_ff=256,
                       vocab_size=512, max_position=128, name="bert-tiny")


def training_point(phase: int, batch_size: int, precision: Precision,
                   **overrides) -> TrainingConfig:
    """Build the paper's ``Phi-Bj-FPk`` operating points.

    Args:
        phase: 1 (``n=128``) or 2 (``n=512``) per Sec. 2.1.
        batch_size: mini-batch size ``B``.
        precision: numeric precision of the run.
        **overrides: forwarded to :class:`TrainingConfig`.
    """
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    seq_len = 128 if phase == 1 else 512
    return TrainingConfig(batch_size=batch_size, seq_len=seq_len,
                          precision=precision, **overrides)


#: The five operating points of Fig. 3, in the paper's order.
FIG3_POINTS = (
    training_point(1, 32, Precision.FP32),
    training_point(1, 4, Precision.FP32),
    training_point(2, 4, Precision.FP32),
    training_point(1, 32, Precision.MIXED),
    training_point(2, 4, Precision.MIXED),
)

"""Tests for repro.config: hyperparameters, presets and parameter counts."""

import dataclasses

import numpy as np
import pytest

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, C1, C2, C3,
                          FIG3_POINTS, BertConfig, Precision, TrainingConfig,
                          training_point)


class TestBertConfig:
    def test_bert_large_matches_paper_hyperparameters(self):
        # Sec. 3.1.3: N=24, d_model=1024, h=16, d_ff=4096.
        assert BERT_LARGE.num_layers == 24
        assert BERT_LARGE.d_model == 1024
        assert BERT_LARGE.num_heads == 16
        assert BERT_LARGE.d_ff == 4096
        assert BERT_LARGE.d_head == 64

    def test_bert_large_parameter_count_near_340m(self):
        # Sec. 1: "110-340 million parameters".
        assert 330e6 < BERT_LARGE.total_parameters() < 345e6

    def test_bert_base_parameter_count_near_110m(self):
        assert 105e6 < BERT_BASE.total_parameters() < 115e6

    def test_d_model_must_divide_by_heads(self):
        with pytest.raises(ValueError):
            BertConfig(d_model=100, num_heads=16)

    @pytest.mark.parametrize("field", ["num_layers", "d_model", "d_ff",
                                       "vocab_size"])
    def test_positive_fields_rejected_when_nonpositive(self, field):
        kwargs = {field: 0}
        if field == "d_model":
            kwargs["num_heads"] = 1
        with pytest.raises(ValueError):
            BertConfig(**kwargs)

    def test_encoder_layer_parameters_formula(self):
        d, f = BERT_LARGE.d_model, BERT_LARGE.d_ff
        expected = 4 * (d * d + d) + (d * f + f) + (f * d + d) + 4 * d
        assert BERT_LARGE.encoder_layer_parameters() == expected

    def test_scaled_replaces_only_requested_fields(self):
        wider = BERT_LARGE.scaled(d_model=2048, num_heads=32, name="wide")
        assert wider.d_model == 2048
        assert wider.num_layers == BERT_LARGE.num_layers
        assert wider.name == "wide"
        assert BERT_LARGE.d_model == 1024  # original untouched

    def test_c_sweep_configs_double_each_step(self):
        assert C1.d_model * 2 == C2.d_model
        assert C2.d_model * 2 == C3.d_model
        assert C1.d_ff * 2 == C2.d_ff == C3.d_ff // 2
        # C2 is BERT Large.
        assert C2.total_parameters() == BERT_LARGE.total_parameters()

    def test_tiny_config_is_valid_and_small(self):
        assert BERT_TINY.total_parameters() < 1e6


class TestTrainingConfig:
    def test_tokens_per_iteration(self):
        t = TrainingConfig(batch_size=32, seq_len=128)
        assert t.tokens_per_iteration == 4096

    def test_label_matches_paper_naming(self):
        assert training_point(1, 32, Precision.FP32).label == "Ph1-B32-FP32"
        assert training_point(2, 4, Precision.MIXED).label == "Ph2-B4-FP16"

    def test_phase_determines_sequence_length(self):
        assert training_point(1, 8, Precision.FP32).seq_len == 128
        assert training_point(2, 8, Precision.FP32).seq_len == 512

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            training_point(3, 8, Precision.FP32)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"seq_len": 0}, {"masked_fraction": 0.0},
        {"masked_fraction": 1.0}, {"optimizer": "adagrad"},
        # Non-integer sizes used to pass (2.5 was labelled Ph1-B2.5-FP32).
        {"batch_size": 2.5}, {"batch_size": 2.0}, {"batch_size": True},
        {"seq_len": "128"}, {"seq_len": None},
    ])
    def test_invalid_training_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_numpy_integer_sizes_stored_unchanged(self):
        t = TrainingConfig(batch_size=np.int64(8), seq_len=np.int32(64))
        assert type(t.batch_size) is np.int64
        assert type(t.seq_len) is np.int32
        assert t == TrainingConfig(batch_size=8, seq_len=64)
        assert t.label == "Ph1-B8-FP32"

    def test_masked_positions_rounding(self):
        t = TrainingConfig(batch_size=1, seq_len=128, masked_fraction=0.15)
        assert t.masked_positions == round(128 * 0.15)

    def test_precision_bytes(self):
        assert Precision.FP32.activation_bytes == 4
        assert Precision.MIXED.activation_bytes == 2
        # Optimizer state always FP32 (Sec. 2.4).
        assert Precision.MIXED.optimizer_bytes == 4

    def test_fig3_points_cover_paper_configs(self):
        labels = [p.label for p in FIG3_POINTS]
        assert labels == ["Ph1-B32-FP32", "Ph1-B4-FP32", "Ph2-B4-FP32",
                          "Ph1-B32-FP16", "Ph2-B4-FP16"]

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BERT_LARGE.d_model = 2048

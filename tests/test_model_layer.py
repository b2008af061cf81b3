"""Tests for repro.model: config presets, WisdomModel, checkpoints, zoo cards,
throughput."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, GenerationError, ReproError
from repro.model.checkpoints import load_checkpoint, restore_weights, save_checkpoint, snapshot_weights
from repro.model.config import CONTEXT_WINDOWS, SIZE_2_7B, SIZE_350M, SIZE_6B, transformer_config
from repro.model.lm import WisdomModel
from repro.model.throughput import measure_throughput, speedup
from repro.model.zoo import (
    CARDS_BY_NAME,
    DATASET_COLUMNS,
    MODEL_CARDS,
    PretrainingCorpora,
    table2_rows,
)
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM
from tests.conftest import evaluate_loss


def loss_on_text(model: WisdomModel, text: str) -> float:
    """Mean next-token cross-entropy of ``text`` (right-truncated to fit)."""
    ids = model.tokenizer.encode(text)[: model.config.n_positions]
    if len(ids) < 2:
        raise GenerationError("text too short to score")
    array = np.array([ids], dtype=np.int64)
    targets = np.roll(array, -1, axis=1)
    targets[:, -1] = -1
    return evaluate_loss(model.network, array, targets)


class TestConfigPresets:
    def test_sizes_ordered(self):
        def params(preset):
            return preset.dim * preset.dim * preset.n_layers

        assert params(SIZE_350M) < params(SIZE_2_7B) < params(SIZE_6B)

    def test_context_window_mapping(self):
        config = transformer_config(100, "350M", context_window=1024)
        assert config.n_positions == CONTEXT_WINDOWS[1024]

    def test_context_windows_ordered(self):
        assert CONTEXT_WINDOWS[512] < CONTEXT_WINDOWS[1024] < CONTEXT_WINDOWS[2048]

    def test_unmapped_window_verbatim(self):
        config = transformer_config(100, "350M", context_window=48)
        assert config.n_positions == 48

    def test_preset_object_accepted(self):
        config = transformer_config(100, SIZE_2_7B)
        assert config.dim == SIZE_2_7B.dim


@pytest.fixture()
def wisdom_model(tiny_tokenizer, tiny_config):
    return WisdomModel("test-model", tiny_tokenizer, DecoderLM(tiny_config, numpy_rng(0)))


class TestWisdomModel:
    def test_complete_returns_text(self, wisdom_model):
        out = wisdom_model.complete("- name: Install nginx\n", max_new_tokens=8)
        assert isinstance(out, str)

    def test_empty_prompt_rejected(self, wisdom_model):
        with pytest.raises(GenerationError):
            wisdom_model.complete("")

    def test_long_prompt_left_truncated(self, wisdom_model):
        long_prompt = "- name: install\n" * 100
        out = wisdom_model.complete(long_prompt, max_new_tokens=4)
        assert isinstance(out, str)

    def test_loss_and_perplexity(self, wisdom_model):
        loss = loss_on_text(wisdom_model, "- name: Install nginx\n  apt:\n    name: nginx\n")
        assert loss > 0
        assert np.exp(loss) > 1.0  # perplexity

    def test_loss_too_short(self, wisdom_model):
        with pytest.raises(GenerationError):
            loss_on_text(wisdom_model, "")


class TestCheckpoints:
    def test_save_load_roundtrip(self, wisdom_model, tmp_path):
        prompt = "- name: Install nginx\n"
        expected = wisdom_model.complete(prompt, max_new_tokens=6)
        save_checkpoint(wisdom_model, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        assert restored.name == wisdom_model.name
        assert restored.complete(prompt, max_new_tokens=6) == expected

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope")

    @pytest.fixture()
    def saved_model(self, wisdom_model, tmp_path):
        return save_checkpoint(wisdom_model, tmp_path / "ckpt")

    def test_missing_weights_file(self, saved_model):
        (saved_model / "weights.npz").unlink()
        with pytest.raises((CheckpointError, FileNotFoundError)):
            load_checkpoint(saved_model)

    def test_truncated_weights_file(self, saved_model):
        weights = saved_model / "weights.npz"
        weights.write_bytes(weights.read_bytes()[:100])
        with pytest.raises(Exception):
            load_checkpoint(saved_model)

    def test_tampered_architecture(self, saved_model):
        config_file = saved_model / "config.json"
        metadata = json.loads(config_file.read_text())
        metadata["architecture"]["dim"] = 128  # no longer matches weights
        config_file.write_text(json.dumps(metadata))
        with pytest.raises(ReproError):
            load_checkpoint(saved_model)

    def test_corrupt_vocab_json(self, saved_model):
        (saved_model / "vocab.json").write_text("{not json")
        with pytest.raises((ValueError, json.JSONDecodeError)):
            load_checkpoint(saved_model)

    def test_snapshot_restore(self, wisdom_model):
        snapshot = snapshot_weights(wisdom_model.network)
        parameter = wisdom_model.network.parameters()[0]
        parameter.data += 1.0
        restore_weights(wisdom_model.network, snapshot)
        assert np.allclose(parameter.data, snapshot[parameter.name])

    def test_snapshot_is_a_copy(self, wisdom_model):
        snapshot = snapshot_weights(wisdom_model.network)
        parameter = wisdom_model.network.parameters()[0]
        parameter.data += 1.0
        assert not np.allclose(snapshot[parameter.name], parameter.data)


class TestZooCards:
    def test_seven_cards(self):
        assert len(MODEL_CARDS) == 7

    def test_table2_matrix_matches_paper(self):
        rows = {row[0]: row[1:] for row in table2_rows()}
        # columns: pile, bigquery, bigpython, ansible_yaml, generic_yaml
        assert rows["CodeGen-NL"] == ["x", "", "", "", ""]
        assert rows["CodeGen-Multi"] == ["x", "x", "", "", ""]
        assert rows["CodeGen-Mono"] == ["x", "x", "x", "", ""]
        assert rows["Wisdom-Ansible"] == ["", "", "", "x", ""]
        assert rows["Wisdom-Yaml"] == ["", "", "", "x", "x"]
        assert rows["Wisdom-Ansible-Multi"] == ["x", "x", "", "x", ""]
        assert rows["Wisdom-Yaml-Multi"] == ["x", "x", "", "x", "x"]

    def test_warm_start_bases(self):
        assert CARDS_BY_NAME["Wisdom-Ansible-Multi"].initialized_from == "CodeGen-Multi"
        assert CARDS_BY_NAME["Wisdom-Yaml-Multi"].initialized_from == "CodeGen-Multi"
        assert CARDS_BY_NAME["Wisdom-Ansible"].initialized_from is None

    def test_dataset_columns_count(self):
        assert len(DATASET_COLUMNS) == 5

    def test_for_card_warm_start_excludes_base_data(self, galaxy_corpus):
        from repro.dataset.corpus import Corpus, Document

        def mini(name):
            return Corpus(name, [Document(f"{name}/0", name, "x", f"content {name}")])

        corpora = PretrainingCorpora(
            pile=mini("pile"),
            bigquery=mini("bq"),
            bigpython=mini("bp"),
            ansible=mini("ans"),
            generic=mini("gen"),
        )
        card = CARDS_BY_NAME["Wisdom-Ansible-Multi"]
        cold = corpora.for_card(card, warm_start=False)
        warm = corpora.for_card(card, warm_start=True)
        assert len(cold) == 3  # pile + bigquery + ansible
        assert len(warm) == 1  # only the ansible extension


class TestThroughput:
    def test_measure(self, wisdom_model):
        result = measure_throughput(wisdom_model.network, prompt_length=4, new_tokens=6, runs=2)
        assert result.tokens_per_second > 0
        assert result.total_tokens >= 2

    def test_speedup_ratio(self, wisdom_model):
        result = measure_throughput(wisdom_model.network, prompt_length=4, new_tokens=4, runs=1)
        assert speedup(result, result) == pytest.approx(1.0)

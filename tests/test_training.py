"""Tests for repro.training (trainer, pretrain, finetune)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import evaluate
from repro.model.lm import WisdomModel
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.training.finetune import encode_samples, finetune
from repro.training.pretrain import pretrain
from repro.training.trainer import TrainingHistory, iterate_batches, pad_sequences, run_epoch


class TestPadSequences:
    def test_padding_and_targets(self):
        ids, targets = pad_sequences([[1, 2, 3], [4, 5]], pad_id=0, window=8)
        assert ids.tolist() == [[1, 2, 3], [4, 5, 0]]
        assert targets.tolist() == [[2, 3, -1], [5, -1, -1]]

    def test_left_truncation_to_window(self):
        ids, _ = pad_sequences([[1, 2, 3, 4, 5]], pad_id=0, window=3)
        assert ids.tolist() == [[3, 4, 5]]


class TestIterateBatches:
    def test_covers_all_rows(self):
        rows = np.arange(10)[:, None]
        targets = rows.copy()
        seen = []
        for batch_ids, _ in iterate_batches(rows, targets, 3, np.random.default_rng(0)):
            seen.extend(batch_ids[:, 0].tolist())
        assert sorted(seen) == list(range(10))


class TestRunEpoch:
    def test_loss_decreases_over_epochs(self, tiny_network):
        rows = np.tile(np.arange(12), (4, 1)).astype(np.int64) % tiny_network.config.vocab_size
        targets = np.roll(rows, -1, axis=1)
        targets[:, -1] = -1
        optimizer = Adam(tiny_network.parameters(), learning_rate=2e-3)
        history = TrainingHistory()
        rng = np.random.default_rng(0)
        first, _ = run_epoch(tiny_network, optimizer, iterate_batches(rows, targets, 2, rng), history=history)
        for _ in range(6):
            last, _ = run_epoch(tiny_network, optimizer, iterate_batches(rows, targets, 2, rng), history=history)
        assert last < first
        assert history.epoch_losses[-1] < history.epoch_losses[0]


class TestPretrain:
    def test_pretrain_reduces_loss(self, galaxy_corpus, tiny_tokenizer):
        config = TransformerConfig(
            vocab_size=tiny_tokenizer.vocab_size, n_positions=32, dim=16, n_layers=1, n_heads=2
        )
        network = DecoderLM(config, numpy_rng(0))
        history = pretrain(network, galaxy_corpus, tiny_tokenizer, epochs=3, learning_rate=2e-3, max_batches_per_epoch=8)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_continue_pretraining(self, galaxy_corpus, tiny_tokenizer):
        config = TransformerConfig(
            vocab_size=tiny_tokenizer.vocab_size, n_positions=32, dim=16, n_layers=1, n_heads=2
        )
        model = WisdomModel("m", tiny_tokenizer, DecoderLM(config, numpy_rng(0)))
        history = pretrain(
            model.network, galaxy_corpus, model.tokenizer, epochs=1, max_batches_per_epoch=4
        )
        assert len(history.epoch_losses) == 1


@pytest.fixture()
def tiny_wisdom(tiny_tokenizer):
    config = TransformerConfig(
        vocab_size=tiny_tokenizer.vocab_size, n_positions=48, dim=16, n_layers=1, n_heads=2
    )
    return WisdomModel("tiny", tiny_tokenizer, DecoderLM(config, numpy_rng(3)))


class TestFinetune:
    def test_encode_appends_eot(self, tiny_wisdom, finetune_dataset):
        encoded = encode_samples(finetune_dataset.train[:3], tiny_wisdom)
        assert all(sequence[-1] == tiny_wisdom.tokenizer.end_of_text_id for sequence in encoded)

    def test_finetune_reduces_loss(self, tiny_wisdom, finetune_dataset):
        history = finetune(
            tiny_wisdom,
            finetune_dataset.train[:48],
            validation_samples=None,
            epochs=3,
        )
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        # one cosine-schedule rate per step, as pretrain records its linear one
        assert len(history.learning_rates) == len(history.step_losses) == 3 * 3

    def test_finetune_empty_rejected(self, tiny_wisdom):
        with pytest.raises(ValueError):
            finetune(tiny_wisdom, [], epochs=1)

    def test_best_checkpoint_restored(self, tiny_wisdom, finetune_dataset):
        validation = finetune_dataset.validation[:4]
        history = finetune(
            tiny_wisdom,
            finetune_dataset.train[:32],
            validation,
            epochs=2,
            validation_subset=2,
        )
        # validation BLEU recorded once per epoch (stored negated)
        assert len(history.validation_losses) == 2
        # the selection scores with the evaluation harness, and the best
        # epoch's weights are the ones left in place
        best = max(-loss for loss in history.validation_losses)
        assert evaluate(tiny_wisdom, validation, max_samples=2).bleu == best

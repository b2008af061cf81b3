"""Integration tests for building the model zoo (Table 2 → trained models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.corpus import Corpus, Document
from repro.model.zoo import (
    CARDS_BY_NAME,
    PretrainingCorpora,
    build_model,
    build_tokenizer,
)


def _mini_corpus(name: str, texts: list[str]) -> Corpus:
    return Corpus(name, [Document(f"{name}/{i}", name, "x", text) for i, text in enumerate(texts)])


@pytest.fixture(scope="module")
def mini_corpora(galaxy_corpus):
    ansible_texts = galaxy_corpus.texts()[:40]
    return PretrainingCorpora(
        pile=_mini_corpus("pile", ["the server restarts the service. " * 6] * 20),
        bigquery=_mini_corpus("bigquery", ["def f(x):\n    return x\n"] * 20),
        bigpython=_mini_corpus("bigpython", ["def g(y):\n    return y\n"] * 10),
        ansible=_mini_corpus("ansible", ansible_texts),
        generic=_mini_corpus("generic", ["a: 1\nb:\n  - 2\n"] * 20),
    )


@pytest.fixture(scope="module")
def mini_tokenizer(mini_corpora):
    return build_tokenizer(mini_corpora, vocab_size=420, max_texts=80)


class TestBuildModel:
    def test_single_card(self, mini_corpora, mini_tokenizer):
        model = build_model(
            CARDS_BY_NAME["Wisdom-Ansible"],
            mini_corpora,
            mini_tokenizer,
            epochs=1,
            max_batches_per_epoch=4,
        )
        assert model.name == "Wisdom-Ansible"
        assert model.config.vocab_size == mini_tokenizer.vocab_size

    def test_warm_start_changes_initialization(self, mini_corpora, mini_tokenizer):
        base = build_model(
            CARDS_BY_NAME["CodeGen-Multi"], mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=4
        )
        # Same-window card so weights are shape-compatible.
        card = CARDS_BY_NAME["Wisdom-Ansible-Multi"]
        cold = build_model(card, mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2)
        # Warm start requires matching architecture; adjust base card window.
        from dataclasses import replace

        warm_card = replace(card, context_window=CARDS_BY_NAME["CodeGen-Multi"].context_window)
        warm = build_model(
            warm_card, mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2, base_model=base
        )
        cold_first = cold.network.parameters()[0].data
        warm_first = warm.network.parameters()[0].data
        assert cold_first.shape == warm_first.shape
        assert not np.allclose(cold_first, warm_first)

    def test_base_weights_not_mutated(self, mini_corpora, mini_tokenizer):
        from dataclasses import replace

        base = build_model(
            CARDS_BY_NAME["CodeGen-Multi"], mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2
        )
        snapshot = base.network.parameters()[0].data.copy()
        warm_card = replace(
            CARDS_BY_NAME["Wisdom-Ansible-Multi"],
            context_window=CARDS_BY_NAME["CodeGen-Multi"].context_window,
        )
        build_model(
            warm_card, mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2, base_model=base
        )
        assert np.allclose(base.network.parameters()[0].data, snapshot)


class TestBuildZoo:
    def test_subset_zoo_with_warm_start(self, mini_corpora, mini_tokenizer):
        from dataclasses import replace

        base = build_model(
            CARDS_BY_NAME["CodeGen-Multi"], mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2
        )
        card = replace(
            CARDS_BY_NAME["Wisdom-Ansible-Multi"],
            context_window=CARDS_BY_NAME["CodeGen-Multi"].context_window,
        )
        warm = build_model(
            card, mini_corpora, mini_tokenizer, epochs=1, max_batches_per_epoch=2, base_model=base
        )
        assert {base.name, warm.name} == {"CodeGen-Multi", "Wisdom-Ansible-Multi"}

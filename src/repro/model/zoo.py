"""The model zoo: Table 2's seven pretrained models.

Each :class:`ModelCard` records which pretraining sets a model saw — The
Pile, BigQuery, BigPython, Ansible YAML, Generic YAML — exactly as the
paper's Table 2 lays them out.  :func:`build_model` trains one; passed the
trained CodeGen-Multi, it warm-starts the two ``*-Multi`` Wisdom models
from its weights ("initialized with the weights of CodeGen-Multi and we
extended the pre-training").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.corpus import Corpus
from repro.model.checkpoints import restore_weights, snapshot_weights
from repro.model.config import SIZE_350M, SizePreset, transformer_config
from repro.model.lm import WisdomModel
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM
from repro.tokenizer.bpe import BpeTokenizer
from repro.training.pretrain import pretrain
from repro.utils.rng import SeededRng, derive_seed

PILE = "pile"
BIGQUERY = "bigquery"
BIGPYTHON = "bigpython"
ANSIBLE_YAML = "ansible_yaml"
GENERIC_YAML = "generic_yaml"

DATASET_COLUMNS = (PILE, BIGQUERY, BIGPYTHON, ANSIBLE_YAML, GENERIC_YAML)


@dataclass(frozen=True)
class ModelCard:
    """One row of Table 2."""

    name: str
    datasets: tuple[str, ...]
    initialized_from: str | None = None
    size: SizePreset = SIZE_350M
    context_window: int = 1024

    def uses(self, dataset: str) -> bool:
        return dataset in self.datasets


MODEL_CARDS: tuple[ModelCard, ...] = (
    ModelCard("CodeGen-NL", (PILE,), context_window=2048),
    ModelCard("CodeGen-Multi", (PILE, BIGQUERY), context_window=2048),
    ModelCard("CodeGen-Mono", (PILE, BIGQUERY, BIGPYTHON), context_window=2048),
    ModelCard("Wisdom-Ansible", (ANSIBLE_YAML,)),
    ModelCard("Wisdom-Yaml", (ANSIBLE_YAML, GENERIC_YAML)),
    ModelCard("Wisdom-Ansible-Multi", (PILE, BIGQUERY, ANSIBLE_YAML), initialized_from="CodeGen-Multi"),
    ModelCard("Wisdom-Yaml-Multi", (PILE, BIGQUERY, ANSIBLE_YAML, GENERIC_YAML), initialized_from="CodeGen-Multi"),
)

CARDS_BY_NAME: dict[str, ModelCard] = {card.name: card for card in MODEL_CARDS}


def table2_rows() -> list[list[str]]:
    """Rows shaped like the paper's Table 2 (check marks per dataset)."""
    rows = []
    for card in MODEL_CARDS:
        rows.append(
            [card.name]
            + [("x" if card.uses(dataset) else "") for dataset in DATASET_COLUMNS]
        )
    return rows


@dataclass
class PretrainingCorpora:
    """The five pretraining sets, already built by :mod:`repro.dataset`."""

    pile: Corpus
    bigquery: Corpus
    bigpython: Corpus
    ansible: Corpus
    generic: Corpus

    def for_card(self, card: ModelCard, warm_start: bool) -> Corpus:
        """The merged corpus a card trains on.

        Warm-started cards only see the *extension* data (their base model
        already covered the rest).
        """
        parts: list[Corpus] = []
        selected = card.datasets
        if warm_start and card.initialized_from is not None:
            base = CARDS_BY_NAME[card.initialized_from]
            selected = tuple(dataset for dataset in card.datasets if dataset not in base.datasets)
        mapping = {
            PILE: self.pile,
            BIGQUERY: self.bigquery,
            BIGPYTHON: self.bigpython,
            ANSIBLE_YAML: self.ansible,
            GENERIC_YAML: self.generic,
        }
        for dataset in selected:
            parts.append(mapping[dataset])
        merged = Corpus(name=f"pretrain-{card.name}")
        for part in parts:
            merged.extend(part.documents)
        return merged.require_nonempty()


def build_tokenizer(corpora: PretrainingCorpora, vocab_size: int = 2048, max_texts: int = 1500) -> BpeTokenizer:
    """One shared BPE tokenizer over a sample of every pretraining set.

    (The paper reuses the CodeGen tokenizer for all models; one shared
    vocabulary keeps the zoo comparable.)
    """
    texts: list[str] = []
    # Ansible-YAML gets the largest share so its idioms compress well —
    # the CodeGen tokenizer similarly over-represents code.
    texts.extend(corpora.ansible.texts()[: max_texts // 2])
    for corpus in (corpora.pile, corpora.bigquery, corpora.bigpython, corpora.generic):
        texts.extend(corpus.texts()[: max_texts // 8])
    return BpeTokenizer.train(texts, vocab_size=vocab_size)


def build_model(
    card: ModelCard,
    corpora: PretrainingCorpora,
    tokenizer: BpeTokenizer,
    seed: int = 0,
    epochs: int = 2,
    learning_rate: float = 1e-3,
    max_batches_per_epoch: int | None = 120,
    base_model: WisdomModel | None = None,
) -> WisdomModel:
    """Pretrain one zoo model.

    Pass ``base_model`` (the already-trained CodeGen-Multi) for the
    warm-started Wisdom cards; its weights are copied, never mutated.
    """
    config = transformer_config(tokenizer.vocab_size, card.size, card.context_window)
    network = DecoderLM(config, numpy_rng(derive_seed(seed, "init", card.name)))
    if base_model is not None:
        restore_weights(network, snapshot_weights(base_model.network))
    corpus = corpora.for_card(card, warm_start=base_model is not None)
    pretrain(
        network,
        corpus,
        tokenizer,
        epochs=epochs,
        learning_rate=learning_rate,
        seed=derive_seed(seed, "pretrain", card.name),
        max_batches_per_epoch=max_batches_per_epoch,
    )
    return WisdomModel(
        name=card.name,
        tokenizer=tokenizer,
        network=network,
        size_label=card.size.label,
        context_window_label=card.context_window,
    )


def build_default_corpora(rng: SeededRng, scale: float = 0.0003) -> PretrainingCorpora:
    """Convenience: the five pretraining corpora at a given scale."""
    from repro.dataset.sources import (
        build_ansible_pretraining_corpus,
        build_bigpython_corpus,
        build_bigquery_code_corpus,
        build_generic_pretraining_corpus,
        build_pile_corpus,
    )

    return PretrainingCorpora(
        pile=build_pile_corpus(rng.child("pile"), n_documents=max(120, int(1_200_000 * scale))),
        bigquery=build_bigquery_code_corpus(rng.child("bigquery"), n_documents=max(80, int(800_000 * scale))),
        bigpython=build_bigpython_corpus(rng.child("bigpython"), n_documents=max(60, int(500_000 * scale))),
        ansible=build_ansible_pretraining_corpus(rng.child("ansible"), scale=scale),
        generic=build_generic_pretraining_corpus(rng.child("generic"), scale=scale),
    )

"""Quickstart: train a small Ansible Wisdom model and generate Ansible-YAML.

Walks the full path of the paper in a couple of minutes on one CPU core:

1. build the synthetic pretraining corpora (the GitHub/GitLab/BigQuery/Pile
   stand-ins) and the Galaxy fine-tuning corpus;
2. train a BPE tokenizer and pretrain a Wisdom-Ansible-Multi model;
3. extract the four generation-type sample sets and fine-tune;
4. generate a task from a natural-language prompt and score it.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
from repro.metrics import EvalReport
from repro.model import CARDS_BY_NAME, build_default_corpora, build_model, build_tokenizer
from repro.training import finetune
from repro.utils.rng import SeededRng


def main() -> None:
    started = time.time()
    rng = SeededRng(7)

    print("== 1. corpora ==")
    corpora = build_default_corpora(rng.child("pretrain"), scale=0.0003)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=0.002)
    print(f"pretraining ansible files: {len(corpora.ansible)}, generic: {len(corpora.generic)}")
    print(f"galaxy fine-tuning files:  {len(galaxy)} {galaxy.counts_by_kind()}")

    print("\n== 2. tokenizer + pretraining ==")
    tokenizer = build_tokenizer(corpora)
    model = build_model(
        CARDS_BY_NAME["Wisdom-Ansible"],
        corpora,
        tokenizer,
        epochs=10,
        learning_rate=2e-3,
        max_batches_per_epoch=40,
    )
    print(f"model: {model.name}, parameters: {model.n_parameters:,}, window: {model.config.n_positions}")

    print("\n== 3. fine-tuning ==")
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    print(f"samples: {dataset.sizes()}  types: {dataset.counts_by_type('train')}")
    history = finetune(model, dataset.train, dataset.validation, epochs=14, validation_subset=4)
    print(f"loss: {history.epoch_losses[0]:.2f} -> {history.epoch_losses[-1]:.2f}")

    print("\n== 4. generation ==")
    prompt = "- name: Install nginx\n"
    completion = model.complete(prompt, max_new_tokens=64)
    print(prompt + completion)

    print("== 5. scoring a test sample ==")
    sample = dataset.test[0]
    report = EvalReport(model.name)
    body = model.complete(sample.input_text, max_new_tokens=96)
    from repro.dataset import prediction_snippet
    from repro.eval import truncate_generation

    body = truncate_generation(body, sample.indent, sample.generation_type)
    report.add(sample.reference_snippet, prediction_snippet(sample, body), sample.generation_type)
    print(dict(zip(EvalReport.ROW_HEADERS, report.as_row())))
    print(f"\ntotal: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()

"""Retrain the headline Wisdom row at full budget and refresh Table 5.

The fine-tuned Wisdom-Ansible-Multi row carries the paper's headline claim
(fine-tuned 350M beats few-shot 175B Codex) and the Table 5 per-type
breakdown, so it gets a larger fine-tuning budget than the CodeGen
context/prompt sweep.  This script rebuilds that model (and its 50%
data-ablation sibling) on the *same* dataset split as the main suite run,
re-evaluates, recomputes the Table 5 breakdown from it, and splices the
rows into ``benchmarks/_artifacts/results.json``.

Usage::

    python benchmarks/patch_wisdom_rows.py [finetune_epochs]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import FULL, RESULTS_FILE, SEED, _row  # noqa: E402

from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
from repro.eval import breakdown_by_type, evaluate
from repro.model import CARDS_BY_NAME, build_default_corpora, build_model, build_tokenizer
from repro.training import finetune
from repro.utils.rng import SeededRng


def main() -> None:
    epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    started = time.time()

    rng = SeededRng(SEED)
    corpora = build_default_corpora(rng.child("pretrain"), scale=FULL.corpora_scale)
    tokenizer = build_tokenizer(corpora)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=FULL.galaxy_scale)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    print(f"[patch] dataset: {dataset.sizes()}", flush=True)

    base = build_model(
        CARDS_BY_NAME["CodeGen-Multi"], corpora, tokenizer, seed=SEED,
        epochs=FULL.pretrain_epochs, learning_rate=2e-3,
        max_batches_per_epoch=FULL.pretrain_max_batches,
    )
    card = CARDS_BY_NAME["Wisdom-Ansible-Multi"]
    model = build_model(
        card, corpora, tokenizer, seed=SEED,
        epochs=FULL.pretrain_epochs * 3, learning_rate=2e-3,
        max_batches_per_epoch=FULL.pretrain_max_batches, base_model=base,
    )
    print(f"[patch] pretrained ({time.time() - started:.0f}s)", flush=True)

    finetune(model, dataset.train, dataset.validation, epochs=epochs,
             seed=SEED, validation_subset=6)
    model.name = "Wisdom-Ansible-Multi-ft"
    report = evaluate(model, dataset.test, max_new_tokens=96)
    rows = {model.name: _row(report, "350M", 1024)}
    print(f"[patch] {model.name}: {report.as_row()} ({time.time() - started:.0f}s)", flush=True)

    # Table 5 breakdown from the strong fine-tuned model.
    table5 = []
    for sub_report in breakdown_by_type(report):
        entry = _row(sub_report, "350M", 1024)
        entry["generation_type"] = sub_report.label.split("/")[-1] if "/" in sub_report.label else "ALL"
        table5.append(entry)

    # 50% data ablation at the same budget.
    reduced = dataset.train_fraction(0.5, rng.child("ablation-patch"))
    ablated = build_model(
        card, corpora, tokenizer, seed=SEED,
        epochs=FULL.pretrain_epochs * 3, learning_rate=2e-3,
        max_batches_per_epoch=FULL.pretrain_max_batches, base_model=base,
    )
    finetune(ablated, reduced.train, dataset.validation, epochs=epochs,
             seed=SEED, validation_subset=6)
    ablated.name = "Wisdom-Ansible-Multi-50"
    ablated_report = evaluate(ablated, dataset.test, max_new_tokens=96)
    rows[ablated.name] = _row(ablated_report, "350M", 1024)
    print(f"[patch] {ablated.name}: {ablated_report.as_row()} ({time.time() - started:.0f}s)", flush=True)

    results = json.loads(RESULTS_FILE.read_text())
    for index, row in enumerate(results["table4"]):
        if row["model"] in rows:
            results["table4"][index] = rows.pop(row["model"])
    for leftover in rows.values():
        results["table4"].append(leftover)
    results["table5"] = table5
    results["table5_model"] = "Wisdom-Ansible-Multi-ft"
    results["wisdom_rows_budget"] = {"finetune_epochs": epochs}
    RESULTS_FILE.write_text(json.dumps(results, indent=2))
    print(f"[patch] results updated ({time.time() - started:.0f}s)", flush=True)


if __name__ == "__main__":
    main()

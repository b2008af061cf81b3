"""Train two models and compare them the way the paper's tables do.

Pretrains CodeGen-Multi (code only) and Wisdom-Ansible-Multi (code + Ansible
YAML), evaluates both few-shot, fine-tunes both, evaluates again, and prints
a Table-3/4-style comparison plus the Table-5 per-generation-type breakdown —
a miniature of the full benchmark harness in benchmarks/.

Run::

    python examples/train_and_evaluate.py
"""

from __future__ import annotations

import time

from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
from repro.eval import ANSIBLE_PRIMING, breakdown_by_type, evaluate
from repro.metrics import EvalReport
from repro.model import CARDS_BY_NAME, build_default_corpora, build_model, build_tokenizer
from repro.training import finetune
from repro.utils.rng import SeededRng
from repro.utils.tables import format_table


def main() -> None:
    started = time.time()
    rng = SeededRng(7)
    corpora = build_default_corpora(rng.child("pretrain"), scale=0.0002)
    tokenizer = build_tokenizer(corpora)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=0.0015)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)
    print(f"dataset: {dataset.sizes()}")

    rows = []
    models = {}
    codegen = build_model(CARDS_BY_NAME["CodeGen-Multi"], corpora, tokenizer, epochs=2, max_batches_per_epoch=50)
    wisdom = build_model(
        CARDS_BY_NAME["Wisdom-Ansible-Multi"], corpora, tokenizer, epochs=2, max_batches_per_epoch=50,
        base_model=codegen,
    )
    models["CodeGen-Multi"] = codegen
    models["Wisdom-Ansible-Multi"] = wisdom

    print("\nfew-shot evaluation...")
    for name, model in models.items():
        priming = ANSIBLE_PRIMING if name.startswith("CodeGen") else ""
        report = evaluate(model, dataset.test, max_samples=24, context_priming=priming, label=f"{name} (few-shot)")
        rows.append(report.as_row())

    print("fine-tuning both models...")
    finetuned_reports = []
    for name, model in models.items():
        finetune(model, dataset.train, dataset.validation, epochs=8, validation_subset=4)
        report = evaluate(model, dataset.test, max_samples=24, label=f"{name} (fine-tuned)")
        rows.append(report.as_row())
        finetuned_reports.append(report)

    print()
    print(format_table(list(EvalReport.ROW_HEADERS), rows, title="Few-shot vs fine-tuned (Tables 3/4 miniature)"))

    print()
    breakdown_rows = [
        [r.label.split("/")[-1] if "/" in r.label else "ALL", r.count,
         round(r.schema_correct, 2), round(r.exact_match, 2), round(r.bleu, 2), round(r.ansible_aware, 2)]
        for r in breakdown_by_type(finetuned_reports[-1])
    ]
    print(
        format_table(
            ["Generation Type", "Count", "Schema Correct", "EM", "BLEU", "Ansible Aware"],
            breakdown_rows,
            title="Per-generation-type breakdown (Table 5 miniature)",
        )
    )
    print(f"\ntotal: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()

"""Recompute Table 5 on an enlarged held-out set.

Per-generation-type statistics need more than the ~60 samples the main
suite's test split provides (the paper's Table 5 aggregates 50 580
samples).  Synthetic data is unlimited, so this script rebuilds the
reference fine-tuned model (same seeds as the suite → identical weights),
draws a *fresh* held-out Galaxy corpus from an independent seed branch, and
recomputes the per-type breakdown over it.

The model checkpoint is saved under ``benchmarks/_artifacts/reference-model``
for reuse.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import ARTIFACTS_DIR, FULL, RESULTS_FILE, SEED, _row  # noqa: E402

from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
from repro.dataset.finetune import extract_samples
from repro.eval import breakdown_by_type, evaluate
from repro.model import CARDS_BY_NAME, build_default_corpora, build_model, build_tokenizer, save_checkpoint
from repro.training import finetune
from repro.utils.rng import SeededRng


def main() -> None:
    epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    max_eval = int(sys.argv[2]) if len(sys.argv) > 2 else 400
    started = time.time()

    rng = SeededRng(SEED)
    corpora = build_default_corpora(rng.child("pretrain"), scale=FULL.corpora_scale)
    tokenizer = build_tokenizer(corpora)
    galaxy = build_galaxy_corpus(rng.child("galaxy"), scale=FULL.galaxy_scale)
    splits = split_corpus(galaxy, rng.child("split"))
    dataset = build_finetune_dataset(splits.train, splits.validation, splits.test)

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
    finetune(model, dataset.train, dataset.validation, epochs=epochs,
             seed=SEED, validation_subset=6)
    model.name = "Wisdom-Ansible-Multi-ft"
    save_checkpoint(model, ARTIFACTS_DIR / "reference-model")
    print(f"[t5] model ready ({time.time() - started:.0f}s)", flush=True)

    # Fresh held-out corpus from an independent seed branch: no file here
    # was seen in training (different RNG stream entirely).
    extension = build_galaxy_corpus(rng.child("galaxy-heldout"), scale=0.004)
    heldout = extract_samples(extension)
    train_texts = {sample.training_text for sample in dataset.train}
    heldout = [sample for sample in heldout if sample.training_text not in train_texts]
    print(f"[t5] held-out samples: {len(heldout)} (evaluating {min(max_eval, len(heldout))})", flush=True)

    report = evaluate(model, heldout, max_samples=max_eval, max_new_tokens=96, label=model.name)
    table5 = []
    for sub_report in breakdown_by_type(report):
        entry = _row(sub_report, "350M", 1024)
        entry["generation_type"] = sub_report.label.split("/")[-1] if "/" in sub_report.label else "ALL"
        table5.append(entry)
        print(f"[t5] {entry['generation_type']}: n={entry['count']} schema={entry['schema_correct']} "
              f"em={entry['em']} bleu={entry['bleu']} aware={entry['ansible_aware']}", flush=True)

    results = json.loads(RESULTS_FILE.read_text())
    results["table5"] = table5
    results["table5_model"] = model.name
    results["table5_heldout_samples"] = report.count
    RESULTS_FILE.write_text(json.dumps(results, indent=2))
    print(f"[t5] results updated ({time.time() - started:.0f}s)", flush=True)


if __name__ == "__main__":
    main()

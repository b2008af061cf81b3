"""Shared experiment suite for the benchmark harness.

Training seven pretrained models and a dozen fine-tunes is expensive, so the
suite builds everything once and caches the resulting table rows (and a few
light artifacts) in ``benchmarks/_artifacts/results.json``.  Benchmark tests
read the cache; delete the file (or change the profile) to force a rebuild.

Two profiles:

* ``full``  — the definitive run (tens of minutes on one core); produced by
  ``python benchmarks/build_artifacts.py``.
* ``fast``  — a reduced-budget fallback used when no cache exists, so
  ``pytest benchmarks/ --benchmark-only`` completes unaided.

Profile selection: ``REPRO_BENCH_PROFILE`` environment variable, default
``fast`` (the cache file records which profile produced it).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.baselines import CodexSimulator
from repro.dataset import (
    COMPLETION,
    PREFIX,
    build_finetune_dataset,
    build_galaxy_corpus,
    split_corpus,
)
from repro.eval import ANSIBLE_PRIMING, breakdown_by_type, evaluate
from repro.model import (
    CARDS_BY_NAME,
    ModelCard,
    SIZE_2_7B,
    SIZE_350M,
    SIZE_6B,
    build_default_corpora,
    build_model,
    build_tokenizer,
    measure_throughput,
    transformer_config,
)
from repro.model.zoo import MODEL_CARDS
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM
from repro.training import finetune
from repro.utils.rng import SeededRng

ARTIFACTS_DIR = Path(__file__).parent / "_artifacts"
RESULTS_FILE = ARTIFACTS_DIR / "results.json"

SEED = 7


@dataclass(frozen=True)
class Profile:
    """Budget knobs for one suite run."""

    name: str
    corpora_scale: float
    galaxy_scale: float
    pretrain_epochs: int
    pretrain_max_batches: int
    finetune_epochs: int
    eval_samples: int
    include_large_sizes: bool
    data_ablations: tuple[float, ...]


FULL = Profile(
    name="full",
    corpora_scale=0.0003,
    galaxy_scale=0.0015,
    pretrain_epochs=5,
    pretrain_max_batches=20,
    finetune_epochs=8,
    eval_samples=120,
    include_large_sizes=False,
    data_ablations=(0.5,),
)

FAST = Profile(
    name="fast",
    corpora_scale=0.0002,
    galaxy_scale=0.001,
    pretrain_epochs=2,
    pretrain_max_batches=40,
    finetune_epochs=6,
    eval_samples=24,
    include_large_sizes=False,
    data_ablations=(0.5, 0.1),
)

PROFILES = {"full": FULL, "fast": FAST}


def active_profile() -> Profile:
    return PROFILES[os.environ.get("REPRO_BENCH_PROFILE", "fast")]


def _row(report, size: str, window: int) -> dict:
    return {
        "model": report.label,
        "size": size,
        "context_window": window,
        "count": report.count,
        "schema_correct": round(report.schema_correct, 2),
        "em": round(report.exact_match, 2),
        "bleu": round(report.bleu, 2),
        "ansible_aware": round(report.ansible_aware, 2),
    }


class ExperimentSuite:
    """Runs every experiment of the paper and collects table rows."""

    def __init__(self, profile: Profile, seed: int = SEED, log=print):
        self.profile = profile
        self.seed = seed
        self.log = log or (lambda *args: None)
        self.rng = SeededRng(seed)
        self.results: dict = {"profile": profile.name, "seed": seed}

    # -- shared state --------------------------------------------------------

    def build_data(self) -> None:
        profile = self.profile
        self.log(f"[suite] building corpora (scale={profile.corpora_scale})")
        self.corpora = build_default_corpora(self.rng.child("pretrain"), scale=profile.corpora_scale)
        self.tokenizer = build_tokenizer(self.corpora)
        self.galaxy = build_galaxy_corpus(self.rng.child("galaxy"), scale=profile.galaxy_scale)
        self.splits = split_corpus(self.galaxy, self.rng.child("split"))
        self.dataset = build_finetune_dataset(self.splits.train, self.splits.validation, self.splits.test)
        self.prefix_dataset = build_finetune_dataset(
            self.splits.train, self.splits.validation, self.splits.test, format=PREFIX
        )
        self.results["dataset_sizes"] = self.dataset.sizes()
        self.results["generation_type_counts"] = self.dataset.counts_by_type("test")
        self.log(f"[suite] galaxy files={len(self.galaxy)} samples={self.dataset.sizes()}")

    # -- model builders --------------------------------------------------------

    def pretrain_card(self, card: ModelCard, base=None):
        self.log(f"[suite] pretraining {card.name} ({card.size.label}, window {card.context_window})")
        # YAML cards train on far smaller corpora, so they get extra epochs
        # (the paper likewise trains the Wisdom extensions for 9 epochs).
        epochs = self.profile.pretrain_epochs * (3 if card.uses("ansible_yaml") else 1)
        return build_model(
            card,
            self.corpora,
            self.tokenizer,
            seed=self.seed,
            epochs=epochs,
            learning_rate=2e-3,
            max_batches_per_epoch=self.profile.pretrain_max_batches,
            base_model=base,
        )

    def finetune_model(self, model, train_samples=None, label: str | None = None):
        train_samples = train_samples if train_samples is not None else self.dataset.train
        self.log(f"[suite] finetuning {label or model.name} on {len(train_samples)} samples")
        finetune(
            model,
            train_samples,
            self.dataset.validation,
            epochs=self.profile.finetune_epochs,
            seed=self.seed,
            validation_subset=6,
        )
        if label:
            model.name = label
        return model

    def evaluate_model(self, completer, priming: str = "", label: str | None = None, samples=None):
        samples = samples if samples is not None else self.dataset.test
        report = evaluate(
            completer,
            samples,
            max_samples=self.profile.eval_samples,
            max_new_tokens=96,
            context_priming=priming,
            label=label,
        )
        self.log(f"[suite] eval {report.label}: {report.as_row()}")
        return report

    # -- experiments -----------------------------------------------------------

    def run_table1(self) -> None:
        from repro.dataset.sources import TABLE1_SOURCES, scaled_count

        scale = self.profile.galaxy_scale
        rows = []
        for spec in TABLE1_SOURCES:
            rows.append(
                {
                    "source": spec.source,
                    "paper_file_count": spec.paper_file_count,
                    "scaled_file_count": scaled_count(spec.paper_file_count, scale),
                    "yaml_type": spec.yaml_type,
                    "usage": spec.usage,
                }
            )
        self.results["table1"] = {"scale": scale, "rows": rows, "built_galaxy_files": len(self.galaxy)}

    def run_table3(self) -> None:
        """Few-shot evaluation of the zoo + large CodeGen sizes + Codex."""
        zoo: dict = {}
        rows = []
        for card in MODEL_CARDS:
            base = zoo.get(card.initialized_from) if card.initialized_from else None
            zoo[card.name] = self.pretrain_card(card, base=base)
        self.zoo = zoo
        for name in ("CodeGen-NL", "CodeGen-Mono", "CodeGen-Multi"):
            report = self.evaluate_model(zoo[name], priming=ANSIBLE_PRIMING)
            rows.append(_row(report, "350M", 2048))
        if self.profile.include_large_sizes:
            for size, label in ((SIZE_2_7B, "2.7B"), (SIZE_6B, "6B")):
                card = ModelCard("CodeGen-Multi", ("pile", "bigquery"), size=size, context_window=2048)
                model = self.pretrain_card(card)
                model.name = f"CodeGen-Multi-{label}"
                self.large_models = getattr(self, "large_models", {})
                self.large_models[label] = model
                report = self.evaluate_model(model, priming=ANSIBLE_PRIMING)
                rows.append(_row(report, label, 2048))
        codex = CodexSimulator(self.tokenizer)
        # Its "web memory" is the GitHub/GitLab-style pretraining scrape —
        # noisier style than Galaxy — plus a small leaked Galaxy fraction.
        codex.fit(
            self.corpora.ansible,
            self.galaxy,
            rng=self.rng.child("codex"),
        )
        self.codex = codex
        report = self.evaluate_model(codex, priming=ANSIBLE_PRIMING)
        rows.append(_row(report, "175B", 2048))
        for name in ("Wisdom-Ansible-Multi", "Wisdom-Yaml-Multi", "Wisdom-Ansible", "Wisdom-Yaml"):
            report = self.evaluate_model(zoo[name])
            rows.append(_row(report, "350M", 1024))
        self.results["table3"] = rows

    def run_table4_and_5(self) -> None:
        rows = []

        def clone(model, name):
            from repro.model.checkpoints import restore_weights, snapshot_weights
            from repro.model.lm import WisdomModel

            network = DecoderLM(model.config, numpy_rng(0))
            restore_weights(network, snapshot_weights(model.network))
            return WisdomModel(name, model.tokenizer, network, model.size_label, model.context_window_label)

        # -- context-window sweep on CodeGen-Multi ------------------------
        for window in (512, 1024, 2048):
            card = ModelCard("CodeGen-Multi", ("pile", "bigquery"), context_window=window)
            model = self.pretrain_card(card)
            self.finetune_model(model, label=f"CodeGen-Multi-ft-{window}")
            report = self.evaluate_model(model)
            rows.append(_row(report, "350M", window))
            if window == 1024:
                self.reference_finetuned = model

        # -- model size -----------------------------------------------------
        if self.profile.include_large_sizes:
            card = ModelCard("CodeGen-Multi", ("pile", "bigquery"), size=SIZE_2_7B, context_window=1024)
            model = self.pretrain_card(card)
            self.finetune_model(model, label="CodeGen-Multi-2.7B-ft")
            rows.append(_row(self.evaluate_model(model), "2.7B", 1024))

        # -- prefix-prompt ablation -----------------------------------------
        card = ModelCard("CodeGen-Multi", ("pile", "bigquery"), context_window=1024)
        prefix_model = self.pretrain_card(card)
        self.log("[suite] finetuning prefix-format ablation")
        finetune(
            prefix_model,
            self.prefix_dataset.train,
            self.prefix_dataset.validation,
            epochs=self.profile.finetune_epochs,
            seed=self.seed,
            validation_subset=6,
        )
        prefix_model.name = "CodeGen-Multi-prefix"
        report = self.evaluate_model(prefix_model, samples=self.prefix_dataset.test)
        rows.append(_row(report, "350M", 1024))

        # -- Wisdom variants ---------------------------------------------------
        wisdom_finetuned = {}
        for name in ("Wisdom-Ansible-Multi", "Wisdom-Yaml-Multi", "Wisdom-Ansible", "Wisdom-Yaml"):
            model = clone(self.zoo[name], f"{name}-ft")
            self.finetune_model(model)
            wisdom_finetuned[name] = model
            rows.append(_row(self.evaluate_model(model), "350M", 1024))

        # -- training-data ablation ---------------------------------------------
        for fraction in self.profile.data_ablations:
            reduced = self.dataset.train_fraction(fraction, self.rng.child("ablation", str(fraction)))
            model = clone(self.zoo["Wisdom-Ansible-Multi"], f"Wisdom-Ansible-Multi-{int(fraction * 100)}")
            self.finetune_model(model, train_samples=reduced.train)
            rows.append(_row(self.evaluate_model(model), "350M", 1024))

        self.results["table4"] = rows

        # -- Table 5: per-generation-type breakdown --------------------------
        # The paper breaks down its fine-tuned CodeGen-Multi over 50k test
        # samples; we use the best fine-tuned Wisdom model (per-type
        # differences are not drowned in undertraining noise at laptop
        # budgets) and an *enlarged* fresh held-out corpus, since per-type
        # statistics need more samples than the main test split provides.
        from repro.dataset.finetune import extract_samples
        from repro.dataset.sources import build_galaxy_corpus as build_heldout

        reference = wisdom_finetuned["Wisdom-Ansible-Multi"]
        extension = build_heldout(self.rng.child("galaxy-heldout"), scale=self.profile.galaxy_scale * 2.5)
        train_texts = {sample.training_text for sample in self.dataset.train}
        heldout = [
            sample for sample in extract_samples(extension)
            if sample.training_text not in train_texts
        ]
        report = evaluate(
            reference,
            heldout,
            max_samples=self.profile.eval_samples * 3,
            max_new_tokens=96,
            label=reference.name,
        )
        table5 = []
        for sub_report in breakdown_by_type(report):
            entry = _row(sub_report, "350M", 1024)
            entry["generation_type"] = sub_report.label.split("/")[-1] if "/" in sub_report.label else "ALL"
            table5.append(entry)
        self.results["table5"] = table5
        self.results["table5_model"] = reference.name
        self.results["table5_heldout_samples"] = report.count

    def run_throughput(self) -> None:
        """The §Pre-training claim: 350M ~1.9x faster generation than 2.7B."""
        small = DecoderLM(transformer_config(self.tokenizer.vocab_size, SIZE_350M, 2048), numpy_rng(0))
        large = DecoderLM(transformer_config(self.tokenizer.vocab_size, SIZE_2_7B, 2048), numpy_rng(0))
        small_result = measure_throughput(small, prompt_length=24, new_tokens=48, runs=3)
        large_result = measure_throughput(large, prompt_length=24, new_tokens=48, runs=3)
        self.results["throughput"] = {
            "small_tokens_per_second": round(small_result.tokens_per_second, 1),
            "large_tokens_per_second": round(large_result.tokens_per_second, 1),
            "speedup": round(small_result.tokens_per_second / large_result.tokens_per_second, 2),
            "paper_speedup": 1.9,
        }
        self.log(f"[suite] throughput: {self.results['throughput']}")

    def run_all(self) -> dict:
        self.build_data()
        self.run_table1()
        self.run_table3()
        self.run_table4_and_5()
        self.run_throughput()
        return self.results


def build_results(profile: Profile | None = None, log=print) -> dict:
    """Run the suite and persist the results cache."""
    profile = profile or active_profile()
    suite = ExperimentSuite(profile, log=log)
    results = suite.run_all()
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    RESULTS_FILE.write_text(json.dumps(results, indent=2))
    return results


def load_results() -> dict:
    """Load the results cache, building it (fast profile) when absent."""
    if RESULTS_FILE.exists():
        return json.loads(RESULTS_FILE.read_text())
    return build_results(active_profile(), log=lambda *args: None)


def find_row(rows: list[dict], model: str, window: int | None = None, size: str | None = None) -> dict:
    """Locate one table row by model label (+ optional window/size)."""
    for row in rows:
        if row["model"] != model:
            continue
        if window is not None and row["context_window"] != window:
            continue
        if size is not None and row["size"] != size:
            continue
        return row
    raise KeyError(f"no row for model={model} window={window} size={size}")

"""Dataset pipeline: synthesis, sources, dedup, splits, fine-tuning samples.

Replaces the paper's GitHub / GitLab / BigQuery / Galaxy scrape with
deterministic synthetic equivalents; see DESIGN.md for the substitution
rationale.
"""

from repro.dataset.corpus import ANSIBLE, CODE, Corpus, Document, GENERIC, NATURAL
from repro.dataset.dedup import dedup_documents, dedup_samples_across_splits
from repro.dataset.finetune import (
    FinetuneDataset,
    build_finetune_dataset,
    extract_from_playbook,
    extract_from_task_list,
    extract_samples,
)
from repro.dataset.packing import next_token_targets, pack_documents, token_stream
from repro.dataset.prompt import (
    COMPLETION,
    FinetuneSample,
    GENERATION_TYPES,
    NL_TO_PB,
    NL_TO_T,
    PB_NL_TO_T,
    PREFIX,
    T_NL_TO_T,
    prediction_snippet,
)
from repro.dataset.sources import (
    TABLE1_SOURCES,
    SourceSpec,
    build_ansible_pretraining_corpus,
    build_bigpython_corpus,
    build_bigquery_code_corpus,
    build_galaxy_corpus,
    build_generic_pretraining_corpus,
    build_pile_corpus,
    scaled_count,
)
from repro.dataset.splits import SplitCorpora, split_corpus
from repro.dataset.synthesis import (
    AnsibleSynthesizer,
    GALAXY_STYLE,
    GITHUB_STYLE,
    GeneratedFile,
    StyleProfile,
)

__all__ = [
    "ANSIBLE",
    "CODE",
    "Corpus",
    "Document",
    "GENERIC",
    "NATURAL",
    "dedup_documents",
    "dedup_samples_across_splits",
    "FinetuneDataset",
    "build_finetune_dataset",
    "extract_from_playbook",
    "extract_from_task_list",
    "extract_samples",
    "next_token_targets",
    "pack_documents",
    "token_stream",
    "COMPLETION",
    "FinetuneSample",
    "GENERATION_TYPES",
    "NL_TO_PB",
    "NL_TO_T",
    "PB_NL_TO_T",
    "PREFIX",
    "T_NL_TO_T",
    "prediction_snippet",
    "TABLE1_SOURCES",
    "SourceSpec",
    "build_ansible_pretraining_corpus",
    "build_bigpython_corpus",
    "build_bigquery_code_corpus",
    "build_galaxy_corpus",
    "build_generic_pretraining_corpus",
    "build_pile_corpus",
    "scaled_count",
    "SplitCorpora",
    "split_corpus",
    "AnsibleSynthesizer",
    "GALAXY_STYLE",
    "GITHUB_STYLE",
    "GeneratedFile",
    "StyleProfile",
]

"""Evaluation metrics: Exact Match, BLEU, Ansible Aware, Schema Correct.

``Ansible Aware`` and ``Schema Correct`` are the paper's two novel
YAML-specific metrics; Exact Match and BLEU are the standard baselines it
reports alongside them.
"""

from repro.metrics.ansible_aware import (
    ansible_aware,
    play_score,
    snippet_score,
    task_score,
)
from repro.metrics.bleu import sentence_bleu, tokenize
from repro.metrics.exact_match import exact_match, normalize_text
from repro.metrics.report import EvalReport, SampleScore
from repro.metrics.schema_correct import is_schema_correct, schema_violations

__all__ = [
    "ansible_aware",
    "play_score",
    "snippet_score",
    "task_score",
    "sentence_bleu",
    "tokenize",
    "exact_match",
    "normalize_text",
    "EvalReport",
    "SampleScore",
    "is_schema_correct",
    "schema_violations",
]

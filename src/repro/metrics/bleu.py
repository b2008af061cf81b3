"""BLEU for YAML code, from scratch.

Implements BLEU (Papineni et al., the paper's [ibm2001bleu]) with modified
n-gram precision and brevity penalty, scored per sentence with the ORANGE
add-one smoothing of Lin & Och (the paper's [lin2004orange]); the tables
report the mean sentence score (:class:`~repro.metrics.report.EvalReport`).
The paper motivates BLEU for Ansible because "the sequences of tokens in
an Ansible YAML file are important, while some reordering is permitted".

Tokenization splits YAML text on whitespace and punctuation so that
structure characters (``:``, ``-``, quotes, braces) count as tokens —
indentation is normalized away, matching how code BLEU is conventionally
computed over detokenized source.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")


def tokenize(text: str) -> list[str]:
    """Split text into word and punctuation tokens.

    >>> tokenize("name: nginx")
    ['name', ':', 'nginx']
    """
    return _TOKEN_RE.findall(text)


def _ngrams(tokens: list[str], order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def modified_precision(reference: list[str], prediction: list[str], order: int) -> tuple[int, int]:
    """Clipped n-gram matches and total prediction n-grams for one order."""
    prediction_ngrams = _ngrams(prediction, order)
    if not prediction_ngrams:
        return 0, 0
    reference_ngrams = _ngrams(reference, order)
    matches = sum(
        min(count, reference_ngrams.get(ngram, 0))
        for ngram, count in prediction_ngrams.items()
    )
    return matches, sum(prediction_ngrams.values())


def sentence_bleu(reference: str, prediction: str, max_order: int = 4, smooth: bool = True) -> float:
    """Smoothed sentence-level BLEU in [0, 100].

    With ``smooth=True`` applies add-one smoothing to the n-gram precisions
    (Lin & Och 2004), so short-but-partially-correct predictions receive
    non-zero credit.
    """
    reference_tokens = tokenize(reference)
    prediction_tokens = tokenize(prediction)
    if not prediction_tokens or not reference_tokens:
        return 0.0
    log_precision_sum = 0.0
    for order in range(1, max_order + 1):
        matches, total = modified_precision(reference_tokens, prediction_tokens, order)
        if smooth and order > 1:
            matches += 1
            total += 1
        if matches == 0 or total == 0:
            return 0.0
        log_precision_sum += math.log(matches / total)
    geometric_mean = math.exp(log_precision_sum / max_order)
    brevity = _brevity_penalty(len(reference_tokens), len(prediction_tokens))
    return 100.0 * brevity * geometric_mean


def _brevity_penalty(reference_length: int, prediction_length: int) -> float:
    if prediction_length == 0:
        return 0.0
    if prediction_length >= reference_length:
        return 1.0
    return math.exp(1.0 - reference_length / prediction_length)

"""Continuous-batching inference engine.

The serving-side decode subsystem: a vLLM-style (laptop-scale) scheduler
that admits queued generation requests into a batch with one KV slot per
row, decodes all active sequences in lockstep, retires finished rows
mid-flight, and reuses prefilled K/V for prompts that share a token
prefix.  See DESIGN.md §Inference engine for the architecture.

Layers (bottom-up):

* :mod:`repro.engine.batched_decode` — batched KV decoding, one slot per row,
  over :class:`~repro.nn.transformer.DecoderLM`;
* :mod:`repro.engine.prefix_cache` — longest-common-prefix K/V reuse;
* :mod:`repro.engine.request` — request lifecycle and timing;
* :mod:`repro.engine.speculative` — draft models for draft-then-verify
  speculative decoding (token-identical to greedy);
* :mod:`repro.engine.batcher` — the continuous-admission scheduler;
* :mod:`repro.engine.engine` — the :class:`InferenceEngine` facade.

Two decode loops exist: :meth:`ContinuousBatcher.step` decodes every
served token, and :func:`repro.nn.sampling.generate_greedy` is the batch-1
oracle it is held to.
"""

from repro.engine.batched_decode import BatchRow, DecodingBatch, prefill_single
from repro.engine.batcher import ContinuousBatcher
from repro.engine.engine import InferenceEngine
from repro.engine.prefix_cache import PrefixCache
from repro.engine.request import ABNORMAL_STOP_REASONS, GenerationRequest, RequestState
from repro.engine.speculative import (
    DRAFT_MODEL_KINDS,
    DraftModel,
    NgramDraft,
    RetrievalSuffixDraft,
    build_draft_model,
)

__all__ = [
    "ABNORMAL_STOP_REASONS",
    "BatchRow",
    "DecodingBatch",
    "prefill_single",
    "ContinuousBatcher",
    "InferenceEngine",
    "PrefixCache",
    "GenerationRequest",
    "RequestState",
    "DRAFT_MODEL_KINDS",
    "DraftModel",
    "NgramDraft",
    "RetrievalSuffixDraft",
    "build_draft_model",
]

"""Generation-throughput measurement.

The paper motivates the 350M architecture by latency: "We benchmarked the
generation throughput on single GPU for both models and found that the 350M
model was ~1.9x faster than the 2.7B."  :func:`measure_throughput` produces
the tokens-per-second number behind that comparison, on our substrate, by
timing the engine that serves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.transformer import DecoderLM
from repro.utils.timing import Stopwatch


@dataclass(frozen=True)
class ThroughputResult:
    """Tokens/second over a number of timed generation runs."""

    tokens_per_second: float
    total_tokens: int
    total_seconds: float
    runs: int


def measure_throughput(
    network: DecoderLM,
    batch_size: int = 1,
    prompt_length: int = 16,
    new_tokens: int = 32,
    runs: int = 3,
    warmup_runs: int = 1,
    seed: int = 0,
    obs=None,
) -> ThroughputResult:
    """Time the engine decoding ``batch_size`` distinct prompts, ``runs`` times.

    Each timed run decodes ``batch_size`` prompts of ``prompt_length``
    random tokens for up to ``new_tokens`` tokens each, on an engine with
    no prefix store, so no run reuses another's prefill.  Tokens/second
    counts generated tokens across the whole batch: at ``batch_size=1`` it
    is the paper's single-stream rate, and the ratio of a wider batch's
    rate to it is the batching speedup.  ``obs`` (an
    :class:`repro.obs.Observability`) is handed to the engine, which is how
    a traced run is compared against an untraced one.
    """
    from repro.engine import InferenceEngine

    rng = np.random.default_rng(seed)
    vocab = network.config.vocab_size
    prompts = [
        [int(token) for token in rng.integers(0, vocab, size=prompt_length)]
        for _ in range(batch_size)
    ]
    engine = InferenceEngine(
        network, max_batch_size=batch_size, prefix_cache_capacity=0, obs=obs
    )
    for _ in range(warmup_runs):
        engine.generate_batch(prompts, max_new_tokens=new_tokens)
    watch = Stopwatch()
    produced = 0
    for _ in range(runs):
        with watch:
            results = engine.generate_batch(prompts, max_new_tokens=new_tokens)
        produced += max(1, sum(len(result.token_ids) for result in results))
    return ThroughputResult(
        tokens_per_second=produced / watch.elapsed if watch.elapsed > 0 else float("inf"),
        total_tokens=produced,
        total_seconds=watch.elapsed,
        runs=runs,
    )


def speedup(small: ThroughputResult, large: ThroughputResult) -> float:
    """How many times faster the small model generates than the large one."""
    if large.tokens_per_second == 0:
        return float("inf")
    return small.tokens_per_second / large.tokens_per_second

"""X3 — continuous-batching throughput.

The serving-side motivation for :mod:`repro.engine`: decoding several
requests through one left-padded batched forward pass amortises the weight
streaming that dominates CPU (and GPU) decode, so aggregate tokens/second
must scale with batch size.  The claim checked here is that the engine at
batch 4 delivers at least 1.5x its own batch-1 tokens/second on the small
(350M-equivalent) config; in practice the ratio lands well above 2x.
"""

from __future__ import annotations

import pytest

from repro.model import SIZE_350M, measure_throughput, transformer_config
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM
from repro.utils.tables import format_table

BATCH_SIZES = [2, 4, 8]


@pytest.fixture(scope="module")
def network() -> DecoderLM:
    return DecoderLM(transformer_config(512, SIZE_350M, 256), numpy_rng(0))


@pytest.mark.slow
def test_engine_beats_sequential_at_batch_4(network):
    sequential = measure_throughput(network, prompt_length=16, new_tokens=32, runs=3)
    engine = measure_throughput(network, batch_size=4, prompt_length=16, new_tokens=32, runs=3)
    rows = [
        ["engine, batch 1", f"{sequential.tokens_per_second:.0f}", "1.00x"],
        [
            "engine, batch 4",
            f"{engine.tokens_per_second:.0f}",
            f"{engine.tokens_per_second / sequential.tokens_per_second:.2f}x",
        ],
    ]
    print()
    print(
        format_table(
            ["Decoder", "tokens/s", "speedup"],
            rows,
            title="Continuous batching: batch 4 vs batch 1",
        )
    )
    assert engine.tokens_per_second >= 1.5 * sequential.tokens_per_second


@pytest.mark.slow
def test_throughput_scales_with_batch_size(network):
    sequential = measure_throughput(network, prompt_length=16, new_tokens=24, runs=2)
    rows = [["engine, batch 1", f"{sequential.tokens_per_second:.0f}", "1.00x"]]
    previous = sequential.tokens_per_second
    monotone = True
    for batch_size in BATCH_SIZES:
        result = measure_throughput(
            network, batch_size=batch_size, prompt_length=16, new_tokens=24, runs=2
        )
        rows.append(
            [
                f"engine, batch {batch_size}",
                f"{result.tokens_per_second:.0f}",
                f"{result.tokens_per_second / sequential.tokens_per_second:.2f}x",
            ]
        )
        monotone = monotone and result.tokens_per_second > previous * 0.9
        previous = result.tokens_per_second
    print()
    print(
        format_table(
            ["Decoder", "tokens/s", "speedup"],
            rows,
            title="Continuous batching: throughput vs batch size",
        )
    )
    # Larger batches must not be slower than smaller ones (10% noise margin).
    assert monotone

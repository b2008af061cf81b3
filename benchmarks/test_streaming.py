"""X9 — streaming latency: TTFT, inter-token gaps, and warm-session TTFT.

Two claims measured here, both on the ``keystroke`` load profile (the
editor-plugin pattern the serving tier is built around):

* **Streaming delivery** — ``stream_ids`` emits the first burst after one
  prefill forward and every later burst after one decode forward, so TTFT
  and the inter-token p99 are both bounded by single-forward latency
  rather than whole-request latency.  The report records TTFT,
  inter-token p50/p99 and streamed tokens/second.

* **Session extends beat cold re-prefills** — a keystroke session's
  ``extend`` prefills only the typed delta atop the warm KV slab, while a
  cold create re-prefills the whole growing buffer.  The asserted floor:
  mean extend TTFT is at least **3x** better than mean cold-create TTFT
  over the same keystroke trace.

Results go to ``benchmarks/_artifacts/BENCH_streaming.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.engine import InferenceEngine
from repro.fleet.loadgen import generate_prompts
from repro.fleet.worker import SPEC_TRAIN_TEXTS
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.serving import SessionManager
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.tables import format_table

ARTIFACTS_DIR = Path(__file__).parent / "_artifacts"
REPORT_FILE = ARTIFACTS_DIR / "BENCH_streaming.json"

N_POSITIONS = 160
MAX_NEW_TOKENS = 24
STREAM_REQUESTS = 8
SESSION_STEPS = 6
SESSION_BUDGET = 8
MIN_SESSION_SPEEDUP = 3.0


def _build_parts() -> tuple[DecoderLM, BpeTokenizer]:
    tokenizer = BpeTokenizer.train(list(SPEC_TRAIN_TEXTS), vocab_size=300)
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        n_positions=N_POSITIONS,
        dim=32,
        n_layers=2,
        n_heads=4,
    )
    return DecoderLM(config, numpy_rng(0)), tokenizer


def _engine(network, tokenizer, *, budget=MAX_NEW_TOKENS, **options) -> InferenceEngine:
    return InferenceEngine(
        network, tokenizer, max_batch_size=4, default_max_new_tokens=budget, **options
    )


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _stream_cell(network, tokenizer) -> dict:
    """TTFT / inter-token gaps / tokens-per-second over streamed requests."""
    engine = _engine(network, tokenizer)
    prompts = generate_prompts("keystroke", STREAM_REQUESTS, seed=0)
    prompt_ids = [tokenizer.encode(prompt, allow_special=False) for prompt in prompts]
    # one warm pass so arena / prefix-cache allocation noise settles
    for ids in prompt_ids[:2]:
        for _ in engine.stream_ids(list(ids), MAX_NEW_TOKENS):
            pass

    ttfts: list[float] = []
    gaps: list[float] = []
    total_tokens = 0
    started = time.perf_counter()
    for ids in prompt_ids:
        previous = time.perf_counter()
        first = True
        for burst in engine.stream_ids(list(ids), MAX_NEW_TOKENS):
            now = time.perf_counter()
            if first:
                ttfts.append(now - previous)
                first = False
            else:
                gaps.append(now - previous)
            previous = now
            total_tokens += len(burst)
    elapsed = time.perf_counter() - started

    return {
        "profile": "keystroke",
        "requests": STREAM_REQUESTS,
        "max_new_tokens": MAX_NEW_TOKENS,
        "streamed_tokens": total_tokens,
        "tokens_per_second": round(total_tokens / elapsed, 2),
        "ttft_ms_mean": round(sum(ttfts) / len(ttfts) * 1000.0, 3),
        "ttft_ms_p99": round(_percentile(ttfts, 0.99) * 1000.0, 3),
        "intertoken_ms_p50": round(_percentile(gaps, 0.50) * 1000.0, 3),
        "intertoken_ms_p99": round(_percentile(gaps, 0.99) * 1000.0, 3),
    }


def _keystroke_trace(tokenizer) -> list[str]:
    """Growing buffers of an editing session: base playbook + typed tasks."""
    base = "".join(SPEC_TRAIN_TEXTS[:2])
    buffers = []
    buffer = base
    for step in range(SESSION_STEPS):
        buffer = buffer + f"- name: Install nginx {step}\n"
        buffers.append(buffer)
    window = N_POSITIONS - SESSION_BUDGET
    assert all(
        len(tokenizer.encode(text)) < window for text in buffers
    ), "trace exceeds the context window; plan_prompt truncation would muddy TTFT"
    return buffers


def _session_cell(network, tokenizer) -> dict:
    """Warm extend TTFT vs cold create TTFT over the same keystroke trace."""
    buffers = _keystroke_trace(tokenizer)

    warm_engine = _engine(network, tokenizer, budget=SESSION_BUDGET)
    warm = SessionManager(warm_engine)
    created = warm.create(buffers[0], SESSION_BUDGET)
    session_id = created["session_id"]
    warm_ttfts = []
    warm_prefilled = []
    for buffer in buffers[1:]:
        payload = warm.extend(session_id, buffer, SESSION_BUDGET)
        warm_ttfts.append(payload["ttft_s"])
        warm_prefilled.append(payload["prefilled"])
    warm.close_all()

    # Cold means cold: with no unpinned path kept, a closed session's path
    # leaves the prefix store, so no create reuses the one before it.
    cold_engine = _engine(network, tokenizer, budget=SESSION_BUDGET, prefix_cache_capacity=0)
    cold = SessionManager(cold_engine)
    cold_ttfts = []
    cold_prefilled = []
    for buffer in buffers[1:]:
        payload = cold.create(buffer, SESSION_BUDGET)
        cold_ttfts.append(payload["ttft_s"])
        cold_prefilled.append(payload["prefilled"])
        cold.close(payload["session_id"])

    warm_mean = sum(warm_ttfts) / len(warm_ttfts)
    cold_mean = sum(cold_ttfts) / len(cold_ttfts)
    return {
        "profile": "keystroke",
        "steps": len(buffers) - 1,
        "budget": SESSION_BUDGET,
        "extend_ttft_ms_mean": round(warm_mean * 1000.0, 3),
        "cold_ttft_ms_mean": round(cold_mean * 1000.0, 3),
        "extend_prefill_tokens_mean": round(sum(warm_prefilled) / len(warm_prefilled), 1),
        "cold_prefill_tokens_mean": round(sum(cold_prefilled) / len(cold_prefilled), 1),
        "ttft_speedup": round(cold_mean / warm_mean, 2),
    }


def run_streaming_bench(network: DecoderLM | None = None, tokenizer=None) -> dict:
    """Measure streaming latency + session TTFT; write ``BENCH_streaming.json``."""
    if network is None or tokenizer is None:
        network, tokenizer = _build_parts()
    report = {
        "config": {
            "n_positions": N_POSITIONS,
            "dim": network.config.dim,
            "n_layers": network.config.n_layers,
            "min_session_speedup": MIN_SESSION_SPEEDUP,
        },
        "stream": _stream_cell(network, tokenizer),
        "session": _session_cell(network, tokenizer),
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    REPORT_FILE.write_text(json.dumps(report, indent=2))
    return report


@pytest.fixture(scope="module")
def report() -> dict:
    return run_streaming_bench()


pytestmark = [pytest.mark.slow, pytest.mark.streaming]


def test_streaming_latency_recorded(report):
    cell = report["stream"]
    print()
    print(
        format_table(
            ["profile", "tok/s", "TTFT mean", "TTFT p99", "gap p50", "gap p99"],
            [[
                cell["profile"],
                f"{cell['tokens_per_second']:.1f}",
                f"{cell['ttft_ms_mean']:.1f}ms",
                f"{cell['ttft_ms_p99']:.1f}ms",
                f"{cell['intertoken_ms_p50']:.2f}ms",
                f"{cell['intertoken_ms_p99']:.2f}ms",
            ]],
            title="Streaming delivery (keystroke profile)",
        )
    )
    assert cell["streamed_tokens"] > 0
    assert cell["tokens_per_second"] > 0
    assert cell["ttft_ms_p99"] >= cell["intertoken_ms_p50"] > 0


def test_session_extend_beats_cold_prefill(report):
    cell = report["session"]
    print()
    print(
        format_table(
            ["steps", "extend TTFT", "cold TTFT", "extend prefill", "cold prefill", "speedup"],
            [[
                str(cell["steps"]),
                f"{cell['extend_ttft_ms_mean']:.2f}ms",
                f"{cell['cold_ttft_ms_mean']:.2f}ms",
                f"{cell['extend_prefill_tokens_mean']:.0f} tok",
                f"{cell['cold_prefill_tokens_mean']:.0f} tok",
                f"{cell['ttft_speedup']:.1f}x",
            ]],
            title="Session extend vs cold re-prefill (keystroke trace)",
        )
    )
    # the tentpole claim: rolling the warm slab forward makes TTFT
    # O(keystroke) instead of O(buffer)
    assert cell["extend_prefill_tokens_mean"] < cell["cold_prefill_tokens_mean"]
    assert cell["ttft_speedup"] >= MIN_SESSION_SPEEDUP, cell


def test_report_written(report):
    on_disk = json.loads(REPORT_FILE.read_text())
    assert on_disk["session"]["ttft_speedup"] == report["session"]["ttft_speedup"]
    assert on_disk["stream"]["streamed_tokens"] == report["stream"]["streamed_tokens"]

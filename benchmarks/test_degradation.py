"""X5 — serving degradation under overload: p99 latency and shed rate.

Drives the hardened serving stack at 2x its admission capacity with an
n-gram fallback attached and measures what the hardening layer promises:
every request gets an answer (degraded, not dropped), the shed/degrade
rate tracks the excess load, and fallback responses are cheap relative to
engine decodes.  Results go to ``benchmarks/_artifacts/
BENCH_degradation.json`` so the overload envelope is tracked from this PR
onward (``build_artifacts.py`` emits the same report for the definitive
run).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.ngram import NgramLM
from repro.engine import InferenceEngine
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.serving.service import PredictionService
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.tables import format_table

ARTIFACTS_DIR = Path(__file__).parent / "_artifacts"
REPORT_FILE = ARTIFACTS_DIR / "BENCH_degradation.json"

MAX_QUEUE_DEPTH = 2
WORKERS = 2 * MAX_QUEUE_DEPTH  # 2x saturation: twice the admission capacity
REQUESTS = 32
MAX_NEW_TOKENS = 12

TRAIN_TEXTS = [
    "- name: Install SSH server\n  ansible.builtin.apt:\n    name: openssh-server\n",
    "- name: Start SSH server\n  ansible.builtin.service:\n    name: ssh\n    state: started\n",
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
    "- name: Copy the config\n  ansible.builtin.copy:\n    src: a\n    dest: b\n",
]


def _build_service() -> PredictionService:
    tokenizer = BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, n_positions=64, dim=32, n_layers=2, n_heads=4
    )
    engine = InferenceEngine(DecoderLM(config, numpy_rng(0)), tokenizer, max_batch_size=4)
    fallback = NgramLM(tokenizer).fit(TRAIN_TEXTS)
    return PredictionService(
        engine,
        max_queue_depth=MAX_QUEUE_DEPTH,
        fallback=fallback,
        cache_capacity=4,  # tiny: the bench measures generation, not cache wins
    )


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50_ms": None, "p99_ms": None, "mean_ms": None}
    return {
        "p50_ms": round(float(np.percentile(samples, 50)), 3),
        "p99_ms": round(float(np.percentile(samples, 99)), 3),
        "mean_ms": round(float(np.mean(samples)), 3),
    }


def run_degradation_bench() -> dict:
    """Offer 2x-saturation load, record latency split by disposition."""
    service = _build_service()
    prompts = [f"- name: Install package number {index}" for index in range(REQUESTS)]
    work = list(prompts)
    work_lock = threading.Lock()
    results: list[tuple[float, bool]] = []  # (latency_ms, degraded)
    errors: list[BaseException] = []

    def worker() -> None:
        while True:
            with work_lock:
                if not work:
                    return
                prompt = work.pop()
            started = time.perf_counter()
            try:
                payload = service.predict(prompt, max_new_tokens=MAX_NEW_TOKENS)
            except BaseException as error:  # hardening promise: this never happens
                with work_lock:
                    errors.append(error)
                return
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with work_lock:
                results.append((elapsed_ms, bool(payload.get("degraded"))))

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    engine_ms = [ms for ms, degraded in results if not degraded]
    degraded_ms = [ms for ms, degraded in results if degraded]
    stats = service.stats()
    report = {
        "config": {
            "max_queue_depth": MAX_QUEUE_DEPTH,
            "workers": WORKERS,
            "requests": REQUESTS,
            "max_new_tokens": MAX_NEW_TOKENS,
        },
        "wall_s": round(wall_s, 3),
        "errors": len(errors),
        "served": len(results),
        "degraded": len(degraded_ms),
        "shed_rate": round(len(degraded_ms) / len(results), 4) if results else None,
        "latency_all": _percentiles([ms for ms, _ in results]),
        "latency_engine": _percentiles(engine_ms),
        "latency_degraded": _percentiles(degraded_ms),
        "serving_stats": {
            "requests": stats["requests"],
            "degraded_requests": stats["degraded_requests"],
            "shed_requests": stats["shed_requests"],
        },
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    REPORT_FILE.write_text(json.dumps(report, indent=2))
    return report


@pytest.fixture(scope="module")
def report() -> dict:
    return run_degradation_bench()


@pytest.mark.slow
@pytest.mark.faults
def test_overload_degrades_instead_of_failing(report):
    rows = [
        ["engine", str(report["served"] - report["degraded"]),
         f"{report['latency_engine']['p50_ms']}", f"{report['latency_engine']['p99_ms']}"],
        ["degraded (ngram)", str(report["degraded"]),
         f"{report['latency_degraded']['p50_ms']}", f"{report['latency_degraded']['p99_ms']}"],
        ["all", str(report["served"]),
         f"{report['latency_all']['p50_ms']}", f"{report['latency_all']['p99_ms']}"],
    ]
    print()
    print(
        format_table(
            ["disposition", "requests", "p50 ms", "p99 ms"],
            rows,
            title=f"Serving at 2x saturation ({report['config']['workers']} workers, "
            f"depth {report['config']['max_queue_depth']}, shed rate {report['shed_rate']:.0%})",
        )
    )
    # The hardening promise: nothing errors, every request is answered.
    assert report["errors"] == 0
    assert report["served"] == report["config"]["requests"]
    # At 2x saturation some load must actually spill to the fallback...
    assert report["degraded"] > 0
    assert report["serving_stats"]["degraded_requests"] == report["degraded"]
    # ...and nothing is shed outright, because the fallback absorbs it.
    assert report["serving_stats"]["shed_requests"] == 0


@pytest.mark.slow
@pytest.mark.faults
def test_degraded_responses_are_cheap(report):
    if not report["degraded"]:
        pytest.skip("no degraded requests this run")
    # The n-gram fallback must undercut transformer decode by a wide
    # margin — that cheapness is the whole case for degrading.
    assert report["latency_degraded"]["p50_ms"] < report["latency_engine"]["p50_ms"]

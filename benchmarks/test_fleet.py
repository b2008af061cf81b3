"""X6 — fleet scaling: prefix-affinity routing vs round-robin, 1..4 replicas.

Spins up real replica *processes* (the model is numpy/CPU-bound, so only
processes buy parallel decode), fronts them with the
:class:`~repro.fleet.router.FleetRouter`, and offers the same seeded
shared-prefix workload — the paper's editor-plugin traffic, where many
requests re-send the same playbook head — under both routing policies.

Measured per configuration: aggregate tokens/s and the fleet-wide prefix
cache hit rate, token-weighted (the fraction of prompt tokens served from
cached K/V instead of prefilled — the byte-hit-ratio of caching
literature; a per-lookup rate would count a 3-token partial match the
same as a 100-token playbook head).  The claim under test: affinity
routing keeps each prefix group on one replica, so its prefix cache
keeps serving the long shared heads as the fleet grows, while round-robin
smears groups across replicas, each of which must prefill the head from
scratch.  Results go to ``benchmarks/_artifacts/BENCH_fleet.json``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import FleetRouter, ProcessWorker, WorkerSpec, generate_prompts
from repro.utils.tables import format_table

ARTIFACTS_DIR = Path(__file__).parent / "_artifacts"
REPORT_FILE = ARTIFACTS_DIR / "BENCH_fleet.json"

WORKER_COUNTS = (1, 2, 4)
POLICIES = ("affinity", "round_robin")
REQUESTS = 48
CLIENT_THREADS = 6
MAX_NEW_TOKENS = 8
SEED = 0


def _drive(router: FleetRouter, prompts: list[str]) -> tuple[float, int]:
    """Offer ``prompts`` through ``CLIENT_THREADS`` concurrent clients."""
    work = list(prompts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client() -> None:
        while True:
            with lock:
                if not work:
                    return
                prompt = work.pop()
            try:
                router.predict(prompt, max_new_tokens=MAX_NEW_TOKENS)
            except BaseException as error:
                with lock:
                    errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, len(errors)


def _run_config(n_workers: int, policy: str, prompts: list[str]) -> dict:
    spec = WorkerSpec(seed=SEED, max_new_tokens=MAX_NEW_TOKENS)
    workers = [ProcessWorker(f"w{index}", spec).start() for index in range(n_workers)]
    router = FleetRouter(workers, policy=policy)
    try:
        wall_s, errors = _drive(router, prompts)
        stats = router.stats()
    finally:
        router.stop()
    aggregate = stats["aggregate"]
    decode_tokens = aggregate["decode_tokens"]
    return {
        "workers": n_workers,
        "policy": policy,
        "wall_s": round(wall_s, 3),
        "errors": errors,
        "requests": stats["requests"],
        "decode_tokens": decode_tokens,
        "tokens_per_s": round(decode_tokens / wall_s, 2) if wall_s else None,
        "prefix_cache_hit_rate": round(aggregate["prefix_cache"]["token_reuse_rate"], 4),
        "prefix_cache_lookup_hit_rate": round(aggregate["prefix_cache"]["hit_rate"], 4),
        "prefix_tokens_reused": aggregate["prefix_cache"]["tokens_reused"],
    }


def run_fleet_bench() -> dict:
    """Every (workers, policy) cell over one seeded shared-prefix workload."""
    prompts = generate_prompts("shared_prefix", REQUESTS, seed=SEED)
    cells = [
        _run_config(n_workers, policy, prompts)
        for n_workers in WORKER_COUNTS
        for policy in POLICIES
    ]
    report = {
        "config": {
            "worker_counts": list(WORKER_COUNTS),
            "policies": list(POLICIES),
            "requests": REQUESTS,
            "client_threads": CLIENT_THREADS,
            "max_new_tokens": MAX_NEW_TOKENS,
            "profile": "shared_prefix",
            "seed": SEED,
        },
        "cells": cells,
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    REPORT_FILE.write_text(json.dumps(report, indent=2))
    return report


@pytest.fixture(scope="module")
def report() -> dict:
    return run_fleet_bench()


pytestmark = [pytest.mark.slow, pytest.mark.fleet]


def _cell(report: dict, workers: int, policy: str) -> dict:
    for cell in report["cells"]:
        if cell["workers"] == workers and cell["policy"] == policy:
            return cell
    raise AssertionError(f"missing cell ({workers}, {policy})")


class TestFleetBench:
    def test_every_request_served(self, report):
        for cell in report["cells"]:
            assert cell["errors"] == 0
            assert cell["requests"] == REQUESTS

    def test_affinity_beats_round_robin_on_hit_rate(self, report):
        # the headline claim, at every multi-replica size
        for workers in WORKER_COUNTS:
            if workers == 1:
                continue  # with one replica the policies are identical
            affinity = _cell(report, workers, "affinity")
            round_robin = _cell(report, workers, "round_robin")
            assert affinity["prefix_cache_hit_rate"] > round_robin["prefix_cache_hit_rate"], (
                f"affinity {affinity['prefix_cache_hit_rate']} <= "
                f"round_robin {round_robin['prefix_cache_hit_rate']} at {workers} workers"
            )
            assert affinity["prefix_tokens_reused"] > round_robin["prefix_tokens_reused"]

    def test_affinity_hit_rate_stable_as_fleet_grows(self, report):
        # affinity keeps each prefix group whole, so the hit rate must not
        # collapse with replica count the way round-robin's does
        single = _cell(report, 1, "affinity")["prefix_cache_hit_rate"]
        widest = _cell(report, max(WORKER_COUNTS), "affinity")["prefix_cache_hit_rate"]
        assert widest >= single * 0.8

    def test_throughput_reported_for_all_sizes(self, report):
        for workers in WORKER_COUNTS:
            cell = _cell(report, workers, "affinity")
            assert cell["tokens_per_s"] and cell["tokens_per_s"] > 0

    def test_report_table(self, report):
        rows = [
            [
                cell["workers"],
                cell["policy"],
                cell["tokens_per_s"],
                f"{cell['prefix_cache_hit_rate']:.0%}",
                cell["prefix_tokens_reused"],
            ]
            for cell in report["cells"]
        ]
        print()
        print(
            format_table(
                ["workers", "policy", "tokens/s", "prefix hit rate", "tokens reused"],
                rows,
                title="X6: fleet scaling, affinity vs round-robin (shared_prefix)",
            )
        )

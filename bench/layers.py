"""Per-layer metrics of a traced run, named ``<module>.<metric>``.

Times come from :class:`bench.trace.SpanTable`; counts are read through each
layer's public ``stats()`` / ``metrics()`` at the start and end of the traced
pass, so ratios are measured where the work happens and exclude warm-up.
``*_ms_per_op`` divides by the completion-returning ops of the traced pass.
``loadgen.contended.*`` and ``serving.service.coalesced`` come from the pass
two concurrent clients send after it, untraced.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.model import SIZE_2_7B, SIZE_350M, measure_throughput, speedup, transformer_config
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM

from bench.loadgen import Phase
from bench.trace import END, SIZE, START, SpanTable


def _replica_counts(service: dict) -> dict[str, float]:
    """One replica's monotonic counters, out of its ``stats()`` tree."""
    engine, sessions = service["engine"], service["sessions"]
    prefix, arena = engine["prefix_cache"], engine["kv_arena"]
    speculative = engine.get("speculative", {})
    return {
        "service.cache_hits": service["cache"]["hits"],
        "service.cache_misses": service["cache"]["misses"],
        "service.coalesced": service["coalesced_requests"],
        "service.shed": service["shed_requests"],
        "service.degraded": service["degraded_requests"],
        "session.evicted": sessions["evicted"],
        "session.prefill_tokens": sessions["prefill_tokens"],
        "session.reused_tokens": sessions["reused_tokens"],
        "batcher.steps": engine["decode_steps"],
        "batcher.occupancy_ticks": engine["mean_batch_occupancy"] * engine["decode_steps"],
        "batcher.decode_tokens": engine["decode_tokens"],
        "batcher.prefill_tokens": engine["prefill_tokens"],
        "batcher.spec_steps": speculative.get("steps", 0),
        "batcher.spec_accepted": speculative.get("accepted_tokens", 0),
        "prefix.hits": prefix["hits"],
        "prefix.misses": prefix["misses"],
        "prefix.tokens_reused": prefix["tokens_reused"],
        "prefix.evictions": prefix["evictions"],
        "arena.bytes_allocated": arena["bytes_allocated"],
        "arena.bytes_copied": arena["bytes_copied"],
        "arena.grow_copies": arena["grow_copies"],
        "arena.cow_copies": arena["cow_copies"],
    }


def snapshot(fleet) -> dict:
    """Every count the per-layer metrics need, read through public stats.

    ``counts`` are monotonic and summed over replicas (difference two
    snapshots); the rest are point-in-time readings.
    """
    router = fleet.router.stats()
    replicas = [router["workers"][worker.worker_id] for worker in fleet.workers]
    counts = Counter(
        {
            "router.failovers": router["failovers"],
            "router.spills": router["spills"],
            "router.shed": router["shed_requests"],
        }
    )
    for service in replicas:
        counts.update(_replica_counts(service))
    queue_waits = []
    for worker in fleet.workers:
        histogram = worker.service.metrics()["metrics"]["histograms"]["engine.queue_wait_s"]
        queue_waits.append((histogram["count"], histogram["p50"]))
    return {
        "counts": counts,
        "requests": [service["requests"] for service in replicas],
        "queue_waits": queue_waits,
        "open_sessions": sum(service["sessions"]["live_sessions"] for service in replicas),
        "peak_batch_size": max(service["engine"]["peak_batch_size"] for service in replicas),
        "arena_peak_bytes": sum(
            service["engine"]["kv_arena"]["peak_bytes_in_use"] for service in replicas
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_throughput() -> dict[str, float]:
    """The paper's own row: tokens/s of the 350M-equivalent against the
    2.7B-equivalent config (paper: ~1.9x), via ``measure_throughput``."""
    rates = {}
    for preset in (SIZE_350M, SIZE_2_7B):
        network = DecoderLM(transformer_config(512, preset, 1024), numpy_rng(0))
        rates[preset.label] = measure_throughput(network, runs=5)
    return {
        "model.throughput.350M_tokens_per_s": rates["350M"].tokens_per_second,
        "model.throughput.2.7B_tokens_per_s": rates["2.7B"].tokens_per_second,
        "model.throughput.size_speedup": speedup(rates["350M"], rates["2.7B"]),
    }


def contended_metrics(contended: Phase | None, budget: int, coalesced: float) -> dict[str, float]:
    """What two concurrent closed-loop clients see on the same pass: plain
    percentiles and wall-clock throughput of that one pass, so these carry the
    host's disturbance in full.  All 0 where the pass was not sent."""
    latency_p50_ms = latency_p95_ms = tokens_per_s = 0.0
    if contended is not None and contended.succeeded:
        good = contended.succeeded
        latencies_ms = np.array([result.latency_s for result in good]) * 1000.0
        latency_p50_ms, latency_p95_ms = (float(np.percentile(latencies_ms, q)) for q in (50, 95))
        tokens_per_s = budget * sum(len(result.call.prompts) for result in good) / contended.wall_s
    return {
        "loadgen.contended.latency_p50_ms": latency_p50_ms,
        "loadgen.contended.latency_p95_ms": latency_p95_ms,
        "loadgen.contended.tokens_per_s": tokens_per_s,
        "serving.service.coalesced": coalesced,
    }


def per_layer(
    table: SpanTable,
    traced: Phase,
    untraced: Phase,
    contended: Phase | None,
    budget: int,
    warmup_ops: int,
    snapshots: tuple[dict, dict, dict],
    leaked_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.  ``snapshots`` were taken
    before the traced pass, after it, and after the contended pass; ``budget``
    is the workload's tokens per completion."""
    before, after, final = snapshots
    completing = traced.succeeded
    ops = len(completing)
    delta = {name: count - before["counts"][name] for name, count in after["counts"].items()}
    latencies_ms = np.array([result.latency_s for result in completing]) * 1000.0

    def self_ms_per_op(layer: str) -> float:
        return _ratio(table.layer_self_s(layer) * 1000.0, ops)

    def ms_per_op(*names: str) -> float:
        return _ratio(sum(table.total_s[name] for name in names) * 1000.0, ops)

    def ms_per_call(name: str, times: dict[str, float]) -> float:
        return _ratio(times[name] * 1000.0, table.count[name])

    def sizes(name: str) -> list:
        return [record[SIZE] for record in table.named(name)]

    # serving.stream: what the caller sees between tokens.
    streams = [result for result in completing if result.call.kind == "stream"]
    gaps_ms = 1000.0 * np.array(
        [gap for result in streams for gap in np.diff(result.token_offsets_s)] or [0.0]
    )
    # Cache replays carry no server-side ttft_ms; compare on the decoded streams.
    decoded = [result for result in streams if result.payload.get("ttft_ms") is not None]
    ttft_gap_ms = (
        np.median([result.ttft_s * 1000.0 for result in decoded])
        - np.median([result.payload["ttft_ms"] for result in decoded])
        if decoded
        else 0.0
    )
    extends = [result for result in completing if result.call.kind == "extend"]
    requests = [now - then for now, then in zip(after["requests"], before["requests"])]
    token_reuse_rate = _ratio(
        delta["prefix.tokens_reused"],
        delta["prefix.tokens_reused"] + delta["batcher.prefill_tokens"],
    )
    # nn.transformer: prefill is a forward over T_new > 1 tokens, decode over one.
    forwards = table.named("nn.transformer.forward_incremental")
    prefill_s = sum(record[END] - record[START] for record in forwards if record[SIZE][1] > 1)
    decode_s = sum(record[END] - record[START] for record in forwards if record[SIZE][1] == 1)
    decode_rows = sum(record[SIZE][0] for record in forwards if record[SIZE][1] == 1)
    arena_allocated = after["counts"]["arena.bytes_allocated"]
    # The benchmark itself: traced against untraced ms/op on the same ops, and
    # the share of client-observed time that no span's self time accounts for.
    untraced_ms = _ratio(
        sum(result.latency_s for result in untraced.completing) * 1000.0,
        len(untraced.completing),
    )
    observed_s = float(latencies_ms.sum()) / 1000.0

    return {
        "serving.http.self_ms_per_op": self_ms_per_op("serving.http"),
        "serving.client.latency_p99_ms": float(np.percentile(latencies_ms, 99)),
        "serving.stream.intertoken_p50_ms": float(np.percentile(gaps_ms, 50)),
        "serving.stream.intertoken_p95_ms": float(np.percentile(gaps_ms, 95)),
        "serving.stream.events_per_read": _ratio(
            sum(sizes("serving.stream.feed")), table.count["serving.stream.feed"]
        ),
        "serving.stream.client_minus_server_ttft_ms": float(ttft_gap_ms),
        "serving.stream.heartbeats": sum(result.heartbeats for result in streams),
        "fleet.router.self_ms_per_op": self_ms_per_op("fleet.router"),
        "fleet.router.prefix_token_reuse_rate": token_reuse_rate,
        "fleet.router.worker_imbalance": _ratio(max(requests), sum(requests) / len(requests)),
        "fleet.router.batch_groups_per_op": _ratio(
            table.count["fleet.worker.predict_batch"], table.count["fleet.router.predict_batch"]
        ),
        "fleet.router.failovers": delta["router.failovers"],
        "fleet.router.spills": delta["router.spills"],
        "fleet.router.shed": delta["router.shed"],
        "fleet.worker.self_ms_per_op": self_ms_per_op("fleet.worker"),
        "serving.service.self_ms_per_op": self_ms_per_op("serving.service"),
        "serving.service.cache_hit_rate": _ratio(
            delta["service.cache_hits"],
            delta["service.cache_hits"] + delta["service.cache_misses"],
        ),
        "serving.service.shed": delta["service.shed"],
        "serving.service.degraded": delta["service.degraded"],
        "serving.session.self_ms_per_op": self_ms_per_op("serving.session"),
        "serving.session.prefill_tokens_per_extend": _ratio(
            sum(result.payload["prefilled"] for result in extends), len(extends)
        ),
        "serving.session.reused_token_share": _ratio(
            delta["session.reused_tokens"],
            delta["session.reused_tokens"] + delta["session.prefill_tokens"],
        ),
        "serving.session.evicted": delta["session.evicted"],
        "serving.session.open_at_end": after["open_sessions"],
        "tokenizer.bpe.encode_ms_per_op": ms_per_op("tokenizer.bpe.encode"),
        "tokenizer.bpe.decode_ms_per_op": ms_per_op("tokenizer.bpe.decode"),
        "tokenizer.bpe.tokens_encoded": sum(sizes("tokenizer.bpe.encode")),
        "engine.engine.self_ms_per_op": self_ms_per_op("engine.engine"),
        "engine.engine.queue_wait_p50_ms": 1000.0
        * _ratio(
            sum(count * p50 for count, p50 in after["queue_waits"]),
            sum(count for count, _ in after["queue_waits"]),
        ),
        "engine.batcher.steps": delta["batcher.steps"],
        "engine.batcher.self_ms_per_step": ms_per_call("engine.batcher.step", table.self_s),
        "engine.batcher.mean_batch_occupancy": _ratio(
            delta["batcher.occupancy_ticks"], delta["batcher.steps"]
        ),
        "engine.batcher.peak_batch_size": after["peak_batch_size"],
        "engine.batcher.decode_tokens": delta["batcher.decode_tokens"],
        "engine.batcher.prefill_tokens": delta["batcher.prefill_tokens"],
        "engine.prefix_cache.lookup_ms_per_op": ms_per_op("engine.prefix_cache.lookup"),
        "engine.prefix_cache.insert_ms_per_op": ms_per_op("engine.prefix_cache.insert"),
        "engine.prefix_cache.hit_rate": _ratio(
            delta["prefix.hits"], delta["prefix.hits"] + delta["prefix.misses"]
        ),
        "engine.prefix_cache.token_reuse_rate": token_reuse_rate,
        "engine.prefix_cache.evictions": delta["prefix.evictions"],
        "engine.batched_decode.prefill_ms_per_op": ms_per_op(
            "engine.batched_decode.prefill_single", "engine.batched_decode.admit_prompts"
        ),
        "engine.batched_decode.step_self_ms": ms_per_call(
            "engine.batched_decode.step", table.self_s
        ),
        "engine.speculative.accepted_per_step": _ratio(
            delta["batcher.spec_accepted"], delta["batcher.spec_steps"]
        ),
        "nn.transformer.prefill_ms_per_op": _ratio(prefill_s * 1000.0, ops),
        "nn.transformer.decode_ms_per_token": _ratio(decode_s * 1000.0, decode_rows),
        "nn.transformer.forward_calls": len(forwards),
        "nn.transformer.self_ms_per_call": ms_per_call(
            "nn.transformer.forward_incremental", table.self_s
        ),
        "nn.transformer.mlp_ms_per_call": ms_per_call("nn.transformer.mlp_forward", table.total_s),
        "nn.attention.ms_per_call": ms_per_call(
            "nn.attention.forward_incremental", table.total_s
        ),
        "nn.attention.calls": table.count["nn.attention.forward_incremental"],
        "nn.kv_arena.peak_bytes_in_use": after["arena_peak_bytes"],
        "nn.kv_arena.bytes_allocated": arena_allocated,
        "nn.kv_arena.in_use_share": _ratio(after["arena_peak_bytes"], arena_allocated),
        "nn.kv_arena.bytes_copied": delta["arena.bytes_copied"],
        "nn.kv_arena.grow_copies": delta["arena.grow_copies"],
        "nn.kv_arena.cow_copies": delta["arena.cow_copies"],
        "nn.kv_arena.leaked_bytes": leaked_bytes,
        **model_throughput(),
        "trace.overhead_share": _ratio(float(latencies_ms.mean()) - untraced_ms, untraced_ms),
        "trace.unattributed_share": _ratio(
            abs(observed_s - sum(table.self_s.values())), observed_s
        ),
        "loadgen.ops_attempted": len(traced.results),
        "loadgen.ops_failed": len(traced.failed),
        "loadgen.warmup_ops": warmup_ops,
        **contended_metrics(
            contended,
            budget,
            final["counts"]["service.coalesced"] - after["counts"]["service.coalesced"],
        ),
    }

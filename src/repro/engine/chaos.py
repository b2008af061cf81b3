"""Seeded, replayable chaos runs against one engine (``repro chaos``).

The engine-scale sibling of :mod:`repro.fleet.chaos`, living beside what
it storms because :mod:`repro.faults` sits below ``nn/kv_arena.py``.  The
two storms share a result shape, the JSONL renderer and the verdict of
:func:`repro.obs.audit` — not a fault schedule: they arm different seams
in a different order, and the order of the ``injector.on`` calls and of
the rng draws is the replay contract.
"""

from __future__ import annotations

from collections import deque

from repro.engine.batcher import ContinuousBatcher
from repro.engine.engine import InferenceEngine
from repro.engine.prefix_cache import PrefixCache
from repro.engine.request import GenerationRequest
from repro.engine.speculative import RetrievalSuffixDraft
from repro.faults import FakeClock, FaultInjector, render_jsonl, use
from repro.nn.kv_arena import KVArena
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.obs import audit
from repro.utils.rng import SeededRng

# The run shape every recorded replay log was cut with.
MAX_NEW_TOKENS = 8
STEP_S = 0.05  # fake-clock time between decode steps, and between streams


def _record(kind: str, index: int, request: GenerationRequest, **extra) -> dict:
    return {
        "kind": kind,
        "id": index,
        "outcome": request.outcome,
        "stop_reason": request.stop_reason,
        "generated": len(request.generated),
        **extra,
    }


def _run_batch(network, fake, plans, cancel_steps, **options):
    """The default shape: a bare batcher stepped by hand, two arrivals a
    step, each cancel landing at its scheduled step.  Returns ``(records,
    engine stats, the summary's shape fields)``."""
    arena = KVArena()
    batcher = ContinuousBatcher(network, prefix_cache=PrefixCache(8), arena=arena, **options)
    requests = [
        GenerationRequest(
            request_id=index,
            prompt_ids=planned,
            max_new_tokens=MAX_NEW_TOKENS,
            effective_budget=effective,
            deadline_s=deadline,
        )
        for index, (planned, effective, deadline) in enumerate(plans)
    ]
    cancel_at: dict[int, list[GenerationRequest]] = {}
    for request, cancel_step in zip(requests, cancel_steps):
        if cancel_step is not None:
            cancel_at.setdefault(cancel_step, []).append(request)
    arrivals = deque(requests)
    steps = 0
    while True:
        for _ in range(2):  # staggered arrival: two submissions per step
            if arrivals:
                batcher.submit(arrivals.popleft())
        for request in cancel_at.get(steps, ()):
            request.cancel()
        more = batcher.step()
        fake.advance(STEP_S)
        steps += 1
        if not more and not arrivals:
            break
        if steps > 10_000:  # max_fires caps make schedules finite; belt and braces
            raise RuntimeError("chaos run failed to terminate")
    batcher.prefix_cache.clear()
    records = [
        _record("request", request.request_id, request, prefix_reused=request.prefix_reused)
        for request in requests
    ]
    # A bare batcher has no engine around it to mint request ids or report
    # its stores: it was handed exactly these requests, arena and cache.
    stats = dict(
        batcher.stats(),
        requests_submitted=len(requests),
        kv_arena=arena.stats(),
        prefix_cache=batcher.prefix_cache.stats(),
    )
    return records, stats, {"steps": steps}


def _run_streams(network, fake, plans, abandons, **options):
    """The ``stream`` shape: the same schedule pointed at
    :meth:`InferenceEngine.stream_ids`; a stream with an ``abandons`` entry
    is closed after that many tokens — the client-disconnect path."""
    engine = InferenceEngine(
        network, prefix_cache_capacity=8, default_max_new_tokens=MAX_NEW_TOKENS, **options
    )
    records = []
    for index, ((planned, _effective, deadline), abandon) in enumerate(zip(plans, abandons)):
        handle: list = []
        tokens = 0
        disconnected = False
        stream = engine.stream_ids(planned, MAX_NEW_TOKENS, deadline_s=deadline, handle=handle)
        try:
            for burst in stream:
                tokens += len(burst)
                if abandon is not None and tokens >= abandon:
                    disconnected = True
                    break
        finally:
            stream.close()
        records.append(
            _record("stream", index, handle[0], tokens=tokens, disconnected=disconnected)
        )
        fake.advance(STEP_S)
    engine.prefix_cache.clear()
    disconnects = sum(record["disconnected"] for record in records)
    shape = {"stream": True, "streams": len(plans), "disconnects": disconnects}
    return records, engine.stats(), shape


def run_engine_chaos(
    seed: int = 0,
    requests: int = 12,
    *,
    max_batch: int = 4,
    alloc_fault_rate: float = 0.15,
    decode_fault_rate: float = 0.1,
    slow_step_rate: float = 0.1,
    speculative_k: int = 0,
    stream: bool = False,
) -> dict:
    """One deterministic chaos run: a tiny random-weight model through the
    continuous batcher under a fake clock, with deadlines, scheduled
    cancels and injected faults.  Everything derives from ``seed``.

    Returns ``events`` (fired faults, one record per request, a summary),
    ``log`` (their canonical JSONL — byte-identical across runs of a seed,
    so diffing two runs verifies a reproduction), ``stats`` (the engine's
    tree, read after the prefix cache is cleared so the zero-leak law
    applies) and ``violations`` (the laws :func:`repro.obs.audit` finds
    broken in it; empty means every invariant held).

    The rates are per-call probabilities of a failed slab allocation, a
    failed (retried) decode step and a 250 ms slow step, each capped at
    four firings so every schedule ends.  ``speculative_k`` decodes
    draft-then-verify: drafts are pure functions of the context, so a
    faulted step recomputes them identically.  ``stream`` drives token
    streams and abandons a seeded share mid-decode.  Neither perturbs the
    schedule the default shape draws.
    """
    rng = SeededRng(seed).child("chaos")
    config = TransformerConfig(vocab_size=32, n_positions=48, dim=16, n_layers=2, n_heads=4)
    network = DecoderLM(config, numpy_rng(seed))
    fake = FakeClock()
    injector = FaultInjector(seed=seed)
    injector.on("kv_arena.acquire", probability=alloc_fault_rate, max_fires=4)
    injector.on("engine.decode_step", probability=decode_fault_rate, max_fires=4)
    injector.on(
        "engine.decode_step", probability=slow_step_rate, error=None, delay_s=0.25, max_fires=4
    )
    # Every random decision is drawn up front (the rng call order is the
    # replay contract); the stream shape's extra draws come last.
    plans: list[tuple[list[int], int, float | None]] = []
    for _ in range(requests):
        prompt = [rng.randint(1, config.vocab_size - 1) for _ in range(rng.randint(3, 12))]
        planned, effective = plan_prompt(config.n_positions, prompt, MAX_NEW_TOKENS)
        deadline = rng.uniform(0.3, 2.0) if rng.bernoulli(0.4) else None
        plans.append((planned, effective, deadline))
    cancel_steps = [rng.randint(1, 15) if rng.bernoulli(0.2) else None for _ in range(requests)]
    if stream:
        abandons = [rng.randint(1, 5) if rng.bernoulli(0.3) else None for _ in range(requests)]
    draft = None
    if speculative_k:
        # Warmed on the model's own greedy continuations, outside the
        # injector, so warm-up forwards never consume the fault schedule.
        draft = RetrievalSuffixDraft()
        for planned, _, _ in plans:
            result = generate_greedy(network, list(planned), MAX_NEW_TOKENS)
            draft.observe(list(planned) + list(result.token_ids))

    options = dict(max_batch_size=max_batch, speculative_k=speculative_k, draft_model=draft)
    with use(fake), injector:
        if stream:
            records, stats, shape = _run_streams(network, fake, plans, abandons, **options)
        else:
            records, stats, shape = _run_batch(network, fake, plans, cancel_steps, **options)
    faults = [dict(event, kind="fault") for event in injector.events()]
    summary = {
        "kind": "summary",
        "seed": seed,
        **shape,
        "completed": stats["completed_requests"],
        "cancelled": stats["cancelled_requests"],
        "deadline_expired": stats["deadline_expired_requests"],
        "shed": stats["shed_requests"],
        "decode_faults": stats["decode_faults"],
        "fault_events": len(faults),
        "arena_bytes_in_use": stats["kv_arena"]["bytes_in_use"],
    }
    if speculative_k:
        speculative = stats["speculative"]
        summary["speculative_k"] = speculative["k"]
        if not stream:  # stream logs have never carried it
            summary["speculative_steps"] = speculative["steps"]
        summary["draft_proposed"] = speculative["proposed_tokens"]
        summary["draft_accepted"] = speculative["accepted_tokens"]
    events = [*faults, *records, summary]
    # No run-level check: these requests are the engine's books, so "every
    # request ended in one of the four outcomes" is the audit's engine law.
    violations = audit({"engine": stats})
    return {"events": events, "log": render_jsonl(events), "stats": stats, "violations": violations}

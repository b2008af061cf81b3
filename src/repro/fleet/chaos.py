"""Seeded, replayable chaos runs against a whole fleet.

:func:`run_fleet_chaos` is the fleet-scale sibling of
:func:`repro.engine.chaos.run_engine_chaos`: it drives a router over N
in-process replicas under a :class:`~repro.faults.FakeClock` and a seeded
:class:`~repro.faults.FaultInjector`, then renders a canonical JSONL
event log.  Everything — model weights, the prompt stream, the fault
schedule, every timestamp — derives from the seed, so two runs of the
same seed produce *byte-identical* logs; ``repro fleet chaos`` diffs
them and the test suite asserts it.

The marquee fault is the mid-decode replica kill: a
:class:`~repro.errors.WorkerCrashed` is injected at a chosen global
``engine.decode_step`` call, i.e. while that replica's continuous batcher
has live rows.  The dying replica aborts its in-flight requests (freeing
their KV slabs), the router fails the observed request over to the next
replica on the ring, and the run's invariants are asserted afterwards:

* the books of every replica ever spawned, dead ones included, balance,
  and with sessions closed and cached prefixes dropped none holds a
  KV-arena byte (:func:`repro.obs.audit` — all a ``stats()`` tree shows);
* every submitted request ends in exactly one of the four outcomes and no
  replica still holds a session the run opened (what takes the run to see);
* the event log replays byte-identically for the same seed.

What a run breaks of the first two is listed in ``result["violations"]``.
"""

from __future__ import annotations

import json

from repro.errors import OUTCOME_ERRORS, SessionNotFoundError, WorkerCrashed, error_for_status
from repro.faults import FakeClock, FaultInjector, clock, render_jsonl, use
from repro.fleet.loadgen import generate_prompts
from repro.fleet.router import FleetRouter
from repro.fleet.worker import InProcessWorker, WorkerSpec
from repro.obs import Observability, Tracer, audit
from repro.obs.distributed import FleetCollector, fleet_chrome_trace
from repro.obs.slo import DEFAULT_SLOS, SloMonitor
from repro.utils.rng import SeededRng

#: The four terminal dispositions a request can reach (PR 5's invariant).
OUTCOMES = ("completed", "cancelled", "deadline_exceeded", "shed")

# The run shape every recorded replay log was cut with.
SLOW_STEP_DELAY_S = 0.6  # fake-clock stall of a slow decode step
HEARTBEAT_EVERY = 4  # requests between router heartbeat ticks
DISCONNECT_RATE = 0.25  # --stream: share of clients that hang up mid-stream
SESSION_EVERY = 5  # --stream: every n-th request is a keystroke session


def build_chaos_fleet(
    seed: int,
    n_workers: int,
    *,
    tracing: bool = False,
) -> tuple[FleetRouter, list[InProcessWorker]]:
    """A router over ``n_workers`` deterministic in-process replicas.

    Replica ``k`` gets weights from ``seed + k`` (distinct replicas, same
    tokenizer) — close enough to a real fleet of identical deployments
    while keeping every byte seed-derived.  Returns the worker handles
    alongside the router so callers can audit replicas (leak checks)
    even after the router has declared them dead.

    With ``tracing=True`` every replica gets an enabled tracer, the
    router traces and mints per-request trace contexts, and a
    :class:`~repro.obs.distributed.FleetCollector` rides the heartbeat
    tick — the full distributed-observability stack, still deterministic
    because spans read the same :class:`~repro.faults.FakeClock`.
    """
    workers = [
        InProcessWorker(f"w{index}", spec=WorkerSpec(seed=seed + index, tracing=tracing)).start()
        for index in range(n_workers)
    ]
    router = FleetRouter(
        workers,
        heartbeat_timeout_s=1.0,  # fake-clock seconds
        obs=Observability(tracer=Tracer(capacity=65536)) if tracing else None,
        collector=FleetCollector() if tracing else None,
    )
    return router, workers


def _record(kind: str, **fields) -> dict:
    """A request's event record as it stands until the run says otherwise."""
    return {"kind": kind, "outcome": "completed", "worker": None, **fields}


def _predict_one(router, prompt: str, deadline_s) -> dict:
    """Drive one unary request; returns its canonical event record."""
    record = _record("request", failovers=0)
    try:
        payload = router.predict(prompt, max_new_tokens=8, deadline_s=deadline_s)
        record.update(worker=payload["worker"], failovers=payload.get("failovers", 0))
        record["ttft_ms"] = payload.get("ttft_ms")
    except OUTCOME_ERRORS as error:
        record["outcome"] = error.outcome
    return record


def _stream_one(router, prompt: str, deadline_s, abandon_after: int | None) -> dict:
    """Drive one streamed request; returns its canonical event record.

    ``abandon_after`` simulates a client disconnect: after that many
    ``token`` events the generator is closed, which propagates into the
    engine as a cooperative cancel — the same path a dropped socket takes
    through the REST handler.
    """
    record = _record("stream", failovers=0, tokens=0, disconnected=False, ttft_ms=None)
    events = None
    try:
        events = router.predict_stream(prompt, max_new_tokens=8, deadline_s=deadline_s)
        for event, data in events:
            if event == "token":
                record["tokens"] += 1
                if abandon_after is not None and record["tokens"] >= abandon_after:
                    record.update(disconnected=True, outcome="cancelled")
                    break
            elif event == "done":
                record["outcome"] = data.get("outcome") or "completed"
                record["worker"] = data.get("worker")
                record["failovers"] = data.get("failovers", 0)
                record["ttft_ms"] = data.get("ttft_ms")
            elif event == "error":
                record["outcome"] = error_for_status(data.get("status")).outcome or "shed"
                record["worker"] = data.get("worker")
    except OUTCOME_ERRORS as error:
        record["outcome"] = error.outcome
    finally:
        if events is not None:
            events.close()
    return record


def _session_one(router, prompt: str, deadline_s) -> dict:
    """One keystroke-session exchange (create → extend → close)."""
    record = _record("session", reused_tokens=0, extends=0)
    session_id = None
    try:
        created = router.session_create(prompt, max_new_tokens=8, deadline_s=deadline_s)
        session_id = created["session_id"]
        record["worker"] = created.get("worker")
        grown = prompt + created["completion"] + "\n- name: Restart the service\n"
        extended = router.session_extend(
            session_id, grown, max_new_tokens=8, deadline_s=deadline_s
        )
        record.update(reused_tokens=extended.get("reused_tokens", 0), extends=1)
    except SessionNotFoundError:
        # The owning replica died between create and extend: the editor's
        # in-flight keystroke is cancelled (it would re-create next enter).
        record["outcome"] = "cancelled"
    except OUTCOME_ERRORS as error:
        record["outcome"] = error.outcome
    finally:
        if session_id is not None:
            router.session_close(session_id)
    return record


def _drive(router, fake, rng, prompts, deadline_rate, stream, monitor):
    """The request loop: one record per prompt — unary, or under ``stream``
    a stream or every ``SESSION_EVERY``-th a session — each finished by the
    same tail, and a heartbeat tick every ``HEARTBEAT_EVERY``.  Returns
    ``(events, request id -> outcome)``."""
    events: list[dict] = []
    outcomes: dict[int, str] = {}
    for index, prompt in enumerate(prompts):
        deadline_s = rng.uniform(0.3, 1.5) if rng.bernoulli(deadline_rate) else None
        started = clock.now()
        if not stream:
            record = _predict_one(router, prompt, deadline_s)
        elif (index + 1) % SESSION_EVERY == 0:
            record = _session_one(router, prompt, deadline_s)
        else:
            abandon_after = rng.randint(1, 4) if rng.bernoulli(DISCONNECT_RATE) else None
            record = _stream_one(router, prompt, deadline_s, abandon_after)
        ttft_ms = record.pop("ttft_ms", None)
        ttft_s = ttft_ms / 1000.0 if ttft_ms is not None else None
        outcomes[index] = record["outcome"]
        if monitor is not None:
            monitor.observe(clock.now() - started, record["outcome"], ttft_s=ttft_s)
        record["id"] = index
        record["deadline_s"] = round(deadline_s, 6) if deadline_s is not None else None
        events.append(record)
        fake.advance(0.05)
        if (index + 1) % HEARTBEAT_EVERY == 0:
            for dead_id in router.heartbeat_tick():
                events.append({"kind": "worker_dead", "worker": dead_id})
    return events, outcomes


def _release_holdings(workers) -> None:
    """Close the sessions and drop the cached prefixes of every replica
    ever spawned (a crashed one dropped its own on the way down): what KV
    is claimed after this is held by nobody, which the audit calls a leak."""
    for worker in workers:
        worker.service.sessions.close_all()
        worker.engine.prefix_cache.clear()


def _summary(result: dict, records: list[dict], slo_report: dict | None, stream: bool) -> dict:
    """What the closing event reads off the run.  The ``stream`` shape's
    keys exist only there, so ``stream=False`` logs keep the byte layout
    recorded before streaming existed."""
    stats, outcomes = result["stats"], result["outcomes"]
    aggregate = stats["aggregate"]
    summary = {
        "outcomes": {key: sum(1 for o in outcomes.values() if o == key) for key in OUTCOMES},
        "failovers": stats["failovers"],
        "spills": stats["spills"],
        "shed": stats["shed_requests"],
        "rebalances": stats["rebalances"],
        "workers_lost": stats["workers_lost"],
        "heartbeat_misses": stats["heartbeat_misses"],
        "dead_workers": sorted(stats["dead_workers"]),
        "decode_tokens": aggregate["decode_tokens"],
        "prefix_cache_hits": aggregate["prefix_cache"]["hits"],
        "leaked_bytes": dict(sorted(result["leaked_bytes"].items())),
        "slos_met": slo_report["all_met"] if slo_report is not None else None,
        "slos_alerting": slo_report["any_alerting"] if slo_report is not None else None,
    }
    if stream:
        summary["streams"] = stats["stream_requests"]
        summary["disconnects"] = sum(1 for record in records if record.get("disconnected"))
        summary["session_creates"] = stats["session_creates"]
        summary["session_extends"] = stats["session_extends"]
        summary["sessions_lost"] = stats["sessions_lost"]
        summary["orphaned_sessions"] = dict(sorted(result["orphaned_sessions"].items()))
    return summary


def _merged_trace(router) -> dict:
    """The result's trace entries, after a final drain outside the
    heartbeat cadence: spans recorded since the last tick make it in, spans
    on replicas that died undrained are lost, as in any pull model."""
    collector_stats = router.collect_telemetry()
    chrome_trace = fleet_chrome_trace(
        router.obs.tracer.spans(),
        {replica: router.collector.spans(replica) for replica in router.collector.replicas()},
    )
    return {
        "collector": collector_stats,
        "chrome_trace": chrome_trace,
        "chrome_trace_json": json.dumps(chrome_trace, sort_keys=True),
    }


def run_fleet_chaos(
    seed: int = 0,
    n_workers: int = 3,
    n_requests: int = 24,
    *,
    kill_decode_call: int | None = 30,
    slow_step_rate: float = 0.08,
    decode_fault_rate: float = 0.05,
    alloc_fault_rate: float = 0.0,
    heartbeat_fault_rate: float = 0.1,
    deadline_rate: float = 0.3,
    profile: str = "shared_prefix",
    tracing: bool = True,
    slo_specs=DEFAULT_SLOS,
    stream: bool = False,
) -> dict:
    """One deterministic chaos run; returns events, log text and invariants.

    Returns what :func:`repro.engine.chaos.run_engine_chaos` does —
    ``events``, ``log`` (their canonical sorted-key JSONL), ``stats`` (the
    router's tree) and ``violations`` (one line per broken invariant) —
    plus ``outcomes`` (request id -> outcome), ``leaked_bytes`` and
    ``orphaned_sessions`` (per replica; the invariants want all zeros) and
    ``crashed`` (replica ids that died mid-run).

    With ``tracing`` on (the default) the run additionally returns
    ``chrome_trace`` — the merged multi-process Perfetto timeline stitched
    by :func:`~repro.obs.distributed.fleet_chrome_trace`, with every
    router span parenting its worker spans across the process boundary —
    and, given ``slo_specs``, ``slo``: the burn-rate verdict report from
    an :class:`~repro.obs.slo.SloMonitor` fed one event per request.
    Both are pure functions of the seed: replays reproduce them
    byte-for-byte (``chrome_trace_json`` / ``slo_json`` carry the
    canonical serializations).

    With ``stream=True`` requests go through
    :meth:`~repro.fleet.router.FleetRouter.predict_stream`, a seeded
    fraction of clients disconnects mid-stream (``DISCONNECT_RATE``,
    exercised by closing the event generator — the router observes it
    exactly as a dropped socket), and every ``SESSION_EVERY``-th request
    exercises the keystroke-session API (create → extend → close)
    instead.  Its extra rng draws and summary keys exist only in that
    shape, so ``stream=False`` replays stay byte-identical to logs
    recorded before streaming existed.
    """
    rng = SeededRng(seed).child("fleet-chaos")
    prompts = generate_prompts(profile, n_requests, seed=seed)
    fake = FakeClock()
    injector = FaultInjector(seed=seed)
    if kill_decode_call is not None:
        injector.on("engine.decode_step", at_calls=[kill_decode_call], error=WorkerCrashed)
    if slow_step_rate:
        injector.on(
            "engine.decode_step",
            probability=slow_step_rate,
            error=None,
            delay_s=SLOW_STEP_DELAY_S,
            max_fires=10,
        )
    if decode_fault_rate:
        injector.on("engine.decode_step", probability=decode_fault_rate, max_fires=4)
    if alloc_fault_rate:
        injector.on("kv_arena.acquire", probability=alloc_fault_rate, max_fires=4)
    if heartbeat_fault_rate:
        injector.on("fleet.heartbeat", probability=heartbeat_fault_rate, max_fires=8)

    monitor = SloMonitor(slo_specs) if slo_specs else None
    with use(fake), injector:
        router, workers = build_chaos_fleet(seed, n_workers, tracing=tracing)
        records, outcomes = _drive(router, fake, rng, prompts, deadline_rate, stream, monitor)
        # The run closed every session it opened: one still registered is an orphan.
        orphaned_sessions = {worker.worker_id: worker.session_count() for worker in workers}
        _release_holdings(workers)
        leaked_bytes = {worker.worker_id: worker.arena_bytes_in_use() for worker in workers}
        stats = router.stats()
        # ``stats["workers"]`` holds only the live replicas; the dead ones
        # answer for their books — the zero-leak law among them — too.
        violations = audit({**stats, "workers": {w.worker_id: w.service.stats() for w in workers}})
        slo_report = monitor.evaluate() if monitor is not None else None
        trace = _merged_trace(router) if tracing and router.collector is not None else {}

    violations += [
        f"{worker}: {count} orphaned sessions"
        for worker, count in orphaned_sessions.items()
        if count
    ]
    violations += [
        f"request {index}: outcome {outcome!r} is not one of {OUTCOMES}"
        for index, outcome in outcomes.items()
        if outcome not in OUTCOMES
    ]
    result = {
        "outcomes": outcomes,
        "leaked_bytes": leaked_bytes,
        "orphaned_sessions": orphaned_sessions,
        "crashed": router.dead_worker_ids,
        "stats": stats,
        "violations": violations,
        **trace,
    }
    summary = {
        "kind": "summary",
        "seed": seed,
        "workers": n_workers,
        "requests": n_requests,
        "profile": profile,
        **_summary(result, records, slo_report, stream),
    }
    events = [dict(event, kind="fault") for event in injector.events()]
    events += [*records, summary]
    result.update(events=events, log=render_jsonl(events))
    if slo_report is not None:
        result.update(slo=slo_report, slo_json=json.dumps(slo_report, sort_keys=True))
    return result

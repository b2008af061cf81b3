"""Count once: the registry is the only store, and the books balance.

Three things hold the consolidation in place:

* the key sets of every ``stats()`` tree and the counter names of
  ``metrics()`` are written out here, and ``stats()`` must agree with the
  registry on every count they share;
* :func:`repro.obs.audit` returns ``[]`` after every seeded chaos shape —
  replicas that died included — and names the law on a doctored tree;
* a real-thread, real-clock soak of one ``RestServer`` ends with balanced
  books and an empty arena (ROADMAP "Determinism's blind spots" (b)).
"""

from __future__ import annotations

import copy
import sys
import threading
import time

import pytest

from repro.engine.chaos import run_engine_chaos
from repro.errors import ServiceOverloadedError, SessionNotFoundError
from repro.faults import FakeClock, FaultInjector, shield, use
from repro.fleet import (
    FleetRouter,
    InProcessWorker,
    WorkerSpec,
    build_chaos_fleet,
    run_fleet_chaos,
)
from repro.fleet.chaos import _release_holdings
from repro.fleet.worker import build_service
from repro.obs import audit
from repro.serving import RestServer
from repro.serving.client import PredictionClient
from repro.serving.service import SHED_RETRY_AFTER_S
from tests.test_faults import ENGINE_SHAPES

PROMPTS = [
    "- name: Install nginx\n",
    "- name: Start SSH server\n",
    "- name: Copy the config\n",
    "- name: Install redis\n",
]

# -- (a) the wire: key sets, counter names, stats() == registry ----------------

SERVICE_KEYS = {
    "requests", "batch_requests", "coalesced_requests", "shed_requests", "degraded_requests",
    "deadline_exceeded_requests", "cancelled_requests", "stream_requests",
    "stream_disconnects", "max_queue_depth", "inflight", "cache_hit_rate", "cache",
    "mean_latency_ms", "fallback", "tracing", "sessions", "engine",
}  # fmt: skip
ENGINE_KEYS = {
    "queue_depth", "active_requests", "completed_requests", "cancelled_requests",
    "deadline_expired_requests", "shed_requests", "decode_faults", "decode_steps",
    "decode_tokens", "prefill_tokens", "prefix_tokens_reused", "mean_batch_occupancy",
    "peak_batch_size", "max_batch_size", "requests_submitted",
    "kv_arena", "prefix_cache", "speculative",
}  # fmt: skip
KV_ARENA_KEYS = {
    "block_size", "slabs_allocated", "slabs_reused", "slabs_pooled", "bytes_allocated",
    "bytes_in_use", "peak_bytes_in_use", "bytes_copied", "appends", "grow_copies", "cow_copies",
    "slabs_dropped_live",
}  # fmt: skip
SPECULATIVE_KEYS = {
    "k", "draft_model", "steps", "proposed_tokens", "accepted_tokens", "acceptance_rate",
    "mean_accept_length",
}  # fmt: skip
SESSION_KEYS = {
    "live_sessions", "max_sessions", "created", "extends", "evicted", "closed",
    "prefill_tokens", "reused_tokens", "decode_tokens", "token_reuse_rate",
}  # fmt: skip
ROUTER_KEYS = {
    "policy", "live_workers", "dead_workers", "inflight", "requests",
    "batch_requests", "stream_requests", "session_creates", "session_extends",
    "sessions_lost", "live_sessions", "shed_requests", "failovers", "spills", "rebalances",
    "heartbeat_misses", "workers_lost", "respawns", "spawn_failures", "aggregate", "workers",
}  # fmt: skip

#: ``stats()`` key -> registry series, for every count the two share.
SERVICE_SERIES = {
    "requests": "serving.requests",
    "batch_requests": "serving.batch_requests",
    "coalesced_requests": "serving.coalesced",
    "shed_requests": "serving.shed",
    "degraded_requests": "serving.degraded",
    "deadline_exceeded_requests": "serving.deadline_exceeded",
    "cancelled_requests": "serving.cancelled",
    "stream_requests": "serving.streams",
    "stream_disconnects": "serving.stream_disconnects",
}
ENGINE_SERIES = {
    "cancelled_requests": "engine.requests_cancelled",
    "deadline_expired_requests": "engine.requests_deadline_exceeded",
    "shed_requests": "engine.requests_shed",
    "decode_faults": "engine.decode_faults",
    "decode_steps": "engine.decode_steps",
    "decode_tokens": "engine.decode_tokens",
    "prefill_tokens": "engine.prefill_tokens",
    "prefix_tokens_reused": "engine.prefix_tokens_reused",
}
SPECULATIVE_SERIES = {
    "steps": "engine.speculative_steps",
    "proposed_tokens": "engine.draft_tokens_proposed",
    "accepted_tokens": "engine.draft_tokens_accepted",
}
CACHE_SERIES = {key: f"serving.cache_{key}" for key in ("hits", "misses", "evictions")}
SESSION_SERIES = {
    key: f"session.{key}"
    for key in (
        "created", "extends", "evicted", "closed", "prefill_tokens", "reused_tokens",
        "decode_tokens",
    )  # fmt: skip
}
ROUTER_SERIES = {
    "requests": "fleet.requests",
    "batch_requests": "fleet.batch_requests",
    "stream_requests": "fleet.streams",
    "session_creates": "fleet.session_creates",
    "session_extends": "fleet.session_extends",
    "sessions_lost": "fleet.sessions_lost",
    "shed_requests": "fleet.shed",
    "failovers": "fleet.failovers",
    "spills": "fleet.spills",
    "rebalances": "fleet.rebalances",
    "heartbeat_misses": "fleet.heartbeat_misses",
    "workers_lost": "fleet.workers_lost",
    "respawns": "fleet.respawns",
    "spawn_failures": "fleet.spawn_failures",
}
#: Series exported before this refactor that no ``stats()`` key reads directly.
OTHER_REPLICA_COUNTERS = {
    "engine.requests", "engine.generated_tokens", "engine.requests_admitted",
    "engine.requests_retired",
}  # fmt: skip


def _mixed_fleet_run():
    """A small seeded fleet run touching every request kind, with faulted
    decode steps, an abandoned stream and a replica that dies holding
    sessions."""
    injector = FaultInjector(seed=7)
    injector.on("engine.decode_step", probability=0.2, max_fires=3)
    with use(FakeClock()), injector:
        spec = WorkerSpec(seed=3, speculative_k=2)
        workers = [InProcessWorker(f"w{index}", spec=spec).start() for index in range(2)]
        router = FleetRouter(workers)
        owners: dict[str, str] = {}
        for index, prompt in enumerate(PROMPTS * 2):
            router.predict(prompt + f"# {index}\n", 6)
            created = router.session_create(prompt, 6)
            router.session_extend(created["session_id"], prompt + "  ansible.builtin.apt:\n", 6)
            owners[created["session_id"]] = created["worker"]
        router.predict_batch(PROMPTS, 6)
        router.predict("a", 6)  # one token: a lookup the prefix cache books as skipped
        abandoned = router.predict_stream(PROMPTS[0] + "# abandoned\n", 6)
        next(abandoned)
        abandoned.close()
        list(router.predict_stream(PROMPTS[1] + "# drained\n", 6))
        session_id, owner = next(iter(owners.items()))
        next(worker for worker in workers if worker.worker_id == owner).kill()
        with pytest.raises(SessionNotFoundError):
            router.session_extend(session_id, PROMPTS[0] * 2, 6)
        router.predict(PROMPTS[2] + "# after the kill\n", 6)
    return router, workers


class TestWire:
    @pytest.fixture(scope="class")
    def fleet(self):
        return _mixed_fleet_run()

    def test_stats_key_sets(self, fleet):
        router, workers = fleet
        assert set(router.stats()) == ROUTER_KEYS
        for worker in workers:
            stats = worker.service.stats()
            assert set(stats) == SERVICE_KEYS
            assert set(stats["engine"]) == ENGINE_KEYS
            assert set(stats["engine"]["kv_arena"]) == KV_ARENA_KEYS
            assert set(stats["engine"]["speculative"]) == SPECULATIVE_KEYS
            assert set(stats["sessions"]) == SESSION_KEYS

    def test_every_counter_name_is_exported(self, fleet):
        router, workers = fleet
        assert set(ROUTER_SERIES.values()) <= set(router.metrics()["metrics"]["counters"])
        tables = (SERVICE_SERIES, CACHE_SERIES, ENGINE_SERIES, SPECULATIVE_SERIES, SESSION_SERIES)
        expected = OTHER_REPLICA_COUNTERS.union(*(table.values() for table in tables))
        for worker in workers:
            counters = worker.service.metrics()["metrics"]["counters"]
            assert expected <= set(counters)
            exposition = worker.service.metrics_prometheus()
            for name in expected:
                assert name.replace(".", "_") + "_total " in exposition

    def test_stats_and_registry_agree_on_every_shared_count(self, fleet):
        router, workers = fleet
        counters = router.metrics()["metrics"]["counters"]
        stats = router.stats()
        assert {key: stats[key] for key in ROUTER_SERIES} == {
            key: counters[series] for key, series in ROUTER_SERIES.items()
        }
        assert stats["failovers"] >= 1 and stats["sessions_lost"] >= 1
        for worker in workers:
            stats = worker.service.stats()
            counters = worker.service.metrics()["metrics"]["counters"]
            for tree, table in (
                (stats, SERVICE_SERIES),
                (stats["cache"], CACHE_SERIES),
                (stats["engine"], ENGINE_SERIES),
                (stats["engine"]["speculative"], SPECULATIVE_SERIES),
                (stats["sessions"], SESSION_SERIES),
            ):
                assert {key: tree[key] for key in table} == {
                    key: counters[series] for key, series in table.items()
                }
            engine = stats["engine"]
            # the prefix cache's counts have one store, the cache: /v1/metrics
            # repeats that section and the registry keeps no shadow of it
            assert worker.service.metrics()["engine"]["prefix_cache"] == engine["prefix_cache"]
            assert not [name for name in counters if name.startswith("engine.prefix_cache")]
            # what stats() derives rather than stores
            assert engine["completed_requests"] == counters["engine.requests_retired"] - (
                engine["cancelled_requests"]
                + engine["deadline_expired_requests"]
                + engine["shed_requests"]
            )
            if engine["decode_steps"]:
                assert engine["mean_batch_occupancy"] == pytest.approx(
                    counters["engine.occupancy_ticks"] / engine["decode_steps"]
                )
            if stats["requests"]:
                assert stats["mean_latency_ms"] == pytest.approx(
                    counters["serving.latency_ms_total"] / stats["requests"]
                )
        assert sum(w.service.stats()["requests"] for w in workers) > 0
        assert sum(w.service.stats()["engine"]["prefix_cache"]["skipped"] for w in workers) == 1


# -- the two holes the audit exposed -------------------------------------------


def _fault_a_long_extend(service) -> ServiceOverloadedError:
    """Open a session, then fail the slab acquisition of a long extend: the
    batch is empty between calls, so the extend opens it."""
    created = service.session_create(PROMPTS[0], 4)
    grown = PROMPTS[0] + created["completion"] + "\n  ansible.builtin.apt:\n    name: nginx\n" * 3
    injector = FaultInjector(seed=0)
    injector.on("kv_arena.acquire", probability=1.0, max_fires=1)
    with injector, pytest.raises(ServiceOverloadedError) as raised:
        service.session_extend(created["session_id"], grown, 4)
    assert injector.events(), "the extend never opened the batch: is a row still decoding?"
    return raised.value


class TestAccountingHoles:
    def test_a_shed_extend_keeps_the_session_open(self):
        service, _engine = build_service(WorkerSpec(seed=0))
        _fault_a_long_extend(service)
        sessions = service.stats()["sessions"]
        assert (sessions["created"], sessions["live_sessions"]) == (1, 1)
        assert (sessions["closed"], sessions["evicted"]) == (0, 0)
        assert audit(service.stats()) == []

    def test_a_create_that_faults_was_never_created_so_is_not_lost(self):
        service, _engine = build_service(WorkerSpec(seed=0))
        injector = FaultInjector(seed=0)
        injector.on("kv_arena.acquire", probability=1.0, max_fires=1)
        with injector, pytest.raises(ServiceOverloadedError):
            service.session_create(PROMPTS[0], 4)
        sessions = service.stats()["sessions"]
        assert (sessions["created"], sessions["live_sessions"]) == (0, 0)
        assert audit(service.stats()) == []

    def test_the_503_of_a_shed_session_call_is_counted_and_carries_retry_after(self):
        service, _engine = build_service(WorkerSpec(seed=0))
        error = _fault_a_long_extend(service)
        assert error.retry_after_s == SHED_RETRY_AFTER_S
        stats = service.stats()
        assert stats["shed_requests"] == 1
        assert service.metrics()["metrics"]["counters"]["serving.shed"] == 1
        assert stats["engine"]["shed_requests"] == 1  # the engine books it too


# -- (b) the audit after every chaos shape --------------------------------------

SEEDS = range(10)


class TestAuditAfterChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", ENGINE_SHAPES)
    def test_engine_chaos_exits_clean(self, seed, shape):
        assert run_engine_chaos(seed=seed, **ENGINE_SHAPES[shape])["violations"] == []

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("alloc_fault_rate", [0.0, 0.08])
    @pytest.mark.parametrize("stream", [False, True], ids=["plain", "stream"])
    def test_fleet_chaos_balances_on_every_replica(self, seed, stream, alloc_fault_rate):
        result = run_fleet_chaos(
            seed=seed,
            stream=stream,
            alloc_fault_rate=alloc_fault_rate,
            tracing=False,
            slo_specs=None,
        )
        assert result["violations"] == []

    def test_an_unreleased_kv_cache_fails_a_fleet_run_through_the_audit(self, monkeypatch):
        leaked = []

        def leaky_fleet(*args, **kwargs):
            router, workers = build_chaos_fleet(*args, **kwargs)
            with shield():  # keep the seam's call count, and so the schedule
                leaked.append(workers[1].engine.kv_arena.acquire(1, 4, 4, 8))
            return router, workers

        monkeypatch.setattr("repro.fleet.chaos.build_chaos_fleet", leaky_fleet)
        result = run_fleet_chaos(seed=0, n_requests=6, tracing=False, slo_specs=None)
        assert len(result["violations"]) == 1
        assert result["violations"][0].startswith("w1: engine.kv_arena.bytes_in_use == 0")
        assert result["leaked_bytes"]["w1"] > 0 == result["leaked_bytes"]["w0"]

    def test_a_dead_replicas_books_are_audited(self):
        result = run_fleet_chaos(seed=1, stream=True, tracing=False, slo_specs=None)
        assert result["crashed"], "seed 1 no longer kills a replica: pick another"
        assert not set(result["crashed"]) & set(result["stats"]["workers"])
        assert result["violations"] == []


class TestAuditNamesTheLaw:
    @pytest.fixture(scope="class")
    def tree(self):
        service, _engine = build_service(WorkerSpec(seed=0, speculative_k=2))
        service.predict(PROMPTS[0], 4)
        created = service.session_create(PROMPTS[1], 4)
        service.session_close(created["session_id"])
        stats = service.stats()
        assert audit(stats) == []
        return stats

    @pytest.mark.parametrize(
        "path, value, law",
        [
            (("inflight",), 1, "inflight == 0"),
            (("engine", "queue_depth"), 2, "queue_depth == active_requests == 0"),
            (("engine", "active_requests"), 1, "queue_depth == active_requests == 0"),
            (("engine", "requests_submitted"), 99, "requests_submitted == completed"),
            (("engine", "shed_requests"), 5, "requests_submitted == completed"),
            (("engine", "speculative", "accepted_tokens"), 10**6, "accepted <= proposed"),
            (("sessions", "evicted"), 1, "created - closed - evicted == live_sessions"),
            (("sessions", "live_sessions"), 3, "created - closed - evicted == live_sessions"),
            (("engine", "kv_arena", "slabs_dropped_live"), 2, "slabs_dropped_live == 0"),
        ],
    )
    def test_each_broken_law_is_named(self, tree, path, value, law):
        doctored = copy.deepcopy(tree)
        node = doctored
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        violations = audit(doctored)
        assert len(violations) == 1 and law in violations[0]
        replicas = {"w1": doctored, "w0": tree, "w2": {"status": "unreachable"}}
        fleet = {"inflight": 0, "workers": replicas}
        assert audit(fleet) == [f"w1: {violations[0]}"]
        assert audit({**fleet, "inflight": 2})[0].startswith("inflight == 0")


    def test_the_leak_law_allows_exactly_what_the_store_holds(self, tree):
        held = copy.deepcopy(tree)
        store = held["engine"]["prefix_cache"]
        assert store["entries"] > 0 and store["bytes_held"] > 0 and audit(held) == []
        held["engine"]["kv_arena"]["bytes_in_use"] += 4096
        violations = audit(held)
        assert len(violations) == 1 and "kv_arena.bytes_in_use" in violations[0]

    def test_a_slab_leaked_beside_a_non_empty_store_fails_the_audit(self):
        service, engine = build_service(WorkerSpec(seed=0))
        created = service.session_create(PROMPTS[1], 4)
        service.predict(PROMPTS[0], 4)
        stats = service.stats()
        assert stats["engine"]["prefix_cache"]["entries"] > 0
        assert stats["sessions"]["live_sessions"] == 1 and audit(stats) == []
        leaked = engine.kv_arena.acquire(1, 4, 4, 8)
        violations = audit(service.stats())
        assert len(violations) == 1 and "kv_arena.bytes_in_use" in violations[0]
        engine.kv_arena.release(leaked)
        service.session_close(created["session_id"])
        assert audit(service.stats()) == []

    def test_a_stream_fleet_run_balances_before_its_final_close_and_clear(self, monkeypatch):
        trees: dict = {}

        def audit_then_release(workers) -> None:
            trees.update({worker.worker_id: worker.service.stats() for worker in workers})
            _release_holdings(workers)

        monkeypatch.setattr("repro.fleet.chaos._release_holdings", audit_then_release)
        result = run_fleet_chaos(seed=1, stream=True, tracing=False, slo_specs=None)
        assert result["violations"] == [] and result["crashed"]
        held = sum(tree["engine"]["prefix_cache"]["bytes_held"] for tree in trees.values())
        assert held > 0, "the store held nothing at the end: the check is vacuous"
        assert audit({"inflight": 0, "workers": trees}) == []


# -- (c) real threads, real sockets, real clock ---------------------------------


def test_threaded_soak_leaves_balanced_books_and_an_empty_arena():
    service, engine = build_service(WorkerSpec(seed=5, max_queue_depth=2))
    stop_at = time.monotonic() + 2.0
    errors: list[BaseException] = []

    def editor(index: int) -> None:
        client = PredictionClient(server.url, timeout=30.0)
        turn = 0
        try:
            while time.monotonic() < stop_at:
                turn += 1
                prompt = PROMPTS[(index + turn) % len(PROMPTS)] + f"# {index}.{turn}\n"
                try:
                    if turn % 4 == 0:
                        client.predict(prompt, max_new_tokens=6)
                    elif turn % 4 == 1:
                        stream = client.predict_stream(prompt, max_new_tokens=24, chunk_size=64)
                        next(stream, None)
                        stream.close()  # hang up mid-stream
                    elif turn % 4 == 2:
                        client.predict_batch([prompt, PROMPTS[index]], max_new_tokens=4)
                    else:
                        created = client.session_create(prompt, max_new_tokens=4)
                        grown = prompt + created["completion"] + "\n  tags: web\n"
                        client.session_extend(created["session_id"], grown, max_new_tokens=4)
                        if turn % 8 == 3:  # leave every other session open
                            client.session_close(created["session_id"])
                except (ServiceOverloadedError, SessionNotFoundError):
                    pass  # a 503 under max_queue_depth=2 is the point; a 404 means evicted
        except BaseException as error:  # anything else is a bug: surface it in the main thread
            errors.append(error)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings per second of soak
    try:
        with RestServer(service) as server:
            threads = [threading.Thread(target=editor, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            # a hung-up stream's handler thread may still be unwinding its cancel
            deadline = time.monotonic() + 10
            while audit(service.stats()) and time.monotonic() < deadline:
                time.sleep(0.02)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not errors, errors
    stats = service.stats()
    assert audit(stats) == []
    assert stats["shed_requests"] > 0, "max_queue_depth=2 under 4 threads should shed"
    assert stats["sessions"]["created"] > 0 and stats["stream_requests"] > 0
    service.sessions.close_all()
    engine.prefix_cache.clear()
    assert engine.kv_arena.stats()["bytes_in_use"] == 0
    assert audit(service.stats()) == []

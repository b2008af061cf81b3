"""Fleet tier: consistent hashing, load profiles and the router.

The load-bearing properties:

* the hash ring moves only the departed worker's keys on membership
  change (minimal disruption), and ``preference()`` order IS the failover
  order — a key fails over to exactly where it would rebalance to;
* the router never drops a request across failover, spill or rebalance:
  every submitted prompt either completes or raises one of the typed
  serving errors;
* fleet ``/v1/stats`` aggregates per-replica counters into one consistent
  fleet view.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    FleetError,
    ServiceOverloadedError,
    ServingError,
    WorkerUnavailableError,
)
from repro.faults import FakeClock, use
from repro.faults import clock as faults_clock
from repro.fleet import (
    DEFAULT_PREFIX_DEPTH,
    LOAD_PROFILES,
    FleetRouter,
    HashRing,
    InProcessWorker,
    WorkerSpec,
    generate_prompts,
    prefix_bucket,
)
from repro.fleet.worker import build_service
from repro.serving.service import SHED_RETRY_AFTER_S

pytestmark = pytest.mark.fleet


# -- affinity primitives -----------------------------------------------------


class TestPrefixBucket:
    def test_same_head_same_bucket(self):
        # a realistic playbook head is longer than the bucket depth, so
        # differing tails never reach the key
        head = (
            "---\n- hosts: web01\n  tasks:\n    - name: Install nginx on web01\n"
            "      ansible.builtin.apt:\n        name: nginx\n        state: present\n"
        )
        assert len(head) >= DEFAULT_PREFIX_DEPTH
        assert prefix_bucket(head + "tail one") == prefix_bucket(head + "other tail")

    def test_normalises_editor_whitespace(self):
        assert prefix_bucket("  - name:  Install   nginx") == prefix_bucket("- name: Install nginx")

    def test_distinct_heads_distinct_buckets(self):
        assert prefix_bucket("- name: Install nginx\n") != prefix_bucket("- name: Install redis\n")

    def test_empty_prompt_gets_sentinel(self):
        assert prefix_bucket("   \n") == "<empty>"

    def test_depth_bounds_the_key(self):
        long = "x" * 500
        assert len(prefix_bucket(long)) <= DEFAULT_PREFIX_DEPTH


class TestHashRing:
    def test_route_is_stable_and_member(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in ("alpha", "beta", "gamma"):
            owner = ring.preference(key)[0]
            assert owner in ("w0", "w1", "w2")
            assert ring.preference(key)[0] == owner

    def test_preference_starts_with_owner_and_covers_all(self):
        ring = HashRing(["w0", "w1", "w2"])
        for key in ("alpha", "beta", "gamma"):
            order = ring.preference(key)
            assert order == ring.preference(key)
            assert sorted(order) == ["w0", "w1", "w2"]

    def test_remove_moves_only_departed_workers_keys(self):
        """The minimal-disruption property of consistent hashing."""
        ring = HashRing([f"w{i}" for i in range(4)])
        keys = [f"bucket-{i}" for i in range(200)]
        before = {key: ring.preference(key)[0] for key in keys}
        ring.remove("w2")
        for key in keys:
            after = ring.preference(key)[0]
            if before[key] != "w2":
                assert after == before[key], f"{key} moved despite surviving owner"
            else:
                assert after != "w2"

    def test_failed_over_keys_land_on_second_preference(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        keys = [f"bucket-{i}" for i in range(200)]
        expected = {key: ring.preference(key) for key in keys}
        ring.remove("w1")
        for key in keys:
            survivors = [worker for worker in expected[key] if worker != "w1"]
            assert ring.preference(key)[0] == survivors[0]

    def test_rejoin_restores_original_ownership(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"bucket-{i}" for i in range(100)]
        before = {key: ring.preference(key)[0] for key in keys}
        ring.remove("w1")
        ring.add("w1")
        assert {key: ring.preference(key)[0] for key in keys} == before

    def test_reasonable_balance(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        counts: dict[str, int] = {}
        for i in range(1000):
            owner = ring.preference(f"key-{i}")[0]
            counts[owner] = counts.get(owner, 0) + 1
        assert min(counts.values()) > 1000 / 4 / 4  # no worker starves badly

    def test_membership_errors(self):
        ring = HashRing(["w0"])
        with pytest.raises(FleetError):
            ring.add("w0")
        with pytest.raises(FleetError):
            ring.remove("w9")
        ring.remove("w0")
        assert ring.preference("anything") == []


class TestLoadProfiles:
    def test_deterministic_per_seed(self):
        for name in LOAD_PROFILES:
            assert generate_prompts(name, 16, seed=3) == generate_prompts(name, 16, seed=3)
            assert generate_prompts(name, 16, seed=3) != generate_prompts(name, 16, seed=4)

    def test_shared_prefix_bounded_buckets(self):
        prompts = generate_prompts("shared_prefix", 64, seed=0)
        buckets = {prefix_bucket(prompt) for prompt in prompts}
        assert len(buckets) <= LOAD_PROFILES["shared_prefix"].sessions

    def test_uniform_no_sharing(self):
        prompts = generate_prompts("uniform", 64, seed=0)
        assert len({prefix_bucket(prompt) for prompt in prompts}) == 64

    def test_keystroke_extends_session_buffer(self):
        prompts = generate_prompts("keystroke", 32, seed=0)
        by_bucket: dict[str, list[str]] = {}
        for prompt in prompts:
            by_bucket.setdefault(prefix_bucket(prompt), []).append(prompt)
        for series in by_bucket.values():
            for shorter, longer in zip(series, series[1:]):
                assert longer.startswith(shorter)

    def test_unknown_profile_rejected(self):
        with pytest.raises(FleetError):
            generate_prompts("bogus", 4)
        with pytest.raises(FleetError):
            generate_prompts("uniform", 0)


# -- router over scripted fake workers ---------------------------------------


class FakeWorker:
    """Scripted replica on the worker surface (``repro.fleet.worker._Worker``):
    records calls and their keywords, dies or saturates on command."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.dead = False
        self.overloaded = False
        self.killed = False
        self.calls: list[str] = []
        self.keywords: list[dict] = []
        self.batches: list[list[str]] = []

    def _check(self):
        if self.dead:
            raise WorkerUnavailableError(f"{self.worker_id} down", worker_id=self.worker_id)
        if self.overloaded:
            raise ServiceOverloadedError(f"{self.worker_id} saturated", retry_after_s=0.25)

    def predict(self, prompt, max_new_tokens=None, **keywords):
        self._check()
        self.calls.append(prompt)
        self.keywords.append(keywords)
        return {"completion": prompt + "!", "cached": False, "degraded": False}

    def predict_batch(self, prompts, max_new_tokens=None, deadline_s=None, trace_context=None):
        self._check()
        self.calls.extend(prompts)
        self.batches.append(list(prompts))
        return {
            "completions": [prompt + "!" for prompt in prompts],
            "cached": [False] * len(prompts),
            "degraded": [False] * len(prompts),
            "decoded": len(prompts),
        }

    def predict_stream(self, prompt, max_new_tokens=None, deadline_s=None, trace_context=None):
        self._check()  # a generator: dies or saturates on the first pull
        self.calls.append(prompt)
        yield "token", {"text": prompt + "!", "index": 0}
        yield "done", {"completion": prompt + "!", "outcome": "completed"}

    def session_create(self, buffer, max_new_tokens=None, deadline_s=None, trace_context=None):
        self._check()
        self.calls.append(buffer)
        return {"session_id": "s0000", "completion": buffer + "!"}

    def session_extend(
        self, session_id, buffer, max_new_tokens=None, deadline_s=None, trace_context=None
    ):
        self._check()
        self.calls.append(buffer)
        return {"session_id": session_id, "completion": buffer + "!"}

    def session_close(self, session_id):
        self._check()
        return {"session_id": session_id, "closed": True}

    def telemetry(self):
        self._check()
        return {"spans": []}

    def heartbeat(self):
        self._check()
        return faults_clock.now()

    def health(self):
        self._check()
        return {"status": "ok"}

    def stats(self):
        return {
            "requests": len(self.calls),
            "engine": {
                "decode_tokens": 10 * len(self.calls),
                "kv_arena": {"bytes_in_use": 0},
                "prefix_cache": {"hits": 3, "misses": 1, "tokens_reused": 30},
            },
        }

    def kill(self):
        self.killed = True
        self.dead = True

    def stop(self):
        self.dead = True


def fake_fleet(n=3, **kwargs) -> tuple[FleetRouter, list[FakeWorker]]:
    workers = [FakeWorker(f"w{i}") for i in range(n)]
    return FleetRouter(workers, **kwargs), workers


@pytest.fixture()
def fake_clock():
    with use(FakeClock()) as fake:
        yield fake


def lapse(router: FleetRouter, worker: FakeWorker, fake: FakeClock) -> None:
    """Take ``worker`` out of the fleet the way production does: it stops
    answering, and a heartbeat tick past its deadline declares it dead."""
    worker.dead = True
    fake.advance(router.heartbeat_timeout_s)
    router.heartbeat_tick()


class TestRouterRouting:
    def test_affinity_groups_stick_to_one_replica(self):
        router, workers = fake_fleet()
        prompts = generate_prompts("shared_prefix", 32, seed=0)
        seen: dict[str, str] = {}
        for prompt in prompts:
            payload = router.predict(prompt)
            bucket = prefix_bucket(prompt)
            assert seen.setdefault(bucket, payload["worker"]) == payload["worker"]

    def test_round_robin_cycles(self):
        router, workers = fake_fleet(policy="round_robin")
        served = [router.predict(f"- name: prompt {i}\n")["worker"] for i in range(6)]
        assert served == ["w0", "w1", "w2", "w0", "w1", "w2"]

    def test_an_untraced_call_reaches_the_worker_with_trace_context_none(self):
        router, workers = fake_fleet(policy="round_robin")  # w0 is asked first
        router.predict("- name: anything\n")
        assert workers[0].keywords == [{"deadline_s": None, "trace_context": None}]

    def test_rejects_bad_inputs(self):
        router, _ = fake_fleet()
        with pytest.raises(ServingError):
            router.predict("   ")
        with pytest.raises(ServingError):
            router.predict_batch([])
        with pytest.raises(FleetError):
            FleetRouter(policy="zigzag")

    def test_a_batch_is_one_replica_call(self):
        router, workers = fake_fleet()
        prompts = generate_prompts("shared_prefix", 12, seed=1)
        payload = router.predict_batch(prompts)
        assert payload["completions"] == [prompt + "!" for prompt in prompts]
        assert payload["batch_size"] == 12
        served = [worker for worker in workers if worker.batches]
        assert [worker.batches for worker in served] == [[prompts]]
        assert payload["workers"] == [served[0].worker_id] * 12
        assert "failovers" not in payload
        assert router.predict(prompts[0])["worker"] == served[0].worker_id  # keyed by prompt 0

    def test_round_robin_batches_rotate_whole(self):
        router, workers = fake_fleet(policy="round_robin")
        prompts = generate_prompts("shared_prefix", 8, seed=5)
        served = [router.predict_batch(prompts)["workers"] for _ in range(3)]
        assert served == [[worker.worker_id] * 8 for worker in workers]

    def test_every_dispatch_is_timed_once(self):
        router, _ = fake_fleet()
        timed = router.obs.metrics.histogram("fleet.dispatch_s")
        router.predict_batch(["- name: a\n", "- name: b\n"])
        assert timed.count == 1
        session = router.session_create("- name: c\n")
        assert timed.count == 2
        router.session_extend(session["session_id"], "- name: c\n  x")
        assert timed.count == 3
        router.predict("- name: d\n")
        list(router.predict_stream("- name: e\n"))
        assert timed.count == 5


def _request(router: FleetRouter, method: str, text: str) -> dict:
    """One request through ``method``; a stream answers with its ``done`` data."""
    if method != "predict_stream":
        return getattr(router, method)(text)
    events = list(router.predict_stream(text))
    assert [event for event, _ in events] == ["token", "done"]
    return events[-1][1]


#: The entry points that route through the one failover / spill loop.
ROUTED = ("predict", "predict_stream", "session_create")


class TestRouterFailover:
    @pytest.mark.parametrize("method", ROUTED)
    def test_dead_replica_fails_over_without_dropping(self, method):
        router, workers = fake_fleet()
        prompt = "- name: Install nginx on web01\n"
        primary = _request(router, method, prompt)["worker"]
        {w.worker_id: w for w in workers}[primary].dead = True
        payload = _request(router, method, prompt)
        assert payload["completion"] == prompt + "!"
        assert payload["worker"] != primary
        assert payload["failovers"] == 1
        stats = router.stats()
        assert stats["dead_workers"] == {primary: "dispatch_failed"}
        assert stats["failovers"] == 1
        assert primary not in stats["live_workers"]

    def test_dead_replica_is_drained(self):
        router, workers = fake_fleet(policy="round_robin")  # w0 is asked first
        workers[0].dead = True
        router.predict("- name: anything\n")
        assert workers[0].killed  # drain path ran

    @pytest.mark.parametrize("method", ROUTED)
    def test_overload_spills_without_membership_change(self, method):
        router, workers = fake_fleet()
        prompt = "- name: Install nginx on web01\n"
        primary = _request(router, method, prompt)["worker"]
        {w.worker_id: w for w in workers}[primary].overloaded = True
        payload = _request(router, method, prompt)
        assert payload["worker"] != primary
        assert "failovers" not in payload
        stats = router.stats()
        assert stats["spills"] == 1
        assert stats["dead_workers"] == {}  # saturated is not dead
        assert primary in stats["live_workers"]

    @pytest.mark.parametrize("method", ROUTED)
    def test_all_saturated_sheds_with_retry_after(self, method):
        router, workers = fake_fleet()
        for worker in workers:
            worker.overloaded = True
        with pytest.raises(ServiceOverloadedError) as excinfo:
            _request(router, method, "- name: anything\n")
        assert excinfo.value.retry_after_s == 0.25  # propagates the replica hint
        stats = router.stats()
        assert stats["shed_requests"] == 1
        assert stats["spills"] == len(workers)
        assert stats["inflight"] == 0  # the admission slot came back

    @pytest.mark.parametrize("method", ROUTED)
    def test_all_dead_sheds(self, method):
        router, workers = fake_fleet()
        for worker in workers:
            worker.dead = True
        with pytest.raises(ServiceOverloadedError) as excinfo:
            _request(router, method, "- name: anything\n")
        assert excinfo.value.retry_after_s == SHED_RETRY_AFTER_S
        assert router.live_worker_ids == []
        assert router.stats()["inflight"] == 0

    def test_batch_reenqueues_dead_groups(self):
        router, workers = fake_fleet()
        by_id = {worker.worker_id: worker for worker in workers}
        prompts = generate_prompts("shared_prefix", 16, seed=2)
        primary = router.predict(prompts[0])["worker"]
        by_id[primary].dead = True
        payload = router.predict_batch(prompts)
        assert payload["completions"] == [prompt + "!" for prompt in prompts]
        (survivor,) = set(payload["workers"])  # nothing dropped, nothing split
        assert survivor != primary
        assert by_id[survivor].batches == [prompts]
        assert payload["failovers"] == 1
        assert router.stats()["dead_workers"] == {primary: "dispatch_failed"}

    def test_a_saturated_replica_spills_the_whole_batch(self):
        router, workers = fake_fleet()
        by_id = {worker.worker_id: worker for worker in workers}
        prompts = generate_prompts("shared_prefix", 8, seed=4)
        chosen = router.predict_batch(prompts)["workers"][0]
        by_id[chosen].overloaded = True
        payload = router.predict_batch(prompts)
        (spilled_to,) = set(payload["workers"])
        assert spilled_to != chosen
        assert by_id[spilled_to].batches == [prompts]
        assert "failovers" not in payload
        stats = router.stats()
        assert stats["spills"] == 1
        assert stats["failovers"] == 0
        assert stats["dead_workers"] == {}

    def test_batch_all_saturated_sheds_instead_of_spinning(self):
        router, workers = fake_fleet()
        for worker in workers:
            worker.overloaded = True
        with pytest.raises(ServiceOverloadedError):
            router.predict_batch(["- name: a\n", "- name: b\n"])


class TestRebalanceProperty:
    """Satellite: prefix affinity is stable under worker join/leave."""

    def test_surviving_buckets_do_not_move(self, fake_clock):
        router, workers = fake_fleet(4)
        prompts = generate_prompts("shared_prefix", 40, seed=3)
        before = {prefix_bucket(p): router.predict(p)["worker"] for p in prompts}
        victim = "w2"
        lapse(router, workers[2], fake_clock)
        for prompt in prompts:
            bucket = prefix_bucket(prompt)
            after = router.predict(prompt)["worker"]
            if before[bucket] != victim:
                assert after == before[bucket], f"bucket {bucket!r} moved without cause"
            else:
                assert after != victim

    def test_no_request_dropped_across_join_and_leave(self, fake_clock):
        router, workers = fake_fleet(3)
        prompts = generate_prompts("mixed", 30, seed=4)
        for index, prompt in enumerate(prompts):
            if index == 10:
                lapse(router, workers[1], fake_clock)
            if index == 20:
                router.add_worker(FakeWorker("w3"))
            payload = router.predict(prompt)
            assert payload["completion"] == prompt + "!"
        stats = router.stats()
        assert stats["requests"] == len(prompts)
        assert stats["rebalances"] >= 5  # 3 joins + leave + re-join

    def test_rejoin_restores_affinity(self, fake_clock):
        router, workers = fake_fleet(3)
        prompts = generate_prompts("shared_prefix", 24, seed=5)
        before = {prefix_bucket(p): router.predict(p)["worker"] for p in prompts}
        lapse(router, workers[0], fake_clock)
        router.add_worker(FakeWorker("w0"))
        after = {prefix_bucket(p): router.predict(p)["worker"] for p in prompts}
        assert after == before


class TestHeartbeats:
    def test_one_missed_probe_is_survivable(self):
        fake = FakeClock()
        with use(fake):
            router, workers = fake_fleet(heartbeat_timeout_s=1.0)
            workers[0].dead = True  # probe fails, but deadline not yet lapsed
            fake.advance(0.4)
            assert router.heartbeat_tick() == []
            assert router.stats()["heartbeat_misses"] == 1
            assert "w0" in router.live_worker_ids

    def test_heartbeat_deadline_declares_wedged_replica_dead(self):
        fake = FakeClock()
        with use(fake):
            router, workers = fake_fleet(heartbeat_timeout_s=1.0)
            workers[2].dead = True
            fake.advance(1.1)  # past the deadline; live replicas refresh, w2 cannot
            assert router.heartbeat_tick() == ["w2"]
            stats = router.stats()
            assert stats["dead_workers"] == {"w2": "heartbeat_timeout"}
            assert stats["workers_lost"] == 1
            assert workers[2].killed

    def test_successful_dispatch_refreshes_liveness(self):
        fake = FakeClock()
        with use(fake):
            router, workers = fake_fleet(heartbeat_timeout_s=1.0)
            fake.advance(5.0)  # all heartbeats stale on the fake clock
            prompt = "- name: Install nginx\n"
            served = router.predict(prompt)["worker"]
            dead = router.heartbeat_tick()  # probes succeed -> everyone refreshes
            assert served not in dead

    def test_spawner_replaces_dead_replica(self):
        fake = FakeClock()
        spawned: list[str] = []

        def spawner(worker_id: str) -> FakeWorker:
            spawned.append(worker_id)
            return FakeWorker(worker_id + "r")

        with use(fake):
            router, workers = fake_fleet(heartbeat_timeout_s=1.0, spawner=spawner)
            workers[1].dead = True
            fake.advance(1.1)
            assert router.heartbeat_tick() == ["w1"]
            assert spawned == ["w1"]
            stats = router.stats()
            assert stats["respawns"] == 1
            assert "w1r" in stats["live_workers"]


class TestStatsAggregation:
    def test_aggregate_sums_replica_counters(self):
        router, workers = fake_fleet()
        for index in range(6):
            router.predict(f"- name: prompt number {index} with some padding\n")
        stats = router.stats()
        aggregate = stats["aggregate"]
        assert aggregate["requests"] == 6
        assert aggregate["decode_tokens"] == 60
        assert aggregate["kv_arena_bytes_in_use"] == 0
        assert aggregate["prefix_cache"]["hits"] == 3 * len(workers)
        assert aggregate["prefix_cache"]["hit_rate"] == pytest.approx(0.75)
        assert set(stats["workers"]) == {"w0", "w1", "w2"}

    def test_health_reports_membership(self, fake_clock):
        router, workers = fake_fleet()
        assert router.health()["status"] == "ok"
        for worker in workers:
            lapse(router, worker, fake_clock)
        health = router.health()
        assert health["status"] == "unavailable"
        assert health["live_workers"] == 0

    def test_metrics_surface(self):
        router, _ = fake_fleet()
        router.predict("- name: one prompt\n")
        payload = router.metrics()
        assert payload["fleet"]["requests"] == 1
        assert "fleet.requests" in payload["metrics"]["counters"]
        assert "fleet_requests_total" in router.metrics_prometheus()


# -- router over real engine replicas ----------------------------------------


@pytest.fixture(scope="module")
def engine_fleet():
    workers = [
        InProcessWorker(f"w{i}", spec=WorkerSpec(seed=i, max_new_tokens=8)).start()
        for i in range(2)
    ]
    router = FleetRouter(workers)
    yield router, workers
    router.stop()


class TestRouterOverEngines:
    def test_predict_end_to_end(self, engine_fleet):
        router, _ = engine_fleet
        payload = router.predict("- name: Install nginx\n", max_new_tokens=4)
        assert isinstance(payload["completion"], str)
        assert payload["worker"] in ("w0", "w1")

    def test_affinity_reuses_replica_prefix_cache(self, engine_fleet):
        router, _ = engine_fleet
        head = (
            "---\n- hosts: db01\n  tasks:\n    - name: Install postgresql on db01\n"
            "      ansible.builtin.apt:\n        name: postgresql\n        state: present\n"
        )
        assert len(head) >= DEFAULT_PREFIX_DEPTH
        first = router.predict(head + "  step: one\n", max_new_tokens=4)
        second = router.predict(head + "  step: two\n", max_new_tokens=4)
        assert first["worker"] == second["worker"]
        hits = router.stats()["aggregate"]["prefix_cache"]["hits"]
        assert hits >= 1  # the shared head hit the same replica's cache

    def test_a_replica_decodes_a_batch_of_8_in_one_pass(self):
        service, engine = build_service(WorkerSpec(seed=0))
        prompts = [f"- name: Install package {index}\n" for index in range(8)]
        budget = 6
        service.predict_batch(prompts, max_new_tokens=budget)
        stats = engine.stats()
        assert stats["peak_batch_size"] == 8
        assert stats["decode_steps"] == budget - 1

    def test_batch_end_to_end(self, engine_fleet):
        router, _ = engine_fleet
        prompts = ["- name: Install redis\n", "- name: Start ssh\n", "- name: Copy file\n"]
        payload = router.predict_batch(prompts, max_new_tokens=4)
        assert len(payload["completions"]) == 3
        assert all(isinstance(c, str) for c in payload["completions"])
        assert payload["decoded"] >= 1

    def test_rest_server_fronts_the_fleet(self, engine_fleet):
        from repro.serving.client import PredictionClient
        from repro.serving.service import RestServer

        router, _ = engine_fleet
        with RestServer(router) as server:
            client = PredictionClient(server.url)
            out = client.predict("- name: Install nginx\n", max_new_tokens=4)
            assert out["worker"] in ("w0", "w1")
            health = client.health()
            assert health["model"] == "fleet"
            assert client.stats()["aggregate"]["requests"] >= 1


class TestRequestSurface:
    """One request surface on every backend, looked up late at every hop.

    An outside recorder wraps these methods as *instance attributes* on live
    objects and reads the op id from the ``trace_context`` keyword, so each
    hop must ask the next for its method per call, never bind it early.
    """

    METHODS = (
        "predict",
        "predict_batch",
        "predict_stream",
        "session_create",
        "session_extend",
        "session_close",
        "health",
        "stats",
        "telemetry",
    )

    @pytest.mark.parametrize("name", METHODS)
    def test_identical_parameter_lists(self, name):
        import inspect

        from repro.fleet import ProcessWorker
        from repro.serving import PredictionService
        from repro.serving.service import Backend

        def parameters(backend):
            signature = inspect.signature(getattr(backend, name))
            return [(p.name, p.kind, p.default) for p in signature.parameters.values()]

        expected = parameters(PredictionService)
        for backend in (Backend, FleetRouter, InProcessWorker, ProcessWorker):
            assert parameters(backend) == expected, f"{backend.__name__}.{name} differs"

    def test_instance_attribute_wrappers_are_honoured_at_every_hop(self):
        from repro.obs.distributed import TraceContext
        from repro.serving.client import PredictionClient
        from repro.serving.service import RestServer

        seen: list[tuple[str, str, str]] = []

        def spy(layer, owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.append((layer, name, kwargs["trace_context"].trace_id))
                return original(*args, **kwargs)

            setattr(owner, name, wrapper)

        worker = InProcessWorker("w0", spec=WorkerSpec(max_new_tokens=4)).start()
        router = FleetRouter([worker])
        buffer = "- name: Install nginx\n"
        try:
            with RestServer(router) as fleet_server, RestServer(worker.service) as bare_server:
                # wrapped only after every hop above it has been constructed
                for layer, owner in (("router", router), ("worker", worker), ("service", worker.service)):
                    for name in ("predict", "session_create"):
                        spy(layer, owner, name)
                headers = TraceContext("op-1").to_headers()
                fleet = PredictionClient(fleet_server.url)
                fleet.predict(buffer, headers=headers)
                created = fleet.session_create(buffer, headers=headers)
                fleet.session_close(created["session_id"])
                assert seen == [
                    (layer, name, "op-1")
                    for name in ("predict", "session_create")
                    for layer in ("router", "worker", "service")
                ]
                del seen[:]
                PredictionClient(bare_server.url).predict(buffer, headers=headers)
                assert seen == [("service", "predict", "op-1")]
        finally:
            router.stop()


class TestProcessWorker:
    @pytest.mark.slow
    def test_process_replica_roundtrip(self):
        from repro.fleet import ProcessWorker

        worker = ProcessWorker("p0", WorkerSpec(seed=0, max_new_tokens=8)).start()
        try:
            assert worker.heartbeat() >= 0.0
            payload = worker.predict("- name: Install nginx\n", max_new_tokens=4)
            assert isinstance(payload["completion"], str)
            assert worker.health()["status"] == "ok"
        finally:
            worker.stop()
        with pytest.raises(WorkerUnavailableError):
            worker.heartbeat()

    @pytest.mark.slow
    def test_killed_process_surfaces_unavailable(self):
        from repro.fleet import ProcessWorker

        worker = ProcessWorker("p1", WorkerSpec(seed=0)).start()
        try:
            worker.kill()
            worker._process.join(timeout=10)
            with pytest.raises(WorkerUnavailableError):
                worker.predict("- name: anything\n")
        finally:
            worker.stop()

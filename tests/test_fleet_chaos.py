"""Fleet-scale chaos: kill a replica mid-decode, assert nothing is lost.

The marquee scenario of the fleet tier: a seeded fault schedule crashes
one of N replicas while its continuous batcher holds live rows.  The
invariants, asserted under every seed tried:

* every submitted request terminates in exactly one of the four PR 5
  outcomes (completed / cancelled / deadline_exceeded / shed) — replica
  death surfaces as a failover and a completion, never a hang or an
  untyped error;
* zero KV-arena bytes remain in use on ANY replica afterwards — the
  crashed replica aborted its rows (freeing slabs), the survivors drained
  normally;
* the whole run — fault schedule, routing decisions, outcomes, event
  order — replays byte-identically from the seed.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkerCrashed
from repro.faults import FakeClock, FaultInjector, use
from repro.fleet import OUTCOMES, build_chaos_fleet, run_fleet_chaos

pytestmark = [pytest.mark.faults, pytest.mark.fleet]


class TestKillMidDecode:
    def test_replica_death_fails_over_and_leaks_nothing(self):
        result = run_fleet_chaos(seed=1)
        # the kill fired while the victim's batcher held live rows
        assert result["crashed"], "no replica crashed; the schedule is mistuned"
        assert result["stats"]["failovers"] >= 1
        # four-outcome invariant over every submitted request
        assert set(result["outcomes"].values()) <= set(OUTCOMES)
        assert len(result["outcomes"]) == 24
        # no KV byte left behind on any replica, dead or alive
        assert all(leak == 0 for leak in result["leaked_bytes"].values())
        assert len(result["leaked_bytes"]) == 3

    def test_outcome_diversity_under_pressure(self):
        # seed 1 is chosen to exercise both abnormal paths: a mid-decode
        # crash (failover) AND a deadline expiry under injected slowness
        result = run_fleet_chaos(seed=1)
        counts = {key: 0 for key in OUTCOMES}
        for outcome in result["outcomes"].values():
            counts[outcome] += 1
        assert counts["completed"] > 0
        assert counts["deadline_exceeded"] > 0

    def test_both_death_detection_paths_occur(self):
        # dispatch-time detection (the crash) and heartbeat-deadline
        # detection (a wedged replica) are different code paths; across a
        # small seed range both must fire
        reasons = set()
        for seed in range(4):
            result = run_fleet_chaos(seed=seed)
            reasons.update(result["stats"]["dead_workers"].values())
        assert "dispatch_failed" in reasons
        assert "heartbeat_timeout" in reasons

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_across_seeds(self, seed):
        result = run_fleet_chaos(seed=seed)
        assert set(result["outcomes"].values()) <= set(OUTCOMES)
        assert all(leak == 0 for leak in result["leaked_bytes"].values())

    def test_no_kill_schedule_still_clean(self):
        result = run_fleet_chaos(seed=0, kill_decode_call=None, heartbeat_fault_rate=0.0)
        assert result["crashed"] == []
        assert set(result["outcomes"].values()) <= set(OUTCOMES)
        assert all(leak == 0 for leak in result["leaked_bytes"].values())


class TestReplay:
    def test_byte_identical_replay(self):
        first = run_fleet_chaos(seed=1)
        second = run_fleet_chaos(seed=1)
        assert first["log"] == second["log"]
        assert first["outcomes"] == second["outcomes"]

    def test_different_seeds_diverge(self):
        assert run_fleet_chaos(seed=0)["log"] != run_fleet_chaos(seed=1)["log"]

    def test_log_is_canonical_jsonl(self):
        result = run_fleet_chaos(seed=2)
        lines = result["log"].splitlines()
        assert len(lines) == len(result["events"])
        for line in lines:
            event = json.loads(line)
            assert list(event) == sorted(event)  # sort_keys canonical form
        summary = json.loads(lines[-1])
        assert summary["kind"] == "summary"
        assert sum(summary["outcomes"].values()) == summary["requests"]


class TestCrashMechanics:
    def test_worker_crashed_is_not_a_transient_fault(self):
        # WorkerCrashed must NOT be an InjectedFault: the batcher retries
        # InjectedFault decode steps, which would absorb the kill
        from repro.errors import InjectedFault

        assert not issubclass(WorkerCrashed, InjectedFault)

    def test_crash_aborts_inflight_and_frees_slabs(self):
        fake = FakeClock()
        injector = FaultInjector(seed=0)
        # crash the second decode step: rows are live in the batcher
        injector.on("engine.decode_step", at_calls=[2], error=WorkerCrashed)
        with use(fake), injector:
            router, workers = build_chaos_fleet(0, 1)
            worker = workers[0]
            from repro.errors import ServiceOverloadedError

            with pytest.raises(ServiceOverloadedError):
                # single replica dies -> fleet has nowhere to fail over
                router.predict("- name: Install nginx please\n", max_new_tokens=8)
            assert worker.crashes == 1
            assert not worker.alive
            assert worker.arena_bytes_in_use() == 0
            assert router.dead_worker_ids == ["w0"]

    def test_crash_with_survivor_completes_the_request(self):
        fake = FakeClock()
        injector = FaultInjector(seed=0)
        injector.on("engine.decode_step", at_calls=[2], error=WorkerCrashed)
        with use(fake), injector:
            router, workers = build_chaos_fleet(0, 2)
            payload = router.predict("- name: Install nginx please\n", max_new_tokens=8)
            assert payload["failovers"] == 1
            assert isinstance(payload["completion"], str)
            crashed = [worker for worker in workers if worker.crashes]
            assert len(crashed) == 1
            assert crashed[0].arena_bytes_in_use() == 0

    def test_crash_mid_session_extend_frees_the_sessions_slabs(self):
        # A session's K/V is its pinned path in the prefix store: the crash
        # closes the session, and the store it unpinned is cleared with the
        # aborted rows, so the dead replica holds no KV at all.
        from repro.errors import WorkerUnavailableError
        from repro.obs import audit

        with use(FakeClock()):
            _, workers = build_chaos_fleet(0, 1)
            worker = workers[0]
            buffer = "- name: Install nginx please\n"
            created = worker.session_create(buffer, max_new_tokens=8)
            assert worker.arena_bytes_in_use() > 0
            injector = FaultInjector(seed=0)
            injector.on("engine.decode_step", at_calls=[3], error=WorkerCrashed)
            with injector, pytest.raises(WorkerUnavailableError):
                worker.session_extend(
                    created["session_id"], buffer + "  ansible.builtin.apt:\n", max_new_tokens=8
                )
            assert worker.crashes == 1 and not worker.alive
            assert worker.session_count() == 0
            assert worker.arena_bytes_in_use() == 0
            stats = worker.service.stats()
            # booked exactly once: the create completed, the extend was cancelled
            assert audit(stats) == []
            assert stats["engine"]["requests_submitted"] == 2
            assert stats["engine"]["cancelled_requests"] == 1
            assert stats["engine"]["prefix_cache"]["bytes_held"] == 0
            assert stats["sessions"]["closed"] == 1

    def test_crash_mid_session_create_frees_the_slabs_it_prefilled(self):
        # A create that crashes never reached the session table, so neither
        # close nor close_all can find its slabs: create must free them.
        from repro.errors import WorkerUnavailableError
        from repro.obs import audit

        with use(FakeClock()):
            _, workers = build_chaos_fleet(0, 1)
            worker = workers[0]
            # Held (create opens the batch, whose slot caches hold the
            # slabs it prefills into) so a slab nobody released is a leak
            # the arena reports, not garbage ``__del__`` squares.
            batch = worker.engine.batcher.batch
            held: list = []
            open_row = batch.open_row

            def holding_open_row():
                opened = open_row()
                held.append(list(batch.caches))
                return opened

            batch.open_row = holding_open_row
            injector = FaultInjector(seed=0)
            injector.on("engine.decode_step", at_calls=[2], error=WorkerCrashed)
            try:
                with injector, pytest.raises(WorkerUnavailableError):
                    worker.session_create("- name: Install nginx please\n", max_new_tokens=8)
            finally:
                del batch.open_row
            assert worker.crashes == 1 and not worker.alive
            (slots,) = held
            assert [cache.lengths for cache in slots] == [[]] * len(slots)
            assert worker.arena_bytes_in_use() == 0
            stats = worker.service.stats()
            assert audit(stats) == []
            assert stats["engine"]["kv_arena"]["slabs_dropped_live"] == 0
            assert stats["engine"]["cancelled_requests"] == 1
            assert stats["sessions"]["created"] == 0 and stats["sessions"]["live_sessions"] == 0


def _audit(workers):
    """(leaked_bytes, orphaned_sessions) across every replica, dead or alive."""
    orphans = sum(worker.session_count() for worker in workers)
    for worker in workers:
        sessions = getattr(worker.service, "sessions", None)
        if sessions is not None:
            sessions.close_all()
        if worker.engine is not None:
            worker.engine.prefix_cache.clear()
    return sum(worker.arena_bytes_in_use() for worker in workers), orphans


@pytest.mark.streaming
class TestStreamChaos:
    """Streams killed mid-decode always land in one of the four outcomes,
    leak zero KV bytes, and orphan zero sessions."""

    PROMPT = "- name: Install nginx please\n"

    def test_replica_death_mid_stream_surfaces_in_band(self):
        # Crash after the stream has already delivered bytes: no failover
        # is possible (tokens flowed), so the stream must end with an
        # in-band error event and the replica must free everything.
        fake = FakeClock()
        injector = FaultInjector(seed=0)
        injector.on("engine.decode_step", at_calls=[3], error=WorkerCrashed)
        with use(fake), injector:
            router, workers = build_chaos_fleet(0, 2)
            events = list(router.predict_stream(self.PROMPT, max_new_tokens=8))
            kinds = [event for event, _ in events]
            assert kinds[-1] in ("done", "error")
            if kinds[-1] == "error":
                status = events[-1][1]["status"]
                assert status in (503, 504, 408)
            crashed = [worker for worker in workers if worker.crashes]
            assert len(crashed) == 1
            leaked, orphans = _audit(workers)
            assert leaked == 0
            assert orphans == 0

    def test_replica_death_before_first_event_fails_over(self):
        # Crash at the very first decode step: zero bytes have flowed, so
        # the router may transparently re-dispatch to the survivor.
        fake = FakeClock()
        injector = FaultInjector(seed=0)
        injector.on("engine.decode_step", at_calls=[1], error=WorkerCrashed)
        with use(fake), injector:
            router, workers = build_chaos_fleet(0, 2)
            events = list(router.predict_stream(self.PROMPT, max_new_tokens=8))
            done = [data for event, data in events if event == "done"]
            assert done, "stream did not complete despite a live survivor"
            assert done[0]["outcome"] == "completed"
            assert done[0].get("failovers", 0) == 1
            leaked, orphans = _audit(workers)
            assert leaked == 0
            assert orphans == 0

    def test_client_disconnect_cancels_and_frees(self):
        fake = FakeClock()
        with use(fake):
            router, workers = build_chaos_fleet(0, 2)
            stream = router.predict_stream(self.PROMPT, max_new_tokens=8)
            seen = 0
            for event, _data in stream:
                if event == "token":
                    seen += 1
                    if seen >= 2:
                        break
            stream.close()  # the dropped-socket path
            cancelled = sum(
                worker.engine.batcher.stats()["cancelled_requests"] for worker in workers
            )
            assert cancelled == 1
            leaked, orphans = _audit(workers)
            assert leaked == 0
            assert orphans == 0

    def test_session_owner_death_orphans_nothing(self):
        fake = FakeClock()
        with use(fake):
            router, workers = build_chaos_fleet(0, 2)
            created = router.session_create(self.PROMPT, max_new_tokens=6)
            owner = next(w for w in workers if w.worker_id == created["worker"])
            owner.kill()
            from repro.errors import SessionNotFoundError

            with pytest.raises(SessionNotFoundError):
                router.session_extend(
                    created["session_id"], self.PROMPT + "x\n", max_new_tokens=6
                )
            assert router.stats()["sessions_lost"] == 1
            leaked, orphans = _audit(workers)
            assert leaked == 0
            assert orphans == 0

    def test_two_editors_on_different_replicas_do_not_collide(self):
        # Replicas number their sessions locally (both start at s0000): the
        # fleet's ids must still be unique, or closing one editor's session
        # closes the other's on the wrong replica and orphans the first.
        from repro.fleet import generate_prompts

        with use(FakeClock()):
            router, workers = build_chaos_fleet(0, 2)
            editors: dict[str, tuple[str, str]] = {}  # replica -> (session id, buffer)
            for head in generate_prompts("shared_prefix", 8, seed=0):
                created = router.session_create(head, max_new_tokens=4)
                if created["worker"] in editors:
                    router.session_close(created["session_id"])
                else:
                    editors[created["worker"]] = (created["session_id"], head)
            assert sorted(editors) == ["w0", "w1"], "prompt heads did not spread over both replicas"
            (first, first_buffer), (second, second_buffer) = editors["w0"], editors["w1"]
            assert first != second
            assert router.session_close(first)["closed"] is True
            extended = router.session_extend(second, second_buffer + "x\n", max_new_tokens=4)
            assert extended["session_id"] == second and extended["worker"] == "w1"
            # ... and the other way round, with a fresh session on w0
            first = router.session_create(first_buffer, max_new_tokens=4)["session_id"]
            assert router.session_close(second)["closed"] is True
            extended = router.session_extend(first, first_buffer + "x\n", max_new_tokens=4)
            assert extended["session_id"] == first and extended["worker"] == "w0"
            assert router.session_close(first)["closed"] is True
            assert [worker.session_count() for worker in workers] == [0, 0]
            stats = router.stats()
            assert stats["sessions_lost"] == 0 and stats["live_sessions"] == 0
            leaked, orphans = _audit(workers)
            assert leaked == 0
            assert orphans == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_stream_run_invariants_across_seeds(self, seed):
        result = run_fleet_chaos(seed=seed, tracing=False, stream=True)
        assert set(result["outcomes"].values()) <= set(OUTCOMES)
        assert all(leak == 0 for leak in result["leaked_bytes"].values())
        assert all(count == 0 for count in result["orphaned_sessions"].values())

    def test_stream_run_replays_byte_identically(self):
        first = run_fleet_chaos(seed=1, tracing=False, stream=True)
        second = run_fleet_chaos(seed=1, tracing=False, stream=True)
        assert first["log"] == second["log"]
        summary = json.loads(first["log"].splitlines()[-1])
        assert summary["streams"] > 0
        assert summary["session_creates"] > 0

    def test_stream_flag_does_not_perturb_plain_runs(self):
        # The stream shape draws its own rng tail; plain replays recorded
        # before streaming existed must stay byte-identical.
        plain = run_fleet_chaos(seed=1, tracing=False)
        again = run_fleet_chaos(seed=1, tracing=False)
        assert plain["log"] == again["log"]
        assert "streams" not in json.loads(plain["log"].splitlines()[-1])

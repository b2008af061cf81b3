"""Tests for repro.serving (cache, service, HTTP client/server, plugin)."""

from __future__ import annotations

import re
import socket
import sys
import threading

import pytest

from repro.errors import DeadlineExceededError, ServingError
from repro.obs import MetricsRegistry
from repro.serving.cache import LruCache
from repro.serving.client import PredictionClient
from repro.serving.plugin import ESCAPE, EditorSession, TAB
from repro.serving.service import PredictionService, RestServer
from tests.conftest import GenerationGate


def _scrape(server: RestServer) -> tuple[int, bytes]:
    """``GET /v1/metrics?format=prometheus`` the way a Prometheus server does."""
    import http.client

    connection = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        connection.request("GET", "/v1/metrics?format=prometheus")
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _wait_for(condition, timeout_s: float = 10.0) -> None:
    """Poll ``condition`` on the real clock (threaded tests only)."""
    import time

    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestLruCache:
    def test_hit_and_miss_accounting(self):
        cache = LruCache(4, MetricsRegistry())
        assert cache.get("a") is None
        cache.put("a", "1")
        assert cache.get("a") == "1"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_order(self):
        cache = LruCache(2, MetricsRegistry())
        cache.put("a", "1")
        cache.put("b", "2")
        cache.get("a")  # refresh a
        cache.put("c", "3")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "1"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruCache(0, MetricsRegistry())

    def test_overwrite(self):
        cache = LruCache(2, MetricsRegistry())
        cache.put("a", "1")
        cache.put("a", "2")
        assert cache.get("a") == "2"
        assert len(cache) == 1

    def test_stats_dict(self):
        cache = LruCache(2, MetricsRegistry())
        cache.get("a")
        cache.put("a", "1")
        cache.get("a")
        cache.put("b", "2")
        cache.put("c", "3")  # evicts one entry
        stats = cache.stats()
        assert stats == {
            "size": 2,
            "capacity": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "hit_rate": 0.5,
        }

    def test_concurrent_access_accounting(self):
        # hits/misses are updated under the cache's own lock: hammering it
        # from many threads must not lose counts.
        cache = LruCache(64, MetricsRegistry())
        cache.put("k", "v")
        per_thread = 200
        threads = [
            threading.Thread(
                target=lambda: [cache.get("k") for _ in range(per_thread)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.hits == 8 * per_thread
        assert cache.stats()["hit_rate"] == 1.0


class TestCounterResetSemantics:
    """clear() reclaims entries; lifetime counters never move backwards."""

    def test_clear_preserves_lifetime_counters(self):
        cache = LruCache(4, MetricsRegistry())
        cache.get("a")  # miss
        cache.put("a", "1")
        cache.get("a")  # hit
        cache.put("b", "2")
        before = cache.stats()
        cache.clear()
        after = cache.stats()
        assert len(cache) == 0 and after["size"] == 0
        assert cache.get("a") is None  # entries really are gone
        for key in ("hits", "misses", "evictions"):
            assert after[key] >= before[key], f"{key} went backwards on clear"
        assert after["hits"] == before["hits"]
        assert after["evictions"] == before["evictions"]

    def test_counters_stay_monotonic_across_clears(self):
        cache = LruCache(2, MetricsRegistry())
        observed = []
        for round_index in range(3):
            cache.put("k", str(round_index))
            cache.get("k")
            cache.get("absent")
            observed.append((cache.hits, cache.misses))
            cache.clear()
        for earlier, later in zip(observed, observed[1:]):
            assert later[0] > earlier[0]
            assert later[1] > earlier[1]

    def test_clear_does_not_count_as_eviction(self):
        cache = LruCache(2, MetricsRegistry())
        cache.put("a", "1")
        cache.put("b", "2")
        cache.clear()
        assert cache.evictions == 0


class TestPredictionService:
    def test_predict_and_cache(self, make_engine):
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine)
        first = service.predict("- name: install nginx\n")
        second = service.predict("- name: install nginx\n")
        assert not first["cached"] and second["cached"]
        assert gate.calls == 1
        assert first["completion"] == second["completion"]

    def test_empty_prompt_rejected(self, make_engine):
        service = PredictionService(make_engine())
        with pytest.raises(ServingError):
            service.predict("   ")

    def test_service_rejects_non_string(self, make_engine):
        service = PredictionService(make_engine())
        with pytest.raises(ServingError):
            service.predict(12345)  # type: ignore[arg-type]

    def test_stats(self, make_engine):
        service = PredictionService(make_engine())
        service.predict("- name: a\n")
        service.predict("- name: a\n")
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["cache_hit_rate"] == 0.5
        assert stats["mean_latency_ms"] >= 0

    def test_health(self, make_engine):
        assert PredictionService(make_engine()).health() == {"status": "ok", "model": "tiny"}

    def test_every_cache_hit_is_counted_in_one_store(self, make_engine):
        """A predict, batch and stream hit each bump the cache's counter once;
        a coalesced waiter's lookup was a miss and stays one — the
        Prometheus series and ``stats()["cache"]`` read the same store."""
        from tests.prometheus import parse_prometheus

        engine = make_engine()
        service = PredictionService(engine, max_new_tokens=4)
        service.predict("- name: a\n")
        assert service.predict("- name: a\n")["cached"]
        assert service.predict_batch(["- name: a\n"])["cached"] == [True]
        assert list(service.predict_stream("- name: a\n"))[-1][1]["cached"]
        gate = GenerationGate(engine)
        waiter_payloads: list[dict] = []
        owner = threading.Thread(target=service.predict, args=("- name: b\n",))
        waiter = threading.Thread(
            target=lambda: waiter_payloads.append(service.predict("- name: b\n"))
        )
        owner.start()
        try:
            assert gate.entered.wait(timeout=10)
            waiter.start()
            _wait_for(lambda: service.cache.misses == 3)  # the waiter looked and missed
        finally:
            gate.release.set()
            owner.join(timeout=10)
            waiter.join(timeout=10)
        assert waiter_payloads[0]["coalesced"]
        stats = service.stats()["cache"]
        assert (stats["hits"], stats["misses"]) == (3, 3)
        series = parse_prometheus(service.metrics_prometheus())
        for key in ("hits", "misses", "evictions"):
            (sample,) = series[f"serving_cache_{key}_total"]["samples"]
            assert sample[2] == stats[key]


class TestRequestCoalescing:
    def test_concurrent_identical_prompts_run_generation_once(self, make_engine):
        # The thundering-herd case: every request misses the cache, but only
        # the first may invoke the engine; the rest wait and reuse the
        # in-flight result.
        engine = make_engine()
        gate = GenerationGate(engine)
        service = PredictionService(engine)
        results = []

        def hit():
            results.append(service.predict("- name: install nginx\n"))

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        # every lookup happened (and missed) before the owner may finish
        _wait_for(lambda: service.cache.misses == 4)
        gate.release.set()
        for thread in threads:
            thread.join()
        assert gate.calls == 1
        assert len(results) == 4
        assert len({result["completion"] for result in results}) == 1
        coalesced = [result for result in results if result.get("coalesced")]
        assert len(coalesced) == 3
        assert all(result["cached"] for result in coalesced)
        assert service.stats()["coalesced_requests"] == 3

    def test_distinct_prompts_not_coalesced(self, make_engine):
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine)
        results = {}

        def hit(prompt):
            results[prompt] = service.predict(prompt)

        threads = [
            threading.Thread(target=hit, args=(f"- name: task {i}\n",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gate.calls == 3
        assert not any(result.get("coalesced") for result in results.values())

    def test_owner_failure_propagates_to_waiters(self, make_engine):
        engine = make_engine()
        started, release = threading.Event(), threading.Event()

        def explode(*args, **kwargs):
            started.set()
            assert release.wait(timeout=10)
            raise ServingError("model fell over")

        engine.complete_batch_detailed = explode
        service = PredictionService(engine)
        errors = []

        def owner():
            try:
                service.predict("- name: x\n")
            except ServingError as error:
                errors.append(("owner", error))

        def waiter():
            started.wait()
            try:
                service.predict("- name: x\n")
            except ServingError as error:
                errors.append(("waiter", error))

        threads = [threading.Thread(target=owner), threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        _wait_for(lambda: service.cache.misses == 2)  # the waiter joined the owner
        release.set()
        for thread in threads:
            thread.join()
        assert {source for source, _ in errors} == {"owner", "waiter"}
        # the failure must not be cached
        assert service.cache.get("- name: x\n") is None

    def test_a_coalesced_waiter_keeps_its_own_deadline(self, make_engine):
        """Real threads, real clock: the waiter's 50 ms deadline expires
        while the owner is still generating; the owner is unaffected."""

        engine = make_engine()
        gate = GenerationGate(engine)
        service = PredictionService(engine)
        owned: list[dict] = []
        owner = threading.Thread(target=lambda: owned.append(service.predict("- name: x\n")))
        owner.start()
        try:
            assert gate.entered.wait(timeout=10)
            with pytest.raises(DeadlineExceededError) as raised:
                service.predict("- name: x\n", deadline_s=0.05)
            assert raised.value.status == 504
            assert not gate.release.is_set()  # it did not wait the owner out
        finally:
            gate.release.set()
            owner.join(timeout=10)
        assert not owned[0]["cached"]
        stats = service.stats()
        assert (stats["deadline_exceeded_requests"], stats["coalesced_requests"]) == (1, 0)
        replay = service.predict("- name: x\n")
        assert replay["cached"]  # the owner's result was still cached
        assert replay["completion"] == owned[0]["completion"]


class TestBatchPrediction:
    def test_duplicate_prompts_in_a_batch_decode_once(self, make_engine):
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine)
        result = service.predict_batch(["- name: a\n", "- name: b\n", "- name: a\n"])
        assert len(result["completions"]) == 3
        assert result["completions"][0] == result["completions"][2]
        assert gate.batches == [["- name: a\n", "- name: b\n"]]  # duplicate decoded once
        assert result["decoded"] == 2
        assert result["batch_size"] == 3

    def test_cache_hits_skip_decoding(self, make_engine):
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine)
        service.predict("- name: a\n")
        result = service.predict_batch(["- name: a\n", "- name: b\n"])
        assert result["cached"] == [True, False]
        assert gate.batches == [["- name: a\n"], ["- name: b\n"]]

    def test_engine_path_used_when_attached(self, make_engine):
        # misses decode together in one engine call, token-identical to
        # one-at-a-time predictions
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine, max_new_tokens=6)
        result = service.predict_batch(["- name: a\n", "- name: b\n"])
        assert gate.batches == [["- name: a\n", "- name: b\n"]]
        alone = PredictionService(make_engine(), max_new_tokens=6)
        assert result["completions"] == [
            alone.predict("- name: a\n")["completion"],
            alone.predict("- name: b\n")["completion"],
        ]
        assert service.stats()["engine"]["completed_requests"] == 2

    def test_empty_batch_rejected(self, make_engine):
        service = PredictionService(make_engine())
        with pytest.raises(ServingError):
            service.predict_batch([])
        with pytest.raises(ServingError):
            service.predict_batch(["- name: a\n", "   "])


class TestRestRoundTrip:
    def test_http_completion_flow(self, make_engine):
        service = PredictionService(make_engine())
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            assert client.health() == {"status": "ok", "model": "tiny"}
            completion = client.predict("- name: install nginx\n")["completion"]
            assert completion
            payload = client.predict("- name: install nginx\n")
            assert payload["cached"] is True
            assert payload["completion"] == completion
            assert client.stats()["requests"] == 2

    def test_http_error_mapped(self, make_engine):
        service = PredictionService(make_engine())
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            with pytest.raises(ServingError):
                client.predict("   ")

    def test_http_batch_completions(self, make_engine):
        engine = make_engine()
        gate = GenerationGate(engine, closed=False)
        service = PredictionService(engine)
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            payload = client.predict_batch(["- name: a\n", "- name: b\n"])
            assert payload["batch_size"] == 2
            assert payload["cached"] == [False, False]
            assert len(payload["completions"]) == 2
            # second round is fully cached
            again = client.predict_batch(["- name: a\n", "- name: b\n"])
            assert again["cached"] == [True, True]
            assert again["completions"] == payload["completions"]
            assert gate.calls == 1  # both misses decoded in one engine call
            completions = client.predict_batch(["- name: a\n"])["completions"]
            assert completions == payload["completions"][:1]
            stats = client.stats()
            assert stats["batch_requests"] == 3

    def test_http_batch_validation_error(self, make_engine):
        service = PredictionService(make_engine())
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            with pytest.raises(ServingError):
                client.predict_batch([])
            with pytest.raises(ServingError):
                client.predict_batch(["ok", "   "])

    def test_http_stats_include_engine_section(self, make_engine):
        service = PredictionService(make_engine(max_batch_size=4))
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            payload = client.predict_batch(["- name: install nginx\n"], max_new_tokens=4)
            assert payload["decoded"] == 1
            stats = client.stats()
            engine_stats = stats["engine"]
            assert engine_stats["queue_depth"] == 0
            assert engine_stats["completed_requests"] >= 1
            assert "mean_batch_occupancy" in engine_stats
            assert "hits" in engine_stats["prefix_cache"]
            assert engine_stats["prefill_tokens"] > 0

    def test_http_metrics_prometheus(self, make_engine):
        from tests.prometheus import parse_prometheus

        service = PredictionService(make_engine())
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            client.predict("- name: install nginx\n")
            status, body = _scrape(server)
        assert status == 200
        text = body.decode("utf-8")
        parsed = parse_prometheus(text)  # raises on any unparseable line
        assert "# TYPE serving_requests_total counter" in text
        assert parsed["serving_requests_total"]["samples"][0][2] == 1.0
        assert parsed["serving_completions_s"]["type"] == "histogram"
        buckets = [s for s in parsed["serving_completions_s"]["samples"]
                   if s[0] == "serving_completions_s_bucket"]
        assert buckets[-1][1]["le"] == "+Inf"

    def test_http_metrics_json_default_and_bad_format(self, make_engine):
        import json as json_module
        import urllib.request

        service = PredictionService(make_engine())
        with RestServer(service) as server:
            with urllib.request.urlopen(f"{server.url}/v1/metrics") as response:
                payload = json_module.loads(response.read())
            assert "counters" in payload["metrics"]
            with pytest.raises(urllib.error.HTTPError) as error_info:
                urllib.request.urlopen(f"{server.url}/v1/metrics?format=xml")
            assert error_info.value.code == 400

    def test_unknown_path_404(self, make_engine):
        service = PredictionService(make_engine())
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            with pytest.raises(ServingError):
                client._request("GET", "/nope")

    def test_unreachable_server(self):
        client = PredictionClient("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(ServingError):
            client.health()


class TestMalformedEnvelopes:
    """A body of the wrong JSON type answers 400 on every POST route — it
    must not escape the handler as a TypeError and drop the connection."""

    POST_ROUTES = (
        "/v1/completions",
        "/v1/completions?stream=1",
        "/v1/batch_completions",
        "/v1/sessions",
        "/v1/sessions/s0000/extend",
    )
    TEXT = {"prompt": "- name: a\n", "prompts": ["- name: a\n"], "buffer": "- name: a\n"}
    BAD_BODIES = {
        "not-an-object": [],
        "deadline-not-a-number": {**TEXT, "deadline_ms": "soon"},
        "budget-not-an-int": {**TEXT, "max_new_tokens": "5"},
    }

    @pytest.fixture(scope="class")
    def servers(self, make_engine):
        from repro.fleet import FleetRouter, InProcessWorker, WorkerSpec

        router = FleetRouter([InProcessWorker("w0", spec=WorkerSpec(max_new_tokens=4)).start()])
        with RestServer(PredictionService(make_engine())) as bare, RestServer(router) as fleet:
            yield {"service": bare.url, "fleet": fleet.url}
        router.stop()

    @pytest.mark.parametrize("backend", ["service", "fleet"])
    @pytest.mark.parametrize("route", POST_ROUTES)
    @pytest.mark.parametrize("body", sorted(BAD_BODIES))
    def test_wrong_json_type_is_a_400(self, servers, backend, route, body):
        import json
        import urllib.request

        request = urllib.request.Request(
            servers[backend] + route,
            data=json.dumps(self.BAD_BODIES[body]).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error_info:
            urllib.request.urlopen(request, timeout=10)
        assert error_info.value.code == 400
        assert "error" in json.loads(error_info.value.read())

    def test_http_malformed_json(self, servers):
        import urllib.request

        request = urllib.request.Request(
            servers["service"] + "/v1/completions",
            data=b"{broken",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error_info:
            urllib.request.urlopen(request, timeout=5)
        assert error_info.value.code == 400

    @pytest.mark.parametrize("backend", ["service", "fleet"])
    def test_negative_content_length_is_a_400(self, servers, backend):
        # rfile.read(-1) reads to EOF: the handler thread would sit on the
        # socket, and the client would get no byte until it hung up.
        import http.client
        import json
        from urllib.parse import urlparse

        address = urlparse(servers[backend])
        connection = http.client.HTTPConnection(address.hostname, address.port, timeout=2)
        try:
            connection.putrequest("POST", "/v1/completions")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()


class TestTypedErrorRoundTrip:
    """Every typed error survives HTTP: status out, the same type back in."""

    class _Cancelling(PredictionService):
        def predict(self, prompt, max_new_tokens=None, deadline_s=None, trace_context=None):
            from repro.errors import RequestCancelledError

            raise RequestCancelledError("client went away")

        def metrics_prometheus(self):
            raise ServingError("exposition unavailable")

    def test_cancelled_request_round_trips_as_408(self, make_engine):
        from repro.errors import RequestCancelledError

        with RestServer(self._Cancelling(make_engine())) as server:
            with pytest.raises(RequestCancelledError):
                PredictionClient(server.url).predict("- name: a\n")

    def test_prometheus_http_error_is_not_reported_as_unreachable(self, make_engine):
        import json

        with RestServer(self._Cancelling(make_engine())) as server:
            status, body = _scrape(server)
        assert status == ServingError.status
        assert json.loads(body) == {"error": "exposition unavailable"}


class TestEditorPlugin:
    @pytest.fixture()
    def session(self, make_engine):
        return EditorSession(backend=PredictionService(make_engine(), max_new_tokens=8))

    def test_accept_flow(self, session):
        session.type_text("- name: install nginx on RHEL")
        suggestion = session.press_enter()
        assert suggestion.text and session.session_id is not None
        buffer = session.press(TAB)
        assert buffer.startswith("- name: install nginx on RHEL\n" + suggestion.text)
        assert (session.accepted, session.rejected) == (1, 0)

    def test_reject_flow(self, session):
        session.type_text("- name: install nginx")
        session.press_enter()
        buffer = session.press(ESCAPE)
        assert buffer == "- name: install nginx\n"
        assert session.rejected == 1

    def test_enter_requires_name_line(self, session):
        session.type_text("tasks:")
        with pytest.raises(ServingError):
            session.press_enter()

    def test_double_enter_rejected(self, session):
        session.type_text("- name: x")
        session.press_enter()
        with pytest.raises(ServingError):
            session.press_enter()

    def test_key_without_pending(self, session):
        with pytest.raises(ServingError):
            session.press(TAB)

    def test_unknown_key(self, session):
        session.type_text("- name: x")
        session.press_enter()
        with pytest.raises(ServingError):
            session.press("space")

    def test_buffer_stays_valid_yaml_after_accept(self, session):
        # A random-weight model writes no YAML, so the real session's
        # payload carries a task body instead: what is checked is the
        # plugin's splice (newline-terminated, indentation kept).
        from repro import yamlio

        create = session.backend.sessions.create
        session.backend.sessions.create = lambda *args: dict(
            create(*args), completion="  ansible.builtin.apt:\n    name: nginx"
        )
        session.type_text("- name: install nginx")
        session.press_enter()
        session.press(TAB)
        assert yamlio.is_valid(session.buffer)


class _HangUp:
    """A loopback socket that accepts each connection, reads the whole
    request, sends ``reply`` (nothing by default: no status line) and closes."""

    def __init__(self, reply: bytes = b""):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._reply = reply
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # closed
            with connection:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += connection.recv(65536)
                head, _, body = request.partition(b"\r\n\r\n")
                length = re.search(rb"(?i)content-length:\s*(\d+)", head)
                while length and len(body) < int(length.group(1)):
                    body += connection.recv(65536)
                connection.sendall(self._reply)

    def close(self) -> None:
        self._listener.close()


class TestNoAnswerIsUnreachable:
    """A connection that closes without an HTTP answer, or a stream that ends
    without its terminal event, is a transport failure: the client raises
    ServiceUnreachableError, and a process replica behind the router is
    declared dead."""

    #: A close-delimited stream (an HTTP/1.0 peer) and a chunked one, each
    #: cut after one token event, before the terminal event.
    SSE_HEAD = b"HTTP/1.0 200 OK\r\nContent-Type: text/event-stream\r\n\r\n"
    CHUNKED_HEAD = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
    )

    @pytest.fixture()
    def hang_up(self):
        server = _HangUp()
        yield server
        server.close()

    @pytest.fixture()
    def cut_stream(self):
        from repro.serving.stream import sse_encode

        server = _HangUp(self.SSE_HEAD + sse_encode("token", {"text": "- name"}))
        yield server
        server.close()

    @pytest.fixture()
    def cut_chunked_stream(self):
        from repro.serving.stream import sse_encode

        event = sse_encode("token", {"text": "- name"})
        server = _HangUp(self.CHUNKED_HEAD + b"%x\r\n%s\r\n" % (len(event), event))
        yield server
        server.close()

    @staticmethod
    def _raises_after_the_token(url: str) -> None:
        from repro.errors import ServiceUnreachableError

        events = []
        with pytest.raises(ServiceUnreachableError):
            for event in PredictionClient(url, timeout=5).predict_stream("- name: a\n"):
                events.append(event)
        assert [(event.event, event.json()) for event in events] == [("token", {"text": "- name"})]

    @staticmethod
    def _router_reports_the_cut(url: str) -> None:
        from repro.fleet import FleetRouter, ProcessWorker, WorkerSpec

        worker = ProcessWorker("w0", WorkerSpec())
        worker._client = PredictionClient(url, timeout=5)  # a child that died mid-stream
        router = FleetRouter([worker])
        events = list(router.predict_stream("- name: a\n"))
        assert events[0] == ("token", {"text": "- name"})
        event, data = events[-1]
        assert event == "error" and data["status"] == 503
        assert router.dead_worker_ids == ["w0"]

    def test_no_status_line_is_unreachable(self, hang_up):
        from repro.errors import ServiceUnreachableError

        with pytest.raises(ServiceUnreachableError):
            PredictionClient(hang_up.url, timeout=5).predict("- name: a\n")

    def test_stream_without_terminal_event_raises_after_what_arrived(self, cut_stream):
        self._raises_after_the_token(cut_stream.url)

    def test_a_chunked_stream_cut_short_raises_after_what_arrived(self, cut_chunked_stream):
        self._raises_after_the_token(cut_chunked_stream.url)

    def test_router_reports_a_cut_stream_in_band_and_the_replica_dead(self, cut_stream):
        self._router_reports_the_cut(cut_stream.url)

    def test_router_reports_a_cut_chunked_stream_in_band_and_the_replica_dead(
        self, cut_chunked_stream
    ):
        self._router_reports_the_cut(cut_chunked_stream.url)


def _read_chunks(reader) -> list[bytes]:
    """A chunked body's chunks, through the terminal zero-length chunk."""
    chunks = []
    while (size := int(reader.readline(), 16)) > 0:
        chunks.append(reader.read(size))
        assert reader.read(2) == b"\r\n"
    assert reader.readline() == b"\r\n"  # no trailers
    return chunks


def _read_head(reader) -> tuple[int, dict[str, str]]:
    """An HTTP answer's status and headers off a raw socket's reader."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline().decode("latin-1").strip()):
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


def _read_answer(reader) -> tuple[int, dict[str, str], bytes]:
    """One HTTP answer off a raw socket's reader: status, headers, body.
    A body neither chunked nor with a ``Content-Length`` runs to the end
    of the stream."""
    status, headers = _read_head(reader)
    if headers.get("transfer-encoding") == "chunked":
        return status, headers, b"".join(_read_chunks(reader))
    length = headers.get("content-length")
    return status, headers, reader.read(int(length)) if length is not None else reader.read()


class TestKeepAliveFraming:
    """Keep-alive, seen from a raw socket: answers are framed so that one
    connection carries request after request, and never misreads a body
    that was left unread as the next request."""

    #: A second request hidden in a body: parsed only if the body is skipped.
    SMUGGLED = b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.fixture()
    def server(self, make_engine):
        with RestServer(PredictionService(make_engine(), max_new_tokens=4)) as server:
            yield server

    @staticmethod
    def _connect(server):
        connection = socket.create_connection(server.address, timeout=10)
        return connection, connection.makefile("rb")

    def test_two_requests_on_one_socket_get_two_answers(self, server):
        import json

        body = json.dumps({"prompt": "- name: install nginx\n"}).encode()
        connection, reader = self._connect(server)
        with connection, reader:
            connection.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, answer = _read_answer(reader)
            assert status == 200 and json.loads(answer)["status"] == "ok"
            assert headers.get("connection") != "close"
            connection.sendall(
                b"POST /v1/completions HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            status, _, answer = _read_answer(reader)
            assert status == 200 and json.loads(answer)["completion"]

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n", 404),
            (b"POST /v1/completions HTTP/1.1\r\nContent-Length: -1\r\n", 400),
            (b"POST /v1/completions HTTP/1.1\r\nContent-Length: abc\r\n", 400),
            (b"GET /v1/health HTTP/1.1\r\nContent-Length: %d\r\n", 200),
        ],
        ids=["unknown-path", "negative-length", "unparseable-length", "get-with-body"],
    )
    def test_an_answer_before_the_body_closes_the_connection(self, server, head, status):
        if b"%d" in head:
            head %= len(self.SMUGGLED)
        connection, reader = self._connect(server)
        with connection, reader:
            connection.sendall(head + b"Host: x\r\n\r\n" + self.SMUGGLED)
            answered, headers, _ = _read_answer(reader)
            assert (answered, headers["connection"]) == (status, "close")
            assert reader.read() == b""  # the smuggled request got no answer

    @staticmethod
    def _stream_request(version: bytes = b"HTTP/1.1", extra: bytes = b"") -> bytes:
        import json

        body = json.dumps({"prompt": "- name: install nginx\n"}).encode()
        return (
            b"POST /v1/completions?stream=1 %s\r\nHost: x\r\n%s"
            b"Content-Length: %d\r\n\r\n%s" % (version, extra, len(body), body)
        )

    def test_the_stream_is_chunked_and_keeps_the_connection(self, server):
        import json

        from repro.serving.stream import SseParser

        connection, reader = self._connect(server)
        with connection, reader:
            connection.sendall(self._stream_request())
            status, headers = _read_head(reader)
            assert (status, headers["transfer-encoding"]) == (200, "chunked")
            assert "content-length" not in headers and "connection" not in headers
            chunks = _read_chunks(reader)
            # One SSE event per chunk, the last of them ``done``.
            events = [SseParser().feed(chunk) for chunk in chunks]
            assert [len(parsed) for parsed in events] == [1] * len(chunks)
            assert events[-1][0].event == "done"
            connection.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, answer = _read_answer(reader)
            assert status == 200 and json.loads(answer)["status"] == "ok"

    def test_an_http_1_0_stream_is_close_delimited(self, server):
        from repro.serving.stream import SseParser

        connection, reader = self._connect(server)
        with connection, reader:
            connection.sendall(self._stream_request(version=b"HTTP/1.0"))
            status, headers, answer = _read_answer(reader)
        assert (status, headers["connection"]) == (200, "close")
        assert "transfer-encoding" not in headers and "content-length" not in headers
        assert SseParser().feed(answer)[-1].event == "done"

    def test_a_stream_after_an_unread_body_closes_the_connection(self, server):
        connection, reader = self._connect(server)
        with connection, reader:
            connection.sendall(
                self._stream_request(extra=b"Transfer-Encoding: chunked\r\n") + self.SMUGGLED
            )
            status, headers, _ = _read_answer(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert reader.read() == b""  # the smuggled request got no answer

    def test_sequential_requests_do_not_wait_on_delayed_acks(self, server):
        # With Nagle's algorithm on, each answer's body waits ~40 ms for the
        # ACK of its headers; a loopback round trip is well under 1 ms.
        import time

        client = PredictionClient(server.url)
        client.health()
        started = time.perf_counter()
        for _ in range(20):
            client.health()
        elapsed = time.perf_counter() - started
        client.close()
        assert elapsed < 0.5

    def test_a_stopped_server_answers_nothing(self, make_engine):
        from repro.errors import ServiceUnreachableError

        server = RestServer(PredictionService(make_engine())).start()
        client = PredictionClient(server.url, timeout=5)
        assert client.health()["status"] == "ok"  # leaves a pooled connection
        server.stop()
        with pytest.raises(ServiceUnreachableError):
            client.health()


class TestKeepAliveClient:
    """The client's side: connections pooled, shared safely between
    threads, and a connection the server closed while idle is replaced
    by a fresh one to the same server.  A stream read to its end hands
    its connection back like any answer; one closed early never does."""

    @pytest.fixture()
    def server(self, make_engine):
        with RestServer(PredictionService(make_engine(), max_new_tokens=4)) as server:
            yield server

    @pytest.fixture()
    def connects(self, monkeypatch):
        import http.client

        opened: list[int] = []
        connect = http.client.HTTPConnection.connect

        def counting(connection):
            opened.append(1)
            connect(connection)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
        return opened

    def test_threads_share_one_client(self, server, connects):
        from repro.obs.distributed import TRACE_ID_HEADER

        client = PredictionClient(server.url)
        prompts = [f"- name: install package {index}\n" for index in range(4)]
        expected = {prompt: client.predict(prompt)["completion"] for prompt in prompts}
        client.close()
        connects.clear()
        barrier = threading.Barrier(len(prompts))
        mismatches: list[str] = []

        def drive(prompt: str, thread: int) -> None:
            barrier.wait()
            for call in range(10):
                trace_id = f"t{thread}.{call}"
                payload = client.predict(prompt, headers={TRACE_ID_HEADER: trace_id})
                if (payload["trace_id"], payload["completion"]) != (trace_id, expected[prompt]):
                    mismatches.append(trace_id)

        threads = [
            threading.Thread(target=drive, args=(prompt, thread))
            for thread, prompt in enumerate(prompts)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: a lost pool update shows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert 1 <= len(connects) <= len(threads)

    def test_a_connection_closed_while_idle_is_replaced(self, server, connects):
        client = PredictionClient(server.url, timeout=5)
        assert client.health()["status"] == "ok"
        for connection in list(server._httpd._connections):  # the server drops it
            connection.shutdown(socket.SHUT_RDWR)
        _wait_for(lambda: not server._httpd._connections)
        assert client.health()["status"] == "ok"
        client.close()
        assert len(connects) == 2

    def test_streams_and_predicts_share_one_connection(self, server, connects):
        client = PredictionClient(server.url)
        for index in range(5):
            events = list(client.predict_stream(f"- name: install package {index}\n"))
            assert events[-1].event == "done"
        assert client.predict("- name: install nginx\n")["completion"]
        client.close()
        assert len(connects) == 1

    def test_a_stream_closed_halfway_is_never_pooled(self, make_engine, connects):
        service = PredictionService(make_engine(), max_new_tokens=4)
        engine = service.engine
        stream_ids = engine.stream_ids
        resumed = threading.Event()

        def parked(*args, **kwargs):
            # The server holds its second burst until the client has hung up.
            inner = stream_ids(*args, **kwargs)
            try:
                yield next(inner)
                resumed.wait(timeout=10)
                yield from inner
            finally:
                inner.close()

        engine.stream_ids = parked
        with RestServer(service) as server:
            client = PredictionClient(server.url, timeout=10)
            stream = client.predict_stream("- name: install nginx\n", max_new_tokens=32)
            assert next(stream).event == "token"
            stream.close()
            resumed.set()
            _wait_for(lambda: service.stats()["stream_disconnects"] == 1)
            del engine.stream_ids
            assert client.predict("- name: install nginx\n")["completion"]
            client.close()
        assert len(connects) == 2
        engine.prefix_cache.clear()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0

    def test_close_drops_idle_connections(self, server, connects):
        client = PredictionClient(server.url)
        client.health()
        client.health()
        assert len(connects) == 1
        client.close()
        _wait_for(lambda: not server._httpd._connections)
        client.health()
        client.close()
        assert len(connects) == 2

"""HTTP client for the prediction service (the "REST client" of the demo).

Besides the thin request wrappers, the client implements the polite half
of the server's backpressure contract: a :class:`RetryPolicy` retries
overload (503) and transport errors with exponential backoff plus seeded
jitter, honouring the server's ``Retry-After`` hint as a floor on the
wait.  Retries are opt-in (``max_retries=0`` by default) and sleep on the
shared :mod:`repro.faults.clock`, so retry schedules are exact under a
fake clock.

The transport is HTTP/1.1 keep-alive over :mod:`http.client`: each JSON
exchange borrows an idle connection to its endpoint, or opens one, and
hands it back once the answer is read, so a keystroke pays no TCP connect.
"""

from __future__ import annotations

import http.client
import json
import threading
from urllib.parse import urlsplit

from repro.errors import (
    ServiceOverloadedError,
    ServiceUnreachableError,
    ServingError,
    SessionNotFoundError,
    error_for_status,
)
from repro.faults import clock
from repro.serving.stream import SseParser
from repro.utils.rng import SeededRng

#: What "no HTTP answer" looks like: a refused, reset or timed-out socket
#: (``OSError``) or a response cut short or without a status line
#: (``http.client.HTTPException``).
_NO_ANSWER = (OSError, http.client.HTTPException)


class RetryPolicy:
    """Exponential backoff with jitter for overload / transport errors.

    The delay before attempt ``n`` (1-based) is::

        min(max_delay_s, base_delay_s * 2**(n-1)) * (1 + jitter * U[-1, 1])

    floored at the server's ``Retry-After`` hint when one came back with
    the 503.  Jitter draws from a :class:`~repro.utils.rng.SeededRng`, so
    a policy constructed with the same seed backs off identically.
    """

    def __init__(
        self,
        max_retries: int = 3,
        base_delay_s: float = 0.1,
        max_delay_s: float = 5.0,
        jitter: float = 0.25,
        seed: int = 0,
    ):
        if max_retries < 0:
            raise ServingError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 <= jitter <= 1.0:
            raise ServingError(f"jitter must be in [0, 1], got {jitter}")
        self.max_retries = max_retries
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self._rng = SeededRng(seed).child("client-retry")

    def delay(self, attempt: int, retry_after_s: float | None = None) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        backoff = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
        if self.jitter:
            backoff *= 1.0 + self.jitter * self._rng.uniform(-1.0, 1.0)
        if retry_after_s is not None:
            backoff = max(backoff, retry_after_s)
        return backoff


class PredictionClient:
    """Talks to one or more :class:`repro.serving.service.RestServer`\\ s.

    ``base_url`` may be a single URL or a list of equivalent endpoints
    (replicas of the same service).  On a *transport* failure — connection
    refused, reset, timeout — the client fails over to the next endpoint
    immediately, without sleeping; only once a full sweep of every
    endpoint has failed does the :class:`RetryPolicy` backoff apply (and
    with no policy, a failed sweep raises).  After a success the client
    stays sticky on the endpoint that answered.  HTTP-level errors (503
    overload, 504 deadline) are *service* answers, not dead endpoints,
    and never trigger failover.

    ``retry_policy`` opts into backoff-retry of 503s and unreachable-host
    errors; ``sleep`` is injectable for tests and defaults to the shared
    faults clock (real ``time.sleep`` in production).

    One client is safe to share between threads (a ``ProcessWorker``'s
    client serves every router thread): idle keep-alive connections wait
    in a lock-guarded list per endpoint, and each exchange holds its
    connection alone until the answer is read.  A request that gets no
    status line on a *reused* connection is sent once more on a fresh one
    to the same endpoint — the server closed it while it sat idle — which
    is not a failover.  :meth:`close` drops the idle connections.
    """

    def __init__(
        self,
        base_url: str | list[str],
        timeout: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        sleep=None,
    ):
        urls = [base_url] if isinstance(base_url, str) else list(base_url)
        if not urls:
            raise ServingError("base_url must name at least one endpoint")
        self.base_urls = [url.rstrip("/") for url in urls]
        self._endpoint = 0
        self.timeout = timeout
        self.retry_policy = retry_policy
        self._sleep = sleep if sleep is not None else clock.sleep
        self.retries = 0  # lifetime count of retry sleeps taken
        self.failovers = 0  # lifetime count of endpoint rotations
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._idle_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        """The endpoint currently in use (rotates on transport failure)."""
        return self.base_urls[self._endpoint]

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for connection in connections:
                connection.close()

    def _http_error(self, method: str, path: str, status: int, body: bytes) -> Exception:
        """The typed error an HTTP error status stands for (the disposition
        table of :mod:`repro.errors`, read right to left)."""
        message = body.decode("utf-8", "replace")
        try:
            answer = json.loads(message)
            message = answer.get("error", message)
        except (ValueError, AttributeError):
            answer = {}
        if status == SessionNotFoundError.status and "/v1/sessions/" in path:
            return SessionNotFoundError(path.split("/")[3])
        typed = error_for_status(status)(f"{method} {path} failed ({status}): {message}")
        if isinstance(typed, ServiceOverloadedError):
            typed.retry_after_s = answer.get("retry_after_s")
        return typed

    def _open(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[str, http.client.HTTPConnection, http.client.HTTPResponse]:
        """The one place a request is sent; returns ``(endpoint, connection,
        response)`` with the status line read and the body not yet.

        The request borrows an idle connection to the endpoint when one
        waits.  An HTTP error status raises its typed error; no answer at
        all raises :class:`~repro.errors.ServiceUnreachableError`.
        """
        endpoint = self.base_url
        target = urlsplit(endpoint)
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        head = {"Content-Type": "application/json", **(headers or {})}
        with self._idle_lock:
            idle = self._idle.get(endpoint)
            connection = idle.pop() if idle else None
        while True:
            reused = connection is not None
            if connection is None:
                connection = http.client.HTTPConnection(
                    target.hostname, target.port, timeout=self.timeout
                )
            try:
                connection.request(method, target.path + path, body, head)
                response = connection.getresponse()
                break
            except _NO_ANSWER as error:
                connection.close()
                connection = None
                # A timeout is a slow server, not a stale connection.
                if reused and not isinstance(error, TimeoutError):
                    continue
                raise ServiceUnreachableError(
                    f"cannot reach service at {endpoint}{path}: {error}"
                ) from error
        if not 200 <= response.status < 300:
            answer = self._finish(path, endpoint, connection, response)
            raise self._http_error(method, path, response.status, answer)
        return endpoint, connection, response

    def _finish(
        self,
        path: str,
        endpoint: str,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> bytes:
        """Read the body to its end and give the connection back to the
        idle list while it stays open.  A body cut short is no answer
        either."""
        try:
            body = response.read()
        except _NO_ANSWER as error:
            connection.close()
            raise ServiceUnreachableError(
                f"answer from {endpoint}{path} cut short: {error}"
            ) from error
        # http.client drops the socket of an answer that closes the connection.
        if connection.sock is not None:
            with self._idle_lock:
                self._idle.setdefault(endpoint, []).append(connection)
        return body

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """One JSON exchange under the retry / endpoint-rotation rules.

        Only overload and unreachable endpoints are retried: every other
        status is the service's final answer (a later retry cannot beat an
        already-spent deadline).
        """
        policy = self.retry_policy
        attempt = 0
        swept = 0  # endpoints tried (and failed at transport level) this sweep
        while True:
            try:
                body = self._finish(path, *self._open(method, path, payload, headers))
                return json.loads(body.decode("utf-8"))
            except ServiceOverloadedError as error:
                # A 503 is the service answering — stay on this endpoint
                # and honour its Retry-After through the policy.
                if policy is None or attempt >= policy.max_retries:
                    raise
                attempt += 1
                self.retries += 1
                self._sleep(policy.delay(attempt, error.retry_after_s))
            except ServiceUnreachableError:
                swept += 1
                if swept < len(self.base_urls):
                    # Another replica may be up: rotate and retry NOW —
                    # failing over costs nothing, sleeping costs latency.
                    self._endpoint = (self._endpoint + 1) % len(self.base_urls)
                    self.failovers += 1
                    continue
                # Every endpoint refused in one sweep: now it's a real
                # outage and the backoff policy (if any) takes over.
                if policy is None or attempt >= policy.max_retries:
                    raise
                attempt += 1
                self.retries += 1
                swept = 0
                self._endpoint = (self._endpoint + 1) % len(self.base_urls)
                if len(self.base_urls) > 1:
                    self.failovers += 1
                self._sleep(policy.delay(attempt))

    @staticmethod
    def _body(field: str, value, max_new_tokens, deadline_ms, **extra) -> dict:
        """The request envelope every POST route shares."""
        payload = {field: value, **extra}
        if max_new_tokens is not None:
            payload["max_new_tokens"] = max_new_tokens
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return payload

    def predict_batch(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """Full batch payload (completions + per-prompt cache flags + latency)."""
        payload = self._body("prompts", prompts, max_new_tokens, deadline_ms)
        return self._request("POST", "/v1/batch_completions", payload, headers=headers)

    def predict(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """Full prediction payload (completion + latency + cache flag).

        ``headers`` rides extra HTTP headers along — how the fleet router
        propagates its trace context (``X-Repro-Trace-Id`` /
        ``X-Repro-Parent-Span``) to a process worker.
        """
        payload = self._body("prompt", prompt, max_new_tokens, deadline_ms)
        return self._request("POST", "/v1/completions", payload, headers=headers)

    def predict_stream(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
        chunk_size: int = 512,
    ):
        """Incremental completion: yields parsed SSE events as they arrive.

        A generator over :class:`~repro.serving.stream.SseEvent` — feed
        ``event.json()`` for the payload; ``token`` events carry ``text``
        deltas whose concatenation equals the non-streaming completion,
        and the final event is ``done`` (or ``error``).  Closing the
        generator early closes the socket, which the server observes as a
        client disconnect and answers by cancelling the request.  Streams
        do not retry or fail over: once bytes flowed, a replay could
        duplicate delivered tokens.

        The server closes the connection after a stream — the close
        delimits the body, which has no ``Content-Length`` — so the
        connection is never handed back, and a replica that dies
        mid-stream looks like a clean end of file: a
        stream that ends without its ``done`` or ``error`` event raises
        :class:`~repro.errors.ServiceUnreachableError` after yielding what
        arrived.  Each read returns what one socket read delivered, at
        most ``chunk_size`` bytes, so an event is yielded as soon as it
        lands rather than once ``chunk_size`` bytes have queued up.
        """
        payload = self._body("prompt", prompt, max_new_tokens, deadline_ms, stream=True)
        path = "/v1/completions?stream=1"
        endpoint, connection, response = self._open("POST", path, payload, headers)
        parser = SseParser()
        ended = False
        try:
            while True:
                try:
                    chunk = response.read1(chunk_size)
                except _NO_ANSWER as error:
                    raise ServiceUnreachableError(
                        f"stream from {endpoint} cut short: {error}"
                    ) from error
                for event in parser.feed(chunk) if chunk else parser.close():
                    ended = ended or event.event in ("done", "error")
                    yield event
                if not chunk:
                    break
        finally:
            response.close()
            connection.close()
        if not ended:
            raise ServiceUnreachableError(
                f"stream from {endpoint} ended without a done or error event"
            )

    # -- sessions -------------------------------------------------------------

    def session_create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """Open a keystroke session; the payload carries ``session_id``."""
        payload = self._body("buffer", buffer, max_new_tokens, deadline_ms)
        return self._request("POST", "/v1/sessions", payload, headers=headers)

    def session_extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """Extend a session with the full new buffer (only the delta prefills)."""
        payload = self._body("buffer", buffer, max_new_tokens, deadline_ms)
        return self._request(
            "POST", f"/v1/sessions/{session_id}/extend", payload, headers=headers
        )

    def session_close(self, session_id: str) -> dict:
        return self._request("DELETE", f"/v1/sessions/{session_id}")

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> dict:
        """Full observability snapshot from ``/v1/metrics``."""
        return self._request("GET", "/v1/metrics")

    def telemetry(self) -> dict:
        """Telemetry drain from ``/v1/telemetry`` (spans removed on read)."""
        return self._request("GET", "/v1/telemetry")

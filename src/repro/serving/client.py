"""HTTP client for the prediction service (the "REST client" of the demo).

The client speaks to one endpoint and surfaces every failure as a typed
error: a 503 as :class:`~repro.errors.ServiceOverloadedError` carrying the
server's ``retry_after_s`` hint, no answer at all as
:class:`~repro.errors.ServiceUnreachableError`.  Failing over between
replicas is the fleet router's job (``FleetRouter._route``), not the
client's.

The transport is HTTP/1.1 keep-alive over :mod:`http.client`: each
exchange borrows an idle connection to the endpoint, or opens one, and
hands it back once the answer is read, so a keystroke pays no TCP connect.
A stream is an answer like any other: a chunked body whose connection goes
back to the idle list once its terminal chunk is read.
"""

from __future__ import annotations

import http.client
import json
import threading
from urllib.parse import urlsplit

from repro.errors import (
    ServiceOverloadedError,
    ServiceUnreachableError,
    SessionNotFoundError,
    error_for_status,
)
from repro.serving.stream import SseParser

#: What "no HTTP answer" looks like: a refused, reset or timed-out socket
#: (``OSError``) or a response cut short or without a status line
#: (``http.client.HTTPException``).
_NO_ANSWER = (OSError, http.client.HTTPException)


class PredictionClient:
    """Talks to one :class:`repro.serving.service.RestServer`.

    One client is safe to share between threads (a ``ProcessWorker``'s
    client serves every router thread): idle keep-alive connections wait
    in a lock-guarded list, and each exchange holds its connection alone
    until the answer is read.  A request that gets no status line on a
    *reused* connection is sent once more on a fresh one — the server
    closed it while it sat idle — which is transport correctness, not a
    retry.  :meth:`close` drops the idle connections.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
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
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """The one place a request is sent; returns ``(connection, response)``
        with the status line read and the body not yet.

        The request borrows an idle connection when one waits.  An HTTP
        error status raises its typed error; no answer at all raises
        :class:`~repro.errors.ServiceUnreachableError`.
        """
        target = urlsplit(self.base_url)
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        head = {"Content-Type": "application/json", **(headers or {})}
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
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
                    f"cannot reach service at {self.base_url}{path}: {error}"
                ) from error
        if not 200 <= response.status < 300:
            answer = self._finish(path, connection, response)
            raise self._http_error(method, path, response.status, answer)
        return connection, response

    def _finish(
        self,
        path: str,
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
                f"answer from {self.base_url}{path} cut short: {error}"
            ) from error
        self._give_back(connection)
        return body

    def _give_back(self, connection: http.client.HTTPConnection) -> None:
        """Put a connection whose answer was read to its end on the idle list."""
        # http.client drops the socket of an answer that closes the connection.
        if connection.sock is not None:
            with self._idle_lock:
                self._idle.append(connection)

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """One JSON exchange; any error status raises its typed error."""
        body = self._finish(path, *self._open(method, path, payload, headers))
        return json.loads(body.decode("utf-8"))

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
        are never resent: once bytes flowed, a replay could duplicate
        delivered tokens.

        The stream rides the keep-alive connection: the server sends each
        event as one HTTP chunk, and once the terminal chunk is read the
        connection goes back to the idle list for the next call.  A stream
        closed early never hands its connection back.  A replica that dies
        mid-stream cuts the chunked body short, which raises
        :class:`~repro.errors.ServiceUnreachableError` after yielding what
        arrived; so does a close-delimited stream (an HTTP/1.0 peer) that
        ends without its ``done`` or ``error`` event.  Each read returns at
        most one chunk, at most ``chunk_size`` bytes, so an event is
        yielded as soon as it lands rather than once ``chunk_size`` bytes
        have queued up.
        """
        payload = self._body("prompt", prompt, max_new_tokens, deadline_ms, stream=True)
        path = "/v1/completions?stream=1"
        connection, response = self._open("POST", path, payload, headers)
        parser = SseParser()
        ended = read_to_end = False
        try:
            while True:
                try:
                    chunk = response.read1(chunk_size)
                except _NO_ANSWER as error:
                    raise ServiceUnreachableError(
                        f"stream from {self.base_url} cut short: {error}"
                    ) from error
                for event in parser.feed(chunk) if chunk else parser.close():
                    ended = ended or event.event in ("done", "error")
                    yield event
                if not chunk:
                    read_to_end = True
                    break
        finally:
            if read_to_end:
                self._give_back(connection)
            else:
                response.close()
                connection.close()
        if not ended:
            raise ServiceUnreachableError(
                f"stream from {self.base_url} ended without a done or error event"
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

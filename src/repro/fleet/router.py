"""The fleet router: N engine replicas behind one serving surface.

:class:`FleetRouter` speaks the same request surface as
:class:`~repro.serving.service.PredictionService` (DESIGN.md "Request
surface"), so the existing :class:`~repro.serving.service.RestServer`
fronts a whole fleet unchanged.  What it adds over one engine:

* **Prefix-affinity scheduling** — prompts are reduced to a bucket key
  (:func:`~repro.fleet.affinity.prefix_bucket`) and routed over a
  consistent-hash ring, so requests sharing a prompt head land on the
  replica that already holds their K/V prefix.  ``policy="round_robin"``
  is the baseline the benchmark compares against.
* **Failover** — a dispatch that finds its replica dead
  (:class:`~repro.errors.WorkerUnavailableError`) marks it dead, drains
  it, rebalances the ring and re-dispatches the request to the next
  replica in the key's preference order: the request is re-enqueued, not
  dropped.  A replica that answers 503 *spills* to the next preference
  without being declared dead; only when every live replica is saturated
  does the fleet itself shed, with the same typed 503 + Retry-After
  contract the per-engine service uses.  Each replica's
  ``max_queue_depth`` is what bounds the fleet's load.
* **Whole batches** — :meth:`predict_batch` routes a batch as one
  request, so it decodes in one pass of one replica's batcher.
* **Streaming passthrough** — :meth:`predict_stream` routes exactly like
  :meth:`predict` (affinity, failover, spill) *until the first event
  flows*; after first byte, replica death surfaces as an in-band
  ``error`` event, never a silent re-dispatch that could duplicate
  delivered tokens.
* **Session affinity** — :meth:`session_create` routes by prefix bucket
  and pins the session to the replica holding its path of K/V under a
  fleet-unique id the router mints; extends ride the ``fleet id ->
  (worker, replica-local id)`` table, and a dead owner converts to a
  crisp :class:`~repro.errors.SessionNotFoundError` (``sessions_lost``
  counter) so editors re-create instead of hanging.
* **Heartbeat liveness** — :meth:`heartbeat_tick` probes every replica on
  the shared :mod:`repro.faults.clock`; a replica whose last successful
  probe is older than ``heartbeat_timeout_s`` is declared wedged, killed
  (aborting its in-flight work so KV slabs free), and removed from the
  ring.  With a ``spawner`` the router replaces dead replicas, re-adding
  capacity under the same membership/rebalance path.
* **Distributed observability** — with tracing enabled the router mints a
  :class:`~repro.obs.distributed.TraceContext` per request and propagates
  it to workers, whose span trees parent under the router's
  ``fleet.predict`` span; with a
  :class:`~repro.obs.distributed.FleetCollector` attached, every
  heartbeat tick also drains replica spans for fleet-wide merging.

Every liveness decision and dispatch runs through the PR 5 fault seams
(``fleet.spawn`` / ``fleet.heartbeat`` / ``fleet.dispatch``), so a seeded
:class:`~repro.faults.FaultInjector` can kill replicas mid-decode, lose
heartbeats or fail spawns — deterministically, replayably.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from itertools import chain

from repro.errors import (
    DeadlineExceededError,
    FleetError,
    InjectedFault,
    ServiceOverloadedError,
    ServingError,
    SessionNotFoundError,
    WorkerUnavailableError,
)
from repro.faults import clock
from repro.faults.inject import fire
from repro.fleet.affinity import HashRing, prefix_bucket
from repro.obs import Observability
from repro.obs.distributed import (
    FleetCollector,
    TraceContext,
    TraceIdAllocator,
    adopt,
    router_span_ref,
)
from repro.obs.export import prometheus_exposition
from repro.serving.service import SHED_RETRY_AFTER_S, require_prompts, require_text

ROUTING_POLICIES = ("affinity", "round_robin")

#: Every count the router keeps: its ``stats()`` key -> the registry series
#: that is its only store (DESIGN.md "Counting").
COUNTS = {
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


def _root_attrs(trace_context: TraceContext | None) -> dict:
    """Attrs of the router's root span: the reference workers parent under."""
    if trace_context is None:
        return {}
    trace_id = trace_context.trace_id
    return {"trace_id": trace_id, "span_ref": router_span_ref(trace_id)}


class FleetRouter:
    """Spread requests over replicas; keep serving through replica death."""

    def __init__(
        self,
        workers=None,
        *,
        policy: str = "affinity",
        heartbeat_timeout_s: float = 5.0,
        spawner=None,
        obs: Observability | None = None,
        collector: FleetCollector | None = None,
    ):
        if policy not in ROUTING_POLICIES:
            raise FleetError(f"unknown policy {policy!r} (known: {ROUTING_POLICIES})")
        self.policy = policy
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.spawner = spawner
        self._workers: dict[str, object] = {}
        self._dead: dict[str, str] = {}  # worker id -> reason
        self._ring = HashRing()
        self._last_heartbeat: dict[str, float] = {}
        self._rr_index = 0
        self._inflight_count = 0
        #: Session affinity: fleet session id -> (worker id, replica-local
        #: id) of the replica holding its K/V.  Ids are opaque: looked
        #: up here, never parsed.
        self._session_owner: dict[str, tuple[str, str]] = {}
        self._lock = threading.RLock()
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()
        # -- observability --
        self.obs = obs if obs is not None else Observability()
        #: Telemetry aggregation (None = off): polled every heartbeat tick.
        self.collector = collector
        self._trace_ids = TraceIdAllocator()
        metrics = self.obs.metrics
        # Counts ``stats()`` reports together are bumped, and all are read,
        # under ``self._lock``.
        self._counts = {key: metrics.counter(series) for key, series in COUNTS.items()}
        self._g_live = metrics.gauge("fleet.live_workers")
        self._g_inflight = metrics.gauge("fleet.inflight")
        self._h_dispatch = metrics.histogram("fleet.dispatch_s")
        for worker in workers or ():
            self.add_worker(worker)

    # -- membership ----------------------------------------------------------

    @property
    def live_worker_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    @property
    def dead_worker_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._dead)

    def add_worker(self, worker) -> None:
        """Join a replica: ring membership, heartbeat baseline, rebalance."""
        with self._lock:
            worker_id = worker.worker_id
            if worker_id in self._workers:
                raise FleetError(f"worker {worker_id!r} already joined")
            self._workers[worker_id] = worker
            self._ring.add(worker_id)
            self._last_heartbeat[worker_id] = clock.now()
            self._dead.pop(worker_id, None)
            self._counts["rebalances"].inc()
            self._g_live.set(len(self._workers))

    def _mark_dead_locked(self, worker_id: str, reason: str) -> None:
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return  # a concurrent dispatch already reaped it
        self._ring.remove(worker_id)
        self._last_heartbeat.pop(worker_id, None)
        self._dead[worker_id] = reason
        self._counts["rebalances"].inc()
        self._counts["workers_lost"].inc()
        self._g_live.set(len(self._workers))
        # Sessions pinned to this replica died with its arena: forget the
        # affinity mappings so later extends get a crisp 404 (and the
        # plugin's create-on-miss fallback a fresh replica), not a hang.
        orphaned = [sid for sid, owner in self._session_owner.items() if owner[0] == worker_id]
        for sid in orphaned:
            del self._session_owner[sid]
        self._counts["sessions_lost"].inc(len(orphaned))
        # Drain: abort whatever the replica still holds.  For an in-process
        # replica this cancels live engine rows (freeing KV slabs); for a
        # process replica it terminates the child.  Requests currently
        # blocked on the replica surface WorkerUnavailableError in their
        # dispatching threads and re-enqueue through the failover path.
        try:
            worker.kill()
        except Exception:
            pass  # the replica is being declared dead; failures to drain are moot

    def _on_worker_failure(self, worker_id: str, reason: str) -> None:
        with self._lock:
            self._mark_dead_locked(worker_id, reason)
            self._counts["failovers"].inc()

    def _respawn_locked(self, dead_id: str) -> None:
        if self.spawner is None:
            return
        try:
            replacement = self.spawner(dead_id)
        except (InjectedFault, FleetError, ServingError):
            self._counts["spawn_failures"].inc()
            return
        if replacement is not None:
            self.add_worker(replacement)
            self._counts["respawns"].inc()

    # -- shedding ------------------------------------------------------------

    def _shed(self, reason: str, retry_after_s: float | None = None) -> ServiceOverloadedError:
        self._counts["shed_requests"].inc()
        retry_after = retry_after_s if retry_after_s is not None else SHED_RETRY_AFTER_S
        return ServiceOverloadedError(
            f"fleet overloaded ({reason}); retry after {retry_after}s",
            retry_after_s=retry_after,
        )

    # -- routing -------------------------------------------------------------

    def _candidates(self, prompt: str) -> list[str]:
        """Live replicas in dispatch-preference order for ``prompt``."""
        with self._lock:
            if self.policy == "affinity":
                return self._ring.preference(prefix_bucket(prompt))
            ordered = sorted(self._workers)
            if not ordered:
                return []
            start = self._rr_index % len(ordered)
            self._rr_index += 1
            return ordered[start:] + ordered[:start]

    def _trace_for(self, inbound: TraceContext | None) -> TraceContext | None:
        """The downstream context for one request: adopt, mint, or None.

        An ``inbound`` context (a client that already traces, or the REST
        front door forwarding the propagation headers) keeps its trace id
        end to end; without one the router mints its own when tracing is
        enabled.  Either way ``parent_span`` names the router's root span
        (:func:`~repro.obs.distributed.router_span_ref`), so a worker
        adopting it parents its span tree under the router's.
        """
        if inbound is not None:
            trace_id = inbound.trace_id
        elif self.obs.tracer.enabled:
            with self._lock:
                trace_id = self._trace_ids.allocate()
        else:
            return None
        return TraceContext(trace_id=trace_id, parent_span=router_span_ref(trace_id))

    def _worker_kwargs(self, deadline_at: float | None, trace_context: TraceContext | None) -> dict:
        """The keywords of one worker call: what is left of the deadline,
        and the trace context (None when the request is untraced)."""
        deadline_s = None
        if deadline_at is not None:
            deadline_s = deadline_at - clock.now()
            if deadline_s <= 0:
                raise DeadlineExceededError("deadline exhausted before a replica answered")
        return {"deadline_s": deadline_s, "trace_context": trace_context}

    @contextmanager
    def _admitted(self, deadline_s: float | None, inbound: TraceContext | None):
        """What every entry point does around its dispatch: count it in
        flight (until exit), fix the absolute deadline, adopt or mint the
        trace context.  Yields ``(kwargs, trace_context)``; ``kwargs()`` is
        evaluated per attempt, because the deadline keeps running across
        failovers."""
        with self._lock:
            self._inflight_count += 1
            self._g_inflight.inc()
        try:
            deadline_at = clock.now() + deadline_s if deadline_s is not None else None
            trace_context = self._trace_for(inbound)
            yield partial(self._worker_kwargs, deadline_at, trace_context), trace_context
        finally:
            with self._lock:
                self._inflight_count -= 1
                self._g_inflight.dec()

    def _attempt(self, worker_id: str, call, **seam):
        """One call to one replica through the ``fleet.dispatch`` seam.

        Returns ``(result, None)``, or ``(None, why)`` when the replica
        did not answer: ``"gone"`` (a concurrent removal got there first)
        or ``"died"`` (it failed under the call and is declared dead here:
        drained, ring rebalanced, failover counted).  A replica's 503
        propagates — spilling or surfacing it is caller policy.  Every
        answer's wait lands in ``fleet.dispatch_s`` (a stream's: until
        its first event).
        """
        with self._lock:
            worker = self._workers.get(worker_id)
        if worker is None:
            return None, "gone"
        try:
            fire("fleet.dispatch", worker=worker_id, **seam)
            started = clock.now()
            result = call(worker)
        except (WorkerUnavailableError, InjectedFault):
            self._on_worker_failure(worker_id, "dispatch_failed")
            return None, "died"
        answered = clock.now()
        self._h_dispatch.observe(answered - started)
        with self._lock:
            self._last_heartbeat[worker_id] = answered
        return result, None

    def _route(self, key: str, attempt, **seam) -> tuple[str, object, int]:
        """The one failover / spill loop: ``(worker_id, result, failovers)``.

        Walks the live replicas in ``key``'s preference order calling
        ``attempt(worker)``.  A dead replica triggers failover (membership
        change, then a fresh sweep over the survivors — the request is
        re-enqueued, not dropped); an overloaded one triggers spill (next
        preference, no membership change).  Raises the fleet-level 503
        only once no replica is left to try.
        """
        failovers = 0
        overloaded: set[str] = set()
        last_overload: ServiceOverloadedError | None = None
        while True:
            for worker_id in self._candidates(key):
                if worker_id in overloaded:
                    continue
                try:
                    result, missing = self._attempt(worker_id, attempt, **seam)
                except ServiceOverloadedError as error:
                    last_overload = error
                    overloaded.add(worker_id)
                    self._counts["spills"].inc()
                    continue
                if missing is None:
                    return worker_id, result, failovers
                if missing == "died":
                    failovers += 1
                    break  # membership changed: sweep the survivors afresh
            else:
                if not self.live_worker_ids:
                    raise self._shed("no live replicas")
                raise self._shed(
                    "every live replica is saturated",
                    retry_after_s=last_overload.retry_after_s if last_overload else None,
                )

    @staticmethod
    def _annotate(payload: dict, trace_context, worker_id=None, failovers: int = 0) -> dict:
        """Stamp a response (or a terminal stream event) with who served it."""
        if worker_id is not None:
            payload["worker"] = worker_id
        if failovers:
            payload["failovers"] = failovers
        if trace_context is not None:
            payload["trace_id"] = trace_context.trace_id
        return payload

    # -- the request surface -------------------------------------------------

    def predict(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """One completion through the fleet (the ``/v1/completions`` body).

        With tracing enabled the router mints a fleet trace context for
        the request — or adopts an inbound one (``trace_context``, e.g.
        forwarded propagation headers when a :class:`RestServer` fronts
        the fleet; see :meth:`_trace_for`) — carries it to the worker,
        and echoes the trace id back as ``"trace_id"``.
        """
        require_text("prompt", prompt)
        tracer = self.obs.tracer
        with self._admitted(deadline_s, trace_context) as (kwargs, downstream):
            with adopt(tracer, trace_context), tracer.span(
                "fleet.predict", **_root_attrs(downstream)
            ) as span:
                worker_id, payload, failovers = self._route(
                    prompt, lambda worker: worker.predict(prompt, max_new_tokens, **kwargs())
                )
                span.set(worker=worker_id, failovers=failovers)
        self._counts["requests"].inc()
        return self._annotate(payload, downstream, worker_id, failovers)

    def predict_stream(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ):
        """Streamed completion through the fleet: ``(event, data)`` tuples.

        Routing follows :meth:`predict` — affinity preference, failover on
        a dead replica, spill on an overloaded one — but *only until the
        first event arrives*.  Once a byte has flowed to the caller a
        replay could duplicate delivered tokens, so mid-stream replica
        death surfaces as an in-band ``error`` event (status 503) and the
        replica is declared dead for subsequent requests; it is never
        silently re-dispatched.
        """
        require_text("prompt", prompt)
        return self._stream(prompt, max_new_tokens, deadline_s, trace_context)

    def _stream(self, prompt, max_new_tokens, deadline_s, inbound):
        with self._admitted(deadline_s, inbound) as (kwargs, trace_context):

            def attempt(worker):
                inner = worker.predict_stream(prompt, max_new_tokens, **kwargs())
                return inner, next(inner, None)

            worker_id, (inner, first), failovers = self._route(prompt, attempt, stream=True)
            with self._lock:
                self._counts["stream_requests"].inc()
                self._counts["requests"].inc()
            try:
                if first is not None:
                    for event, data in chain([first], inner):
                        if event in ("done", "error"):
                            data = self._annotate(dict(data), trace_context, worker_id, failovers)
                        yield event, data
            except (WorkerUnavailableError, InjectedFault):
                # Died mid-stream: bytes already flowed, so no failover —
                # report in-band and declare the replica dead.
                self._on_worker_failure(worker_id, "stream_failed")
                yield (
                    "error",
                    {
                        "error": f"replica {worker_id} died mid-stream",
                        "status": ServiceOverloadedError.status,
                        "worker": worker_id,
                    },
                )
            finally:
                inner.close()

    def predict_batch(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Batched completions, the whole batch on one replica, so it
        decodes in one pass of that replica's continuous batcher.  It
        routes like :meth:`predict`, keyed by its first prompt; failover
        and spill move it whole."""
        require_prompts(prompts)
        tracer = self.obs.tracer
        started = clock.now()
        with self._admitted(deadline_s, trace_context) as (kwargs, downstream):
            with adopt(tracer, trace_context), tracer.span(
                "fleet.predict_batch", batch_size=len(prompts), **_root_attrs(downstream)
            ) as span:
                worker_id, payload, failovers = self._route(
                    prompts[0],
                    lambda worker: worker.predict_batch(prompts, max_new_tokens, **kwargs()),
                    batch=len(prompts),
                )
                span.set(worker=worker_id, failovers=failovers)
        with self._lock:
            self._counts["requests"].inc(len(prompts))
            self._counts["batch_requests"].inc()
        payload["workers"] = [worker_id] * len(prompts)
        payload["latency_ms"] = (clock.now() - started) * 1000.0
        payload["batch_size"] = len(prompts)
        return self._annotate(payload, downstream, failovers=failovers)

    # -- sessions ------------------------------------------------------------

    def session_create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Open a keystroke session on the replica owning the buffer's
        prefix bucket, then pin the session there (session affinity).

        Creation routes like :meth:`predict` — failover and spill apply,
        because no state exists yet.  Every subsequent extend must land on
        the owning replica, so the router keeps the table and hands out
        its own id: replicas number their sessions locally (``s0000`` on
        every one of them), the fleet id is unique across replicas and
        respawns, and callers never parse it or need to know topology.
        """
        require_text("buffer", buffer)
        with self._admitted(deadline_s, trace_context) as (kwargs, downstream):
            worker_id, payload, failovers = self._route(
                buffer,
                lambda worker: worker.session_create(buffer, max_new_tokens, **kwargs()),
                session=True,
            )
            with self._lock:
                minted = self._counts["session_creates"]
                minted.inc()
                self._counts["requests"].inc()
                session_id = f"{worker_id}.s{minted.value:04d}"
                self._session_owner[session_id] = (worker_id, payload["session_id"])
            payload["session_id"] = session_id
            return self._annotate(payload, downstream, worker_id, failovers)

    def _session_dispatch(self, session_id: str, owner: tuple[str, str], call) -> dict:
        """One session call against the owning replica (no failover: the
        session's K/V lives only there).  A dead replica converts to
        :class:`SessionNotFoundError` after dropping its mappings."""
        worker_id, local_id = owner
        payload, missing = self._attempt(
            worker_id, lambda worker: call(worker, local_id), session=True
        )
        if missing is not None:
            raise SessionNotFoundError(session_id)
        payload["session_id"] = session_id
        payload["worker"] = worker_id
        return payload

    def session_extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Extend a session on its owning replica (affinity-pinned).

        An unknown session — never created, already closed, owner dead,
        or evicted replica-side — raises
        :class:`~repro.errors.SessionNotFoundError`; callers (the editor
        plugin, the REST 404 mapping) treat that as "re-create"."""
        require_text("buffer", buffer)
        with self._lock:
            owner = self._session_owner.get(session_id)
        if owner is None:
            raise SessionNotFoundError(session_id)
        with self._admitted(deadline_s, trace_context) as (kwargs, downstream):
            try:
                payload = self._session_dispatch(
                    session_id,
                    owner,
                    lambda worker, local_id: worker.session_extend(
                        local_id, buffer, max_new_tokens, **kwargs()
                    ),
                )
            except SessionNotFoundError:
                # Owner dead or replica evicted it: the mapping is stale.
                with self._lock:
                    if self._session_owner.pop(session_id, None) is not None:
                        self._counts["sessions_lost"].inc()
                raise
            with self._lock:
                self._counts["session_extends"].inc()
                self._counts["requests"].inc()
            return self._annotate(payload, downstream)

    def session_close(self, session_id: str) -> dict:
        """Release a session wherever it lives; idempotent."""
        with self._lock:
            owner = self._session_owner.pop(session_id, None)
        if owner is None:
            return {"session_id": session_id, "closed": False}
        try:
            return self._session_dispatch(
                session_id, owner, lambda worker, local_id: worker.session_close(local_id)
            )
        except SessionNotFoundError:
            return {"session_id": session_id, "closed": False, "worker": owner[0]}

    # -- liveness ------------------------------------------------------------

    def heartbeat_tick(self) -> list[str]:
        """Probe every replica; declare dead any past its heartbeat deadline.

        Returns the ids declared dead this tick.  A probe failure (dead
        process, injected ``fleet.heartbeat`` fault) does not refresh the
        replica's ``last_heartbeat``; the declaration happens only once
        the deadline lapses, so one lost probe under a generous timeout
        is survivable — exactly how production heartbeating behaves, and
        exactly testable under a :class:`~repro.faults.FakeClock`.

        With a :class:`~repro.obs.distributed.FleetCollector` attached,
        each successfully probed replica is also telemetry-polled on this
        tick — liveness and collection ride the same faults-clock cadence,
        so seeded chaos runs collect deterministically.
        """
        with self._lock:
            probes = list(self._workers.items())
        for worker_id, worker in probes:
            try:
                fire("fleet.heartbeat", worker=worker_id)
                worker.heartbeat()
            except (WorkerUnavailableError, InjectedFault, ServingError):
                self._counts["heartbeat_misses"].inc()
            else:
                with self._lock:
                    if worker_id in self._workers:
                        self._last_heartbeat[worker_id] = clock.now()
                if self.collector is not None:
                    self.collector.poll(worker_id, worker)
        newly_dead: list[str] = []
        now = clock.now()
        with self._lock:
            for worker_id in list(self._workers):
                if now - self._last_heartbeat[worker_id] >= self.heartbeat_timeout_s:
                    self._mark_dead_locked(worker_id, "heartbeat_timeout")
                    newly_dead.append(worker_id)
            for worker_id in newly_dead:
                self._respawn_locked(worker_id)
        return newly_dead

    def start_heartbeats(self, interval_s: float = 1.0) -> None:
        """Run :meth:`heartbeat_tick` on a background thread (serve mode)."""
        if self._heartbeat_thread is not None:
            raise FleetError("heartbeat loop already running")
        self._heartbeat_stop.clear()

        def loop() -> None:
            while not self._heartbeat_stop.wait(interval_s):
                self.heartbeat_tick()

        self._heartbeat_thread = threading.Thread(target=loop, daemon=True)
        self._heartbeat_thread.start()

    def stop(self) -> None:
        """Stop heartbeats and every worker this router still holds."""
        if self._heartbeat_thread is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.stop()
            except Exception:
                pass

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        with self._lock:
            live = len(self._workers)
            dead = sorted(self._dead)
        return {
            "status": "ok" if live else "unavailable",
            "model": "fleet",
            "policy": self.policy,
            "live_workers": live,
            "dead_workers": dead,
        }

    def stats(self) -> dict:
        """Fleet-wide ``/v1/stats``: router counters, per-replica stats,
        and cross-replica aggregates (prefix-cache hit rate, decode
        tokens, resident KV bytes) a dashboard wants in one number."""
        with self._lock:
            report = {
                "policy": self.policy,
                "live_workers": sorted(self._workers),
                "dead_workers": dict(self._dead),
                "inflight": self._inflight_count,
                "live_sessions": len(self._session_owner),
                **{key: counter.value for key, counter in self._counts.items()},
            }
            workers = list(self._workers.items())
        per_worker: dict[str, dict] = {}
        aggregate = {
            "requests": 0,
            "decode_tokens": 0,
            "prefill_tokens": 0,
            "kv_arena_bytes_in_use": 0,
            "prefix_cache": {"hits": 0, "misses": 0, "tokens_reused": 0},
        }
        for worker_id, worker in workers:
            try:
                worker_stats = worker.stats()
            except (WorkerUnavailableError, ServingError):
                per_worker[worker_id] = {"status": "unreachable"}
                continue
            per_worker[worker_id] = worker_stats
            # `or 0` throughout: a replica may legitimately report None
            # for a counter it has no data for (fresh fleet, engine not
            # yet attached, all requests shed) — aggregate as zero rather
            # than poisoning the sums and the derived rates below.
            aggregate["requests"] += worker_stats.get("requests") or 0
            engine = worker_stats.get("engine") or {}
            aggregate["decode_tokens"] += engine.get("decode_tokens") or 0
            aggregate["prefill_tokens"] += engine.get("prefill_tokens") or 0
            aggregate["kv_arena_bytes_in_use"] += (engine.get("kv_arena") or {}).get(
                "bytes_in_use"
            ) or 0
            prefix = engine.get("prefix_cache") or {}
            for key in ("hits", "misses", "tokens_reused"):
                aggregate["prefix_cache"][key] += prefix.get(key) or 0
        scanned = aggregate["prefix_cache"]["hits"] + aggregate["prefix_cache"]["misses"]
        aggregate["prefix_cache"]["hit_rate"] = (
            aggregate["prefix_cache"]["hits"] / scanned if scanned else 0.0
        )
        # Token-weighted hit rate (the byte-hit-ratio of caching literature):
        # the fraction of prompt tokens served from cached K/V instead of
        # prefilled.  More honest than per-lookup hit_rate, which counts a
        # 3-token partial match the same as a 100-token playbook head.
        prompt_tokens = aggregate["prefill_tokens"] + aggregate["prefix_cache"]["tokens_reused"]
        aggregate["prefix_cache"]["token_reuse_rate"] = (
            aggregate["prefix_cache"]["tokens_reused"] / prompt_tokens if prompt_tokens else 0.0
        )
        report["aggregate"] = aggregate
        report["workers"] = per_worker
        return report

    def metrics(self) -> dict:
        """The fleet ``/v1/metrics`` payload: router registry + fleet stats."""
        return {
            "metrics": self.obs.metrics.snapshot(),
            "tracing": self.obs.tracer.status(),
            "fleet": self.stats(),
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the router's own registry."""
        return prometheus_exposition(self.obs.metrics)

    def collect_telemetry(self) -> dict | None:
        """Force one collector poll of every live replica, outside the
        heartbeat cadence (e.g. a final drain before rendering a merged
        trace).  Returns the collector's stats, or None without one."""
        if self.collector is None:
            return None
        with self._lock:
            workers = list(self._workers.items())
        for worker_id, worker in workers:
            self.collector.poll(worker_id, worker)
        return self.collector.stats()

    def telemetry(self) -> dict:
        """The router's own ``/v1/telemetry`` drain (mirrors the service's).

        Contains the *router's* spans; per-replica spans live in the
        attached collector (``collector`` key when one is present).
        """
        payload = {"spans": [span.to_dict() for span in self.obs.tracer.drain()]}
        if self.collector is not None:
            payload["collector"] = self.collector.stats()
        return payload

"""Keystroke sessions: incremental prompt extension over a live KV slab.

The editor-plugin serving pattern the KV arena was designed for: the user
types, the plugin re-sends the *full* buffer, and almost all of it is the
previous request's prompt plus the completion the user just accepted.  A
:class:`SessionManager` keeps that state warm — each session owns
exclusive per-layer :class:`~repro.nn.kv_arena.KVCache` handles holding
the K/V of every token fed so far, and an *extend* call

1. tokenizes the new buffer and plans it through the same
   budget-aware :func:`~repro.nn.sampling.plan_prompt` as every other
   engine path,
2. finds the longest common token prefix with the session's cached
   context and rolls the caches back to it (``KVCache.truncate`` — a
   zero-copy rollback: the session is its handles' one holder),
3. hands the planned prompt and the caches to
   :meth:`~repro.engine.engine.InferenceEngine.generate_atop`: an
   ordinary engine request whose prefill covers only the *suffix* — the
   few tokens the keystroke actually added — and which decodes as a row
   of the continuous batcher like every other request, and
4. gets the same handles back holding the prompt plus every generated
   token that was fed.

This module never drives the model or books an outcome itself.  Because
causal attention makes incremental prefill bit-identical to prefilling
from scratch (the property the prefix cache already relies on), an
extend's completion is byte-identical to a cold re-prefill of the full
buffer; the conformance suite asserts this across seeds and draft depths.
What changes is only the work: TTFT drops from O(buffer) to O(keystroke).

Lifecycle: sessions are LRU-evicted beyond ``max_sessions``.  Every exit
path — close, evict, crash (:meth:`close_all`), or a mid-extend fault —
releases the session's caches back to the arena and is counted once
(``closed`` / ``evicted`` / ``lost``): the chaos suite's zero-leak and
no-orphaned-session invariants hold by construction, and ``created -
closed - evicted - lost == live_sessions`` is a law
:func:`repro.obs.audit` checks.

Locking: public entry points take the manager lock; the engine takes its
own request lock inside ``generate_atop`` — always in that order, so
sessions never race a batch decode for slabs.  ``close``, ``close_all``
and ``create``'s LRU eviction take both: releasing a slab writes the arena.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ServiceOverloadedError, ServingError, SessionNotFoundError
from repro.nn.kv_arena import KVCache
from repro.nn.sampling import plan_prompt


#: Every count a manager keeps: each is the ``session.<name>`` registry
#: series — its only store (DESIGN.md "Counting") — and the ``stats()`` key
#: of the same name.  ``lost`` is a session dropped by a mid-prefill fault.
#: Session requests are ordinary engine requests, so ``engine.prefill_tokens``
#: / ``engine.decode_tokens`` include this traffic; the ``*_tokens`` series
#: here are the session-scoped split (``decode_tokens`` counts every
#: generated token, the prefill's first one included).
COUNTS = (
    "created", "extends", "closed", "evicted", "lost",
    "prefill_tokens", "reused_tokens", "decode_tokens",
)  # fmt: skip


def _common_prefix(left: list[int], right: list[int]) -> int:
    bound = min(len(left), len(right))
    index = 0
    while index < bound and left[index] == right[index]:
        index += 1
    return index


@dataclass
class _Session:
    """One live editor session and the token context its caches hold."""

    session_id: str
    caches: list[KVCache]
    cached_ids: list[int] = field(default_factory=list)  # tokens with K/V resident
    extends: int = 0

    def release(self) -> None:
        for cache in self.caches:
            cache.release()
        self.cached_ids.clear()


class SessionManager:
    """LRU-bounded table of keystroke sessions over one engine."""

    def __init__(self, engine, *, max_sessions: int = 64):
        if engine.tokenizer is None:
            raise ServingError("sessions need a tokenizer-equipped engine")
        if max_sessions < 1:
            raise ServingError(f"max_sessions must be >= 1, got {max_sessions}")
        self.engine = engine
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self._lock = threading.RLock()
        self._next_id = 0
        metrics = engine.obs.metrics
        # Bumped and read under ``self._lock``.
        self._counts = {name: metrics.counter(f"session.{name}") for name in COUNTS}
        self._h_create_ttft = metrics.histogram("session.create_ttft_s")
        self._h_extend_ttft = metrics.histogram("session.extend_ttft_s")

    # -- introspection --------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        """A locked read of the session counters; the rate is derived here."""
        with self._lock:
            counts = {name: counter.value for name, counter in self._counts.items()}
            fed = counts["prefill_tokens"] + counts["reused_tokens"]
            return {
                "live_sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                **counts,
                "token_reuse_rate": counts["reused_tokens"] / fed if fed else 0.0,
            }

    # -- lifecycle ------------------------------------------------------------

    def _drop_locked(self, session: _Session, exit_: str) -> None:
        """Release a session's slabs and forget it; manager lock held.

        Every way out of the table is counted here, as ``exit_`` — but only
        if the session was in the table: a create that faults never reached
        ``created``, and counting its drop would drive the books to -1.
        """
        if self._sessions.pop(session.session_id, None) is not None:
            self._counts[exit_].inc()
        session.release()

    def close(self, session_id: str) -> bool:
        """Release one session; True if it existed."""
        with self._lock, self.engine._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return False
            self._drop_locked(session, "closed")
            return True

    def close_all(self) -> int:
        """Release every session — the replica-crash / shutdown path.

        A dead replica must not leave orphaned sessions pinning arena
        blocks: this is what :class:`repro.fleet.worker.InProcessWorker`
        calls from its crash handler, right after ``engine.abort_all()``
        (which hands a mid-decode row's slabs back to its session first).
        """
        with self._lock, self.engine._lock:
            dropped = list(self._sessions.values())
            for session in dropped:
                self._drop_locked(session, "closed")
            return len(dropped)

    # -- generation core ------------------------------------------------------

    def _generate(self, session: _Session, buffer: str, max_new_tokens, deadline_s) -> dict:
        """One engine request atop the session's warm caches; manager lock held.

        Same planned prompt as a cold request and the engine's one decode
        loop — which is what makes a warm extend byte-identical to a cold
        re-prefill.
        """
        engine = self.engine
        ids = engine.tokenizer.encode(buffer)
        if not ids:
            raise ServingError(f"buffer encodes to no tokens: {buffer!r}")
        budget = max_new_tokens or engine.default_max_new_tokens
        planned, _ = plan_prompt(engine.network.config.n_positions, ids, budget)
        held = session.caches[0].length
        # At least the last prompt token is always prefilled: its logits
        # pick the first generated token.
        common = min(_common_prefix(session.cached_ids, planned), held, len(planned) - 1)
        if common < held:
            for cache in session.caches:
                cache.truncate(common)
        del session.cached_ids[common:]
        request = engine.generate_atop(planned, session.caches, budget, deadline_s)
        if request.outcome == "shed":
            # A fault mid-prefill (slab allocation, injected) can leave
            # per-layer caches at mixed lengths, so the engine released
            # them all: the session is unrecoverable.  Forget it — the
            # failure sheds this one request without leaking a byte.
            self._drop_locked(session, "lost")
            raise ServiceOverloadedError(f"session {session.session_id} shed during prefill")
        # The last emitted token has no K/V yet; a stop token was never appended.
        session.cached_ids = (planned + request.generated)[: session.caches[0].length]
        prefilled = len(planned) - common
        self._counts["prefill_tokens"].inc(prefilled)
        self._counts["reused_tokens"].inc(common)
        self._counts["decode_tokens"].inc(len(request.generated))
        return {
            "session_id": session.session_id,
            "completion": engine.tokenizer.decode(request.generated),
            "stop_reason": request.stop_reason,
            "outcome": request.outcome,
            "ttft_s": request.ttft_s,
            "prefilled": prefilled,
            "reused_tokens": common,
            "generated_tokens": len(request.generated),
            "extends": session.extends,
        }

    # -- public API -----------------------------------------------------------

    def create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """Open a session from a full buffer; returns the first completion.

        The payload carries ``session_id`` for subsequent :meth:`extend`
        calls, plus the same disposition fields the completion endpoint
        reports (``outcome``, ``stop_reason``, ``ttft_s``).
        """
        with self._lock:
            session = _Session(
                session_id=f"s{self._next_id:04d}",
                caches=self.engine.network.new_cache(self.engine.kv_arena),
            )
            self._next_id += 1
            try:
                payload = self._generate(session, buffer, max_new_tokens, deadline_s)
            except BaseException:
                # Not in the table yet, so no close / close_all will ever
                # find it: a crash at the decode seam handed the reaped
                # slabs back to these handles, and only this frame has them.
                with self.engine._lock:
                    session.release()
                raise
            self._sessions[session.session_id] = session
            self._counts["created"].inc()
            if payload["ttft_s"] is not None:
                self._h_create_ttft.observe(payload["ttft_s"])
            with self.engine._lock:  # LRU bound; releasing a slab writes the arena
                while len(self._sessions) > self.max_sessions:
                    self._drop_locked(next(iter(self._sessions.values())), "evicted")
            return payload

    def extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """Continue a session with the client's *full* new buffer.

        Only the tokens past the common prefix with the session's cached
        context are prefilled; the payload's ``reused_tokens`` /
        ``prefilled`` split is the no-re-prefill regression surface.
        Raises :class:`SessionNotFoundError` for unknown / evicted / lost
        ids — callers recover by creating a fresh session.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionNotFoundError(session_id)
            session.extends += 1
            self._sessions.move_to_end(session_id)
            payload = self._generate(session, buffer, max_new_tokens, deadline_s)
            self._counts["extends"].inc()
            if payload["ttft_s"] is not None:
                self._h_extend_ttft.observe(payload["ttft_s"])
            return payload

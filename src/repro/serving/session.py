"""Keystroke sessions: an id plus a pinned path in the engine's prefix store.

The editor-plugin serving pattern the prefix store was designed for: the
user types, the plugin re-sends the *full* buffer, and almost all of it is
the previous request's prompt plus the completion the user just accepted.
A :class:`SessionManager` holds no K/V of its own.  Each create or extend

1. tokenizes the buffer and hands it to
   :meth:`~repro.engine.engine.InferenceEngine.generate_pinned`: an
   ordinary engine request — planned, admitted and decoded like every
   other — whose admission gathers the longest path the prefix store
   holds of it and prefills only the rest, the few tokens the keystroke
   actually added;
2. gets back, on a normal finish, the store node its fed context (the
   prompt plus every generated token with K/V) is pinned on, and unpins
   the path the session held before.

This module never drives the model or books an outcome itself.  Because
causal attention makes prefill atop stored K/V the same computation as
prefilling from scratch, an extend's completion is what a cold re-prefill
of the full buffer yields (up to float32 ties); the conformance suite
asserts this across seeds and draft depths.  What changes is only the
work: TTFT drops from O(buffer) to O(keystroke).

Lifecycle: sessions are LRU-evicted beyond ``max_sessions``.  Every exit
path — close, evict, crash (:meth:`close_all`) — unpins the session's path
and is counted once (``closed`` / ``evicted``), so ``created - closed -
evicted == live_sessions`` is a law :func:`repro.obs.audit` checks.  A
request shed at prefill pinned nothing and touched nothing the session
holds: the call fails with a 503 and the session stays open.

Locking: public entry points take the manager lock; the engine takes its
own lock inside ``generate_pinned`` and ``unpin_path`` — always in that order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ServiceOverloadedError, ServingError, SessionNotFoundError


#: Every count a manager keeps: each is the ``session.<name>`` registry
#: series — its only store (DESIGN.md "Counting") — and the ``stats()`` key
#: of the same name.  Session requests are ordinary engine requests, so
#: ``engine.prefill_tokens`` / ``engine.decode_tokens`` include this
#: traffic; the ``*_tokens`` series here are the session-scoped split
#: (``decode_tokens`` counts every generated token, the prefill's first one
#: included).
COUNTS = (
    "created", "extends", "closed", "evicted",
    "prefill_tokens", "reused_tokens", "decode_tokens",
)  # fmt: skip


@dataclass
class _Session:
    """One live editor session: its id and the store node its path is pinned on."""

    session_id: str
    path: object | None = None  # None until a request of it completes
    extends: int = 0


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
        """Forget a session and unpin its path, counted as ``exit_``; manager lock held."""
        del self._sessions[session.session_id]
        self._counts[exit_].inc()
        self.engine.unpin_path(session.path)

    def close(self, session_id: str) -> bool:
        """Close one session; True if it existed."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return False
            self._drop_locked(session, "closed")
            return True

    def close_all(self) -> int:
        """Close every session — the replica-crash / shutdown path.

        A dead replica must not leave orphaned sessions pinning arena
        blocks: :class:`repro.fleet.worker.InProcessWorker` calls this from
        its crash handler.
        """
        with self._lock:
            dropped = list(self._sessions.values())
            for session in dropped:
                self._drop_locked(session, "closed")
            return len(dropped)

    # -- generation core ------------------------------------------------------

    def _generate(self, session: _Session, buffer: str, max_new_tokens, deadline_s) -> dict:
        """One pinned engine request for the session's buffer; manager lock held.

        Same planned prompt as a cold request and the engine's one decode
        loop — which is what makes an extend match a cold re-prefill.
        """
        engine = self.engine
        ids = engine.tokenizer.encode(buffer)
        if not ids:
            raise ServingError(f"buffer encodes to no tokens: {buffer!r}")
        budget = max_new_tokens or engine.default_max_new_tokens
        request = engine.generate_pinned(ids, budget, deadline_s)
        if request.outcome == "shed":
            # A fault at admission (slab allocation, injected) sheds this
            # one request; it touched nothing the session holds.
            raise ServiceOverloadedError(f"session {session.session_id} shed during prefill")
        if request.path is not None:
            engine.unpin_path(session.path)
            session.path = request.path
        reused = request.prefix_reused
        prefilled = request.prompt_length - reused
        self._counts["prefill_tokens"].inc(prefilled)
        self._counts["reused_tokens"].inc(reused)
        self._counts["decode_tokens"].inc(len(request.generated))
        return {
            "session_id": session.session_id,
            "completion": engine.tokenizer.decode(request.generated),
            "stop_reason": request.stop_reason,
            "outcome": request.outcome,
            "ttft_s": request.ttft_s,
            "prefilled": prefilled,
            "reused_tokens": reused,
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
            session = _Session(session_id=f"s{self._next_id:04d}")
            self._next_id += 1
            payload = self._generate(session, buffer, max_new_tokens, deadline_s)
            self._sessions[session.session_id] = session
            self._counts["created"].inc()
            if payload["ttft_s"] is not None:
                self._h_create_ttft.observe(payload["ttft_s"])
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

        Only the tokens past the longest path the prefix store holds of
        the buffer are prefilled; the payload's ``reused_tokens`` /
        ``prefilled`` split is the no-re-prefill regression surface.
        Raises :class:`SessionNotFoundError` for unknown / evicted ids —
        callers recover by creating a fresh session.
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

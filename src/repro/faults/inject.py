"""Deterministic, seed-driven fault injection with named seams.

The production code is instrumented with *seams*: named call sites that
consult the currently installed :class:`FaultInjector` (a module global,
``None`` in normal operation — the check is one attribute load).  A seam
fires :func:`fire` with its name; the injector counts the call and, if a
registered :class:`FaultSpec` matches that call, injects the fault —
raising a typed error, sleeping on the shared clock, or both.

Seams instrumented across the stack:

=====================  ====================================================
``kv_arena.acquire``   slab allocation in :class:`~repro.nn.kv_arena.KVArena`
                       (fires at admission when a request opens an empty
                       decoding batch, one slot slab per layer; a request
                       joining an open batch allocates nothing, and the
                       prefix store's retirement inserts run under
                       :func:`shield` — see below)
``engine.decode_step`` one batched decode step in
                       :class:`~repro.engine.batcher.ContinuousBatcher`
                       (raise = failed step, retried; delay = slow step;
                       fires before draft proposal too, and because draft
                       models are pure the retried step recomputes the
                       identical drafts — speculative chaos runs replay
                       byte-identically without shielding the drafter)
``tokenizer.encode``   :meth:`~repro.tokenizer.bpe.BpeTokenizer.encode`
``checkpoint.read``    :func:`~repro.model.checkpoints.load_checkpoint`
``fleet.spawn``        replica spawn in :class:`~repro.fleet.router.FleetRouter`
                       (raise = the replacement process never came up)
``fleet.heartbeat``    one heartbeat probe from the router to a replica
                       (raise = probe lost; enough in a row marks it dead)
``fleet.dispatch``     one request dispatch from router to replica (raise =
                       the connection died mid-request; the router fails
                       the request over to the next replica on the ring)
=====================  ====================================================

Two properties make schedules *replayable*:

* **Determinism** — a spec either lists explicit per-seam call indices
  (``at_calls``) or draws per call from its own :class:`SeededRng` stream,
  derived from the injector seed and the spec's registration order.  The
  same seed against the same code path produces the same schedule.
* **An event log** — every injected fault appends one event (seam, call
  index, action); :func:`render_jsonl` over :meth:`FaultInjector.events`
  renders them as canonical sorted-key JSONL, which is what ``repro
  chaos`` compares across replays.

:func:`shield` suspends injection for a block.  The engine shields the
allocations of shared state (the prefix store's segments a completed
request leaves on retirement): a fault between layers would leave them
disagreeing — not a failure mode real allocators produce, just
corruption.  Allocation faults instead surface at request admission
(opening an empty decoding batch, whose slabs are released again should
one layer's fail), where exactly one request is chargeable and the
batcher can shed it cleanly.
"""

from __future__ import annotations

import json
import threading

from repro.errors import InjectedFault
from repro.faults import clock
from repro.utils.rng import SeededRng

#: The seams the shipped code is instrumented with (others may be added ad hoc).
KNOWN_SEAMS = (
    "kv_arena.acquire",
    "engine.decode_step",
    "tokenizer.encode",
    "checkpoint.read",
    "fleet.spawn",
    "fleet.heartbeat",
    "fleet.dispatch",
)


def render_jsonl(events) -> str:
    """Canonical JSONL: one sorted-key object per line.  The byte-level
    format of every replay log — the injector's and both chaos harnesses'."""
    return "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)


class FaultSpec:
    """One registered fault: where it fires, when, and what it does.

    ``at_calls`` (explicit 1-based call indices) and ``probability`` (an
    independent per-call draw from the spec's seeded stream) are the two
    scheduling modes; ``max_fires`` caps total firings so any schedule is
    finite — which is what guarantees chaos runs terminate.
    """

    __slots__ = ("seam", "probability", "at_calls", "error", "delay_s", "max_fires", "fires", "rng")

    def __init__(
        self,
        seam: str,
        probability: float = 0.0,
        at_calls: frozenset[int] | None = None,
        error: type[Exception] | None = InjectedFault,
        delay_s: float = 0.0,
        max_fires: int | None = None,
        rng: SeededRng | None = None,
    ):
        if at_calls is None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.seam = seam
        self.probability = probability
        self.at_calls = at_calls
        self.error = error
        self.delay_s = delay_s
        self.max_fires = max_fires
        self.fires = 0
        self.rng = rng if rng is not None else SeededRng(0)

    def matches(self, call: int) -> bool:
        """Deterministically decide whether this spec fires at ``call``.

        The probability draw happens on every call (even once exhausted)
        so the spec's random stream advances identically on replay.
        """
        if self.at_calls is not None:
            hit = call in self.at_calls
        else:
            hit = self.rng.random() < self.probability
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        return hit


class FaultInjector:
    """A seeded schedule of faults, installable as a context manager.

    >>> injector = FaultInjector(seed=7)
    >>> _ = injector.on("engine.decode_step", at_calls=[2], delay_s=0.5, error=None)
    >>> with injector:
    ...     pass  # engine work here sees the schedule
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._seed_rng = SeededRng(seed)
        self._specs: dict[str, list[FaultSpec]] = {}
        self._spec_count = 0
        self._calls: dict[str, int] = {}
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._shield = threading.local()
        self._previous: "FaultInjector | None" = None

    # -- schedule construction ----------------------------------------------

    def on(
        self,
        seam: str,
        *,
        probability: float = 0.0,
        at_calls=None,
        error: type[Exception] | None = InjectedFault,
        delay_s: float = 0.0,
        max_fires: int | None = None,
    ) -> "FaultInjector":
        """Register a fault at ``seam``; chainable.

        ``error=None`` makes a pure-delay (slow path) fault; ``delay_s``
        with an error sleeps first, then raises.
        """
        spec = FaultSpec(
            seam,
            probability=probability,
            at_calls=frozenset(at_calls) if at_calls is not None else None,
            error=error,
            delay_s=delay_s,
            max_fires=max_fires,
            rng=self._seed_rng.child("spec", self._spec_count, seam),
        )
        self._spec_count += 1
        self._specs.setdefault(seam, []).append(spec)
        return self

    # -- firing --------------------------------------------------------------

    def _fire(self, seam: str, context: dict) -> None:
        if getattr(self._shield, "depth", 0):
            return
        with self._lock:
            call = self._calls.get(seam, 0) + 1
            self._calls[seam] = call
            matched: FaultSpec | None = None
            for spec in self._specs.get(seam, ()):
                # Every spec's stream advances on every call (replay
                # stability); the first match wins.
                if spec.matches(call) and matched is None:
                    matched = spec
            if matched is None:
                return
            matched.fires += 1
            action = "raise" if matched.error is not None else "delay"
            event = {"seam": seam, "call": call, "action": action, "t": round(clock.now(), 6)}
            if matched.delay_s:
                event["delay_s"] = matched.delay_s
            if matched.error is not None:
                event["error"] = matched.error.__name__
            self._events.append(event)
        if matched.delay_s:
            clock.sleep(matched.delay_s)
        if matched.error is not None:
            if matched.error is InjectedFault or issubclass(matched.error, InjectedFault):
                raise matched.error(f"injected fault at {seam} (call {call})", seam=seam, call=call)
            raise matched.error(f"injected fault at {seam} (call {call})")

    # -- event log -----------------------------------------------------------

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(event) for event in self._events]

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None


_ACTIVE: FaultInjector | None = None


def fire(seam: str, **context) -> None:
    """Seam entry point: a no-op unless an injector is installed."""
    injector = _ACTIVE
    if injector is not None:
        injector._fire(seam, context)


class shield:
    """Suspend injection on this thread for the block (no-op when no injector is active).

    Used around multi-cache allocations whose mid-flight failure would
    corrupt shared state rather than model a real fault: every retirement
    insert into the prefix store.  A
    plain class, not a ``@contextmanager`` generator: retirement is on the
    per-request path.
    """

    __slots__ = ("_local",)

    def __enter__(self) -> None:
        injector = _ACTIVE
        self._local = local = injector._shield if injector is not None else None
        if local is not None:
            local.depth = getattr(local, "depth", 0) + 1

    def __exit__(self, *exc_info: object) -> None:
        if self._local is not None:
            self._local.depth -= 1

"""A swappable monotonic clock shared by the engine and serving layers.

Deadlines, request timings and retry backoff all read time through this
module instead of calling :func:`time.perf_counter` / :func:`time.sleep`
directly.  In production the default :class:`SystemClock` delegates to the
real clock; in tests and in the ``repro chaos`` harness a
:class:`FakeClock` is installed instead, which makes three things possible
that wall-clock time forbids:

* deadline expiry can be tested *exactly* — advance the clock past the
  deadline and assert, no sleeping, no flaky margins;
* injected "slow step" faults take zero real time — a fault's
  ``delay_s`` advances the fake clock rather than blocking the test;
* chaos runs are byte-identical across replays — every timestamp in the
  event log derives from the deterministic fake clock.

Install a clock for a scope with :func:`use`::

    with use(FakeClock()) as fake:
        request = GenerationRequest(...)   # submitted_at == fake.now()
        fake.advance(5.0)                  # the deadline is now in the past
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SystemClock:
    """The real thing: monotonic now, blocking sleep."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock:
    """A manually advanced clock; ``sleep`` advances instead of blocking."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self._now += seconds
        return self._now


_clock: SystemClock | FakeClock = SystemClock()


def now() -> float:
    """Monotonic seconds from the currently installed clock."""
    return _clock.now()


def sleep(seconds: float) -> None:
    """Sleep on the currently installed clock (fake clocks just advance)."""
    _clock.sleep(seconds)


@contextmanager
def use(clock: SystemClock | FakeClock):
    """Install ``clock`` for the duration of the block, then restore."""
    global _clock
    previous = _clock
    _clock = clock
    try:
        yield clock
    finally:
        _clock = previous

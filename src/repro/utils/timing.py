"""Wall-clock timing helper used by throughput benchmarks and the server."""

from __future__ import annotations

import time


class Stopwatch:
    """Accumulating stopwatch.

    >>> watch = Stopwatch()
    >>> with watch:
    ...     pass
    >>> watch.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.laps: list[float] = []
        self._started_at: float | None = None

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        lap = time.perf_counter() - self._started_at
        self._started_at = None
        self.elapsed += lap
        self.laps.append(lap)
        return lap

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Tests for repro.utils.timing."""

from __future__ import annotations

import pytest

from repro.utils.timing import Stopwatch


def mean_lap(watch: Stopwatch) -> float:
    """Mean duration of the recorded laps (0.0 with none)."""
    return sum(watch.laps) / len(watch.laps) if watch.laps else 0.0


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch:
            pass
        with watch:
            pass
        assert len(watch.laps) == 2
        assert watch.elapsed == pytest.approx(sum(watch.laps))

    def test_double_start_rejected(self):
        watch = Stopwatch().start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_mean_lap_empty(self):
        assert mean_lap(Stopwatch()) == 0.0

    def test_mean_lap(self):
        watch = Stopwatch()
        with watch:
            pass
        assert mean_lap(watch) == pytest.approx(watch.laps[0])

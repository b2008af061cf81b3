"""Deterministic fault injection and the swappable clock behind it.

The robustness layer's test harness: :mod:`repro.faults.inject` installs
seed-driven fault schedules against named seams in the engine, KV arena,
tokenizer and checkpoint loader; :mod:`repro.faults.clock` is the
monotonic clock every deadline, timing and backoff reads, swappable for a
:class:`FakeClock` so failure timing is exact and replays are
byte-identical.  Driven by ``tests/test_faults.py`` and the chaos
harnesses :mod:`repro.engine.chaos` / :mod:`repro.fleet.chaos` (beside what
they storm: this package sits below ``nn``); see DESIGN.md §Failure model.
"""

from __future__ import annotations

from repro.faults.clock import FakeClock, SystemClock, now, sleep, use
from repro.faults.inject import (
    KNOWN_SEAMS,
    FaultInjector,
    FaultSpec,
    fire,
    render_jsonl,
    shield,
)

__all__ = [
    "FakeClock",
    "SystemClock",
    "now",
    "sleep",
    "use",
    "KNOWN_SEAMS",
    "FaultInjector",
    "FaultSpec",
    "fire",
    "render_jsonl",
    "shield",
]

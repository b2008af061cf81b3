"""Frozen workload presets: what "a keystroke completion through the fleet" means.

Each :class:`Workload` names one traffic mix and the layers it exists to
stress (its ``why``).  A workload plus a seed expands — as a pure function,
see :func:`schedule` — into one closed-loop call list, a **pass**; the system
under test only ever sees the generated prompts, never the workload's name.
A timed run sends the same pass :data:`PASSES` times over, after once untimed,
so that every op has that many timings to take the least disturbed one from
(see ``bench/loadgen.py``).

Sizes are **op counts**, not durations: both sides of a comparison do
identical work, and the program's own counters repeat exactly.  ``ops`` is
the distinct ops of one pass for a run of :data:`NOMINAL_SECONDS` (the
``run_seconds`` of ``BENCHMARK.json``), calibrated so the timed passes last
about that long together at the commit that introduced the benchmark;
``--seconds`` scales it linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.loadgen import generate_prompts
from repro.utils.rng import SeededRng

#: The run length the ``ops`` sizes below were calibrated for.
NOMINAL_SECONDS = 18
#: Timed passes over the same ops.  The pass before them is the warm-up: it
#: leaves every cache in the state each timed pass finds and leaves it in.
PASSES = 8
BATCH_PROMPTS = 8
EXTENDS_PER_EPISODE = 12
#: Extends that rewrite the last line instead of appending one — the
#: divergent-edit path that rolls the session's KV cache back.
REWRITE_STEPS = (6, 12)
REPEAT_EVERY = 10
REPEAT_WINDOW = 4


@dataclass(frozen=True)
class Call:
    """One client call: ``kind`` names the client method, ``prompts`` its input.

    ``predict`` / ``stream`` / ``create`` / ``extend`` carry one prompt (for
    sessions, the full buffer), ``batch`` carries several, ``close`` none.
    """

    kind: str
    prompts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """One named request mix.  ``ops`` counts scheduling units: requests,
    or whole create-extend-close episodes for the session workload."""

    name: str
    why: str
    kind: str  # "predict" | "batch" | "stream" | "session"
    profile: str  # the repro.fleet.loadgen profile the prompts derive from
    ops: int
    max_new_tokens: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="shared_prefix_predict",
            why=(
                "editor-plugin traffic: 8 long playbook heads with unique tails, so router "
                "affinity and the engine prefix cache carry the latency"
            ),
            kind="predict",
            profile="shared_prefix",
            ops=260,
            max_new_tokens=24,
        ),
        Workload(
            name="uniform_batch",
            why=(
                "offline throughput: batches of 8 distinct short prompts, the only path at "
                "batcher occupancy ~4; prefix reuse cannot help, so it predicts no change"
            ),
            kind="batch",
            profile="uniform",
            ops=68,
            max_new_tokens=24,
        ),
        Workload(
            name="keystroke_session",
            why=(
                "one editor typing: create + 12 extends + close per episode; bypasses batcher "
                "and prefix cache, re-tokenises the buffer per extend, a fifth of it is HTTP"
            ),
            kind="session",
            profile="keystroke",
            ops=40,
            max_new_tokens=8,
        ),
        Workload(
            name="mixed_stream",
            why=(
                "SSE streaming: half shared-prefix, half one-shot prompts, 10% repeats; "
                "per-token flushes, stream stepping and the response cache run nowhere else"
            ),
            kind="stream",
            profile="mixed",
            ops=160,
            max_new_tokens=24,
        ),
    )
}


def _episode(head: str, rng: SeededRng) -> list[Call]:
    """One editing episode: the buffer grows a ``- name:`` line per extend,
    in the text form of loadgen's ``keystroke`` profile."""

    def line() -> str:
        return f"    - name: keystroke {rng.randint(0, 9999)}\n"

    lines = [line()]
    calls = [Call("create", (head + lines[0],))]
    for step in range(1, EXTENDS_PER_EPISODE + 1):
        if step in REWRITE_STEPS:
            lines[-1] = line()
        else:
            lines.append(line())
        calls.append(Call("extend", (head + "".join(lines),)))
    calls.append(Call("close"))
    return calls


def _units(workload: Workload, count: int, seed: int) -> list[list[Call]]:
    """``count`` scheduling units (each a list of calls), in issue order."""
    if workload.kind == "batch":
        prompts = generate_prompts(workload.profile, count * BATCH_PROMPTS, seed)
        return [
            [Call("batch", tuple(prompts[i * BATCH_PROMPTS : (i + 1) * BATCH_PROMPTS]))]
            for i in range(count)
        ]
    if workload.kind == "session":
        # Episode heads are shared_prefix prompts (a playbook head plus one
        # task line): sessions route by prefix bucket like any other request.
        heads = generate_prompts("shared_prefix", count, seed)
        rng = SeededRng(seed).child("bench", workload.name)
        return [_episode(head, rng.child("episode", index)) for index, head in enumerate(heads)]
    prompts = generate_prompts(workload.profile, count, seed)
    return [[Call(workload.kind, (prompt,))] for prompt in prompts]


def _with_repeats(units: list[list[Call]], rng: SeededRng) -> list[list[Call]]:
    """Every :data:`REPEAT_EVERY`-th unit re-sends one of the last
    :data:`REPEAT_WINDOW` prompts — the response-cache hit path."""
    repeated = list(units)
    for index in range(REPEAT_EVERY - 1, len(repeated), REPEAT_EVERY):
        repeated[index] = repeated[index - rng.randint(1, REPEAT_WINDOW)]
    return repeated


def pass_ops(workload: Workload, seconds: float) -> int:
    """Scheduling units in one pass of a run of ``seconds``."""
    return max(1, round(workload.ops * seconds / NOMINAL_SECONDS))


def schedule(workload: Workload, seed: int, seconds: float = NOMINAL_SECONDS) -> list[Call]:
    """One pass's calls, in issue order — a pure function of
    ``(workload, seed, seconds)``."""
    units = _units(workload, pass_ops(workload, seconds), seed)
    if workload.kind == "stream":
        units = _with_repeats(units, SeededRng(seed).child("bench", workload.name, "repeats"))
    return [call for unit in units for call in unit]

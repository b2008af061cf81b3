"""The option surface is pinned: a new knob needs a row, not just a default.

``SURFACE`` lists every settable value of the engine, serving and fleet
entry points, the training loops and the reference decoder.  The signatures must match it, and DESIGN.md's "Options"
table — which says who needs each value to differ — must list exactly the
same names.  Adding (or removing) a parameter fails here until both are
edited; the rule for what may stay an option is stated above that table.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.engine import InferenceEngine
from repro.cli import build_parser
from repro.engine.batcher import ContinuousBatcher
from repro.engine.chaos import run_engine_chaos
from repro.fleet.affinity import HashRing
from repro.fleet.chaos import run_fleet_chaos
from repro.fleet.router import FleetRouter
from repro.fleet.worker import ProcessWorker, WorkerSpec
from repro.model.throughput import measure_throughput
from repro.nn.kv_arena import KVArena
from repro.nn.sampling import generate_greedy
from repro.serving.client import PredictionClient
from repro.serving.service import PredictionService
from repro.training import finetune, pretrain, run_epoch

SURFACE = {
    InferenceEngine: (
        "network tokenizer name max_batch_size prefix_cache_capacity default_max_new_tokens "
        "stop_ids obs speculative_k draft_model"
    ),
    ContinuousBatcher: "model max_batch_size prefix_cache obs arena speculative_k draft_model",
    KVArena: "block_size",
    PredictionClient: "base_url timeout",
    PredictionService: "engine cache_capacity max_new_tokens max_queue_depth fallback",
    FleetRouter: "workers policy heartbeat_timeout_s spawner obs collector",
    HashRing: "workers",
    ProcessWorker: "worker_id spec",
    WorkerSpec: (
        "seed checkpoint n_positions dim n_layers n_heads max_new_tokens "
        "max_queue_depth tracing speculative_k draft_model"
    ),
    run_engine_chaos: (
        "seed requests max_batch alloc_fault_rate decode_fault_rate slow_step_rate "
        "speculative_k stream"
    ),
    run_fleet_chaos: (
        "seed n_workers n_requests kill_decode_call slow_step_rate decode_fault_rate "
        "alloc_fault_rate heartbeat_fault_rate deadline_rate profile tracing slo_specs stream"
    ),
    measure_throughput: "network batch_size prompt_length new_tokens runs warmup_runs seed obs",
    pretrain: "network corpus tokenizer epochs learning_rate seed max_batches_per_epoch",
    finetune: "model train_samples validation_samples epochs seed validation_subset",
    run_epoch: "model optimizer batches schedule step_offset history",
    generate_greedy: "model prompt_ids max_new_tokens stop_ids",
}

#: The serving and fleet front door: what a deployment can set on the way
#: from a client to a replica.
FRONT_DOOR = (PredictionClient, PredictionService, FleetRouter, HashRing, ProcessWorker, WorkerSpec)


def _settable(target) -> list[str]:
    if dataclasses.is_dataclass(target):
        return [field.name for field in dataclasses.fields(target)]
    return list(inspect.signature(target).parameters)


def _design_options() -> dict[str, list[str]]:
    """Callable name -> option names, from the rows of DESIGN.md "Options"."""
    design = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()
    section = design.split("\n## Options\n", 1)[1].split("\n## ", 1)[0]
    listed: dict[str, list[str]] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            listed.setdefault(cells[0].strip("`"), []).extend(re.findall(r"`(\w+)`", cells[1]))
    return listed


@pytest.mark.parametrize("target", SURFACE, ids=lambda target: target.__name__)
def test_signature_matches_the_pinned_surface(target):
    pinned = SURFACE[target].split()
    actual = _settable(target)
    assert actual == pinned, (
        f"{target.__name__}: added {sorted(set(actual) - set(pinned))}, "
        f"removed {sorted(set(pinned) - set(actual))} — a new option needs two callers "
        'outside tests/ and benchmarks/ that set it differently (DESIGN.md "Options")'
    )


def test_the_front_door_has_27_settable_values():
    assert sum(len(SURFACE[target].split()) for target in FRONT_DOOR) == 27


def test_repro_chaos_parses_exactly_what_the_engine_harness_takes():
    parsed = vars(build_parser().parse_args(["chaos"]))
    flags = set(parsed) - {"command", "handler", "out", "verify"}  # the shell's own
    assert flags == set(SURFACE[run_engine_chaos].split())
    defaults = inspect.signature(run_engine_chaos).parameters
    assert {name: parsed[name] for name in flags} == {
        name: defaults[name].default for name in flags
    }


def test_design_options_table_lists_exactly_the_pinned_surface():
    listed = _design_options()
    assert set(listed) == {target.__name__ for target in SURFACE}
    for target, pinned in SURFACE.items():
        names = listed[target.__name__]
        assert len(names) == len(set(names)), f"{target.__name__}: a name is listed twice"
        assert set(names) == set(pinned.split()), (
            f'DESIGN.md "Options" is out of step for {target.__name__}: '
            f"{sorted(set(names) ^ set(pinned.split()))}"
        )

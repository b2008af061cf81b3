"""Fleet tier: multi-replica router with prefix-affinity scheduling.

One process, one engine was PR 1-5; this package is the tier above — a
:class:`~repro.fleet.router.FleetRouter` spreading traffic over N engine
replicas (in-process for deterministic tests, real child processes for
CPU parallelism), routing shared-prefix prompts to the replica whose COW
prefix cache already holds their K/V, with spill-then-shed overload
handling, heartbeat liveness, failover and seeded chaos.  Driven by
``repro fleet`` on the CLI and ``benchmarks/test_fleet.py``; see DESIGN.md
§Fleet architecture.
"""

from __future__ import annotations

from repro.fleet.affinity import DEFAULT_PREFIX_DEPTH, HashRing, prefix_bucket
from repro.fleet.chaos import OUTCOMES, build_chaos_fleet, run_fleet_chaos
from repro.fleet.loadgen import LOAD_PROFILES, LoadProfile, generate_prompts
from repro.fleet.router import ROUTING_POLICIES, FleetRouter
from repro.fleet.worker import InProcessWorker, ProcessWorker, WorkerSpec, build_service

__all__ = [
    "DEFAULT_PREFIX_DEPTH",
    "HashRing",
    "prefix_bucket",
    "OUTCOMES",
    "build_chaos_fleet",
    "run_fleet_chaos",
    "LOAD_PROFILES",
    "LoadProfile",
    "generate_prompts",
    "ROUTING_POLICIES",
    "FleetRouter",
    "InProcessWorker",
    "ProcessWorker",
    "WorkerSpec",
    "build_service",
]

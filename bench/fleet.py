"""The system under test: two in-process replicas behind a router and a REST server.

Identical for every workload.  In-process replicas, not ``ProcessWorker``
children: the box has two cores, three processes would measure the
scheduler, and children cannot be wrapped from outside.
"""

from __future__ import annotations

from repro.fleet.router import FleetRouter
from repro.fleet.worker import InProcessWorker, WorkerSpec, build_service
from repro.serving.client import PredictionClient
from repro.serving.service import RestServer

#: The paper's deployed size (``repro.model.config.SIZE_350M``) with a window
#: wide enough that no workload prompt is left-truncated: truncation drops
#: the shared head and would make every prefix metric meaningless.  All
#: other fields stay at their shipped defaults.
SPEC = WorkerSpec(seed=0, dim=64, n_layers=2, n_heads=4, n_positions=384)
REPLICAS = 2


class Fleet:
    """The running stack; ``stop()`` tears it down."""

    def __init__(self) -> None:
        self.workers = []
        for index in range(REPLICAS):
            service, engine = build_service(SPEC)
            self.workers.append(InProcessWorker(f"w{index}", service, engine).start())
        self.router = FleetRouter(self.workers, policy="affinity")
        self.server = RestServer(self.router, host="127.0.0.1", port=0).start()
        self.url = self.server.url
        PredictionClient(self.url).health()  # set-up ends at the first answered request

    def client(self) -> PredictionClient:
        return PredictionClient(self.url)

    def stop(self) -> None:
        self.server.stop()
        self.router.stop()

    def audit(self) -> dict[str, int]:
        """The invariants a finished run must satisfy; every value must be 0.

        ``leaked_bytes`` is read after clearing each replica's prefix cache
        (its claims are the only legitimate residents of an idle arena), so
        call this last.
        """
        inflight = self.router.stats()["inflight"]
        live_sessions = sum(worker.session_count() for worker in self.workers)
        for worker in self.workers:
            worker.engine.prefix_cache.clear()
        leaked = sum(worker.arena_bytes_in_use() for worker in self.workers)
        return {"inflight": inflight, "live_sessions": live_sessions, "leaked_bytes": leaked}

"""Prefix-affinity scheduling: which replica owns which prompt prefix.

The fleet's whole reason to route carefully is the per-replica state built
in PR 4: each engine's COW prefix cache and KV arena only pay off when
requests that share a token prefix keep landing on the *same* replica.
Two pieces implement that:

* :func:`prefix_bucket` reduces a prompt to its affinity key — the
  normalised head of the prompt.  Ansible ``name:``-completion traffic
  re-sends the same playbook buffer with a growing tail, so the head of
  the prompt identifies the session/file and is stable across keystrokes.
* :class:`HashRing` is a consistent-hash ring mapping bucket keys onto
  worker ids.  Each worker owns :data:`VNODES` points on the ring; a key is
  served by the first point clockwise from its own hash.  Removing a
  worker moves *only* the keys that worker owned (they slide to their
  clockwise successors) and adding one back steals only the keys it now
  owns — the minimal-disruption property the join/leave tests assert.

Hashing uses :mod:`hashlib` (never :func:`hash`, which is salted per
process) so routing is stable across processes, runs and replays — a
chaos log's dispatch decisions must be reproducible from the seed alone.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import FleetError

#: Characters of normalised prompt head that identify an affinity bucket.
DEFAULT_PREFIX_DEPTH = 96

#: Ring points per worker: enough to spread keys evenly over a few replicas.
VNODES = 64


def _stable_hash(text: str) -> int:
    """64-bit process-independent hash of ``text``."""
    return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")


def prefix_bucket(prompt: str, depth: int = DEFAULT_PREFIX_DEPTH) -> str:
    """The affinity key for ``prompt``: its normalised first ``depth`` chars.

    Normalisation (strip leading whitespace, collapse runs of spaces) keeps
    editor-noise variants of the same buffer in one bucket without ever
    merging genuinely different prompts' heads.
    """
    head = " ".join(prompt[:depth].split())
    return head if head else "<empty>"


class HashRing:
    """Consistent hashing of string keys onto worker ids.

    >>> ring = HashRing(["w0", "w1"])
    >>> ring.preference("some prompt head")[0] in ("w0", "w1")
    True
    """

    def __init__(self, workers: list[str] | None = None):
        self._points: list[int] = []  # sorted vnode hashes
        self._owners: dict[int, str] = {}  # vnode hash -> worker id
        self._workers: set[str] = set()
        for worker in workers or ():
            self.add(worker)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    @property
    def workers(self) -> list[str]:
        return sorted(self._workers)

    def _vnode_hashes(self, worker_id: str) -> list[int]:
        return [_stable_hash(f"{worker_id}#{index}") for index in range(VNODES)]

    def add(self, worker_id: str) -> None:
        """Insert a worker's vnodes; no-op complaints become errors."""
        if worker_id in self._workers:
            raise FleetError(f"worker {worker_id!r} already on the ring")
        self._workers.add(worker_id)
        for point in self._vnode_hashes(worker_id):
            # sha1 collisions between distinct vnode labels are not a
            # practical concern; last-add-wins keeps the map consistent.
            if point not in self._owners:
                bisect.insort(self._points, point)
            self._owners[point] = worker_id

    def remove(self, worker_id: str) -> None:
        """Drop a worker; its keys slide to their clockwise successors."""
        if worker_id not in self._workers:
            raise FleetError(f"worker {worker_id!r} not on the ring")
        self._workers.discard(worker_id)
        for point in self._vnode_hashes(worker_id):
            if self._owners.get(point) == worker_id:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def preference(self, key: str) -> list[str]:
        """Every live worker, nearest-owner first — the failover order.

        Walking clockwise from the key yields distinct workers in the
        order consistent hashing would elect them as successive owners,
        so a failover retry lands exactly where the key would rebalance
        to if the first choice died.
        """
        if not self._points:
            return []
        point = _stable_hash(key)
        start = bisect.bisect_right(self._points, point)
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[self._points[(start + offset) % len(self._points)]]
            if owner not in seen:
                seen.add(owner)
                ordered.append(owner)
        return ordered

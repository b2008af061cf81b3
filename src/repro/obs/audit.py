"""Do the books balance?  Conservation laws over a ``stats()`` tree.

Every count in the stack is a registry counter and ``stats()`` is a locked
read of it (DESIGN.md "Counting"), so once a replica is quiescent —
nothing queued, decoding or admitted — its counts must satisfy a few
identities.  Every chaos run ends with :func:`audit`: a request, session,
admission slot or KV byte that goes missing from the books fails the run.
"""

from __future__ import annotations


def audit(stats: dict) -> list[str]:
    """The laws ``stats`` violates, empty when the books balance.

    ``stats`` is one replica's ``PredictionService.stats()`` tree, or a
    ``FleetRouter.stats()`` tree: every replica under ``workers`` plus the
    router's own law.  Sections a tree lacks (no engine, no sessions, an
    unreachable replica) are not checked.
    """
    broken: list[str] = []

    def law(holds: bool, text: str) -> None:
        if not holds:
            broken.append(text)

    if "inflight" in stats:
        law(stats["inflight"] == 0, f"inflight == 0 (is {stats['inflight']})")
    engine = stats.get("engine")
    sessions = stats.get("sessions")
    if engine:
        live = engine["queue_depth"], engine["active_requests"]
        law(live == (0, 0), f"engine: queue_depth == active_requests == 0 (are {live})")
        outcomes = sum(
            engine[f"{outcome}_requests"]
            for outcome in ("completed", "cancelled", "deadline_expired", "shed")
        )
        law(
            engine["requests_submitted"] == outcomes,
            "engine: requests_submitted == completed + cancelled + deadline_expired + shed "
            f"({engine['requests_submitted']} vs {outcomes})",
        )
        speculative = engine.get("speculative")
        if speculative:
            accepted, proposed = speculative["accepted_tokens"], speculative["proposed_tokens"]
            law(accepted <= proposed, f"speculative: accepted <= proposed ({accepted}, {proposed})")
        # An engine-arena slab garbage-collected with live claims: some
        # holder never released it, and ``bytes_in_use`` was only squared
        # by ``ArenaSlab.__del__`` (which is why the leak check reads 0).
        arena = engine.get("kv_arena", {})
        dropped = arena.get("slabs_dropped_live", 0)
        law(dropped == 0, f"engine.kv_arena.slabs_dropped_live == 0 (is {dropped})")
        # Zero leak: at quiescence the prefix store — sessions' pinned
        # paths included — is the only holder of KV; any other claimed
        # byte belongs to nobody.
        held = engine.get("prefix_cache", {}).get("bytes_held", 0)
        in_use = arena.get("bytes_in_use", 0)
        law(
            in_use == held,
            f"engine.kv_arena.bytes_in_use == {held}, the prefix store's bytes_held (is {in_use})",
        )
    if sessions:
        open_ = sessions["created"] - sessions["closed"] - sessions["evicted"]
        law(
            open_ == sessions["live_sessions"],
            "sessions: created - closed - evicted == live_sessions "
            f"({open_} vs {sessions['live_sessions']})",
        )
    for worker_id, tree in sorted(stats.get("workers", {}).items()):
        broken.extend(f"{worker_id}: {violation}" for violation in audit(tree))
    return broken

"""One token-prefix KV store: a trie of frozen K/V segments.

Editor traffic re-sends the whole playbook buffer on every keystroke, and
a causal model's K/V for a token depends only on the tokens up to it, so
K/V computed for one context serves every later prompt sharing its
prefix.  This store is the only place K/V outlives a request.

A node holds a *segment*: the token ids of its columns and, per layer, one
read-only :class:`~repro.nn.kv_arena.KVCache` of exactly those columns.  A
node's path is its parent's path up to the offset it hangs at, then its
tokens.  A node is never split: a context that diverges inside a segment
hangs a child at that offset, so an insert copies only new columns and
every slab keeps one holder.

* :meth:`lookup` walks the longest stored path along a prompt in
  O(prompt), capped at ``len(prompt) - 1`` (the engine needs the last
  token's logits); :meth:`gather` copies it into the caller's per-layer
  destinations — the admitted request's slot row — so the store's node
  format stays its own.
* :meth:`insert` stores a normally completed request's fed context (the
  prompt plus every generated token with K/V): only the columns past the
  longest stored path, into one new node.
* A keystroke session is an id plus a *pinned* path: ``insert(pin=True)``
  counts a pin on every node of the path, :meth:`unpin` takes it back.
  Eviction is LRU over unpinned leaves, and ``capacity`` bounds the
  unpinned nodes kept (0 keeps none) — nodes, not leaves, because a closed
  session leaves a chain of one node per keystroke behind one leaf.
  :meth:`clear` drops everything no pin holds.
"""

from __future__ import annotations

from repro.nn.kv_arena import KVCache, SlotRow


class _Node:
    """One stored segment: its token ids and per-layer K/V columns."""

    __slots__ = ("parent", "offset", "tokens", "caches", "children", "pins", "used")

    def __init__(self, parent: "_Node | None", offset: int, tokens: tuple[int, ...], caches):
        self.parent = parent
        self.offset = offset  # where in the parent's segment this node hangs
        self.tokens = tokens
        self.caches: list[KVCache] = caches
        # (offset in this segment, first token) -> child
        self.children: dict[tuple[int, int], _Node] = {}
        self.pins = 0  # pinned paths through this node
        self.used = 0  # recency stamp


class PrefixCache:
    """Trie of frozen K/V segments keyed by token ids, at most ``capacity`` unpinned nodes."""

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._root = _Node(None, 0, (), [])
        self._nodes: dict[_Node, None] = {}  # every node but the root, in insertion order
        self._unpinned = 0  # nodes in ``_nodes`` with no pin
        self._clock = 0
        self.bytes_held = 0
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self.evictions = 0
        self.tokens_reused = 0

    def __len__(self) -> int:
        return len(self._nodes)

    # -- the walk ------------------------------------------------------------

    def _walk(self, ids: tuple[int, ...], limit: int) -> tuple[list[tuple[_Node, int]], int]:
        """The longest stored path along ``ids[:limit]``.

        Returns ``(path, matched)``: ``path`` lists every node visited, the
        root first, with how many of its columns the match uses.  A child
        hangs where its context left the parent's segment, so its first
        token differs from the segment's there: the ids can only continue
        into a child at their first difference from the segment.
        """
        path: list[tuple[_Node, int]] = []
        node, position = self._root, 0
        while True:
            segment = node.tokens
            used = min(len(segment), limit - position)
            if ids[position : position + used] != segment[:used]:
                used = 0
                while segment[used] == ids[position + used]:
                    used += 1
            path.append((node, used))
            position += used
            if position >= limit:
                return path, position
            node = node.children.get((used, ids[position]))
            if node is None:
                return path, position

    def _touch(self, path: list[tuple[_Node, int]]) -> None:
        self._clock += 1
        for node, _ in path:
            node.used = self._clock

    # -- requests ------------------------------------------------------------

    def lookup(self, prompt_ids) -> tuple[int, list[tuple[_Node, int]]] | None:
        """Longest stored path for ``prompt_ids``: ``(matched, path)`` or None.

        The match is capped at ``len(prompt_ids) - 1``.  Prompts too short
        to ever match are counted as ``skipped``, not ``misses``, so
        ``hit_rate`` reflects prompts the store actually walked.
        """
        limit = len(prompt_ids) - 1
        if limit < 1:
            self.skipped += 1
            return None
        path, matched = self._walk(tuple(prompt_ids), limit)
        if not matched:
            self.misses += 1
            return None
        self._touch(path)
        self.hits += 1
        self.tokens_reused += matched
        return matched, path

    def gather(self, match: tuple[int, list[tuple[_Node, int]]], rows: list[SlotRow]) -> None:
        """Write a :meth:`lookup` match into ``rows``, one batch-1 destination per
        layer (:meth:`~repro.nn.kv_arena.SlotRow.gather`: one copy each, no allocation)."""
        parts = [(node, used) for node, used in match[1] if used]
        for layer, row in enumerate(rows):
            row.gather([(node.caches[layer], used) for node, used in parts])

    def insert(self, token_ids, layers: list, row: int = 0, pin: bool = False) -> _Node | None:
        """Store the K/V of ``token_ids``, held in row ``row`` of the per-layer ``layers``.

        Only the columns past the longest stored path are copied, into one
        new node.  Returns the node holding the path's last column — with
        the path pinned once more when ``pin`` — or None when the store
        keeps no unpinned path (``capacity`` 0) and nothing asked for a pin.
        """
        ids = tuple(token_ids)
        if not ids or not (pin or self.capacity):
            return None
        path, matched = self._walk(ids, len(ids))
        node, used = path[-1]
        if matched < len(ids):
            caches = [layer.copy_out(row, matched, len(ids)) for layer in layers]
            child = _Node(node, used, ids[matched:], caches)
            node.children[(used, ids[matched])] = child
            self._nodes[child] = None
            self._unpinned += 1
            self.bytes_held += sum(cache.nbytes for cache in caches)
            path.append((child, len(child.tokens)))
            node = child
        self._touch(path)
        if pin:
            self._pin(node, 1)
        self.evictions += self._trim(self.capacity)
        return node

    def unpin(self, node: _Node) -> None:
        """Take back the pin :meth:`insert` counted on the path ending at ``node``."""
        self._pin(node, -1)
        self.evictions += self._trim(self.capacity)

    def _pin(self, node: _Node, count: int) -> None:
        while node is not self._root:
            if not node.pins:
                self._unpinned -= 1
            node.pins += count
            if not node.pins:
                self._unpinned += 1
            node = node.parent

    # -- memory --------------------------------------------------------------

    def _trim(self, keep: int) -> int:
        """Drop least-recently-used unpinned leaves until at most ``keep``
        unpinned nodes remain; how many went.  Every descendant of an
        unpinned node is unpinned, so leaves alone can empty the count."""
        if self._unpinned <= keep:
            return 0
        leaves = [node for node in self._nodes if not node.pins and not node.children]
        dropped = 0
        while self._unpinned > keep:
            victim = min(leaves, key=lambda node: node.used)
            leaves.remove(victim)
            parent = victim.parent
            del parent.children[(victim.offset, victim.tokens[0])]
            del self._nodes[victim]
            self._unpinned -= 1
            for cache in victim.caches:
                self.bytes_held -= cache.nbytes
                cache.release()
            dropped += 1
            if parent is not self._root and not parent.children and not parent.pins:
                leaves.append(parent)
        return dropped

    def clear(self) -> None:
        """Drop every node no pin holds (a live session's path stays).

        The lifetime counters survive, so rates computed from :meth:`stats`
        stay monotonic; cleared nodes are not counted as evictions.
        """
        self._trim(0)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._nodes),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "evictions": self.evictions,
            "tokens_reused": self.tokens_reused,
            "bytes_held": self.bytes_held,
            "hit_rate": self.hits / total if total else 0.0,
        }

"""Longest-common-prefix KV reuse across requests.

The dominant serving pattern for Ansible ``name:`` completion re-sends the
whole playbook buffer on every keystroke, so consecutive prompts share a
long common prefix.  Because keys and values in a causal model depend only
on the tokens at or before their position, the per-layer K/V arrays
computed while prefilling one prompt are bit-identical to what any later
prompt with the same token prefix would recompute — so we keep them
reachable and let later requests skip that part of prefill entirely.

Each entry is the sole holder of its K/V: ``insert`` takes over the
inserting request's own per-layer prefill caches — zero copies — and
freezes them read-only.  ``lookup`` hands back those caches and the
matched length; a request that reuses them copies the matched columns out
(:meth:`~repro.nn.kv_arena.KVCache.copy_prefix`) into caches of its own
before its prefill appends the rest of the prompt.  Dropping an entry
releases its caches to the arena.

Entries are stored per *truncated* prompt (positions are absolute, so the
post-truncation token sequence is the correct cache key) and evicted LRU.
A lookup may match any number of leading tokens of an entry, not just the
whole entry; at least one prompt token is always left for live prefill so
the engine still obtains next-token logits.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.kv_arena import KVCache


class _Entry:
    """One stored prefix: its token ids (as an array) and per-layer caches."""

    __slots__ = ("key_array", "caches")

    def __init__(self, key_array: np.ndarray, caches: list[KVCache]):
        self.key_array = key_array
        self.caches = caches

    def release(self) -> None:
        for cache in self.caches:
            cache.release()


class PrefixCache:
    """LRU map from token-id prefixes to the per-layer K/V caches that hold them."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, ...], _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self.evictions = 0
        self.invalidations = 0
        self.tokens_reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _common_prefix(a: np.ndarray, b: np.ndarray) -> int:
        """Length of the common prefix of two int arrays, vectorized."""
        limit = min(a.size, b.size)
        if limit == 0:
            return 0
        equal = a[:limit] == b[:limit]
        return limit if equal.all() else int(np.argmin(equal))

    def lookup(self, prompt_ids: list[int] | tuple[int, ...]) -> tuple[int, list[KVCache]] | None:
        """Best reusable prefix for ``prompt_ids``.

        Returns ``(matched_length, caches)`` — the matching entry's own
        read-only per-layer caches, to copy the first ``matched_length``
        columns out of — or ``None`` when nothing matches.  The match
        is capped at ``len(prompt_ids) - 1`` so at least one token remains
        for live prefill.  Prompts too short to ever match are counted as
        ``skipped``, not ``misses``, so ``hit_rate`` reflects prompts the
        cache actually scanned.
        """
        prompt = tuple(prompt_ids)
        usable_limit = len(prompt) - 1
        if usable_limit < 1:
            self.skipped += 1
            return None
        prompt_array = np.asarray(prompt, dtype=np.int64)
        first = prompt_array[0]
        best_key: tuple[int, ...] | None = None
        best_len = 0
        for key, entry in self._entries.items():
            # O(1) reject before the vectorized compare: a differing first
            # token can never beat best_len >= 0 matches.
            if entry.key_array[0] != first:
                continue
            usable = min(self._common_prefix(prompt_array, entry.key_array), usable_limit)
            if usable > best_len:
                best_key, best_len = key, usable
        if best_key is None:
            self.misses += 1
            return None
        self._entries.move_to_end(best_key)
        self.hits += 1
        self.tokens_reused += best_len
        return best_len, self._entries[best_key].caches

    def insert(self, prompt_ids: list[int] | tuple[int, ...], caches: list[KVCache]) -> bool:
        """Take over a freshly prefilled prompt's caches — zero copies.

        On True the entry holds ``caches`` and made them read-only: the caller
        may still read them but no longer writes or releases them.  On
        False (an existing entry already covers this prompt, or the caches
        do not) they stay the caller's.
        """
        prompt = tuple(prompt_ids)
        if not prompt:
            return False
        for key in self._entries:
            if len(key) >= len(prompt) and key[: len(prompt)] == prompt:
                self._entries.move_to_end(key)
                return False
        length = len(prompt)
        for cache in caches:
            if not isinstance(cache, KVCache) or cache.length < length:
                return False  # cache does not cover the prompt; nothing to store
        for cache in caches:
            cache.freeze()
        self._entries[prompt] = _Entry(np.asarray(prompt, dtype=np.int64), list(caches))
        self._entries.move_to_end(prompt)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.release()
            self.evictions += 1
        return True

    def remove(self, prompt_ids: list[int] | tuple[int, ...]) -> bool:
        """Drop the entry stored for exactly ``prompt_ids``, if present.

        The batcher calls this when the request that inserted an entry
        terminates abnormally (cancelled, deadline-expired, shed): K/V
        written on behalf of a request that never completed is treated as
        suspect and must not seed future prefills.  Releasing the caches
        is what lets the arena reclaim the slabs — the chaos suite's
        no-leak assertion depends on it.
        """
        entry = self._entries.pop(tuple(prompt_ids), None)
        if entry is None:
            return False
        entry.release()
        self.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop every stored entry, keeping the lifetime counters.

        ``hits``/``misses``/``evictions``/``tokens_reused`` survive so any
        rate computed from :meth:`stats` stays monotonic across resets —
        clearing reclaims memory, it does not rewrite history.  Cleared
        entries are not counted as evictions (nothing displaced them).
        """
        for entry in self._entries.values():
            entry.release()
        self._entries.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "tokens_reused": self.tokens_reused,
            "hit_rate": self.hits / total if total else 0.0,
        }

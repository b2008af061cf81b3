"""Paged KV-cache arena: preallocated block storage, one holder per slab.

The decode hot path used to pay O(T) memory traffic per generated token per
layer just to *store* one new K/V column: ``np.concatenate`` reallocates and
copies the whole cache on every append, so a length-T generation moves
O(T^2) bytes per layer before attention reads a single key.  This module
replaces that with an arena of reusable storage slabs:

* :class:`KVArena` — the allocator.  It hands out :class:`ArenaSlab`
  objects whose capacity is rounded up to a whole number of fixed-size
  token *blocks* and pools released slabs for reuse, so steady-state
  serving recycles memory instead of churning the allocator.  One arena is
  shared by every layer and every request of an engine.
* :class:`ArenaSlab` — K/V storage: one ``kv`` array of shape
  ``(2, B, H, capacity, D)`` whose halves are the ``k``/``v`` views (so a
  copy moves keys and values in one call), plus a float32 decode-softmax
  score buffer.
* :class:`KVCache` — the per-layer cache handle the transformer decodes
  through.  ``append`` writes new columns **in place**; capacity grows
  geometrically (amortised O(1) copies per token); ``view`` is zero-copy.
* :class:`SlotKVCache` — one layer's K/V for a decoding batch: one slot
  per row in a slab held for the batch's lifetime; rows of different
  lengths append at their own offsets, so a batch never pads or grows.
* :class:`SlotRow` — a batch-1 view of the next free slot, what a request
  is prefilled through before it joins the batch.

Every slab has exactly one holder — a :class:`KVCache` or a
:class:`SlotKVCache` — and goes back to the arena when that holder
releases it.  So the prefix store keeps its own read-only segments: a
completed request's row leaves the columns no stored path holds yet in a
new one (:meth:`SlotKVCache.copy_out`), and a later request that matches a
stored path has the matched columns gathered from the path's segments
straight into its slot row (:meth:`SlotRow.gather`) — the one copy a hit
makes.

:class:`DenseKVCache` preserves the pre-arena concatenate-on-append
behaviour for equivalence tests and benchmarks.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ShapeError
from repro.faults.inject import fire

DEFAULT_BLOCK_SIZE = 32

#: Released slabs an arena keeps for reuse; beyond it a release frees.
MAX_POOLED_SLABS = 64


class ArenaSlab:
    """K/V storage for one sequence batch over ``capacity`` columns.

    ``live`` is True from :meth:`KVArena.acquire` until the one holder
    hands the slab back with :meth:`KVArena.release`.
    """

    __slots__ = ("arena", "kv", "k", "v", "scores", "capacity", "live")

    def __init__(self) -> None:
        self.arena: "KVArena | None" = None
        self.kv: np.ndarray | None = None  # keys then values: ``k`` / ``v`` are its halves
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scores: np.ndarray | None = None
        self.capacity = 0
        self.live = False

    @property
    def nbytes(self) -> int:
        return self.kv.nbytes

    def __del__(self) -> None:
        # A slab garbage-collected while live (its holder was dropped
        # without release()) must still surrender its byte accounting, or
        # ``bytes_in_use`` drifts upward forever.
        try:
            if self.live and self.arena is not None:
                self.arena._forget(self)
        except Exception:
            pass  # interpreter shutdown


class KVArena:
    """Block-granular slab allocator shared across layers and requests."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise ShapeError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self._pool: dict[tuple[int, int, int, int], list[ArenaSlab]] = {}
        self._pooled = 0
        self._lock = threading.Lock()
        # -- lifetime counters (monotonic) --
        self.slabs_allocated = 0
        self.slabs_reused = 0
        self.bytes_allocated = 0
        self.bytes_copied = 0  # growth + path gathers + segment copies + slot row moves
        self.appends = 0
        self.grow_copies = 0
        self.cow_copies = 0  # path gathers into a slot row, one per layer per prefix-store hit
        #: Slabs garbage-collected while live: each one is a holder
        #: that never called ``release()`` (repro.obs.audit wants zero).
        self.slabs_dropped_live = 0
        # -- occupancy (approximate: slabs dropped by GC are reconciled lazily) --
        self.bytes_in_use = 0
        self.peak_bytes_in_use = 0

    def round_up(self, tokens: int) -> int:
        """Smallest whole-block capacity covering ``tokens`` columns."""
        blocks = (max(1, tokens) + self.block_size - 1) // self.block_size
        return blocks * self.block_size

    def acquire(self, batch: int, heads: int, head_dim: int, min_tokens: int) -> ArenaSlab:
        """A writable slab of at least ``min_tokens`` columns (block-rounded)."""
        # Fault seam: chaos schedules model allocation failure here (the
        # engine shields its retirement inserts; see repro.faults.inject).
        fire("kv_arena.acquire", batch=batch, min_tokens=min_tokens)
        capacity = self.round_up(min_tokens)
        key = (batch, heads, capacity, head_dim)
        slab: ArenaSlab | None = None
        with self._lock:
            stack = self._pool.get(key)
            if stack:
                slab = stack.pop()
                self._pooled -= 1
        if slab is not None:
            self.slabs_reused += 1
        else:
            slab = ArenaSlab()
            slab.arena = self
            # Zeroed, not np.empty: a decoding batch reads columns past a
            # row's length (masked to weight 0), and 0 x NaN is still NaN.
            slab.kv = np.zeros((2, batch, heads, capacity, head_dim), dtype=np.float32)
            slab.k, slab.v = slab.kv
            slab.capacity = capacity
            self.slabs_allocated += 1
            self.bytes_allocated += slab.nbytes
        slab.live = True
        self.bytes_in_use += slab.nbytes
        if self.bytes_in_use > self.peak_bytes_in_use:
            self.peak_bytes_in_use = self.bytes_in_use
        return slab

    def release(self, slab: ArenaSlab) -> None:
        """Take the slab back from its holder, writable again, and pool it."""
        slab.live = False
        slab.kv.flags.writeable = slab.k.flags.writeable = slab.v.flags.writeable = True
        self.bytes_in_use -= slab.nbytes
        key = (slab.k.shape[0], slab.k.shape[1], slab.capacity, slab.k.shape[3])
        with self._lock:
            if self._pooled < MAX_POOLED_SLABS:
                self._pool.setdefault(key, []).append(slab)
                self._pooled += 1

    def _forget(self, slab: ArenaSlab) -> None:
        """Reconcile byte accounting for a slab dropped without release."""
        self.bytes_in_use -= slab.nbytes
        slab.live = False
        self.slabs_dropped_live += 1

    def stats(self) -> dict:
        """JSON-ready allocator counters for engine/serving stats."""
        return {
            "block_size": self.block_size,
            "slabs_allocated": self.slabs_allocated,
            "slabs_reused": self.slabs_reused,
            "slabs_pooled": self._pooled,
            "bytes_allocated": self.bytes_allocated,
            "bytes_in_use": self.bytes_in_use,
            "peak_bytes_in_use": self.peak_bytes_in_use,
            "bytes_copied": self.bytes_copied,
            "appends": self.appends,
            "grow_copies": self.grow_copies,
            "cow_copies": self.cow_copies,
            "slabs_dropped_live": self.slabs_dropped_live,
        }


_DEFAULT_ARENA: KVArena | None = None


def default_arena() -> KVArena:
    """The process-wide arena used by caches constructed without one."""
    global _DEFAULT_ARENA
    if _DEFAULT_ARENA is None:
        _DEFAULT_ARENA = KVArena()
    return _DEFAULT_ARENA


class KVCache:
    """Per-layer accumulated keys/values for incremental decoding.

    A handle over arena-owned storage: ``append`` writes new columns in
    place (never ``np.concatenate``), growing capacity geometrically in
    whole blocks when exhausted.  The handle is its slab's one holder.
    """

    __slots__ = ("_arena", "_slab", "_length", "last_append_moved_bytes")

    def __init__(self, arena: KVArena | None = None) -> None:
        self._arena = arena if arena is not None else default_arena()
        self._slab: ArenaSlab | None = None
        self._length = 0
        #: Bytes physically moved (read+write) by the most recent append —
        #: O(new columns) in place, O(length) when growth copied.
        self.last_append_moved_bytes = 0

    # -- introspection -------------------------------------------------------

    @property
    def length(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return 0 if self._slab is None else self._slab.capacity

    def row_offsets(self) -> None:
        """Every row sits at :attr:`length`: no per-row offsets."""
        return None

    # -- the hot path --------------------------------------------------------

    def view(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Zero-copy ``(keys, values)`` views over the live columns."""
        slab = self._slab
        if slab is None:
            return None, None
        return slab.k[:, :, : self._length], slab.v[:, :, : self._length]

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write ``keys``/``values`` columns in place; return full views.

        In place unless capacity is exhausted: then the columns move to a
        slab twice the size (amortised O(1) copies per token).  A cache
        made read-only by :meth:`freeze` raises ``ValueError``, unchanged.
        """
        if keys.ndim != 4 or keys.shape != values.shape:
            raise ShapeError(f"append shapes {keys.shape} vs {values.shape} must match (B, H, T, D)")
        batch, heads, new, head_dim = keys.shape
        arena = self._arena
        slab = self._slab
        length = self._length
        needed = length + new
        moved = 0
        if slab is None:
            slab = self._slab = arena.acquire(batch, heads, head_dim, needed)
        else:
            if slab.k.shape[0] != batch:
                raise ShapeError(f"append batch {batch} != cache batch {slab.k.shape[0]}")
            if not slab.k.flags.writeable:
                raise ValueError("append to a read-only KV cache")
            if needed > slab.capacity:
                arena.grow_copies += 1
                grown = arena.acquire(batch, heads, head_dim, max(needed, 2 * slab.capacity))
                if length:
                    grown.kv[:, :, :, :length] = slab.kv[:, :, :, :length]
                    copied = 2 * length * batch * heads * head_dim * grown.k.itemsize
                    arena.bytes_copied += copied
                    moved += 2 * copied
                arena.release(slab)
                slab = self._slab = grown
        slab.k[:, :, length:needed] = keys
        slab.v[:, :, length:needed] = values
        self._length = needed
        arena.appends += 1
        moved += 4 * new * batch * heads * head_dim * slab.k.itemsize  # read+write, K and V
        self.last_append_moved_bytes = moved
        return self.view()

    def decode_scores(self, heads: int) -> np.ndarray | None:
        """Reusable float32 score buffer of shape (B, H, 1, length).

        Backs the allocation-free single-token attention step: the score
        matmul writes here via ``out=`` and the softmax runs in place.
        """
        slab = self._slab
        if slab is None:
            return None
        batch = slab.k.shape[0]
        scores = slab.scores
        if scores is None or scores.shape[0] != batch or scores.shape[1] != heads:
            scores = slab.scores = np.empty((batch, heads, 1, slab.capacity), dtype=np.float32)
        return scores[:, :, :, : self._length]

    # -- the prefix store ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of the slab this cache holds (0 while empty)."""
        return 0 if self._slab is None else self._slab.nbytes

    def freeze(self) -> None:
        """Make the stored columns read-only until :meth:`release` (the prefix store's hold)."""
        slab = self._slab
        slab.kv.flags.writeable = slab.k.flags.writeable = slab.v.flags.writeable = False

    def copy_out(self, row: int, start: int, stop: int) -> "KVCache":
        """Row ``row``'s columns ``[start, stop)`` as a new read-only batch-1 segment.

        The row-to-node copy: a completed request's batch slot
        (:class:`SlotKVCache` shares this method) leaves the columns no
        stored path holds yet in the prefix store.
        """
        columns = self._slab.kv[:, row, :, start:stop]
        _, heads, tokens, head_dim = columns.shape
        segment = KVCache(self._arena)
        slab = segment._slab = self._arena.acquire(1, heads, head_dim, tokens)
        slab.kv[:, 0, :, :tokens] = columns
        segment._length = tokens
        self._arena.bytes_copied += columns.nbytes
        segment.freeze()
        return segment

    def release(self) -> None:
        """Return the slab to the arena; the cache becomes empty."""
        slab = self._slab
        if slab is None:
            return
        self._slab = None
        self._length = 0
        self._arena.release(slab)


class SlotKVCache:
    """One layer's K/V for a decoding batch: slot ``b`` holds row ``b``.

    One slab of ``slots`` rows by ``columns`` columns (the position
    window), held for the batch's lifetime.  Row ``b`` owns columns
    ``[0, lengths[b])`` of slot ``b``: :meth:`append` writes each row's new
    columns at that row's own offset, so rows of different lengths share
    one forward and nothing is padded, re-packed or grown.  A speculative
    rollback lowers ``lengths[b]``.  Columns past a row's length hold zeros
    or a previous occupant's K/V; attention masks them.

    ``lengths`` changes only through these methods: a decode step reads
    :attr:`length` and :meth:`row_offsets` once per layer, so both are kept
    current by the per-event changes (admit, retire, rollback) instead of
    being recomputed from ``lengths`` on every step.
    """

    __slots__ = ("_arena", "_slab", "lengths", "length", "_offsets", "last_append_moved_bytes")

    def __init__(
        self, arena: KVArena | None, slots: int, heads: int, head_dim: int, columns: int
    ) -> None:
        self._arena = arena if arena is not None else default_arena()
        self._slab: ArenaSlab | None = self._arena.acquire(slots, heads, head_dim, columns)
        #: K/V columns each occupied slot holds, in slot order.
        self.lengths: list[int] = []
        #: The attended width: the longest row's length.
        self.length = 0
        self._offsets: np.ndarray | None = None  # ``lengths`` when rows differ
        self.last_append_moved_bytes = 0

    def _settle(self) -> None:
        """Re-derive :attr:`length` and the offsets after a row came, went or shrank."""
        lengths = self.lengths
        self.length = max(lengths, default=0)
        uniform = min(lengths, default=0) == self.length
        self._offsets = None if uniform else np.array(lengths, dtype=np.int64)

    def row_offsets(self) -> np.ndarray | None:
        """Each row's length when rows differ; None when one offset fits all."""
        return self._offsets

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write row ``b``'s new columns at ``lengths[b]``; views over the attended width."""
        batch, heads, new, head_dim = keys.shape
        lengths = self.lengths
        if batch != len(lengths):
            raise ShapeError(f"append batch {batch} != {len(lengths)} occupied slots")
        k, v = self._slab.k, self._slab.v
        if self._offsets is None:
            start = self.length
            k[:batch, :, start : start + new] = keys
            v[:batch, :, start : start + new] = values
        else:
            # One scattered write each for K and V: row b's columns start at its offset.
            rows = np.arange(batch)[:, None]
            columns = self._offsets[:, None] + np.arange(new)
            k[rows, :, columns] = keys.transpose(0, 2, 1, 3)
            v[rows, :, columns] = values.transpose(0, 2, 1, 3)
            self._offsets = self._offsets + new  # a new array: callers hold the old one
        for row in range(batch):
            lengths[row] += new
        width = self.length = self.length + new
        self._arena.appends += 1
        self.last_append_moved_bytes = 4 * new * batch * heads * head_dim * k.itemsize
        return k[:batch, :, :width], v[:batch, :, :width]

    def decode_scores(self, heads: int) -> np.ndarray:
        """Reusable float32 score buffer of shape (B, H, 1, attended width)."""
        slab = self._slab
        if slab.scores is None:
            slab.scores = np.empty((slab.k.shape[0], heads, 1, slab.capacity), dtype=np.float32)
        return slab.scores[: len(self.lengths), :, :, : self.length]

    def seat(self, row: "SlotRow") -> None:
        """Make the prefilled ``row`` the batch's next: the next append writes it too."""
        self.lengths.append(row.length)
        self._settle()

    def roll_back(self, slot: int, columns: int) -> None:
        """Forget row ``slot``'s last ``columns`` columns — no copy."""
        self.lengths[slot] -= columns
        self._settle()

    copy_out = KVCache.copy_out  # row ``slot``'s columns as a segment: the row-to-node copy

    def pop_row(self, slot: int) -> None:
        """Free ``slot``: the last row moves into it (one row copy)."""
        lengths = self.lengths
        last = len(lengths) - 1
        if slot != last:
            length = lengths[slot] = lengths[last]
            kv = self._slab.kv
            kv[:, slot, :, :length] = kv[:, last, :, :length]
            self._arena.bytes_copied += kv[:, slot, :, :length].nbytes
        lengths.pop()
        self._settle()

    def release(self) -> None:
        """Return the slab to the arena; no slot is occupied afterwards."""
        slab, self._slab = self._slab, None
        self.lengths = []
        self._settle()
        if slab is not None:
            self._arena.release(slab)


class SlotRow:
    """Batch-1 view of the next free slot of a :class:`SlotKVCache`, holding no slab.

    Admission writes a request's K/V here — a prefix-store hit's match
    (:meth:`gather`), then the prefill (:meth:`append`) — before
    :meth:`SlotKVCache.seat` counts the row in.
    """

    __slots__ = ("_arena", "_kv", "length", "last_append_moved_bytes")

    def __init__(self, slots: SlotKVCache) -> None:
        self._arena = slots._arena
        slot = len(slots.lengths)
        self._kv = slots._slab.kv[:, slot : slot + 1]  # (2, 1, H, columns, D)
        self.length = 0
        self.last_append_moved_bytes = 0

    def row_offsets(self) -> None:
        return None  # one row: no per-row offsets

    def gather(self, parts: list[tuple[KVCache, int]]) -> None:
        """The path gather: the first ``used`` columns of one layer's segments
        along a stored path, back to back from column 0.  One copy, counted
        in the arena's ``cow_copies``."""
        length = sum(used for _, used in parts)
        target = self._kv[:, :, :, :length]
        np.concatenate([part._slab.kv[:, :, :, :used] for part, used in parts], axis=3, out=target)
        self.length = length
        self._arena.cow_copies += 1
        self._arena.bytes_copied += target.nbytes

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write the new columns in place at :attr:`length`; views over the row's columns."""
        start, stop = self.length, self.length + keys.shape[2]
        k, v = self._kv
        k[:, :, start:stop] = keys
        v[:, :, start:stop] = values
        self.length = stop
        self._arena.appends += 1
        self.last_append_moved_bytes = 2 * (keys.nbytes + values.nbytes)
        return k[:, :, :stop], v[:, :, :stop]


class DenseKVCache:
    """The pre-arena concatenate-on-append cache, kept as the reference path.

    Every append reallocates and copies the whole accumulated K/V — O(T)
    traffic per decode step, O(T^2) per generated sequence.  Equivalence
    tests decode through both implementations and compare token-for-token;
    ``benchmarks/test_kv_arena.py`` measures the speedup of retiring it.
    """

    def __init__(self) -> None:
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.last_append_moved_bytes = 0

    @property
    def length(self) -> int:
        return 0 if self.keys is None else self.keys.shape[2]

    def view(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        return self.keys, self.values

    def row_offsets(self) -> None:
        return None

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.keys is None:
            self.keys, self.values = keys, values
        else:
            self.keys = np.concatenate([self.keys, keys], axis=2)
            self.values = np.concatenate([self.values, values], axis=2)
        # The concatenate read and wrote every accumulated element.
        self.last_append_moved_bytes = 2 * (self.keys.nbytes + self.values.nbytes)
        return self.keys, self.values

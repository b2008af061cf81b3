"""``KVCache`` and ``SlotKVCache`` against ``DenseKVCache``: a hypothesis
state machine over one arena.

Every live handle and every occupied slot row carries a dense model — the
concatenate-on-append reference — and every rule applies the same operation
to both.  Handles: append, truncate, release.  Prefix entries, the way the
prefix cache keeps them: insert (the entry takes a handle over and freezes
it), try to write one, copy a prefix of one out into a new handle, release.
Slots (a decoding batch's layer cache): open one, copy a batch-1 handle or
entry into the next slot, write every row at its own offset, roll one row
back, copy a row out into a handle, free a slot by moving the last row into
it, close.  In-place growth and slab reuse are then exercised in orders no
hand-written test picks, and the invariants are the arena's whole
contract: every handle's ``view()`` and every slot row equals its model,
every entry still reads what was inserted, a slab is read-only exactly
while an entry holds it (so one taken back from an entry is writable when
acquired again), and once everything is released no byte is in use and no
slab was dropped live.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.nn.kv_arena import DenseKVCache, KVArena, KVCache, SlotKVCache

HEADS, DIM = 2, 3
SLOTS, COLUMNS = 3, 12


def _dense(keys: np.ndarray | None, values: np.ndarray | None) -> DenseKVCache:
    model = DenseKVCache()
    if keys is not None:
        model.append(keys.copy(), values.copy())
    return model


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = KVArena(block_size=2)
        self.handles: list[tuple[KVCache, DenseKVCache]] = []
        self.entries: list[tuple[KVCache, np.ndarray, np.ndarray]] = []  # frozen, keys, values
        self.slots: SlotKVCache | None = None
        self.rows: list[DenseKVCache] = []  # the model of each occupied slot, in slot order
        self.stamp = 0

    def _columns(self, batch: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        self.stamp += 1
        keys = self.stamp + np.arange(batch * HEADS * count * DIM, dtype=np.float32) / 64
        keys = keys.reshape(batch, HEADS, count, DIM)
        return keys, -keys

    def _pick(self, data, filled: bool = False) -> int:
        indices = [i for i, (cache, _) in enumerate(self.handles) if cache.length or not filled]
        return data.draw(st.sampled_from(indices))

    @rule(batch=st.integers(1, 2), count=st.integers(1, 5))
    def new_handle(self, batch, count):
        cache, model = KVCache(self.arena), DenseKVCache()
        keys, values = self._columns(batch, count)
        cache.append(keys, values)
        model.append(keys, values)
        self.handles.append((cache, model))

    @precondition(lambda self: self.handles)
    @rule(data=st.data(), count=st.integers(1, 5))
    def append(self, data, count):
        cache, model = self.handles[self._pick(data)]
        keys, values = self._columns(model.view()[0].shape[0], count)
        cache.append(keys, values)
        model.append(keys, values)

    @precondition(lambda self: any(cache.length for cache, _ in self.handles))
    @rule(data=st.data())
    def truncate(self, data):
        cache, model = self.handles[self._pick(data, filled=True)]
        length = data.draw(st.integers(0, cache.length))
        cache.truncate(length)
        model.truncate(length)

    @precondition(lambda self: any(cache.length for cache, _ in self.handles))
    @rule(data=st.data())
    def insert(self, data):
        cache, model = self.handles.pop(self._pick(data, filled=True))
        cache.freeze()
        keys, values = model.view()
        self.entries.append((cache, keys.copy(), values.copy()))

    @precondition(lambda self: self.entries)
    @rule(data=st.data(), count=st.integers(1, 5))
    def write_entry(self, data, count):
        entry, keys, _ = data.draw(st.sampled_from(self.entries))
        new_keys, new_values = self._columns(keys.shape[0], count)
        with pytest.raises(ValueError):
            entry.append(new_keys, new_values)
        assert entry.length == keys.shape[2]

    @precondition(lambda self: self.entries)
    @rule(data=st.data(), spare=st.integers(0, 6))
    def copy_prefix(self, data, spare):
        entry, keys, values = data.draw(st.sampled_from(self.entries))
        length = data.draw(st.integers(1, entry.length))
        copy = entry.copy_prefix(length, length + spare)
        self.handles.append((copy, _dense(keys[:, :, :length], values[:, :, :length])))

    def _admissible(self) -> list[tuple[KVCache, np.ndarray, np.ndarray]]:
        """Batch-1 handles and entries that fit a slot, with their columns."""
        held = [(cache, *model.view()) for cache, model in self.handles if cache.length]
        return [
            (cache, keys, values)
            for cache, keys, values in held + self.entries
            if keys.shape[0] == 1 and cache.length <= COLUMNS
        ]

    @precondition(lambda self: self.slots is None)
    @rule()
    def open_slots(self):
        self.slots = SlotKVCache(self.arena, SLOTS, HEADS, DIM, COLUMNS)

    @precondition(
        lambda self: self.slots is not None and len(self.rows) < SLOTS and self._admissible()
    )
    @rule(data=st.data())
    def copy_in(self, data):
        cache, keys, values = data.draw(st.sampled_from(self._admissible()))
        self.slots.copy_in(cache)
        self.rows.append(_dense(keys, values))

    @precondition(lambda self: self.rows and self.slots.length < COLUMNS)
    @rule(data=st.data())
    def write(self, data):
        count = data.draw(st.integers(1, COLUMNS - self.slots.length))
        keys, values = self._columns(len(self.rows), count)
        self.slots.append(keys, values)
        for row, model in enumerate(self.rows):
            model.append(keys[row : row + 1].copy(), values[row : row + 1].copy())

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def roll_back(self, data):
        row = data.draw(st.integers(0, len(self.rows) - 1))
        length = data.draw(st.integers(0, self.slots.lengths[row]))
        self.slots.roll_back(row, self.slots.lengths[row] - length)
        self.rows[row].truncate(length)

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def copy_out(self, data):
        row = data.draw(st.integers(0, len(self.rows) - 1))
        keys, values = self.rows[row].view()
        held = data.draw(st.integers(0, keys.shape[2]))
        handle = KVCache(self.arena)
        if held:
            handle.append(keys[:, :, :held].copy(), values[:, :, :held].copy())
        self.slots.copy_out(row, handle)
        self.handles.append((handle, _dense(keys, values)))

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def pop_row(self, data):
        row = data.draw(st.integers(0, len(self.rows) - 1))
        self.slots.pop_row(row)
        last = self.rows.pop()
        if row < len(self.rows):
            self.rows[row] = last

    @precondition(lambda self: self.slots is not None)
    @rule()
    def close_slots(self):
        self.slots.release()
        self.slots, self.rows = None, []

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def release(self, data):
        cache, _ = self.handles.pop(self._pick(data))
        cache.release()

    @precondition(lambda self: self.entries)
    @rule(data=st.data())
    def release_entry(self, data):
        entry, _, _ = self.entries.pop(data.draw(st.integers(0, len(self.entries) - 1)))
        entry.release()

    @invariant()
    def every_view_equals_its_model(self):
        for cache, model in self.handles:
            assert cache.length == model.length
            if cache.length:
                keys, values = cache.view()
                want_keys, want_values = model.view()
                np.testing.assert_array_equal(keys, want_keys)
                np.testing.assert_array_equal(values, want_values)

    @invariant()
    def every_slot_row_equals_its_model(self):
        if self.slots is None:
            return
        assert self.slots.lengths == [model.length for model in self.rows]
        assert self.slots.length == max(self.slots.lengths, default=0)
        offsets = self.slots.row_offsets()
        if len(set(self.slots.lengths)) > 1:
            assert offsets.tolist() == self.slots.lengths
        else:
            assert offsets is None
        for row, model in enumerate(self.rows):
            keys, values = model.view()
            np.testing.assert_array_equal(self.slots._slab.k[row, :, : model.length], keys[0])
            np.testing.assert_array_equal(self.slots._slab.v[row, :, : model.length], values[0])

    @invariant()
    def every_entry_still_reads_what_was_inserted(self):
        for entry, keys, values in self.entries:
            got_keys, got_values = entry.view()
            np.testing.assert_array_equal(got_keys, keys)
            np.testing.assert_array_equal(got_values, values)

    @invariant()
    def a_slab_is_read_only_exactly_while_an_entry_holds_it(self):
        held = [cache._slab for cache, _ in self.handles if cache._slab is not None]
        if self.slots is not None:
            held.append(self.slots._slab)
        for slab in held:
            assert slab.k.flags.writeable and slab.v.flags.writeable
        for entry, _, _ in self.entries:
            assert not entry._slab.k.flags.writeable and not entry._slab.v.flags.writeable

    def teardown(self):
        if self.slots is not None:
            self.slots.release()
        for cache, _ in self.handles:
            cache.release()
        for entry, _, _ in self.entries:
            entry.release()
        stats = self.arena.stats()
        assert stats["bytes_in_use"] == 0
        assert stats["slabs_dropped_live"] == 0


ArenaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, database=None
)
TestArenaMachine = ArenaMachine.TestCase

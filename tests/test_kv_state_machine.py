"""``KVCache`` against ``DenseKVCache``: a hypothesis state machine over one arena.

Every live handle carries a dense model — the concatenate-on-append
reference — and every rule applies the same operation to both: append,
truncate, share a prefix and alias it back as a reader, steal storage with
``take_from``, admit a batch-1 row with ``merge_row``, keep rows with
``select_rows``, release.  Copy-on-write, in-place growth and the writer
seat are then exercised in orders no hand-written test picks, and the
invariants are the arena's whole contract: every handle's ``view()`` equals
its model, every shared claim still reads what was shared, and once
everything is released no byte is in use and no slab was dropped live.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.nn.kv_arena import DenseKVCache, KVArena, KVCache

HEADS, DIM = 2, 3


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
        self.claims: list[tuple[object, np.ndarray, np.ndarray]] = []  # SlabRef, keys, values
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
        keys, values = self._columns(cache.batch_size or 1, count)
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
    def share(self, data):
        cache, model = self.handles[self._pick(data, filled=True)]
        length = data.draw(st.integers(1, cache.length))
        keys, values = model.view()
        self.claims.append(
            (cache.share(length), keys[:, :, :length].copy(), values[:, :, :length].copy())
        )

    @precondition(lambda self: self.claims)
    @rule(data=st.data())
    def alias(self, data):
        claim, keys, values = data.draw(st.sampled_from(self.claims))
        length = data.draw(st.integers(1, claim.length))
        self.handles.append(
            (claim.alias(length), _dense(keys[:, :, :length], values[:, :, :length]))
        )

    @precondition(lambda self: len(self.handles) >= 2)
    @rule(data=st.data())
    def take_from(self, data):
        thief, victim = data.draw(st.permutations(range(len(self.handles))))[:2]
        (cache, _), (other, model) = self.handles[thief], self.handles[victim]
        cache.take_from(other)
        self.handles[thief] = (cache, _dense(*model.view()))
        self.handles[victim] = (other, DenseKVCache())

    @precondition(
        lambda self: any(c.batch_size == 1 for c, _ in self.handles)
        and sum(1 for c, _ in self.handles if c.length) >= 2
    )
    @rule(data=st.data(), extra=st.integers(0, 2))
    def merge_row(self, data, extra):
        rows = [i for i, (c, _) in enumerate(self.handles) if c.batch_size == 1]
        own_index = data.draw(st.sampled_from(rows))
        shared_index = data.draw(
            st.sampled_from([i for i, (c, _) in enumerate(self.handles) if c.length and i != own_index])
        )
        (shared, shared_model), (own, own_model) = self.handles[shared_index], self.handles[own_index]
        width = max(shared.length, own.length) + extra
        keys, values = shared_model.view()
        own_keys, own_values = own_model.view()
        merged_keys = np.zeros((keys.shape[0] + 1, HEADS, width, DIM), dtype=np.float32)
        merged_values = np.zeros_like(merged_keys)
        merged_keys[:-1, :, width - keys.shape[2] :] = keys
        merged_values[:-1, :, width - keys.shape[2] :] = values
        merged_keys[-1, :, width - own_keys.shape[2] :] = own_keys[0]
        merged_values[-1, :, width - own_keys.shape[2] :] = own_values[0]
        shared.merge_row(own, width)
        self.handles[shared_index] = (shared, _dense(merged_keys, merged_values))

    @precondition(lambda self: any(cache.length for cache, _ in self.handles))
    @rule(data=st.data())
    def select_rows(self, data):
        index = self._pick(data, filled=True)
        cache, model = self.handles[index]
        keep = data.draw(
            st.lists(st.integers(0, cache.batch_size - 1), min_size=1, unique=True)
        )
        trim = data.draw(st.integers(0, cache.length - 1))
        keys, values = model.view()
        cache.select_rows(keep, trim)
        self.handles[index] = (cache, _dense(keys[keep][:, :, trim:], values[keep][:, :, trim:]))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def release(self, data):
        cache, _ = self.handles.pop(self._pick(data))
        cache.release()

    @precondition(lambda self: self.claims)
    @rule(data=st.data())
    def release_claim(self, data):
        claim, _, _ = self.claims.pop(data.draw(st.integers(0, len(self.claims) - 1)))
        claim.release()

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
    def every_claim_still_reads_what_was_shared(self):
        for claim, keys, values in self.claims:
            np.testing.assert_array_equal(claim.slab.k[:, :, : claim.length], keys)
            np.testing.assert_array_equal(claim.slab.v[:, :, : claim.length], values)

    def teardown(self):
        for cache, _ in self.handles:
            cache.release()
        for claim, _, _ in self.claims:
            claim.release()
        stats = self.arena.stats()
        assert stats["bytes_in_use"] == 0
        assert stats["slabs_dropped_live"] == 0


ArenaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, database=None
)
TestArenaMachine = ArenaMachine.TestCase

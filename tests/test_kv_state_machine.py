"""``KVCache``, ``SlotKVCache`` and the prefix store against ``DenseKVCache``:
a hypothesis state machine over one arena.

Every live handle and every occupied slot row carries a token context and
a dense model — the concatenate-on-append reference — built from it, and
every rule applies the same operation to both.  K/V columns are a function
of the token prefix up to them, as a causal model's are, so whatever the
store hands back for a prompt can be checked against the reference for
that prompt.  Handles: append, release.  Slots (a decoding batch's layer
cache): open one; admit a prompt as admission does — open the next slot
row, gather the prompt's longest stored path into it, prefill the rest in
the row, seat it (or drop it unseated, as a prefill that raises does); write every row at its own offset, roll one row back,
retire a row into the store (pinned or not) or drop it, the last row
moving into its slot; close.  The store: insert a handle (pinned or not),
try to write a segment, unpin, clear.  The invariants are the store's and
the arena's whole contract: every view equals its model, every node reads
what was inserted, the walk finds the longest stored path, a pinned path
survives eviction,
at most ``capacity`` unpinned nodes are kept, the store's ``bytes_held``
is what its segments hold, and once everything is released no byte is in
use and no slab was dropped live.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine import PrefixCache
from repro.engine.batched_decode import DecodingBatch
from repro.nn.kv_arena import DenseKVCache, KVArena, KVCache, SlotKVCache, SlotRow
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM, TransformerConfig

HEADS, DIM = 2, 3
SLOTS, COLUMNS = 3, 12
CAPACITY = 2

TOKENS = st.lists(st.integers(1, 3), min_size=1, max_size=5)


def _kv(tokens: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(1, H, T, D)`` keys/values; column ``i`` depends on ``tokens[: i + 1]`` only."""
    columns, state = [], 0
    for token in tokens:
        state = (state * 31 + token) % 10007
        columns.append(state + np.arange(HEADS * DIM, dtype=np.float32) / 64)
    keys = np.array(columns, dtype=np.float32).reshape(len(tokens), HEADS, DIM)
    keys = keys.transpose(1, 0, 2)[None].copy()
    return keys, -keys


def _dense(tokens: list[int]) -> DenseKVCache:
    model = DenseKVCache()
    if tokens:
        model.append(*_kv(tokens))
    return model


def _common(left, right) -> int:
    """The length of the common prefix of two token sequences."""
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


def _start(node) -> int:
    """The column a node's segment starts at: the offsets summed up its parent chain."""
    if node.parent is None:
        return 0
    return _start(node.parent) + node.offset


def _path_tokens(node) -> tuple[int, ...]:
    """A node's whole token path: its parent's path up to where it hangs, then its own tokens."""
    if node.parent is None:
        return ()
    return _path_tokens(node.parent)[: _start(node)] + node.tokens


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = KVArena(block_size=2)
        self.store = PrefixCache(CAPACITY)
        self.handles: list[tuple[KVCache, DenseKVCache, list[int]]] = []
        self.slots: SlotKVCache | None = None
        self.rows: list[list[int]] = []  # the token context of each occupied slot, in slot order
        self.pins: list[tuple[object, list[int]]] = []  # (node, the pinned context)

    def _contexts(self) -> list[list[int]]:
        return [tokens for _, _, tokens in self.handles] + self.rows + [t for _, t in self.pins]

    # -- handles -------------------------------------------------------------

    @rule(tokens=TOKENS)
    def new_handle(self, tokens):
        cache = KVCache(self.arena)
        cache.append(*_kv(tokens))
        self.handles.append((cache, _dense(tokens), tokens))

    @precondition(lambda self: self.handles)
    @rule(data=st.data(), more=TOKENS)
    def append(self, data, more):
        cache, model, tokens = self.handles[data.draw(st.integers(0, len(self.handles) - 1))]
        keys, values = _kv(tokens + more)
        cache.append(keys[:, :, len(tokens) :].copy(), values[:, :, len(tokens) :].copy())
        model.append(keys[:, :, len(tokens) :].copy(), values[:, :, len(tokens) :].copy())
        tokens.extend(more)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def release(self, data):
        cache, _, _ = self.handles.pop(data.draw(st.integers(0, len(self.handles) - 1)))
        cache.release()

    # -- slots ---------------------------------------------------------------

    @precondition(lambda self: self.slots is None)
    @rule()
    def open_slots(self):
        self.slots = SlotKVCache(self.arena, SLOTS, HEADS, DIM, COLUMNS)

    @precondition(lambda self: self.slots is not None and len(self.rows) < SLOTS)
    @rule(data=st.data(), tail=TOKENS, raises=st.booleans())
    def admit(self, data, tail, raises):
        contexts = self._contexts()
        base = data.draw(st.sampled_from(contexts)) if contexts else []
        prompt = (base[: data.draw(st.integers(0, len(base)))] + tail)[:COLUMNS]
        longest = max(
            (_common(prompt[:-1], _path_tokens(node)) for node in self.store._nodes),
            default=0,
        )
        row = SlotRow(self.slots)
        match = self.store.lookup(prompt)
        if match is None:
            assert longest == 0 or len(prompt) < 2
        else:
            assert match[0] == longest
            self.store.gather(match, [row])
        assert row.length == (0 if match is None else longest)
        keys, values = _kv(prompt)
        got = row.append(keys[:, :, row.length :].copy(), values[:, :, row.length :].copy())
        np.testing.assert_array_equal(got[0], keys)  # the prefill attends the whole prompt
        np.testing.assert_array_equal(got[1], values)
        if raises:  # the half-open row is dropped: it was never seated
            return
        self.slots.seat(row)
        self.rows.append(list(prompt))

    @precondition(lambda self: self.rows and self.slots.length < COLUMNS)
    @rule(data=st.data())
    def write(self, data):
        count = data.draw(st.integers(1, COLUMNS - self.slots.length))
        draw = st.lists(st.integers(1, 3), min_size=count, max_size=count)
        new = [data.draw(draw) for _ in self.rows]
        keys = np.concatenate(
            [_kv(row + more)[0][:, :, len(row) :] for row, more in zip(self.rows, new)]
        )
        self.slots.append(keys, -keys)
        for row, more in zip(self.rows, new):
            row.extend(more)

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def roll_back(self, data):
        row = data.draw(st.integers(0, len(self.rows) - 1))
        length = data.draw(st.integers(0, self.slots.lengths[row]))
        self.slots.roll_back(row, self.slots.lengths[row] - length)
        del self.rows[row][length:]

    @precondition(lambda self: self.rows)
    @rule(data=st.data(), insert=st.booleans(), pin=st.booleans())
    def retire(self, data, insert, pin):
        row = data.draw(st.integers(0, len(self.rows) - 1))
        tokens = self.rows[row]
        if insert and tokens:  # a normal finish leaves its fed context in the store
            self._inserted(self.store.insert(tokens, [self.slots], row, pin=pin), tokens, pin)
        self.slots.pop_row(row)
        last = self.rows.pop()
        if row < len(self.rows):
            self.rows[row] = last

    @precondition(lambda self: self.slots is not None)
    @rule()
    def close_slots(self):
        self.slots.release()
        self.slots, self.rows = None, []

    # -- the store -----------------------------------------------------------

    def _inserted(self, node, tokens: list[int], pin: bool) -> None:
        if pin:
            assert node is not None
            self.pins.append((node, list(tokens)))

    @precondition(lambda self: self.handles)
    @rule(data=st.data(), pin=st.booleans())
    def insert_handle(self, data, pin):
        cache, _, tokens = self.handles[data.draw(st.integers(0, len(self.handles) - 1))]
        self._inserted(self.store.insert(tokens, [cache], 0, pin=pin), tokens, pin)

    @precondition(lambda self: self.store._nodes)
    @rule(data=st.data())
    def write_segment(self, data):
        node = data.draw(st.sampled_from(list(self.store._nodes)))
        keys, values = _kv([1])
        with pytest.raises(ValueError):
            node.caches[0].append(keys, values)

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def unpin(self, data):
        node, _ = self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1)))
        self.store.unpin(node)

    @rule()
    def clear(self):
        self.store.clear()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_view_equals_its_model(self):
        for cache, model, tokens in self.handles:
            assert cache.length == model.length == len(tokens)
            if cache.length:
                keys, values = cache.view()
                want_keys, want_values = model.view()
                np.testing.assert_array_equal(keys, want_keys)
                np.testing.assert_array_equal(values, want_values)

    @invariant()
    def every_slot_row_equals_its_model(self):
        if self.slots is None:
            return
        assert self.slots.lengths == [len(tokens) for tokens in self.rows]
        assert self.slots.length == max(self.slots.lengths, default=0)
        offsets = self.slots.row_offsets()
        if len(set(self.slots.lengths)) > 1:
            assert offsets.tolist() == self.slots.lengths
        else:
            assert offsets is None
        for row, tokens in enumerate(self.rows):
            if tokens:
                keys, values = _dense(tokens).view()
                np.testing.assert_array_equal(self.slots._slab.k[row, :, : len(tokens)], keys[0])
                np.testing.assert_array_equal(self.slots._slab.v[row, :, : len(tokens)], values[0])

    @invariant()
    def every_node_reads_what_was_inserted(self):
        held = 0
        for node in self.store._nodes:
            (segment,) = node.caches
            start = _start(node)
            stop = start + len(node.tokens)
            keys, values = _dense(list(_path_tokens(node))).view()
            np.testing.assert_array_equal(segment.view()[0], keys[:, :, start:stop])
            np.testing.assert_array_equal(segment.view()[1], values[:, :, start:stop])
            assert not segment.view()[0].flags.writeable
            held += segment.nbytes
        assert self.store.bytes_held == held

    @invariant()
    def a_pinned_path_survives_eviction(self):
        through: Counter = Counter()  # pinned paths through each node
        for node, tokens in self.pins:
            assert self.store._walk(tuple(tokens), len(tokens))[1] == len(tokens)
            while node.parent is not None:
                through[node] += 1
                node = node.parent
        for node in self.store._nodes:
            assert node.pins == through[node]
        unpinned = [node for node in self.store._nodes if not node.pins]
        assert self.store._unpinned == len(unpinned) <= CAPACITY

    def teardown(self):
        if self.slots is not None:
            self.slots.release()
        for cache, _, _ in self.handles:
            cache.release()
        for node, _ in self.pins:
            self.store.unpin(node)
        self.store.clear()
        assert len(self.store) == 0 and self.store.bytes_held == 0
        stats = self.arena.stats()
        assert stats["bytes_in_use"] == 0
        assert stats["slabs_dropped_live"] == 0


ArenaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, database=None
)
TestArenaMachine = ArenaMachine.TestCase


def test_a_decode_step_is_bit_identical_to_row_by_row_writes(monkeypatch):
    """An append over rows of different lengths writes K and V with one
    scattered assignment each; 23 decode steps at 8 rows read the same
    logits, bit for bit, as writing each row's columns alone."""
    config = TransformerConfig(vocab_size=64, n_positions=64, dim=32, n_layers=2, n_heads=4)
    model = DecoderLM(config, numpy_rng(0))
    prompts = [[1 + (7 * row + i) % 63 for i in range(2 + 3 * row)] for row in range(8)]

    def decode() -> list[np.ndarray]:
        batch = DecodingBatch(model, len(prompts))
        pending = batch.admit_prompts(prompts, list(range(len(prompts))))
        assert len(set(batch.caches[0].lengths)) == len(prompts)
        steps = []
        for _ in range(23):
            logits = model.forward_incremental(np.array(pending)[:, None], batch.caches)
            steps.append(logits)
            pending = logits[:, -1].argmax(axis=-1).tolist()
        batch.retire(list(range(len(prompts))))
        return steps

    scattered = decode()
    append = SlotKVCache.append

    def row_by_row(cache, keys, values):
        starts, new = list(cache.lengths), keys.shape[2]
        views = append(cache, np.zeros_like(keys), np.zeros_like(values))
        for row, start in enumerate(starts):
            cache._slab.k[row, :, start : start + new] = keys[row]
            cache._slab.v[row, :, start : start + new] = values[row]
        return views

    monkeypatch.setattr(SlotKVCache, "append", row_by_row)
    for got, want in zip(scattered, decode(), strict=True):
        assert np.array_equal(got, want)

"""Shared fixtures: tiny corpora, tokenizers and models reused across tests.

Everything here is deliberately small — the definitive training runs live in
benchmarks/, while tests only need enough signal to exercise code paths and
invariants.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dataset import build_finetune_dataset, build_galaxy_corpus, split_corpus
from repro.engine import DecodingBatch, InferenceEngine
from repro.fleet.worker import SPEC_TRAIN_TEXTS, SPEC_VOCAB_SIZE, WorkerSpec
from repro.nn.kv_arena import KVArena, SlotKVCache, SlotRow
from repro.nn.layers import cross_entropy
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import GenerationResult, advance, generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.rng import SeededRng

FIG1_PLAYBOOK = """---
- hosts: servers
  tasks:
    - name: Install SSH server
      ansible.builtin.apt:
        name: openssh-server
        state: present
    - name: Start SSH server
      ansible.builtin.service:
        name: ssh
        state: started
"""


@pytest.fixture(scope="session")
def rng() -> SeededRng:
    return SeededRng(1234)


@pytest.fixture(scope="session")
def galaxy_corpus():
    return build_galaxy_corpus(SeededRng(99).child("galaxy"), scale=0.001)


@pytest.fixture(scope="session")
def finetune_dataset(galaxy_corpus):
    splits = split_corpus(galaxy_corpus, SeededRng(99).child("split"))
    return build_finetune_dataset(splits.train, splits.validation, splits.test)


@pytest.fixture(scope="session")
def tiny_tokenizer(galaxy_corpus) -> BpeTokenizer:
    return BpeTokenizer.train(galaxy_corpus.texts()[:60], vocab_size=420)


@pytest.fixture(scope="session")
def tiny_config(tiny_tokenizer) -> TransformerConfig:
    return TransformerConfig(
        vocab_size=tiny_tokenizer.vocab_size,
        n_positions=64,
        dim=32,
        n_layers=2,
        n_heads=4,
    )


@pytest.fixture()
def tiny_network(tiny_config) -> DecoderLM:
    return DecoderLM(tiny_config, numpy_rng(0))


@pytest.fixture(scope="session")
def make_engine():
    """Build a fresh tiny tokenizer-equipped engine per call.

    The tokenizer and the random-weight network (the default
    :class:`~repro.fleet.worker.WorkerSpec` shapes) are built once per test
    session and shared — inference never writes weights — while each
    engine owns its arena, prefix cache and metrics registry, so counts
    never leak between tests.  No stop ids: every completion is exactly
    its budget long.  Keyword arguments go to :class:`InferenceEngine`.
    """
    spec = WorkerSpec()
    tokenizer = BpeTokenizer.train(list(SPEC_TRAIN_TEXTS), vocab_size=SPEC_VOCAB_SIZE)
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        n_positions=spec.n_positions,
        dim=spec.dim,
        n_layers=spec.n_layers,
        n_heads=spec.n_heads,
    )
    network = DecoderLM(config, numpy_rng(spec.seed))

    def make(**kwargs) -> InferenceEngine:
        kwargs.setdefault("name", "tiny")
        return InferenceEngine(network, tokenizer, **kwargs)

    return make


class GenerationGate:
    """Counts, and until released parks, every generation of ``engine``.

    Wraps ``engine.complete_batch_detailed`` as an instance attribute — the
    service looks it up per call — so a test can hold an admission slot
    for real, or count how many decode calls a request pattern costs.
    ``batches`` lists the prompts of each call in arrival order.
    """

    def __init__(self, engine, *, closed: bool = True):
        self.entered = threading.Event()
        self.release = threading.Event()
        if not closed:
            self.release.set()
        self.batches: list[list[str]] = []
        inner = engine.complete_batch_detailed

        def gated(prompts, *args, **kwargs):
            self.batches.append(list(prompts))
            self.entered.set()
            assert self.release.wait(timeout=10), "test forgot to release the gate"
            return inner(prompts, *args, **kwargs)

        engine.complete_batch_detailed = gated

    @property
    def calls(self) -> int:
        return len(self.batches)


def evaluate_loss(network: DecoderLM, ids: np.ndarray, targets: np.ndarray) -> float:
    """The loss of one inference-mode forward, no gradient accumulated: the
    numerical side of the gradient checks."""
    loss, _ = cross_entropy(network.forward(ids, training=False), targets, -1)
    return loss


def drain(batcher) -> None:
    """Step a batcher until its queue and active batch are both empty."""
    while batcher.step():
        pass


def gather_into_slot(store, match, columns: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, copies of the ``(keys, values)`` a store hit writes into a
    slot row: ``match`` gathered into the open row of a one-slot
    :class:`SlotKVCache` ``columns`` wide, as admission gathers it."""
    segments = match[1][-1][0].caches  # the path's last node: one segment per layer
    arena = KVArena()
    slots = []
    for segment in segments:
        _, heads, _, head_dim = segment.view()[0].shape
        slots.append(SlotKVCache(arena, 1, heads, head_dim, columns))
    rows = [SlotRow(cache) for cache in slots]
    store.gather(match, rows)
    gathered = [
        (cache._slab.k[:, :, : row.length].copy(), cache._slab.v[:, :, : row.length].copy())
        for cache, row in zip(slots, rows)
    ]
    for cache in slots:
        cache.release()
    assert arena.bytes_in_use == 0
    return gathered


def greedy_via_admit_prompts(model, prompts, max_new_tokens, stop_ids=frozenset()):
    """Greedy-decode ``prompts`` as one static batch: every prompt prefilled
    and admitted up front (``DecodingBatch.admit_prompts``), then lockstep
    ``step`` calls, retiring rows as they stop — rows of mixed lengths from
    the first step on, which must agree with ``generate_greedy``."""
    window = model.config.n_positions
    planned = [plan_prompt(window, prompt, max_new_tokens) for prompt in prompts]
    generated: list[list[int]] = [[] for _ in prompts]
    results: list[GenerationResult | None] = [None] * len(prompts)
    batch = DecodingBatch(model, len(prompts))
    next_tokens = batch.admit_prompts([prompt for prompt, _ in planned], list(range(len(prompts))))
    while True:
        finished = []
        for position, next_id in enumerate(next_tokens):
            row = batch.rows[position]
            index = row.payload
            prompt, budget = planned[index]
            reason = advance(generated[index], next_id, stop_ids, max_new_tokens, len(prompt), window)
            if reason is None:
                row.pending = next_id
            else:
                results[index] = GenerationResult(generated[index], reason, budget)
                finished.append(position)
        batch.retire(finished)
        if not batch.rows:
            return results
        next_tokens = batch.step()



#: Two logits closer than this are a float32 tie: either token is a correct
#: greedy choice (DESIGN.md "Inference engine").
TIE_MARGIN = 1e-4


def greedy_or_tie(model, prompt_ids, token_ids, max_new_tokens, stop_ids=frozenset()) -> bool:
    """Whether ``token_ids`` is a greedy completion of ``prompt_ids`` — the
    one definition of "same output" the conformance suites share.

    It is when it equals :func:`generate_greedy`'s, or when it is as long
    and every token lies within :data:`TIE_MARGIN` of its own step's best
    logit (one full forward over the prompt and the tokens): batched
    decoding sums float32 in another order and may take either side of a
    tie.  ``bench/loadgen.py: Oracle`` applies the same rule.
    """
    token_ids = list(token_ids)
    expected = generate_greedy(model, prompt_ids, max_new_tokens, stop_ids).token_ids
    if token_ids == expected:
        return True
    if len(token_ids) != len(expected):
        return False
    prompt, _ = plan_prompt(model.config.n_positions, prompt_ids, max_new_tokens)
    ids = np.array([list(prompt) + token_ids], dtype=np.int64)
    steps = model.forward(ids, training=False)[0, len(prompt) - 1 :]
    return all(logits[token] >= logits.max() - TIE_MARGIN for logits, token in zip(steps, token_ids))


@pytest.fixture(scope="session")
def fig1_text() -> str:
    return FIG1_PLAYBOOK


@pytest.fixture()
def np_rng() -> np.random.Generator:
    return np.random.default_rng(0)

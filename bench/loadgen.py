"""Closed-loop load generation, the end-to-end metrics, and the output oracle.

All loops are **closed**: a client sends its next call only after the previous
one returned — what an editing session does.  Latencies are read on the load
generator's own clock around the ``PredictionClient`` calls.

The timed run has **one** client and sends the same pass of ops several times.
This host is a shared 2-core VM whose speed wanders by tens of percent for
seconds to minutes at a time, and its neighbours only ever add time: so an
op's latency is taken as the **least** of its timings over the passes (what
``timeit`` does with its repeats), and every timing metric is a statistic over
ops of that.  Two concurrent clients are measured as well, in the traced run
and ungated: their timings depend on how the two requests happen to overlap
under the interpreter lock, which no choice of estimator steadies.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.worker import build_service
from repro.nn.sampling import generate_greedy
from repro.obs.distributed import TRACE_ID_HEADER
from repro.utils.rng import SeededRng

from bench.fleet import SPEC, Fleet
from bench.workloads import Call, Workload

#: Ops compared byte-for-byte against the oracle, per run.
ORACLE_SAMPLE = 32
#: Logit gap below which two tokens count as tied for greedy decoding: about
#: a thousand float32 roundings of a unit logit, far above what reordering a
#: 2-layer, 64-wide model's sums can move and far below the ~1e-2 gap of an
#: ordinary step.
TIE_MARGIN = 1e-4
#: Tie re-derivations give up (and the completion fails) past this many.
MAX_TIE_VARIANTS = 16


@dataclass
class Result:
    """What one call looked like from the caller's side."""

    call: Call
    latency_s: float = 0.0
    #: Send → first token the caller can show; equals ``latency_s`` on
    #: non-streaming calls, by definition.
    ttft_s: float = 0.0
    #: The response body (for streams, the ``done`` event's data).
    payload: dict | None = None
    #: Streams only: arrival offsets of each ``token`` event, from send.
    token_offsets_s: list[float] = field(default_factory=list)
    heartbeats: int = 0
    error: str | None = None

    @property
    def completions(self) -> list[str]:
        if self.call.kind == "batch":
            return self.payload["completions"]
        return [self.payload["completion"]]


@dataclass
class Phase:
    """One load phase: every call's result, client after client, and the wall time."""

    results: list[Result]
    wall_s: float

    @property
    def completing(self) -> list[Result]:
        """Calls that return a completion (``close`` only counts toward wall
        time and failures)."""
        return [result for result in self.results if result.call.kind != "close"]

    @property
    def failed(self) -> list[Result]:
        return [result for result in self.results if result.error is not None]

    @property
    def succeeded(self) -> list[Result]:
        """The completion-returning calls that worked: what the metrics are
        computed over.  Empty when nothing can be measured."""
        return [result for result in self.completing if result.error is None]


def _execute(client, call: Call, budget: int, session: dict, headers) -> Result:
    result = Result(call)
    started = time.perf_counter()
    try:
        if call.kind == "predict":
            result.payload = client.predict(call.prompts[0], budget, headers=headers)
        elif call.kind == "batch":
            result.payload = client.predict_batch(list(call.prompts), budget, headers=headers)
        elif call.kind == "create":
            result.payload = client.session_create(call.prompts[0], budget, headers=headers)
            session["id"] = result.payload["session_id"]
        elif call.kind == "extend":
            result.payload = client.session_extend(
                session["id"], call.prompts[0], budget, headers=headers
            )
        elif call.kind == "close":
            result.payload = client.session_close(session.pop("id"))
            if not result.payload["closed"]:
                raise RuntimeError("session was already gone at close")
        else:
            deltas = []
            for event in client.predict_stream(call.prompts[0], budget, headers=headers):
                if event.event == "token":
                    result.token_offsets_s.append(time.perf_counter() - started)
                    deltas.append(event.json()["text"])
                elif event.event == "done":
                    result.payload = event.json()
                elif event.event == "error":
                    raise RuntimeError(f"in-band stream error: {event.data}")
                else:
                    result.heartbeats += 1
            if result.payload is None:
                raise RuntimeError("stream ended without a done event")
            if "".join(deltas) != result.payload["completion"]:
                raise RuntimeError("streamed deltas differ from done.completion")
    except Exception:  # the loop must survive any one call's failure
        result.error = traceback.format_exc(limit=2).strip()
        result.payload = None
    result.latency_s = time.perf_counter() - started
    result.ttft_s = result.token_offsets_s[0] if result.token_offsets_s else result.latency_s
    return result


def run_phase(
    fleet: Fleet, workload: Workload, per_client: list[list[Call]], recorder=None
) -> Phase:
    """Drive one phase: one thread and one connection-at-a-time per call list.

    With a ``recorder`` (traced runs only) each client is wrapped and each
    call stamped with the ``X-Repro-Trace-Id`` propagation header, so spans
    recorded on server threads attach to the client span that caused them;
    without one no header is sent.
    """
    results: list[list[Result]] = [[] for _ in per_client]
    ends = [0.0] * len(per_client)
    barrier = threading.Barrier(len(per_client) + 1)

    def drive(index: int) -> None:
        client = fleet.client()
        if recorder is not None:
            recorder.attach_client(client)
        session: dict = {}
        barrier.wait()
        for number, call in enumerate(per_client[index]):
            headers = None
            if recorder is not None and call.kind != "close":
                headers = {TRACE_ID_HEADER: f"c{index}-{number}"}
            results[index].append(_execute(client, call, workload.max_new_tokens, session, headers))
        ends[index] = time.perf_counter()

    threads = [threading.Thread(target=drive, args=(index,)) for index in range(len(per_client))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return Phase([result for client in results for result in client], max(ends) - started)


class Oracle:
    """Plain ``generate_greedy`` on a model + tokenizer built independently
    from the same spec (no engine, batcher, cache or HTTP in the way): what
    every completion must equal, byte for byte.

    One exception is allowed, and counted.  The fleet decodes in batches
    whose make-up depends on what else is in flight, so its float32 sums run
    in another order than the oracle's; where the two best logits lie within
    :data:`TIE_MARGIN` of each other either token is a correct greedy choice.
    A completion that differs from the oracle's is therefore re-derived step
    by step, following both tokens at every such tie, and accepted only if it
    is one of the completions that yields.
    """

    def __init__(self) -> None:
        _, engine = build_service(SPEC)
        self.tokenizer, self.model = engine.tokenizer, engine.network

    def check(self, result: Result, budget: int) -> tuple[str | None, int]:
        """``(what differed or None, completions accepted only as a tie)``.

        Also verifies the token count ``tokens_per_s`` assumes: the engines
        have no stop ids and the window is ample, so every completion is
        exactly ``budget`` tokens.
        """
        ties = 0
        for prompt, completion in zip(result.call.prompts, result.completions):
            prompt_ids = self.tokenizer.encode(prompt)
            expected = generate_greedy(self.model, prompt_ids, budget)
            if len(expected.token_ids) != budget:
                return f"oracle produced {len(expected.token_ids)} tokens, budget {budget}", ties
            if completion == self.tokenizer.decode(expected.token_ids):
                continue
            if completion not in self._tie_variants(prompt_ids, budget):
                return f"completion differs from greedy oracle for prompt {prompt[-40:]!r}", ties
            ties += 1
        return None, ties

    def _tie_variants(self, prompt_ids: list[int], budget: int) -> set[str]:
        """Every completion greedy decoding yields when a step whose two best
        logits lie within :data:`TIE_MARGIN` may take either token."""
        variants: set[str] = set()
        pending: list[list[int]] = [[]]
        while pending and len(variants) < MAX_TIE_VARIANTS:
            generated = pending.pop()
            while len(generated) < budget:
                ids = np.array([prompt_ids + generated])
                logits = self.model.forward(ids, training=False)[0, -1]
                best = int(np.argmax(logits))
                for token in np.flatnonzero(logits >= logits[best] - TIE_MARGIN):
                    if token != best:
                        pending.append(generated + [int(token)])
                generated = generated + [best]
            variants.add(self.tokenizer.decode(generated))
        return variants


def check_outputs(phase: Phase, workload: Workload, seed: int) -> tuple[int, int, int]:
    """Compare a seeded sample of ops against the oracle; a mismatch marks the
    op failed.  Returns ``(checked, mismatched, completions accepted as ties)``."""
    candidates = phase.succeeded
    rng = SeededRng(seed).child("bench", "oracle", workload.name)
    sample = rng.sample(candidates, min(ORACLE_SAMPLE, len(candidates)))
    oracle = Oracle()
    ties = 0
    for result in sample:
        result.error, tied = oracle.check(result, workload.max_new_tokens)
        ties += tied
    return len(sample), sum(result.error is not None for result in sample), ties


def least_disturbed(passes: list[Phase], field: str) -> np.ndarray:
    """Per op of the pass, in issue order, the least ``field`` (seconds) any
    pass measured for it.  Failed sends do not count: an op that failed in
    every pass reads infinity."""
    return np.array(
        [
            [getattr(result, field) if result.error is None else np.inf for result in phase.results]
            for phase in passes
        ]
    ).min(axis=0)


def end_to_end(passes: list[Phase], workload: Workload) -> dict[str, float]:
    """The latency/throughput end-to-end metrics of the timed passes.

    Each op's latency is its least-disturbed timing; the percentiles are over
    the completion-returning ops of the pass that ever succeeded.
    ``tokens_per_s`` is the throughput of the one closed-loop client at those
    latencies: the tokens a pass delivers over the sum of every call's,
    ``close`` included.
    """
    calls = [result.call for result in passes[0].results]
    latencies = least_disturbed(passes, "latency_s")
    succeeded = np.isfinite(latencies)
    completing = succeeded & np.array([call.kind != "close" for call in calls])
    ttfts = least_disturbed(passes, "ttft_s")
    tokens = np.array([workload.max_new_tokens * len(call.prompts) for call in calls])
    return {
        "latency_p50_ms": float(np.percentile(latencies[completing], 50)) * 1000.0,
        "latency_p95_ms": float(np.percentile(latencies[completing], 95)) * 1000.0,
        "ttft_p50_ms": float(np.percentile(ttfts[completing], 50)) * 1000.0,
        "ttft_p95_ms": float(np.percentile(ttfts[completing], 95)) * 1000.0,
        "tokens_per_s": float(tokens[succeeded].sum() / latencies[succeeded].sum()),
    }

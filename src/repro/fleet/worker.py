"""Fleet workers: one engine replica each, behind a uniform handle.

The router only sees the *worker protocol*, stated once on :class:`_Worker`:
the request surface every backend shares (DESIGN.md "Request surface")
plus the three liveness calls ``heartbeat`` / ``kill`` / ``stop``.

``trace_context`` is a :class:`~repro.obs.distributed.TraceContext`
minted by the router: in-process workers hand it straight to the
service, process workers render it as the ``X-Repro-*`` trace headers on
the HTTP call — either way the replica's spans parent under the router's.

Two implementations ship:

* :class:`InProcessWorker` — a :class:`~repro.serving.service.PredictionService`
  (with its own engine, KV arena and prefix cache) called directly in the
  dispatching thread.  This is the deterministic flavour: it shares the
  process's :mod:`repro.faults` clock and injector, so chaos runs that
  crash a replica mid-decode replay byte-identically.  A crash
  (:class:`~repro.errors.WorkerCrashed` surfacing from an injected decode
  fault, or an explicit :meth:`kill`) aborts every live request on the
  replica's engine — freeing its KV slabs — and converts to
  :class:`~repro.errors.WorkerUnavailableError` for the router.

* :class:`ProcessWorker` — a child process running a
  :class:`~repro.serving.service.RestServer` over an engine built from a
  :class:`WorkerSpec`; the parent side talks to it with a
  :class:`~repro.serving.client.PredictionClient`.  This is the
  throughput flavour: the model is numpy/CPU-bound, so real parallelism
  needs real processes.  Connection failures (refused, reset, timeout)
  surface as :class:`~repro.errors.WorkerUnavailableError` exactly like a
  crash does in-process.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ServiceUnreachableError, WorkerCrashed, WorkerUnavailableError
from repro.faults import clock
from repro.faults.inject import fire

if TYPE_CHECKING:
    from repro.serving.service import PredictionService

#: Tokenizer training corpus for spec-built (random-weight) workers; fixed
#: so every replica of the same spec builds the identical vocabulary.
SPEC_TRAIN_TEXTS = (
    "- name: Install SSH server\n  ansible.builtin.apt:\n    name: openssh-server\n",
    "- name: Start SSH server\n  ansible.builtin.service:\n    name: ssh\n    state: started\n",
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
    "- name: Copy the config\n  ansible.builtin.copy:\n    src: a\n    dest: b\n",
    "---\n- hosts: servers\n  tasks:\n    - name: Install redis\n      ansible.builtin.apt:\n        name: redis\n",
)

#: Entries in a spec-built replica's tokenizer vocabulary.
SPEC_VOCAB_SIZE = 300

#: Entries in every replica's response cache.  A replica seats the engine's
#: default number of batch rows behind its default prefix store.
CACHE_CAPACITY = 8

#: Seconds a :class:`ProcessWorker` child has to report its port.
START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a replica needs to build its engine, picklable.

    With ``checkpoint`` set the worker loads that trained model; otherwise
    it builds a small random-weight model deterministically from ``seed``
    (identical across replicas and replays — handy for benchmarks and
    chaos, useless for real completions).
    """

    seed: int = 0
    checkpoint: str | None = None
    # Wide enough that the loadgen profiles' playbook-head prompts
    # (~110 tokens) fit without left-truncation — truncation keeps the
    # differing *tail* and discards the shared head, which would defeat
    # the prefix affinity the fleet exists to exploit.
    n_positions: int = 160
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 4
    max_new_tokens: int = 24
    max_queue_depth: int | None = 8
    #: Enable span tracing on the replica so ``telemetry()`` drains spans
    #: for the fleet collector; off by default (tracing is opt-in).
    tracing: bool = False
    #: Draft-then-verify speculative decoding: ``speculative_k`` tokens
    #: drafted per decode step by the ``draft_model`` ("ngram" or
    #: "retrieval", built from the fixed corpus so every replica drafts
    #: identically).  Off by default; output is byte-identical either way.
    speculative_k: int = 0
    draft_model: str | None = None


def _draft_model(spec: WorkerSpec, tokenizer):
    """The spec's drafter over ``tokenizer``; None with speculation off."""
    if not spec.speculative_k:
        return None
    from repro.engine.speculative import build_draft_model

    kind = spec.draft_model if spec.draft_model is not None else "retrieval"
    return build_draft_model(kind, tokenizer, SPEC_TRAIN_TEXTS)


def build_service(spec: WorkerSpec):
    """Construct the (service, engine) pair a replica serves.

    Importable module-level function so :class:`ProcessWorker` children can
    run it after a ``spawn``-context fork-exec.
    """
    from repro.serving.service import PredictionService

    if spec.checkpoint is not None:
        from repro.model import load_checkpoint

        model = load_checkpoint(spec.checkpoint)
        engine = model.engine(
            speculative_k=spec.speculative_k,
            draft_model=_draft_model(spec, model.tokenizer),
        )
    else:
        from repro.engine import InferenceEngine
        from repro.nn.parameter import numpy_rng
        from repro.nn.transformer import DecoderLM, TransformerConfig
        from repro.tokenizer.bpe import BpeTokenizer

        tokenizer = BpeTokenizer.train(list(SPEC_TRAIN_TEXTS), vocab_size=SPEC_VOCAB_SIZE)
        config = TransformerConfig(
            vocab_size=tokenizer.vocab_size,
            n_positions=spec.n_positions,
            dim=spec.dim,
            n_layers=spec.n_layers,
            n_heads=spec.n_heads,
        )
        engine = InferenceEngine(
            DecoderLM(config, numpy_rng(spec.seed)),
            tokenizer,
            speculative_k=spec.speculative_k,
            draft_model=_draft_model(spec, tokenizer),
        )
    service = PredictionService(
        engine,
        max_new_tokens=spec.max_new_tokens,
        max_queue_depth=spec.max_queue_depth,
        cache_capacity=CACHE_CAPACITY,
    )
    if spec.tracing:
        from repro.obs import Tracer

        service.obs.attach_tracer(Tracer())
    return service, engine


class _Worker:
    """The worker protocol: the request surface both flavours expose
    (DESIGN.md "Request surface"), stated once over each flavour's own
    ``_call`` / ``_relay``, and the liveness calls the router makes, which
    each flavour answers its own way."""

    worker_id: str

    def predict(self, prompt: str, max_new_tokens=None, deadline_s=None, trace_context=None) -> dict:
        return self._call(
            "predict", prompt, max_new_tokens, deadline_s=deadline_s, trace_context=trace_context
        )

    def predict_batch(
        self, prompts: list[str], max_new_tokens=None, deadline_s=None, trace_context=None
    ) -> dict:
        return self._call(
            "predict_batch", prompts, max_new_tokens, deadline_s=deadline_s, trace_context=trace_context
        )

    def predict_stream(self, prompt: str, max_new_tokens=None, deadline_s=None, trace_context=None):
        """Stream ``(event, data)`` tuples from the replica.

        The generator is returned *after* the flavour's liveness check,
        but the replica can still die mid-stream; ``_relay`` converts that
        to :class:`WorkerUnavailableError` exactly as ``predict`` does, so
        router-side failover semantics stay uniform.
        """
        return self._relay(
            self._call(
                "predict_stream", prompt, max_new_tokens, deadline_s=deadline_s, trace_context=trace_context
            )
        )

    def session_create(self, buffer: str, max_new_tokens=None, deadline_s=None, trace_context=None) -> dict:
        return self._call(
            "session_create", buffer, max_new_tokens, deadline_s=deadline_s, trace_context=trace_context
        )

    def session_extend(
        self, session_id: str, buffer: str, max_new_tokens=None, deadline_s=None, trace_context=None
    ) -> dict:
        return self._call(
            "session_extend",
            session_id,
            buffer,
            max_new_tokens,
            deadline_s=deadline_s,
            trace_context=trace_context,
        )

    def session_close(self, session_id: str) -> dict:
        return self._call("session_close", session_id)

    def health(self) -> dict:
        return dict(self._call("health"), worker=self.worker_id)

    def stats(self) -> dict:
        return self._call("stats")

    def telemetry(self) -> dict:
        return self._call("telemetry")

    def heartbeat(self) -> float:
        """The clock at a successful probe; raises
        :class:`~repro.errors.WorkerUnavailableError` when the replica is dead."""
        raise NotImplementedError

    def kill(self) -> None:
        """Abrupt death (chaos control plane, and the router's drain)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release the replica's resources."""
        raise NotImplementedError


class InProcessWorker(_Worker):
    """One replica served in-process; the deterministic chaos substrate."""

    def __init__(
        self,
        worker_id: str,
        service: PredictionService | None = None,
        engine=None,
        spec: WorkerSpec | None = None,
    ):
        if service is None:
            service, engine = build_service(spec if spec is not None else WorkerSpec())
        self.worker_id = worker_id
        self.service = service
        self.engine = engine if engine is not None else service.engine
        self.alive = False
        self.crashes = 0

    def start(self) -> "InProcessWorker":
        fire("fleet.spawn", worker=self.worker_id)
        self.alive = True
        return self

    # -- failure handling ----------------------------------------------------

    def _unavailable(self) -> WorkerUnavailableError:
        return WorkerUnavailableError(
            f"worker {self.worker_id} is not available", worker_id=self.worker_id
        )

    def _crash(self) -> None:
        """Die the way a process would: drop everything, free the arena."""
        self.alive = False
        self.crashes += 1
        # close_all first: with every session's path unpinned, the clear
        # inside abort_all drops the whole prefix store.
        try:
            self.service.sessions.close_all()
        except Exception:
            pass  # crashing anyway
        self.engine.abort_all()

    def kill(self) -> None:
        """Simulate abrupt replica death (chaos control plane)."""
        if self.alive:
            self._crash()

    def stop(self) -> None:
        self.alive = False

    # -- worker protocol -----------------------------------------------------

    def _guard(self):
        if not self.alive:
            raise self._unavailable()

    def _call(self, method: str, *args, **kwargs):
        """One call against the replica's service, behind the liveness guard.

        The method is looked up by name at call time, so a wrapper set as
        an instance attribute on the service is honoured.  A crash under
        the call drops everything the replica holds and surfaces as
        :class:`WorkerUnavailableError`.
        """
        self._guard()
        try:
            return getattr(self.service, method)(*args, **kwargs)
        except WorkerCrashed as crash:
            self._crash()
            raise self._unavailable() from crash

    def _relay(self, inner):
        try:
            yield from inner
        except WorkerCrashed as crash:
            self._crash()
            raise self._unavailable() from crash
        finally:
            inner.close()

    def session_count(self) -> int:
        """Live server-side keystroke sessions (orphan accounting)."""
        return self.service.sessions.count

    def heartbeat(self) -> float:
        self._guard()
        return clock.now()

    def arena_bytes_in_use(self) -> int:
        """KV bytes the replica's arena still holds (leak accounting)."""
        return self.engine.kv_arena.stats()["bytes_in_use"]


def _process_worker_main(spec: WorkerSpec, port_queue) -> None:
    """Child entry point: build the service, serve REST, report the port."""
    from repro.serving.service import RestServer

    service, _engine = build_service(spec)
    server = RestServer(service, host="127.0.0.1", port=0).start()
    port_queue.put(server.address[1])
    threading.Event().wait()  # serve until the parent terminates us


class ProcessWorker(_Worker):
    """One replica in a child process, reached over HTTP."""

    def __init__(self, worker_id: str, spec: WorkerSpec):
        self.worker_id = worker_id
        self.spec = spec
        self._ctx = multiprocessing.get_context("spawn")
        self._process = None
        self._client = None
        self.url: str | None = None

    def start(self) -> "ProcessWorker":
        from repro.serving.client import PredictionClient

        fire("fleet.spawn", worker=self.worker_id)
        port_queue = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_process_worker_main, args=(self.spec, port_queue), daemon=True
        )
        self._process.start()
        try:
            port = port_queue.get(timeout=START_TIMEOUT_S)
        except Exception as error:
            self.stop()
            raise WorkerUnavailableError(
                f"worker {self.worker_id} failed to start: {error}", worker_id=self.worker_id
            ) from error
        self.url = f"http://127.0.0.1:{port}"
        self._client = PredictionClient(self.url)
        return self

    def kill(self) -> None:
        """Abrupt termination (chaos control plane): SIGTERM, no drain."""
        if self._process is not None:
            self._process.terminate()

    def stop(self) -> None:
        if self._process is not None:
            self._process.terminate()
            self._process.join(timeout=10)
            self._process = None
        if self._client is not None:
            self._client.close()
            self._client = None

    # -- worker protocol -----------------------------------------------------

    def _unavailable(self, error: BaseException) -> WorkerUnavailableError:
        return WorkerUnavailableError(
            f"worker {self.worker_id} unreachable: {error}", worker_id=self.worker_id
        )

    def _call(self, method: str, *args, deadline_s=None, trace_context=None):
        """One client call against the child, in the backend's own terms.

        Seconds become the wire's ``deadline_ms`` and the trace context
        its ``X-Repro-*`` headers.  Every HTTP status comes back as the
        client's typed error untouched; only *no answer at all* means the
        replica is dead.
        """
        if self._client is None:
            raise WorkerUnavailableError(
                f"worker {self.worker_id} is not started", worker_id=self.worker_id
            )
        envelope = {}
        if deadline_s is not None:
            envelope["deadline_ms"] = deadline_s * 1000.0
        if trace_context is not None:
            envelope["headers"] = trace_context.to_headers()
        try:
            return getattr(self._client, method)(*args, **envelope)
        except ServiceUnreachableError as error:
            raise self._unavailable(error) from error

    def _relay(self, inner):
        """The client's :class:`~repro.serving.stream.SseEvent` stream as the
        tuples :class:`InProcessWorker` yields.  The client opens the
        connection on the first pull, so an unreachable child surfaces
        here, before any event flows."""
        try:
            for event in inner:
                if not event.comment:
                    yield event.event, event.json()
        except ServiceUnreachableError as error:
            raise self._unavailable(error) from error

    def heartbeat(self) -> float:
        self._call("health")
        return clock.now()

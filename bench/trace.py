"""Layer-by-layer attribution, measured from outside the program.

A :class:`SpanRecorder` wraps the public methods of each layer on the live
instances (instance-attribute wrappers, as ``OpProfiler.attach`` does; the
two targets that are not instance methods — the module function
``prefill_single`` and ``SseParser.feed``, whose instances are created inside
a call — are patched where they are looked up and restored on detach).  Each
call records one span ``(name, start, end, parent, op, size)`` into an
in-memory list; nothing in ``src/`` is edited and the program's own tracer
stays off.

A span's parent is the span open on the same thread when it began.  Spans
that begin on an idle server thread take the client span with the same op id
— the trace id the load generator stamped on the request, which the REST
handler hands the router as ``trace_context`` — as their parent.

A layer's **self time** is its span's duration minus its children's
durations.  Children run strictly inside their parent (same thread, or a
server thread the blocked client is waiting on) and siblings never overlap,
so self times sum to the client span — the budget that adds up to wall time.
Generators are timed per ``next()``: the time a stream sits suspended belongs
to whoever is consuming it.  The one exception is the client's own stream,
recorded as a single span from first ``next()`` to exhaustion, because that
whole interval is the op's client-observed latency.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.engine.batcher
from repro.obs.distributed import TRACE_ID_HEADER
from repro.serving.stream import SseParser

NAME, START, END, PARENT, OP, SIZE = range(6)
_now = time.perf_counter

_BACKEND_METHODS = ("predict", "predict_batch", "session_create", "session_extend")


def _op_id(kwargs: dict) -> str | None:
    context = kwargs.get("trace_context")
    if context is not None:
        return context.trace_id
    return (kwargs.get("headers") or {}).get(TRACE_ID_HEADER)


class SpanRecorder:
    """Installs the wrappers, holds the spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._roots: dict[str, list] = {}
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str, op: str | None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._roots.get(op)
        record = [name, 0.0, 0.0, parent, parent[OP] if parent is not None else op, None]
        stack.append(record)
        record[START] = _now()
        return record

    def _close(self, record: list) -> None:
        record[END] = _now()
        self._stack().pop()
        self.spans.append(record)

    # -- wrappers ------------------------------------------------------------

    def _call(self, name: str, original, size=None, root: bool = False):
        def traced(*args, **kwargs):
            op = _op_id(kwargs)
            record = self._open(name, op)
            if root:  # a client call: op ids are fresh, so it opened parentless
                self._roots[op] = record
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if size is not None:
                record[SIZE] = size(args, result)
            return result

        return traced

    def _per_next(self, name: str, original):
        def traced(*args, **kwargs):
            return iterate(original(*args, **kwargs), _op_id(kwargs))

        def iterate(inner, op):
            try:
                while True:
                    record = self._open(name, op)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(record)
                    yield item
            finally:
                inner.close()

        return traced

    def _client_stream(self, name: str, original):
        def traced(*args, **kwargs):
            return iterate(original(*args, **kwargs), _op_id(kwargs))

        def iterate(inner, op):
            stack = self._stack()
            record = [name, _now(), 0.0, None, op, None]
            self._roots[op] = record
            try:
                while True:
                    stack.append(record)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    yield item
            finally:
                inner.close()
                record[END] = _now()
                self.spans.append(record)

        return traced

    def _patch(self, owner, attribute: str, wrap, name: str, **options) -> None:
        namespace = vars(owner)
        self._patches.append((owner, attribute, attribute in namespace, namespace.get(attribute)))
        setattr(owner, attribute, wrap(name, getattr(owner, attribute), **options))

    # -- attachment ----------------------------------------------------------

    def attach_client(self, client) -> None:
        for method in _BACKEND_METHODS:
            self._patch(client, method, self._call, f"serving.http.{method}", root=True)
        self._patch(client, "predict_stream", self._client_stream, "serving.http.predict_stream")

    def attach(self, fleet) -> None:
        """Wrap every layer of the running stack below the client."""
        backends = [(fleet.router, "fleet.router")]
        for worker in fleet.workers:
            backends += [(worker, "fleet.worker"), (worker.service, "serving.service")]
        for backend, layer in backends:
            for method in _BACKEND_METHODS:
                self._patch(backend, method, self._call, f"{layer}.{method}")
            self._patch(backend, "predict_stream", self._per_next, f"{layer}.predict_stream")
        for worker in fleet.workers:
            self._attach_engine(worker.service.sessions, worker.engine)
        self._patch(
            repro.engine.batcher,
            "prefill_single",
            self._call,
            "engine.batched_decode.prefill_single",
        )
        self._patch(
            SseParser,
            "feed",
            self._call,
            "serving.stream.feed",
            size=lambda args, events: len(events),
        )

    def _attach_engine(self, sessions, engine) -> None:
        call = self._call
        for method in ("create", "extend"):
            self._patch(sessions, method, call, f"serving.session.{method}")
        for method in ("complete_batch_detailed", "generate_batch"):
            self._patch(engine, method, call, f"engine.engine.{method}")
        self._patch(engine, "stream_ids", self._per_next, "engine.engine.stream_ids")
        self._patch(engine.batcher, "step", call, "engine.batcher.step")
        for method in ("admit_prompts", "step", "speculative_step"):
            self._patch(engine.batcher.batch, method, call, f"engine.batched_decode.{method}")
        self._patch(
            engine.prefix_cache,
            "lookup",
            call,
            "engine.prefix_cache.lookup",
            size=lambda args, match: match[0] if match is not None else 0,
        )
        self._patch(engine.prefix_cache, "insert", call, "engine.prefix_cache.insert")
        self._patch(
            engine.tokenizer,
            "encode",
            call,
            "tokenizer.bpe.encode",
            size=lambda args, ids: len(ids),
        )
        self._patch(
            engine.tokenizer,
            "decode",
            call,
            "tokenizer.bpe.decode",
            size=lambda args, text: len(args[0]),
        )
        self._patch(
            engine.network,
            "forward_incremental",
            call,
            "nn.transformer.forward_incremental",
            size=lambda args, logits: list(args[0].shape),
        )
        for block in engine.network.blocks:
            self._patch(
                block.attention, "forward_incremental", call, "nn.attention.forward_incremental"
            )
            self._patch(block.mlp, "forward", call, "nn.transformer.mlp_forward")

    def detach(self) -> None:
        for owner, attribute, had, previous in reversed(self._patches):
            if had:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span; ``parent`` is the parent's ``id``."""
        ids = {id(record): number for number, record in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for number, record in enumerate(self.spans):
                parent = record[PARENT]
                row = {
                    "id": number,
                    "name": record[NAME],
                    "start_us": round(record[START] * 1e6, 1),
                    "end_us": round(record[END] * 1e6, 1),
                    "parent": ids[id(parent)] if parent is not None else None,
                    "op": record[OP],
                    "size": record[SIZE],
                }
                out.write(json.dumps(row) + "\n")


class SpanTable:
    """Aggregates over a finished recorder's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        covered: dict[int, float] = defaultdict(float)
        for record in spans:
            if record[PARENT] is not None:
                covered[id(record[PARENT])] += record[END] - record[START]
        #: name -> summed self seconds / summed inclusive seconds / span count
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        for record in spans:
            duration = record[END] - record[START]
            self.self_s[record[NAME]] += duration - covered[id(record)]
            self.total_s[record[NAME]] += duration
            self.count[record[NAME]] += 1
        self.roots = [record for record in spans if record[PARENT] is None]

    def named(self, name: str) -> list[list]:
        return [record for record in self.spans if record[NAME] == name]

    def layer_self_s(self, layer: str) -> float:
        """Summed self time of every span whose name is ``<layer>.<method>``."""
        return sum(
            seconds for name, seconds in self.self_s.items() if name.rsplit(".", 1)[0] == layer
        )

    def layers(self) -> list[str]:
        return sorted({name.rsplit(".", 1)[0] for name in self.self_s})

"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the library can catch one type.  Sub-hierarchies mirror the
package layout: YAML engine errors, Ansible model errors, dataset pipeline
errors, tokenizer errors, and model/training errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class YamlError(ReproError):
    """Base class for errors raised by the YAML engine (:mod:`repro.yamlio`)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)


class YamlScanError(YamlError):
    """Lexical problem: bad indentation, unterminated quote, invalid escape."""


class YamlParseError(YamlError):
    """Structural problem: mixed node kinds, duplicate keys, bad nesting."""


class YamlEmitError(YamlError):
    """The value graph cannot be represented by the emitter."""


class AnsibleError(ReproError):
    """Base class for Ansible data-model errors (:mod:`repro.ansible`)."""


class FreeFormParseError(AnsibleError):
    """The legacy ``k1=v1 k2=v2`` module-argument string cannot be parsed."""


class DatasetError(ReproError):
    """Base class for dataset-pipeline errors (:mod:`repro.dataset`)."""


class EmptyCorpusError(DatasetError):
    """An operation that requires documents was given an empty corpus."""


class TokenizerError(ReproError):
    """Base class for tokenizer errors (:mod:`repro.tokenizer`)."""


class VocabularyError(TokenizerError):
    """A token id or token string is not present in the vocabulary."""


class ModelError(ReproError):
    """Base class for neural-network / model errors."""


class ShapeError(ModelError):
    """A tensor operation received operands with incompatible shapes."""


class CheckpointError(ModelError):
    """A model checkpoint could not be saved or restored."""


class GenerationError(ModelError):
    """Text generation failed (e.g. empty prompt after truncation)."""


class ServingError(ReproError):
    """Base class for serving-layer errors (:mod:`repro.serving`).

    Every error a request can end in carries its row of the **disposition
    table** as class attributes: ``status`` is the HTTP (and in-band SSE)
    status it travels as, ``outcome`` the terminal disposition it records
    — ``None`` for a plain failure that is not one of the four outcomes.
    """

    status = 400
    outcome: str | None = None


class ServiceOverloadedError(ServingError):
    """The service shed this request: its admission queue is full.

    :attr:`retry_after_s` is the server's hint for how long a
    well-behaved client should back off before retrying; the REST layer
    mirrors it in a ``Retry-After`` header.
    """

    status = 503
    outcome = "shed"

    def __init__(self, message: str = "service overloaded", retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnreachableError(ServingError):
    """No HTTP answer at all (refused, reset, timed out); client-side only.
    Callers try elsewhere: the client rotates endpoints, a process worker
    reports its replica dead."""


class SessionNotFoundError(ServingError):
    """A session id names no live session (expired, evicted, or never created).

    The editor-plugin contract on receiving it is to fall back to
    creating a fresh session from the full buffer — eviction costs one
    re-prefill, never correctness.
    """

    status = 404

    def __init__(self, session_id: str):
        super().__init__(f"unknown session: {session_id!r}")
        self.session_id = session_id


class DeadlineExceededError(ReproError):
    """A request's deadline elapsed before generation completed."""

    status = 504
    outcome = "deadline_exceeded"


class RequestCancelledError(ReproError):
    """A request was cancelled by its client before completing."""

    status = 408
    outcome = "cancelled"


#: The errors that *are* a terminal outcome (shed / deadline_exceeded /
#: cancelled); ``completed`` is the fourth outcome and has no error.
OUTCOME_ERRORS = (ServiceOverloadedError, DeadlineExceededError, RequestCancelledError)
#: Everything a request may raise that maps to an HTTP status.
REQUEST_ERRORS = (ServingError, DeadlineExceededError, RequestCancelledError)


def error_for_status(status: int | None) -> type[ReproError]:
    """The error class an HTTP / in-band SSE ``status`` stands for.  Not
    404: only the route tells an unknown session from an unknown path."""
    for kind in OUTCOME_ERRORS:
        if kind.status == status:
            return kind
    return ServingError


class InjectedFault(ReproError):
    """An error raised on purpose by the fault-injection harness.

    Carries the seam name and the per-seam call index at which the fault
    fired, so failures in chaos tests are attributable and replayable.
    """

    def __init__(self, message: str, seam: str | None = None, call: int | None = None):
        super().__init__(message)
        self.seam = seam
        self.call = call


class EngineError(ReproError):
    """Base class for inference-engine errors (:mod:`repro.engine`)."""


class FleetError(ReproError):
    """Base class for fleet/router errors (:mod:`repro.fleet`)."""


class WorkerUnavailableError(FleetError):
    """A replica cannot be reached (dead process, refused connection, crash).

    The router treats this as a membership event: the worker is marked
    dead, its affinity buckets rebalance onto the survivors and the
    request that observed the failure is re-dispatched.  Carries the
    worker id so failovers are attributable in stats and chaos logs.
    """

    def __init__(self, message: str, worker_id: str | None = None):
        super().__init__(message)
        self.worker_id = worker_id


class WorkerCrashed(FleetError):
    """A replica died mid-request (the injectable crash fault).

    Raised *inside* a worker — deliberately not an
    :class:`InjectedFault`, so the engine's transient decode-step retry
    does not absorb it and the crash propagates out of the decode loop
    exactly the way a dying process would drop a connection.
    """


class ObservabilityError(ReproError):
    """Base class for tracing/metrics errors (:mod:`repro.obs`)."""

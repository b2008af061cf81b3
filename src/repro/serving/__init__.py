"""Serving layer: REST service, client, streaming, sessions, editor plugin."""

from repro.serving.cache import LruCache
from repro.serving.client import PredictionClient
from repro.serving.plugin import ESCAPE, EditorSession, Suggestion, TAB
from repro.serving.service import PredictionService, RestServer
from repro.serving.session import SessionManager
from repro.serving.stream import (
    STREAM_EVENTS,
    SseEvent,
    SseParser,
    TextDelta,
    sse_encode,
)

__all__ = [
    "LruCache",
    "PredictionClient",
    "ESCAPE",
    "EditorSession",
    "Suggestion",
    "TAB",
    "PredictionService",
    "RestServer",
    "SessionManager",
    "STREAM_EVENTS",
    "SseEvent",
    "SseParser",
    "TextDelta",
    "sse_encode",
]

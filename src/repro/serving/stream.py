"""Server-sent-event wire format for token streaming.

``POST /v1/completions?stream=1`` answers with ``text/event-stream``: one
SSE event per emitted token burst and a terminal ``done`` (or ``error``)
event carrying the request's disposition.  This module owns both halves of that wire:

* :func:`sse_encode` — render one event as bytes.  Payloads are JSON with
  ``ensure_ascii``, so bytes that would corrupt the SSE framing (``\\r``,
  ``\\n``, U+2028/U+2029 — the same characters the Prometheus exposition
  escapes) travel as escape sequences, never as raw line terminators.
* :class:`SseParser` — an incremental byte-level parser.  Chunk
  boundaries are arbitrary (a proxy may split anywhere, including the
  middle of a multi-byte UTF-8 character or between ``\\r`` and ``\\n``),
  so the parser buffers *bytes* until a complete line is delimited and
  only then decodes.  Per the SSE spec it honours ``\\r\\n``, ``\\n`` and
  bare ``\\r`` line terminators, joins multiple ``data:`` lines with
  ``\\n``, strips one optional space after the field colon, and surfaces
  comment lines (``:`` prefix) as events flagged ``comment``.
* :class:`TextDelta` — turns a growing token-id sequence into text
  deltas whose concatenation is byte-identical to decoding the full
  sequence at once, holding back trailing bytes that do not yet form a
  complete UTF-8 character (a multi-byte character split across two
  token emissions must not leak a replacement character mid-stream).

Every helper is transport-agnostic and deterministic, which is what lets
the conformance suite fuzz the framing separately from the engine.
"""

from __future__ import annotations

import codecs
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ServingError

if TYPE_CHECKING:
    from repro.tokenizer.bpe import BpeTokenizer

#: Event names the serving layer emits on a completion stream.
STREAM_EVENTS = ("token", "done", "error")

_REPLACEMENT = "�"


def sse_encode(event: str, data: dict) -> bytes:
    """Render one SSE event (``event:`` + ``data:`` + blank line) as bytes.

    ``data`` is JSON-serialised with ``ensure_ascii=True`` and sorted
    keys: ASCII-only output guarantees no raw ``\\r``/U+2028 can break a
    line-oriented consumer, and the canonical key order keeps streamed
    logs byte-identical across replays.
    """
    if not event or any(c in event for c in "\r\n"):
        raise ServingError(f"invalid SSE event name {event!r}")
    body = json.dumps(data, ensure_ascii=True, sort_keys=True)
    return f"event: {event}\ndata: {body}\n\n".encode("ascii")


@dataclass
class SseEvent:
    """One parsed server-sent event."""

    event: str
    data: str
    comment: bool = False

    def json(self) -> dict:
        """The JSON payload carried by ``data`` (raises on non-JSON)."""
        try:
            return json.loads(self.data)
        except (ValueError, json.JSONDecodeError) as error:
            raise ServingError(f"non-JSON SSE data: {self.data!r}") from error


class SseParser:
    """Incremental SSE parser fed raw bytes, yielding :class:`SseEvent`.

    Feed arbitrary chunks (any split points, including mid-character and
    between ``\\r`` and ``\\n``); complete events come back as they are
    delimited by blank lines.  Call :meth:`close` at end-of-stream to
    flush a final event that was not blank-line-terminated.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._event_name = ""
        self._data_lines: list[str] = []
        self._events: list[SseEvent] = []

    # -- line framing --------------------------------------------------------

    def _split_lines(self, closing: bool) -> list[bytes]:
        """Pop complete lines off the byte buffer, honouring CRLF/CR/LF.

        A buffer ending in a lone ``\\r`` is ambiguous — the next chunk
        may begin with the ``\\n`` of a CRLF pair — so that byte stays
        buffered until more input (or close) disambiguates it.
        """
        lines: list[bytes] = []
        buffer = self._buffer
        start = 0
        end = len(buffer)
        while start < end:
            lf = buffer.find(b"\n", start)
            cr = buffer.find(b"\r", start, end if lf < 0 else lf)
            if cr < 0:  # the line ends at \n, or is not complete yet
                if lf < 0:
                    break
                lines.append(buffer[start:lf])
                start = lf + 1
            elif cr + 1 < end:  # \r, maybe \r\n
                lines.append(buffer[start:cr])
                start = cr + 2 if buffer[cr + 1] == 0x0A else cr + 1
            elif closing:
                lines.append(buffer[start:cr])
                start = cr + 1
            else:
                break  # trailing \r: wait for the next chunk
        self._buffer = buffer[start:]
        return lines

    def _dispatch_line(self, raw: bytes) -> None:
        if not raw:
            self._flush_event()
            return
        line = raw.decode("utf-8", errors="replace")
        if line.startswith(":"):
            comment = line[1:]
            if comment.startswith(" "):
                comment = comment[1:]
            self._events.append(SseEvent(event="comment", data=comment, comment=True))
            return
        name, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if name == "event":
            self._event_name = value
        elif name == "data":
            self._data_lines.append(value)
        # Unknown fields (id, retry, anything else) are ignored per spec.

    def _flush_event(self) -> None:
        if not self._event_name and not self._data_lines:
            return  # blank line with nothing accumulated
        self._events.append(
            SseEvent(event=self._event_name or "message", data="\n".join(self._data_lines))
        )
        self._event_name = ""
        self._data_lines = []

    # -- public API ----------------------------------------------------------

    def feed(self, chunk: bytes) -> list[SseEvent]:
        """Consume one chunk; return every event completed by it."""
        if not isinstance(chunk, (bytes, bytearray)):
            raise ServingError(f"SseParser.feed wants bytes, got {type(chunk).__name__}")
        self._buffer += bytes(chunk)
        for line in self._split_lines(closing=False):
            self._dispatch_line(line)
        events, self._events = self._events, []
        return events

    def close(self) -> list[SseEvent]:
        """Flush end-of-stream: emit any final unterminated event."""
        for line in self._split_lines(closing=True):
            self._dispatch_line(line)
        if self._buffer:
            self._dispatch_line(self._buffer)
            self._buffer = b""
        self._flush_event()
        events, self._events = self._events, []
        return events


class TextDelta:
    """Incremental detokenizer whose deltas concatenate to the full decode.

    Byte-level BPE means a token boundary can fall inside a multi-byte
    UTF-8 character: decoding a prefix of the final token sequence then
    yields a trailing U+FFFD that a later token resolves into the real
    character.  Emitting that replacement character would make the
    concatenated stream differ from the one-shot decode — so ``push``
    holds back any trailing replacement-character run and only emits text
    that is a stable prefix of every future decode.  ``flush`` emits the
    remainder (genuine replacement characters included) once the token
    sequence is final.

    Each call decodes only the tokens added since the last one, through an
    incremental UTF-8 decoder that keeps an unfinished character's bytes
    for the next call; ``replace`` decoding split that way agrees with
    decoding the whole byte string at once.
    """

    def __init__(self, tokenizer: BpeTokenizer) -> None:
        self._vocabulary = tokenizer.vocabulary
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._seen = 0  # token ids decoded so far
        self._held = ""  # decoded, not yet emitted: a trailing U+FFFD run

    def _decode(self, token_ids: list[int], final: bool) -> str:
        vocabulary = self._vocabulary
        data = b"".join(
            vocabulary.bytes_of(token_id)
            for token_id in token_ids[self._seen:]
            if not vocabulary.is_special(token_id)
        )
        self._seen = len(token_ids)
        return self._held + self._decoder.decode(data, final)

    def push(self, token_ids: list[int]) -> str:
        """The new stable text given the full token sequence so far (each
        call's sequence extends the previous one)."""
        text = self._decode(token_ids, final=False)
        stable = text.rstrip(_REPLACEMENT)
        self._held = text[len(stable):]
        return stable

    def flush(self, token_ids: list[int]) -> str:
        """The final remainder so the concatenation equals the full decode."""
        text = self._decode(token_ids, final=True)
        self._held = ""
        return text

"""SSE wire format: encode/parse round-trips survive hostile payloads.

The parser is byte-oriented and the encoder escapes everything non-ASCII,
so the adversarial inputs SSE is notorious for — carriage returns inside
data, ``\\n\\n`` sequences that look like frame boundaries, U+2028/U+2029
line separators, multi-byte UTF-8 split across chunk reads — must all
round-trip exactly.  Plus the serving-side streaming behaviour that rides
the wire format: client-disconnect cancellation.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServingError
from repro.serving.stream import (
    STREAM_EVENTS,
    SseEvent,
    SseParser,
    TextDelta,
    sse_encode,
)
from repro.utils.rng import SeededRng

pytestmark = pytest.mark.streaming


def iter_sse(chunks) -> list[SseEvent]:
    """Parse an iterable of byte chunks into a flat event list (eager)."""
    parser = SseParser()
    events: list[SseEvent] = []
    for chunk in chunks:
        events.extend(parser.feed(chunk))
    events.extend(parser.close())
    return events

HOSTILE_PAYLOADS = [
    {"text": "plain ascii"},
    {"text": "carriage\rreturn"},
    {"text": "crlf\r\npair"},
    {"text": "frame\n\nboundary lookalike"},
    {"text": "line sep   and para sep  "},
    {"text": "emoji \U0001f680 rocket"},
    {"text": "mixed \r\n \U0001f680\n\n end"},
    {"text": "null-ish \x00 byte"},
    {"text": 'json specials " \\ / \b \f \t'},
    {"text": "日本語のテキストとハングル 한글"},
    {"text": ""},
    {"deep": {"nested": ["with", "\r\n", {"u2028": " "}]}},
]


def events_equal(events: list[SseEvent], want_event: str, want_data: dict) -> None:
    payloads = [event for event in events if not event.comment]
    assert len(payloads) == 1
    assert payloads[0].event == want_event
    assert payloads[0].json() == want_data


class TestEncodeParseRoundTrip:
    @pytest.mark.parametrize("payload", HOSTILE_PAYLOADS)
    def test_hostile_payload_roundtrips_whole(self, payload):
        wire = sse_encode("token", payload)
        assert wire.endswith(b"\n\n")
        parser = SseParser()
        events = parser.feed(wire) + parser.close()
        events_equal(events, "token", payload)

    @pytest.mark.parametrize("payload", HOSTILE_PAYLOADS)
    @pytest.mark.parametrize("chunk_size", (1, 2, 3, 7))
    def test_hostile_payload_roundtrips_chunked(self, payload, chunk_size):
        # Byte-level chunking slices multi-byte UTF-8 sequences and CRLF
        # pairs apart; the parser must buffer, never mangle.
        wire = sse_encode("token", payload)
        parser = SseParser()
        events = []
        for start in range(0, len(wire), chunk_size):
            events.extend(parser.feed(wire[start : start + chunk_size]))
        events.extend(parser.close())
        events_equal(events, "token", payload)

    def test_random_chunkings_roundtrip(self):
        rng = SeededRng(0).child("sse-fuzz")
        wire = b"".join(
            sse_encode("token", payload) for payload in HOSTILE_PAYLOADS
        ) + sse_encode("done", {"ok": True})
        for _ in range(25):
            parser = SseParser()
            events = []
            position = 0
            while position < len(wire):
                step = rng.randint(1, 17)
                events.extend(parser.feed(wire[position : position + step]))
                position += step
            events.extend(parser.close())
            payloads = [event for event in events if not event.comment]
            assert [event.event for event in payloads] == ["token"] * len(
                HOSTILE_PAYLOADS
            ) + ["done"]
            for event, want in zip(payloads, HOSTILE_PAYLOADS):
                assert event.json() == want

    def test_non_ascii_never_leaves_the_encoder_raw(self):
        wire = sse_encode("token", {"text": "U+2028:  emoji:\U0001f680"})
        assert max(wire) < 0x80  # pure ASCII on the wire; escapes carry the rest

    def test_iter_sse_streams_lazily(self):
        chunks = [sse_encode("token", {"i": index}) for index in range(3)]
        got = [event.json()["i"] for event in iter_sse(iter(chunks))]
        assert got == [0, 1, 2]


class TestParserEdgeCases:
    def test_crlf_and_lf_terminators_mix(self):
        raw = b'event: token\r\ndata: {"a": 1}\n\r\n'
        events = SseParser().feed(raw)
        events_equal(events, "token", {"a": 1})

    def test_trailing_lone_cr_is_deferred_not_split(self):
        # A chunk ending in \r might be half of a CRLF: the parser must
        # wait for the next byte before deciding.
        parser = SseParser()
        assert parser.feed(b'data: {"a": 1}\r') == []
        events = parser.feed(b'\nevent: token\r\n\r\n')
        events_equal(events, "token", {"a": 1})

    def test_multiple_data_lines_join_with_newline(self):
        events = SseParser().feed(b'data: "multi\ndata: line"\n\n')
        # per the SSE spec, multiple data: fields join with \n — which
        # inside a JSON string literal is invalid, so json() refuses
        assert events[0].data == '"multi\nline"'

    def test_comments_surface_as_comment_events(self):
        events = SseParser().feed(b": hb\n\n" + sse_encode("done", {}))
        assert events[0].comment and events[0].event == "comment"
        assert events[1].event == "done"

    def test_unknown_fields_ignored(self):
        events = SseParser().feed(b'id: 7\nretry: 100\nevent: token\ndata: {}\n\n')
        events_equal(events, "token", {})

    def test_close_flushes_unterminated_frame(self):
        parser = SseParser()
        assert parser.feed(b'event: done\ndata: {"end": true}') == []
        events = parser.close()
        events_equal(events, "done", {"end": True})

    def test_bad_event_name_rejected_at_encode(self):
        with pytest.raises(ServingError):
            sse_encode("token\nevil: injection", {})

    def test_known_stream_events(self):
        assert set(STREAM_EVENTS) == {"token", "done", "error"}

    def test_non_json_data_raises_on_json_accessor(self):
        events = SseParser().feed(b"event: token\ndata: not-json\n\n")
        with pytest.raises(ServingError):
            events[0].json()


class TestTextDelta:
    def test_deltas_concat_to_one_shot_decode(self):
        from repro.tokenizer.bpe import BpeTokenizer

        texts = ["- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"]
        tokenizer = BpeTokenizer.train(texts, vocab_size=300)
        ids = tokenizer.encode(texts[0])
        delta = TextDelta(tokenizer)
        pieces = []
        for end in range(1, len(ids) + 1):
            pieces.append(delta.push(ids[:end]))
        pieces.append(delta.flush(ids))
        assert "".join(pieces) == tokenizer.decode(ids)


def _one_shot_deltas(tokenizer, token_ids: list[int], cuts: list[int]) -> list[str]:
    """The deltas of the whole-sequence rule: decode every prefix at once
    and emit what grew, holding back a trailing U+FFFD run until flush."""
    deltas, sent = [], ""
    for cut in cuts:
        stable = tokenizer.decode(token_ids[:cut]).rstrip("\ufffd")
        deltas.append(stable[len(sent):])
        sent = stable
    deltas.append(tokenizer.decode(token_ids)[len(sent):])
    return deltas


@pytest.fixture(scope="module")
def multibyte_tokenizer():
    from repro.tokenizer.bpe import BpeTokenizer

    texts = ["- name: café € 🚀 日本語 한글\n  ansible.builtin.apt:\n    name: nginx\n"] * 3
    return BpeTokenizer.train(texts, vocab_size=300)


#: Lead and continuation bytes of multi-byte characters, so random draws
#: split characters, truncate them and string invalid sequences together.
_MULTIBYTE = sorted(set("é€🚀日한".encode("utf-8")) | {0x80, 0xBF, 0xC0, 0xFF})


class TestTextDeltaMatchesTheOneShotRule:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_ids_and_splits(self, multibyte_tokenizer, data):
        size = multibyte_tokenizer.vocab_size
        token_ids = data.draw(
            st.lists(st.one_of(st.integers(0, size - 1), st.sampled_from(_MULTIBYTE)), max_size=24)
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(token_ids)), max_size=8)))
        delta = TextDelta(multibyte_tokenizer)
        got = [delta.push(token_ids[:cut]) for cut in cuts]
        got.append(delta.flush(token_ids))
        assert got == _one_shot_deltas(multibyte_tokenizer, token_ids, cuts)
        assert "".join(got) == multibyte_tokenizer.decode(token_ids)


class TestServiceStreaming:
    @pytest.fixture()
    def service(self):
        from tests.test_streaming_equivalence import build_engine
        from repro.serving import PredictionService
        from repro.tokenizer.bpe import BpeTokenizer

        tokenizer = BpeTokenizer.train(
            ["- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"],
            vocab_size=300,
        )
        engine = build_engine(tokenizer, 0)
        return PredictionService(engine)

    def test_generator_close_counts_a_disconnect_and_frees_kv(self, service):
        stream = service.predict_stream("- name: Install nginx\n", 8)
        seen = 0
        for event, _data in stream:
            if event == "token":
                seen += 1
                if seen >= 2:
                    break
        stream.close()
        assert service.stats()["stream_disconnects"] == 1
        assert service.engine.batcher.stats()["cancelled_requests"] == 1
        service.engine.prefix_cache.clear()
        assert service.engine.kv_arena.stats()["bytes_in_use"] == 0

    def test_one_inflight_figure_while_a_stream_is_mid_flight(self, service):
        gauge = service.obs.metrics.gauge("serving.inflight")
        stream = service.predict_stream("- name: Install nginx\n", 8)
        assert next(stream)[0] == "token"
        assert gauge.value == service.stats()["inflight"] == 1
        stream.close()
        assert gauge.value == service.stats()["inflight"] == 0

    def test_stream_events_are_sse_encodable(self, service):
        parser = SseParser()
        for event, data in service.predict_stream("- name: Install nginx\n", 4):
            parsed = parser.feed(sse_encode(event, data))
            assert parsed and parsed[0].json() == data

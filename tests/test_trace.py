"""Trace records, JSONL round-trips, and trace-level invariants."""

import hashlib
import json
from pathlib import Path

import pytest

from ctkdsim import trace
from ctkdsim.pairing import ble_pair
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.trace import (
    TraceEvent,
    TraceRecorder,
    emit_trace,
    read_trace,
    trace_digest,
)


class TestRecorder:
    def test_indices_strictly_increase(self):
        rec = TraceRecorder()
        events = [rec.emit("02:00:00:00:00:01", "msg_sent", transport="BT") for _ in range(5)]
        assert [e.index for e in events] == [0, 1, 2, 3, 4]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().emit("02:00:00:00:00:01", "telepathy")


class TestJsonl:
    def test_event_round_trip(self):
        event = TraceEvent(3, "02:00:00:00:00:01", "key_stored", {"transport": "BT", "overwrote": False})
        assert TraceEvent.from_json(event.to_json()) == event

    def test_empty_trace_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        emit_trace([], path)
        assert path.read_bytes() == b""
        assert read_trace(path) == []

    def test_file_round_trip(self, tmp_path, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        path = tmp_path / "run.jsonl"
        emit_trace(ctx.trace.events, path)
        assert read_trace(path) == ctx.trace.events

    def test_one_event_per_line_stable_order(self, tmp_path, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        path = tmp_path / "run.jsonl"
        emit_trace(ctx.trace.events, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(ctx.trace.events)
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)  # sorted key order on disk

    def test_frame_payloads_use_codec_hex_convention(self, ctx, laptop, headset):
        from ctkdsim.smp import parse_hexdump, decode_pairing

        ble_pair(ctx, laptop, headset)
        first = ctx.trace.events[0]
        assert first.kind == "msg_sent"
        frame = parse_hexdump(first.payload["frame"])
        decode_pairing(frame)  # parses back into a valid message

    def test_digest_is_stable(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        assert trace_digest(ctx.trace.events) == trace_digest(ctx.trace.events)


BUNDLED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*/*.json"))


@pytest.fixture(scope="module")
def bundled_traces():
    return [run_scenario(load_scenario(path)).trace for path in BUNDLED]


class TestSerialisedBytes:
    """The bytes of a trace are those of the public ``json`` API, whichever encoder runs."""

    def _check(self, traces, tmp_path):
        assert len(traces) == 69
        path = tmp_path / "run.jsonl"
        for events in traces:
            for event in events:
                assert event.to_json() == json.dumps(
                    {"index": event.index, "actor": event.actor, "kind": event.kind,
                     "payload": event.payload},
                    sort_keys=True, separators=(",", ":"),
                )
            emit_trace(events, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_digest(events)

    def test_bundled_traces(self, bundled_traces, tmp_path):
        self._check(bundled_traces, tmp_path)

    def test_bundled_traces_with_the_pure_python_encoder(self, bundled_traces, tmp_path, monkeypatch):
        # What the module binds when the interpreter has no C encoder.
        monkeypatch.setattr(trace, "_encode", trace._ENCODER.encode)
        self._check(bundled_traces, tmp_path)

    def test_unserialisable_payload_is_a_type_error(self):
        event = TraceEvent(0, "02:00:00:00:00:01", "key_stored", {"key": b"\x00"})
        with pytest.raises(TypeError, match="not JSON serializable"):
            event.to_json()

    def test_events_are_immutable_values(self):
        event = TraceEvent(0, "02:00:00:00:00:01", "key_stored", {"transport": "BT"})
        with pytest.raises(AttributeError):
            event.index = 1
        assert event == TraceEvent(0, "02:00:00:00:00:01", "key_stored", {"transport": "BT"})
        assert event != TraceEvent(1, "02:00:00:00:00:01", "key_stored", {"transport": "BT"})


#: Texts the envelope must escape as ``json.dumps`` does: a quote, a backslash,
#: control characters, and non-ASCII inside and outside the BMP.
_EDGE_TEXTS = [
    "02:00:00:00:00:01",
    'say "hi"',
    "back\\slash",
    "tab\tnul\x00us\x1fdel\x7f",
    "caf\u00e9 \u2603 \U0001f600",
]
_NESTED = {"z": [1, {"b": None, "a": "\u00e9"}], "a": {"y": True, "x": -2.5}, "": []}


class TestEnvelope:
    """Hand-built events serialise exactly as the public ``json`` API, with either encoder."""

    @pytest.fixture(params=["c", "python"])
    def encoder(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(trace, "_encode", trace._ENCODER.encode)

    @pytest.mark.parametrize("actor", _EDGE_TEXTS)
    @pytest.mark.parametrize("index", [0, 2**70])
    @pytest.mark.parametrize("payload", [{}, _NESTED], ids=["empty", "nested"])
    def test_matches_json_dumps(self, encoder, actor, index, payload):
        kind = actor[::-1]
        event = TraceEvent(index, actor, kind, payload)
        assert event.to_json() == json.dumps(
            {"index": index, "actor": actor, "kind": kind, "payload": payload},
            sort_keys=True, separators=(",", ":"),
        )
        assert TraceEvent.from_json(event.to_json()) == event

    def test_emitted_event_equals_a_constructed_one(self):
        event = TraceRecorder().emit("02:00:00:00:00:01", "key_stored", transport="BT")
        assert type(event) is TraceEvent
        assert event == TraceEvent(0, "02:00:00:00:00:01", "key_stored", {"transport": "BT"})
        assert event.payload == {"transport": "BT"}


class TestTraceInvariants:
    def test_every_key_event_is_preceded_by_its_verdict(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        pending: dict[tuple, int] = {}
        stores = 0
        for event in ctx.trace.events:
            key = (event.actor, event.payload.get("peer"),
                   event.payload.get("transport"), event.payload.get("origin"))
            if event.kind == "policy_verdict" and event.payload.get("stage") == "store":
                pending[key] = pending.get(key, 0) + 1
            elif event.kind in ("key_stored", "key_rejected"):
                assert pending.get(key, 0) >= 1, f"unvetted mutation at index {event.index}"
                pending[key] -= 1
                stores += 1
        assert stores == 4  # two records per side

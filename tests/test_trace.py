"""Trace records, JSONL round-trips, and trace-level invariants.

README's table of event kinds is generated from ``trace.PAYLOAD_SCHEMAS``; after
a schema change, paste the output of::

    PYTHONPATH=src:tests python -c "import test_trace; print(test_trace.schema_table(), end='')"
"""

import hashlib
import json
from collections import OrderedDict
from enum import IntEnum
from json import encoder as json_encoder
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import test_golden
from ctkdsim import trace
from ctkdsim.pairing import ble_pair
from ctkdsim.trace import (
    BOOLEAN,
    INTEGER,
    OPTIONAL_KEYS,
    PAYLOAD_SCHEMAS,
    STRING,
    STRING_OR_NULL,
    TraceEvent,
    TraceRecorder,
    emit_trace,
    read_trace,
    trace_digest,
)


class TestRecorder:
    def test_indices_strictly_increase(self):
        rec = TraceRecorder()
        events = [rec.emit("02:00:00:00:00:01", "msg_sent", {"transport": "BT"}) for _ in range(5)]
        assert [e.index for e in events] == [0, 1, 2, 3, 4]

    def test_unknown_kind_rejected(self):
        # key_rejected is retired: a refused store is its deny policy_verdict alone.
        for kind in ("telepathy", "key_rejected"):
            with pytest.raises(ValueError):
                TraceRecorder().emit("02:00:00:00:00:01", kind, {})


class TestJsonl:
    def test_event_round_trip(self):
        event = TraceEvent(3, "02:00:00:00:00:01", "key_stored", {"transport": "BT", "overwrote": False})
        assert TraceEvent.from_json(event.to_json()) == event

    @pytest.mark.parametrize("index", [True, False])
    def test_a_bool_index_is_written_as_json_and_round_trips(self, index):
        event = TraceEvent(index, "a", "k", {})
        assert event.to_json() == _dumps({"actor": "a", "index": index, "kind": "k", "payload": {}})
        read_back = TraceEvent.from_json(event.to_json())
        assert read_back == event and type(read_back.index) is bool

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


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bundled_traces(own):
    return [result.trace for result in own]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pure_python():
    """Run ``_encode`` as on an interpreter without the ``_json`` accelerator.

    ``JSONEncoder.encode`` looks up the C hooks in ``json.encoder`` at each call, so
    patching them out there sends ``_encode`` down the pure-Python path.
    """
    return mock.patch.multiple(json_encoder, c_make_encoder=None,
                               encode_basestring_ascii=json_encoder.py_encode_basestring_ascii)


@pytest.fixture(params=["rendered", "generic-c", "generic-python"])
def serialiser(request, monkeypatch):
    """Each way a payload becomes text: its kind's renderer, or either generic encoder.

    The generic paths empty the renderer table, so every payload reaches ``_encode``.
    """
    if request.param != "rendered":
        monkeypatch.setattr(trace, "_RENDERERS", {})
    if request.param == "generic-python":
        with _pure_python():
            yield
    else:
        yield


class TestSerialisedBytes:
    """The bytes of a trace are those of the public ``json`` API, whichever path runs."""

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

    def test_bundled_traces(self, serialiser, bundled_traces, tmp_path):
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
    """Hand-built events serialise exactly as the public ``json`` API, whichever path runs."""

    @pytest.mark.parametrize("actor", _EDGE_TEXTS)
    @pytest.mark.parametrize("index", [0, 2**70])
    @pytest.mark.parametrize("payload", [{}, _NESTED], ids=["empty", "nested"])
    def test_matches_json_dumps(self, serialiser, actor, index, payload):
        kind = actor[::-1]
        event = TraceEvent(index, actor, kind, payload)
        assert event.to_json() == json.dumps(
            {"index": index, "actor": actor, "kind": kind, "payload": payload},
            sort_keys=True, separators=(",", ":"),
        )
        assert TraceEvent.from_json(event.to_json()) == event

    def test_emitted_event_equals_a_constructed_one(self):
        event = TraceRecorder().emit("02:00:00:00:00:01", "key_stored", {"transport": "BT"})
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
            elif event.kind == "key_stored":
                assert pending.get(key, 0) >= 1, f"unvetted mutation at index {event.index}"
                pending[key] -= 1
                stores += 1
        assert stores == 4  # two records per side


# ---------------------------------------------------------------------------
# Per-kind payload schemas and their renderers
# ---------------------------------------------------------------------------

_IS = {
    STRING: lambda v: type(v) is str,
    BOOLEAN: lambda v: type(v) is bool,
    INTEGER: lambda v: type(v) is int,
    STRING_OR_NULL: lambda v: v is None or type(v) is str,
}


def conforms(schema: dict, payload) -> bool:
    """Whether ``payload`` has exactly the schema's keys, optional ones aside, each of its type."""
    if type(payload) is not dict:
        return False
    required = {key for key in schema if key not in OPTIONAL_KEYS}
    if not required <= payload.keys() <= schema.keys():
        return False
    return all(
        conforms(schema[key], value) if isinstance(schema[key], dict) else _IS[schema[key]](value)
        for key, value in payload.items()
    )


def rendered(event: TraceEvent):
    """The line ``event``'s kind's renderer writes for it; None when it leaves it to ``_encode``."""
    try:
        return trace._RENDERERS[event.kind](event.index, event.actor, event.payload)
    except KeyError:
        return None


def _envelope(event: TraceEvent) -> str:
    """``json.dumps`` of the whole event: the line ``to_json`` must write."""
    return _dumps(event._asdict())


def _fell_back(payload):
    raise AssertionError(f"a simulator payload reached the generic encoder: {payload!r}")


def schema_table() -> str:
    """README's table of event kinds, from ``PAYLOAD_SCHEMAS`` and ``OPTIONAL_KEYS``."""

    def keys(schema):
        return ", ".join(
            f"`{key}`: {'optional ' if key in OPTIONAL_KEYS else ''}"
            f"{'object {' + keys(kind) + '}' if isinstance(kind, dict) else kind}"
            for key, kind in schema.items()
        )

    rows = ["| kind | payload keys, in sorted order, and JSON types |", "| --- | --- |"]
    rows += [f"| `{kind}` | {keys(schema)} |" for kind, schema in PAYLOAD_SCHEMAS.items()]
    return "\n".join(rows) + "\n"


class TestSchemas:
    def test_schemas_name_every_kind_in_sorted_key_order(self):
        assert set(PAYLOAD_SCHEMAS) == set(trace.KINDS) == set(trace._RENDERERS)
        # Tracebacks and profiles name each generated renderer after its kind.
        assert all(fn.__name__ == fn.__qualname__ == f"_render_{kind}"
                   and fn.__code__.co_filename == f"<trace renderer {kind}>" for kind, fn in trace._RENDERERS.items())
        assert len(PAYLOAD_SCHEMAS) == 6
        for schema in PAYLOAD_SCHEMAS.values():
            assert list(schema) == sorted(schema)
            for nested in (t for t in schema.values() if isinstance(t, dict)):
                assert list(nested) == sorted(nested)
        assert all(any(key in s for s in PAYLOAD_SCHEMAS.values()) for key in OPTIONAL_KEYS)

    def test_readme_table_matches_the_schemas(self):
        table = schema_table()
        assert table in (ROOT / "README.md").read_text(encoding="utf-8"), (
            "README's table of event kinds differs from trace.PAYLOAD_SCHEMAS; it should read:\n" + table
        )


class _Small(IntEnum):
    ONE = 1


#: Texts a renderer must quote as ``json.dumps`` does: quotes, backslashes,
#: control characters, and non-ASCII inside and outside the BMP.
_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\x7f\u00e9\u2603\U0001f600') | st.characters(), max_size=6)
_RIGHT = {
    STRING: _TEXT,
    BOOLEAN: st.booleans(),
    INTEGER: st.integers() | st.sampled_from([0, 7, 16, 2**70, -1]),
    STRING_OR_NULL: st.none() | _TEXT,
}
#: Values of another type, which the generic encoder must write: ``0``/``1`` for a
#: bool; ``True``, a float or an IntEnum for an int; ``None`` in a non-optional slot.
_WRONG = {
    STRING: [None, 0, True, 1.5, _Small.ONE, [], {}],
    BOOLEAN: [0, 1, None, 1.0, "true"],
    INTEGER: [True, False, 16.0, _Small.ONE, None, "16"],
    STRING_OR_NULL: [0, False, 1.5, _Small.ONE, []],
}
_NOT_AN_OBJECT = [None, "csrk", [], ["csrk", "irk"], 0]
_EXTRA_KEYS = ["", "a", "zz", "peer_", "frame2", "\u00e9"]


def _valid(schema: dict, optional: bool = True) -> dict:
    """A fixed payload that matches ``schema``, with or without its optional keys."""
    samples = {STRING: 'q"\\\u00e9\U0001f600', BOOLEAN: True, INTEGER: 16, STRING_OR_NULL: None}
    return {
        key: _valid(kind) if isinstance(kind, dict) else samples[kind]
        for key, kind in schema.items()
        if optional or key not in OPTIONAL_KEYS
    }


def _one_step_off(schema: dict, base: dict):
    """``base``, then every payload one step from it: a key dropped or added, or one value of another type."""
    yield base
    for key, value in base.items():
        yield {k: v for k, v in base.items() if k != key}
        kind = schema[key]
        others = _NOT_AN_OBJECT + list(_one_step_off(kind, value)) if isinstance(kind, dict) else _WRONG[kind]
        for other in others:
            yield {**base, key: other}
    for extra in _EXTRA_KEYS:
        yield {**base, extra: "x"}


#: ``key_rejected``'s schema. The format no longer emits that kind, since a refused store is its deny
#: ``policy_verdict`` alone, but trace files written before then still hold it. With no renderer,
#: its events must still write ``json.dumps``'s bytes through ``_encode``.
_RETIRED = {"key_rejected": {"origin": STRING, "peer": STRING, "reason": STRING, "transport": STRING}}
_SCHEMAS = {**PAYLOAD_SCHEMAS, **_RETIRED}
_KINDS = tuple(_SCHEMAS)


def _check_to_json(kind: str, payload) -> None:
    """``to_json`` writes ``json.dumps``'s bytes with either encoder; the renderer takes exactly the matches."""
    event = TraceEvent(5, "02:00:00:00:00:01", kind, payload)
    expected = _envelope(event)
    assert event.to_json() == expected
    with _pure_python():
        assert event.to_json() == expected
    text = rendered(event)
    assert (text is not None) == (kind in PAYLOAD_SCHEMAS and conforms(PAYLOAD_SCHEMAS[kind], payload)), payload
    assert text is None or text == expected


@st.composite
def _matching(draw, schema: dict) -> dict:
    """Payloads that match ``schema``, with or without each optional key."""
    return {
        key: draw(_matching(kind) if isinstance(kind, dict) else _RIGHT[kind])
        for key, kind in schema.items()
        if key not in OPTIONAL_KEYS or draw(st.booleans())
    }


class TestRenderers:
    """Each kind's renderer writes the bytes of ``json.dumps``, or leaves the payload to ``_encode``."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_payload_one_step_off_the_schema(self, kind):
        schema = _SCHEMAS[kind]
        payloads = [*_one_step_off(schema, _valid(schema)), *_one_step_off(schema, _valid(schema, optional=False))]
        for payload in payloads:
            _check_to_json(kind, payload)
        assert sum(conforms(schema, p) for p in payloads) >= 2

    def test_two_optional_keys_on_either_side_of_a_required_one(self):
        # No kind's schema has either layout, so a probe schema is compiled for them.
        schema = {"bt_auth_req": STRING, "c": INTEGER, "extra_keys": {"csrk": STRING_OR_NULL}}
        render = trace._compile("probe", schema)
        for payload in [*_one_step_off(schema, _valid(schema)), *_one_step_off(schema, _valid(schema, optional=False))]:
            try:
                text = render(5, "02:00:00:00:00:01", payload)
            except KeyError:
                text = None
            assert (text is not None) == conforms(schema, payload), payload
            assert text is None or text == _envelope(TraceEvent(5, "02:00:00:00:00:01", "probe", payload))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("index", [0, 2**70, True, False, _Small.ONE], ids=repr)
    @pytest.mark.parametrize("actor", _EDGE_TEXTS)
    def test_the_renderer_takes_only_an_int_index_and_a_str_actor(self, kind, index, actor):
        event = TraceEvent(index, actor, kind, _valid(_SCHEMAS[kind]))
        expected = _envelope(event)
        assert event.to_json() == expected
        with _pure_python():
            assert event.to_json() == expected
        assert rendered(event) == (expected if type(index) is int and kind in PAYLOAD_SCHEMAS else None)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("payload", [None, 0, "x", [], ["peer", 1], "dict subclass"], ids=repr)
    def test_a_payload_that_is_not_a_dict_goes_to_encode(self, kind, payload):
        if payload == "dict subclass":
            payload = OrderedDict(reversed(_valid(_SCHEMAS[kind]).items()))
        event = TraceEvent(0, "02:00:00:00:00:01", kind, payload)
        assert rendered(event) is None
        assert event.to_json() == _envelope(event)
        with _pure_python():
            assert event.to_json() == _envelope(event)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("actor", [None, 1, b"02:00:00:00:00:01", ["a"]], ids=repr)
    def test_an_actor_that_is_not_a_str_is_still_a_type_error(self, kind, actor):
        event = TraceEvent(0, actor, kind, _valid(_SCHEMAS[kind]))
        assert rendered(event) is None
        with pytest.raises(TypeError):
            event.to_json()
        with _pure_python(), pytest.raises(TypeError):
            event.to_json()

    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_to_json_equals_json_dumps_with_either_encoder(self, kind, data):
        schema = _SCHEMAS[kind]
        base = data.draw(_matching(schema))
        for payload in _one_step_off(schema, base):
            _check_to_json(kind, payload)
        _check_to_json(kind, {**base, data.draw(_TEXT): data.draw(_TEXT)})

    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), bad=st.sampled_from([b"\x00", object()]))
    def test_an_unserialisable_value_is_still_a_type_error(self, kind, data, bad):
        payload = data.draw(_matching(_SCHEMAS[kind]))
        payload[data.draw(st.sampled_from(sorted(payload)))] = bad
        event = TraceEvent(0, "02:00:00:00:00:01", kind, payload)
        with pytest.raises(TypeError, match="not JSON serializable"):
            event.to_json()
        with _pure_python(), pytest.raises(TypeError, match="not JSON serializable"):
            event.to_json()


class TestFastPath:
    """Every event the simulator emits matches its kind's schema, so it never reaches ``_encode``."""

    def _check(self, events):
        for event in events:
            assert conforms(PAYLOAD_SCHEMAS[event.kind], event.payload), event
            assert rendered(event) == _envelope(event), event

    @staticmethod
    def _traces(bundled_traces, lattice) -> list:
        traces = [*bundled_traces, *(r.trace for results in lattice.values() for r in results)]
        assert len(traces) == 69 * 33
        return traces

    def test_bundled_scenarios_under_own_policies_and_every_defense_subset(
            self, bundled_traces, lattice, monkeypatch):
        monkeypatch.setattr(trace, "_encode", _fell_back)
        for events in self._traces(bundled_traces, lattice):
            self._check(events)
            trace_digest(events)

    def test_no_two_events_of_a_trace_share_a_payload(self, bundled_traces, lattice):
        """``emit`` stores the caller's dict as is, so an emitter that reused one would alias events."""
        for events in self._traces(bundled_traces, lattice):
            assert len({id(event.payload) for event in events}) == len(events)

    def test_p256_numeric_comparison_golden_runs(self, monkeypatch):
        traces = []

        def recording_digest(events):
            traces.append(events)
            return trace_digest(events)

        monkeypatch.setattr(trace, "_encode", _fell_back)
        monkeypatch.setattr(test_golden, "trace_digest", recording_digest)
        for case, args in test_golden.P256_CASES.items():
            assert test_golden.observe_p256(*args) == test_golden.P256_GOLDEN[case]
        assert len(traces) == 16
        for events in traces:
            self._check(events)

    def test_read_back_traces_render_the_same_bytes(self, bundled_traces, tmp_path, monkeypatch):
        monkeypatch.setattr(trace, "_encode", _fell_back)
        path = tmp_path / "run.jsonl"
        for events in bundled_traces:
            emit_trace(events, path)
            read_back = read_trace(path)
            self._check(read_back)
            assert trace_digest(read_back) == trace_digest(events)

"""Replayable event trace: strictly ordered records, JSONL on disk."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, NamedTuple

KIND_MSG_SENT = "msg_sent"
KIND_MSG_RECEIVED = "msg_received"
KIND_KEY_STORED = "key_stored"
KIND_SESSION_OK = "session_ok"
KIND_SESSION_FAIL = "session_fail"
KIND_POLICY_VERDICT = "policy_verdict"

#: JSON types of payload values, as the README's table of event kinds names them.
STRING, BOOLEAN, INTEGER, STRING_OR_NULL = "string", "boolean", "integer", "string or null"
_MESSAGE = {"bt_auth_req": STRING, "frame": STRING, "opcode": STRING, "peer": STRING,
            "transport": STRING, "tunneled": BOOLEAN}
#: Each kind's payload keys in sorted order, with the JSON type of each value; a nested
#: dict is an object with exactly those keys. Emitters write no other payload.
PAYLOAD_SCHEMAS = {
    KIND_MSG_SENT: _MESSAGE,
    KIND_MSG_RECEIVED: _MESSAGE,
    KIND_KEY_STORED: {
        "association": STRING, "extra_keys": {"csrk": STRING, "irk": STRING}, "key": STRING,
        "mitm_protected": BOOLEAN, "origin": STRING, "overwrote": BOOLEAN, "peer": STRING,
        "role": STRING, "strength": INTEGER, "transport": STRING,
    },
    KIND_SESSION_OK: {"entropy": INTEGER, "peer": STRING, "transport": STRING},
    KIND_SESSION_FAIL: {"peer": STRING, "reason": STRING, "transport": STRING},
    KIND_POLICY_VERDICT: {"allow": BOOLEAN, "origin": STRING_OR_NULL, "peer": STRING,
                          "reason": STRING_OR_NULL, "stage": STRING, "transport": STRING},
}
#: Keys a payload may leave out: only BT pairing messages carry ``bt_auth_req``, and
#: only the records that keep the peer's identity keys carry ``extra_keys``.
OPTIONAL_KEYS = frozenset({"bt_auth_req", "extra_keys"})
KINDS = tuple(PAYLOAD_SCHEMAS)

# The encoder of every payload no renderer below takes; sort_keys makes the on-disk form
# byte-stable. It is the C encoder when the interpreter has the _json accelerator, and
# the pure-Python one, which writes the same bytes, when it has not.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
_q = encode_basestring_ascii

# What a renderer checks and writes for a value of each JSON type; ``bind`` is the value's
# first mention, which may bind its name ``v``. ``type(v) is bool`` holds only for True and
# False; ``type(v) is int`` rejects bools and IntEnums, whose JSON differs. No field holds a
# single quote, so Python 3.10 parses the single-quoted f-string that holds them.
_CHECK = {STRING: "type({bind}) is str", BOOLEAN: "type({bind}) is bool", INTEGER: "type({bind}) is int",
          STRING_OR_NULL: "({bind} is None or type({v}) is str)"}
_FIELD = {STRING: "{{_q({v})}}", BOOLEAN: '{{"true" if {v} else "false"}}', INTEGER: "{{{v}}}",
          STRING_OR_NULL: '{{"null" if {v} is None else _q({v})}}'}


def _value(kind, v: str, bind: str) -> tuple[str, str]:
    """The check and the f-string field of a value of JSON type ``kind``, or of a nested
    object with exactly its keys. Keys are identifiers, whose JSON text needs no escaping."""
    if not isinstance(kind, dict):
        return _CHECK[kind].format(bind=bind, v=v), _FIELD[kind].format(v=v)
    keys = sorted(kind)
    parts = [_value(kind[key], f"{v}_{i}", f"({v}_{i} := {v}[{key!r}])") for i, key in enumerate(keys)]
    checks = [f"type({bind}) is dict and len({v}) == {len(keys)}", *(check for check, _ in parts)]
    return " and ".join(checks), "{{" + ",".join(f"{_q(key)}:{f}" for key, (_, f) in zip(keys, parts)) + "}}"


def _compile(kind: str, schema: dict):
    """``kind``'s renderer, generated from its schema as ``dataclasses`` generates ``__init__``.

    ``_render_KIND(index, actor, payload)`` writes an event's whole JSONL line with one
    f-string: the envelope's keys and the payload's in sorted order, as _encode does, with
    the kind's quoted name as a constant. An int index, a str actor and a payload that
    matches the schema exactly are all it takes; for any other event it returns None, or
    raises KeyError for a missing key, and the event goes to _encode.
    """
    keys = sorted(schema)
    required = [key for key in keys if key not in OPTIONAL_KEYS]
    names = {key: f"v{i}" for i, key in enumerate(keys)}
    # Every required key is read first, so n counts them and then each optional key present.
    lines = [f"def _render_{kind}(i, a, p):", "    if type(p) is not dict:", "        return None",
             f"    n = {len(required)}",
             f"    {', '.join(names[k] for k in required)}, = {', '.join(f'p[{k!r}]' for k in required)},"]
    checks, fields, pending = ["type(i) is int and type(a) is str and len(p) == n"], [], ""
    for key in keys:
        v = names[key]
        if key in OPTIONAL_KEYS:  # its field carries the comma between it and a neighbour
            check, field = _value(schema[key], v, f"({v} := p[{key!r}])")
            field = f"{_q(key)}:{field}," if key < required[-1] else f",{_q(key)}:{field}"
            lines += [f"    if len(p) == {len(required)} or {key!r} not in p:", f"        {v} = ''",
                      f"    elif {check}:", f"        {v}, n = f'{field}', n + 1", "    else:", "        return None"]
            pending += f"{{{v}}}"
        else:
            check, field = _value(schema[key], v, v)
            checks.append(check)
            fields.append(f"{pending}{_q(key)}:{field}")
            pending = ""
    envelope = f'{{{{"actor":{{_q(a)}},"index":{{i}},"kind":{_q(kind)},"payload":'
    lines += [f"    if {' and '.join(checks)}:", f"        return f'{envelope}{{{{{','.join(fields)}{pending}}}}}}}}}'"]
    namespace = {"_q": _q}
    exec(compile("\n".join(lines), f"<trace renderer {kind}>", "exec"), namespace)
    return namespace[f"_render_{kind}"]


_RENDERERS = {kind: _compile(kind, schema) for kind, schema in PAYLOAD_SCHEMAS.items()}


class TraceEvent(NamedTuple):
    index: int
    actor: str  # rendered device address
    kind: str
    payload: dict

    def to_json(self) -> str:
        # The whole line from the kind's renderer. Any event it does not take (a payload off
        # the schema, or an index that is not exactly an int, such as a bool) is written
        # with _encode, the envelope's keys in sorted order; an actor that is not a str is
        # a TypeError.
        index, actor, kind, payload = self
        try:
            line = _RENDERERS[kind](index, actor, payload)
        except KeyError:  # a kind without a renderer, or a payload that lacks a key of its schema
            line = None
        if line is not None:
            return line
        text = _encode(payload)
        if type(index) is not int:
            index = _encode(index)
        return f'{{"actor":{_q(actor)},"index":{index},"kind":{_q(kind)},"payload":{text}}}'

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(raw["index"], raw["actor"], raw["kind"], raw["payload"])


class TraceRecorder:
    """Collects events with a strictly increasing index (the event clock)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    @property
    def clock(self) -> int:
        return len(self.events)

    def emit(self, actor, kind: str, payload: dict) -> TraceEvent:
        if kind not in PAYLOAD_SCHEMAS:
            raise ValueError(f"unknown event kind {kind!r}")
        # The caller's dict is stored as is, one per event. tuple.__new__ skips the NamedTuple's
        # generated __new__ and its argument binding. Callers pass address text, so ``str``
        # runs only for another kind of actor.
        actor = actor if type(actor) is str else str(actor)
        event = tuple.__new__(TraceEvent, (len(self.events), actor, kind, payload))
        self.events.append(event)
        return event


def _jsonl(events: Iterable[TraceEvent]) -> str:
    """The text that trace files hold and digests hash: one event per line."""
    return "".join([event.to_json() + "\n" for event in events])


def emit_trace(events: Iterable[TraceEvent], path: str | Path) -> None:
    """One event per line; an empty trace writes an empty file."""
    Path(path).write_text(_jsonl(events), encoding="ascii")


def read_trace(path: str | Path) -> list[TraceEvent]:
    events = []
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """Stable hash of a full trace (the SHA-256 of its JSONL text), for determinism checks."""
    # Imported here: loading OpenSSL's hashlib costs every `import ctkdsim`
    # several milliseconds, and only runs that take a digest need it.
    import hashlib

    return hashlib.sha256(_jsonl(events).encode("ascii")).hexdigest()

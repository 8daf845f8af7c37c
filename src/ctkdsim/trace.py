"""Replayable event trace: strictly ordered records, JSONL on disk."""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, NamedTuple

KIND_MSG_SENT = "msg_sent"
KIND_MSG_RECEIVED = "msg_received"
KIND_KEY_STORED = "key_stored"
KIND_KEY_REJECTED = "key_rejected"
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
    KIND_KEY_REJECTED: {"origin": STRING, "peer": STRING, "reason": STRING, "transport": STRING},
    KIND_SESSION_OK: {"entropy": INTEGER, "peer": STRING, "transport": STRING},
    KIND_SESSION_FAIL: {"peer": STRING, "reason": STRING, "transport": STRING},
    KIND_POLICY_VERDICT: {"allow": BOOLEAN, "origin": STRING_OR_NULL, "peer": STRING,
                          "reason": STRING_OR_NULL, "stage": STRING, "transport": STRING},
}
#: Keys a payload may leave out: only BT pairing messages carry ``bt_auth_req``, and
#: only the records that keep the peer's identity keys carry ``extra_keys``.
OPTIONAL_KEYS = frozenset({"bt_auth_req", "extra_keys"})
KINDS = tuple(PAYLOAD_SCHEMAS)

# The encoder of every payload no renderer below takes; sort_keys makes the on-disk form byte-stable.
# JSONEncoder.encode builds a C encoder per call, so one is built here with its settings;
# without the _json accelerator, the pure-Python encoder writes the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
if c_make_encoder is None:
    _encode = _ENCODER.encode
else:
    _iterencode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )

    def _encode(obj) -> str:
        return "".join(_iterencode(obj, 0))


# One renderer per schema writes the payload's keys in sorted order, as _encode does.
# A payload that does not match the schema exactly makes it return None, or raise
# KeyError for a missing key, and goes to _encode. ``type(v) is bool`` holds only for
# True and False; ``type(v) is int`` rejects bools and IntEnums, whose JSON differs.
_q = encode_basestring_ascii


def _render_message(p):
    frame, opcode, peer, transport, tunneled = p["frame"], p["opcode"], p["peer"], p["transport"], p["tunneled"]
    if len(p) == 5:
        auth = ""
    elif len(p) == 6 and type(auth := p["bt_auth_req"]) is str:
        auth = f'"bt_auth_req":{_q(auth)},'
    else:
        return None
    if type(frame) is type(opcode) is type(peer) is type(transport) is str and type(tunneled) is bool:
        return (f'{{{auth}"frame":{_q(frame)},"opcode":{_q(opcode)},"peer":{_q(peer)},'
                f'"transport":{_q(transport)},"tunneled":{"true" if tunneled else "false"}}}')


def _render_key_stored(p):
    association, key, mitm, origin, overwrote, peer, role, strength, transport = (
        p["association"], p["key"], p["mitm_protected"], p["origin"], p["overwrote"],
        p["peer"], p["role"], p["strength"], p["transport"])
    if len(p) == 9:
        extra = ""
    elif len(p) == 10 and type(ek := p["extra_keys"]) is dict and len(ek) == 2 \
            and type(csrk := ek["csrk"]) is type(irk := ek["irk"]) is str:
        extra = f'"extra_keys":{{"csrk":{_q(csrk)},"irk":{_q(irk)}}},'
    else:
        return None
    if (type(association) is type(key) is type(origin) is type(peer) is type(role) is type(transport) is str
            and type(mitm) is type(overwrote) is bool and type(strength) is int):
        return (f'{{"association":{_q(association)},{extra}"key":{_q(key)},'
                f'"mitm_protected":{"true" if mitm else "false"},"origin":{_q(origin)},'
                f'"overwrote":{"true" if overwrote else "false"},"peer":{_q(peer)},"role":{_q(role)},'
                f'"strength":{strength},"transport":{_q(transport)}}}')


def _render_key_rejected(p):
    origin, peer, reason, transport = p["origin"], p["peer"], p["reason"], p["transport"]
    if len(p) == 4 and type(origin) is type(peer) is type(reason) is type(transport) is str:
        return f'{{"origin":{_q(origin)},"peer":{_q(peer)},"reason":{_q(reason)},"transport":{_q(transport)}}}'


def _render_session_ok(p):
    entropy, peer, transport = p["entropy"], p["peer"], p["transport"]
    if len(p) == 3 and type(entropy) is int and type(peer) is type(transport) is str:
        return f'{{"entropy":{entropy},"peer":{_q(peer)},"transport":{_q(transport)}}}'


def _render_session_fail(p):
    peer, reason, transport = p["peer"], p["reason"], p["transport"]
    if len(p) == 3 and type(peer) is type(reason) is type(transport) is str:
        return f'{{"peer":{_q(peer)},"reason":{_q(reason)},"transport":{_q(transport)}}}'


def _render_verdict(p):
    allow, origin, peer, reason, stage, transport = (
        p["allow"], p["origin"], p["peer"], p["reason"], p["stage"], p["transport"])
    if (len(p) == 6 and type(allow) is bool and type(peer) is type(stage) is type(transport) is str
            and (origin is None or type(origin) is str) and (reason is None or type(reason) is str)):
        return (f'{{"allow":{"true" if allow else "false"},"origin":{"null" if origin is None else _q(origin)},'
                f'"peer":{_q(peer)},"reason":{"null" if reason is None else _q(reason)},'
                f'"stage":{_q(stage)},"transport":{_q(transport)}}}')


_RENDERERS = {KIND_MSG_SENT: _render_message, KIND_MSG_RECEIVED: _render_message,
              KIND_KEY_STORED: _render_key_stored, KIND_KEY_REJECTED: _render_key_rejected,
              KIND_SESSION_OK: _render_session_ok, KIND_SESSION_FAIL: _render_session_fail,
              KIND_POLICY_VERDICT: _render_verdict}


class TraceEvent(NamedTuple):
    index: int
    actor: str  # rendered device address
    kind: str
    payload: dict

    def to_json(self) -> str:
        # The envelope's keys are written in sorted order; the payload by its kind's
        # renderer, or by _encode when the payload does not match the kind's schema,
        # and the index by _encode when it is not exactly an int (a bool, say).
        index, payload = self.index, self.payload
        try:
            text = _RENDERERS[self.kind](payload) if type(payload) is dict else None
        except KeyError:  # a kind without a renderer, or a payload that lacks a key of its schema
            text = None
        if text is None:
            text = _encode(payload)
        if type(index) is not int:
            index = _encode(index)
        return (
            f'{{"actor":{encode_basestring_ascii(self.actor)},"index":{index},'
            f'"kind":{encode_basestring_ascii(self.kind)},"payload":{text}}}'
        )

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

    def emit(self, actor, kind: str, **payload) -> TraceEvent:
        if kind not in PAYLOAD_SCHEMAS:
            raise ValueError(f"unknown event kind {kind!r}")
        # tuple.__new__ skips the NamedTuple's generated __new__ and its argument binding.
        # Callers pass address text, so ``str`` runs only for another kind of actor.
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

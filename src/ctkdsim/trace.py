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

KINDS = (
    KIND_MSG_SENT,
    KIND_MSG_RECEIVED,
    KIND_KEY_STORED,
    KIND_KEY_REJECTED,
    KIND_SESSION_OK,
    KIND_SESSION_FAIL,
    KIND_POLICY_VERDICT,
)
_KIND_SET = frozenset(KINDS)

# One encoder for every event; sort_keys makes the on-disk form byte-stable for hashing.
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


class TraceEvent(NamedTuple):
    index: int
    actor: str  # rendered device address
    kind: str
    payload: dict

    def to_json(self) -> str:
        # The envelope's keys are written in sorted order; only the payload needs the encoder.
        return (
            f'{{"actor":{encode_basestring_ascii(self.actor)},"index":{self.index},'
            f'"kind":{encode_basestring_ascii(self.kind)},"payload":{_encode(self.payload)}}}'
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
        if kind not in _KIND_SET:
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

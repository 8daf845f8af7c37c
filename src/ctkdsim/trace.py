"""Replayable event trace: strictly ordered records, JSONL on disk."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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

# One encoder for every event; sort_keys makes the on-disk form byte-stable for hashing.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class TraceEvent:
    index: int
    actor: str  # rendered device address
    kind: str
    payload: dict

    def to_json(self) -> str:
        return _encode(
            {"index": self.index, "actor": self.actor, "kind": self.kind, "payload": self.payload}
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
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = TraceEvent(index=len(self.events), actor=str(actor), kind=kind, payload=payload)
        self.events.append(event)
        return event


def emit_trace(events: Iterable[TraceEvent], path: str | Path) -> None:
    """One event per line; an empty trace writes an empty file."""
    path = Path(path)
    with path.open("w", encoding="ascii") as fh:
        for event in events:
            fh.write(event.to_json())
            fh.write("\n")


def read_trace(path: str | Path) -> list[TraceEvent]:
    events = []
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """Stable hash of a full trace, for determinism checks."""
    # Imported here: loading OpenSSL's hashlib costs every `import ctkdsim`
    # several milliseconds, and only runs that take a digest need it.
    import hashlib

    h = hashlib.sha256()
    for event in events:
        h.update(event.to_json().encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()

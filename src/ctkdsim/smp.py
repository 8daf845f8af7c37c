"""Bit-exact codec for pairing request/response messages.

One 7-byte layout serves both transports: BLE-native pairing messages and
the CTKD negotiation frames that get tunneled over an encrypted BT link
use it directly, while the (much simpler) BT-side authentication
requirements byte has its own helper below. Reserved bits are strict
zero on decode so malformed attacker frames surface immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .crypto import Checked, Key128, MAX_STRENGTH, MIN_STRENGTH

MESSAGE_LEN = 7

OPCODE_REQUEST = 0x01
OPCODE_RESPONSE = 0x02
_OPCODES = (OPCODE_REQUEST, OPCODE_RESPONSE)


class CodecError(ValueError):
    """Raised for any malformed wire input or unencodable message."""


class IoCapability(Enum):
    DISPLAY_ONLY = 0x00
    DISPLAY_YES_NO = 0x01
    KEYBOARD_ONLY = 0x02
    NO_INPUT_NO_OUTPUT = 0x03
    KEYBOARD_DISPLAY = 0x04


#: Capabilities that can both show a 6-digit value and take a yes/no answer.
CONFIRM_CAPABLE = frozenset({IoCapability.DISPLAY_YES_NO, IoCapability.KEYBOARD_DISPLAY})


@dataclass(frozen=True)
class AuthReqBits:
    """AuthReq bitfield: bonding (2 bits), MITM, SC, keypress, CT2/h7."""

    bonding: int = 0
    mitm: bool = False
    sc: bool = False
    keypress: bool = False
    ct2_h7: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.bonding <= 3:
            raise CodecError(f"bonding field {self.bonding} does not fit 2 bits")

    def to_byte(self) -> int:
        return (
            self.bonding
            | (self.mitm << 2)
            | (self.sc << 3)
            | (self.keypress << 4)
            | (self.ct2_h7 << 5)
        )

    @classmethod
    def from_byte(cls, raw: int) -> "AuthReqBits":
        if raw & 0xC0:
            raise CodecError(f"reserved AuthReq bits set in 0x{raw:02x}")
        return cls(
            bonding=raw & 0x03,
            mitm=bool(raw & 0x04),
            sc=bool(raw & 0x08),
            keypress=bool(raw & 0x10),
            ct2_h7=bool(raw & 0x20),
        )


@dataclass(frozen=True)
class KeyDistBits:
    """Key-distribution bitfield: EncKey, IdKey (IRK), SignKey (CSRK), LinkKey (CTKD)."""

    enc_key: bool = False
    id_key: bool = False
    sign_key: bool = False
    link_key: bool = False

    def to_byte(self) -> int:
        return (
            (self.enc_key << 0)
            | (self.id_key << 1)
            | (self.sign_key << 2)
            | (self.link_key << 3)
        )

    @classmethod
    def from_byte(cls, raw: int) -> "KeyDistBits":
        if raw & 0xF0:
            raise CodecError(f"reserved key-distribution bits set in 0x{raw:02x}")
        return cls(
            enc_key=bool(raw & 0x01),
            id_key=bool(raw & 0x02),
            sign_key=bool(raw & 0x04),
            link_key=bool(raw & 0x08),
        )


@dataclass(frozen=True)
class SmpPairingMessage:
    opcode: int
    io_capability: IoCapability
    oob: bool
    auth_req: AuthReqBits
    max_key_size: int
    initiator_dist: KeyDistBits
    responder_dist: KeyDistBits

    def __post_init__(self) -> None:
        if self.opcode not in _OPCODES:
            raise CodecError(f"bad opcode 0x{self.opcode:02x}")
        if not MIN_STRENGTH <= self.max_key_size <= MAX_STRENGTH:
            raise CodecError(
                f"max key size {self.max_key_size} outside {MIN_STRENGTH}..{MAX_STRENGTH}"
            )


def encode_pairing(msg: SmpPairingMessage) -> bytes:
    """Fixed 7-byte layout: opcode, io, oob, authreq, max key size, two dist fields."""
    return bytes(
        [
            msg.opcode,
            msg.io_capability.value,
            0x01 if msg.oob else 0x00,
            msg.auth_req.to_byte(),
            msg.max_key_size,
            msg.initiator_dist.to_byte(),
            msg.responder_dist.to_byte(),
        ]
    )


def decode_pairing(data: bytes) -> SmpPairingMessage:
    """Inverse of :func:`encode_pairing`; strict about every reserved bit."""
    if len(data) != MESSAGE_LEN:
        raise CodecError(f"pairing message must be {MESSAGE_LEN} bytes, got {len(data)}")
    opcode, io_raw, oob_raw, auth_raw, mks, idist, rdist = data
    try:
        io_cap = IoCapability(io_raw)
    except ValueError:
        raise CodecError(f"bad IO capability 0x{io_raw:02x}") from None
    if oob_raw not in (0x00, 0x01):
        raise CodecError(f"bad OOB flag 0x{oob_raw:02x}")
    return SmpPairingMessage(
        opcode=opcode,
        io_capability=io_cap,
        oob=bool(oob_raw),
        auth_req=AuthReqBits.from_byte(auth_raw),
        max_key_size=mks,
        initiator_dist=KeyDistBits.from_byte(idist),
        responder_dist=KeyDistBits.from_byte(rdist),
    )


def ctkd_requested(msg: SmpPairingMessage) -> bool:
    """True iff the Link Key flag is set in both key-distribution fields."""
    return msg.initiator_dist.link_key and msg.responder_dist.link_key


# ---------------------------------------------------------------------------
# BT-side authentication-requirements byte
# ---------------------------------------------------------------------------
# BT pairing carries a single auth-requirements byte on the 0x00..0x05 scale
# (bit 0 = MITM, bits 1-2 = bonding mode). It cannot express SC/CT2, which
# is exactly why CTKD negotiation from BT needs the tunneled frames above.

def encode_bt_auth_req(bonding: bool, mitm: bool) -> int:
    return (0x02 if bonding else 0x00) | (0x01 if mitm else 0x00)


# ---------------------------------------------------------------------------
# Identity-key material and the trace's frame convention
# ---------------------------------------------------------------------------

class KeyMaterial(Checked, NamedTuple("KeyMaterial", [("csrk", Key128), ("irk", Key128), ("csrk_hex", str),
                                                       ("irk_hex", str), ("frame", str)])):
    """CSRK/IRK values distributed over an encrypted link during pairing, with their trace text.

    Built from the two keys; the three texts are rendered from them once, at construction,
    so they compare as the keys do. ``_replace`` takes new keys only and renders the texts again.
    """

    __slots__ = ()

    def __new__(cls, csrk: Key128, irk: Key128) -> "KeyMaterial":
        return tuple.__new__(cls, (csrk, irk, csrk.hex(), irk.hex(), hexdump(csrk.value + irk.value)))

    @classmethod
    def _make(cls, fields):
        csrk, irk, *_texts = fields
        return cls(csrk, irk)

    def _replace(self, **keys) -> "KeyMaterial":
        return KeyMaterial(keys.pop("csrk", self.csrk), keys.pop("irk", self.irk), **keys)

    def __getnewargs__(self):
        return self.csrk, self.irk

    def __repr__(self) -> str:
        return f"KeyMaterial(csrk={self.csrk!r}, irk={self.irk!r})"


def hexdump(data: bytes) -> str:
    """Trace convention for raw frames: lowercase hex, space-separated."""
    return data.hex(" ")


def parse_hexdump(text: str) -> bytes:
    """The inverse of ``hexdump``, in either case: two hex digits per octet."""
    data = bytes.fromhex(text)
    if data.hex(" ") != text.lower():
        raise ValueError(f"bad hexdump {text!r}")
    return data

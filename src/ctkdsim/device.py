"""Simulated device state: profile, per-transport pairability, bond store.

The bond table is the attack surface of this whole simulator. Pairing
gets a policy verdict on every prospective record before it commits any
of them (``commit``); the enumerated rejection reasons are what
scenarios assert on when a defense blocks a write.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

from .crypto import Address, Checked, Key128, TRANSPORTS
from .smp import CONFIRM_CAPABLE, IoCapability, KeyMaterial

if TYPE_CHECKING:
    from .pairing import SessionState
    from .policies import PolicySet


class Association(Enum):
    JUST_WORKS = "JustWorks"
    NUMERIC_COMPARISON = "NumericComparison"

    @property
    def rank(self) -> int:
        # Numeric Comparison is the stronger mechanism.
        return 1 if self is Association.NUMERIC_COMPARISON else 0


class PairingRole(Enum):
    MASTER = "master"
    SLAVE = "slave"


class KeyOrigin(Enum):
    DIRECT_PAIRING = "direct_pairing"
    CTKD_DERIVED = "ctkd_derived"


BT_VERSIONS = ("4.1", "4.2", "5.0", "5.1", "5.2")


_IO_BY_NAME = {
    "DisplayOnly": IoCapability.DISPLAY_ONLY,
    "DisplayYesNo": IoCapability.DISPLAY_YES_NO,
    "KeyboardOnly": IoCapability.KEYBOARD_ONLY,
    "NoInputNoOutput": IoCapability.NO_INPUT_NO_OUTPUT,
    "KeyboardDisplay": IoCapability.KEYBOARD_DISPLAY,
}


class ScenarioError(ValueError):
    """Configuration problem, with enough context to find the bad field."""


_KIND_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string", int: "an integer", bool: "true or false"}


def json_typed(value, kind: type, where: str):
    """``value`` when it is exactly a ``kind`` (so ``true`` is no integer)."""
    if type(value) is not kind:
        raise ScenarioError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def json_fields(raw, where: str, kinds: dict, required=()) -> dict:
    """``raw`` when it is a JSON object with every ``required`` field and none outside ``kinds``, each of its kind."""
    data = json_typed(raw, dict, where)
    missing = [name for name in required if name not in data]
    if missing:
        raise ScenarioError(f"{where}: missing required field {missing[0]!r}")
    unknown = set(data) - set(kinds)
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)}")
    for name, value in data.items():
        json_typed(value, kinds[name], f"{where}.{name}")
    return data


@dataclass(frozen=True)
class DeviceProfile:
    """Static capabilities of a simulated device."""

    address: Address
    name: str
    bt_version: str
    io_capability: IoCapability
    sc_host: bool = True
    sc_controller: bool = True
    ctkd_supported: bool = True
    h7_supported: bool = True
    ctkd_backported: bool = False
    max_key_size: int = 16
    #: The fields an honest message reads, as plain values (the key of ``pairing.honest``).
    capabilities: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.bt_version not in BT_VERSIONS:
            raise ValueError(f"unknown Bluetooth version {self.bt_version!r}")
        if not 7 <= self.max_key_size <= 16:
            raise ValueError(f"max_key_size {self.max_key_size} outside 7..16")
        if self.ctkd_supported and not self.ctkd_backported:
            if not (self.sc_host or self.sc_controller):
                raise ValueError(f"{self.name}: CTKD requires Secure Connections support")
            if BT_VERSIONS.index(self.bt_version) < BT_VERSIONS.index("4.2"):
                raise ValueError(
                    f"{self.name}: CTKD requires version >= 4.2 (set ctkd_backported for older)"
                )
        object.__setattr__(self, "capabilities", (self.io_capability._value_, self.sc_supported,
                                                  self.h7_supported, self.max_key_size, self.ctkd_supported))

    @property
    def sc_supported(self) -> bool:
        return self.sc_host or self.sc_controller

    @property
    def wants_mitm(self) -> bool:
        # A device asks for MITM protection when it can actually confirm a code.
        return self.io_capability in CONFIRM_CAPABLE

    @classmethod
    def from_dict(cls, raw: dict, where: str = "profile") -> "DeviceProfile":
        """A profile from JSON: a field without a default is a required string, any other of its default's type."""
        init = [f for f in fields(cls) if f.init]
        data = json_fields(raw, where, {f.name: str if f.default is MISSING else type(f.default) for f in init},
                           required=[f.name for f in init if f.default is MISSING])
        if data["io_capability"] not in _IO_BY_NAME:
            raise ScenarioError(f"{where}: unknown io_capability {data['io_capability']!r}")
        try:
            return cls(**{**data, "address": Address.parse(data["address"]),
                          "io_capability": _IO_BY_NAME[data["io_capability"]]})
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None


class KeyRecord(Checked, NamedTuple("KeyRecord", [
    ("peer", Address), ("transport", str), ("key", Key128), ("origin", KeyOrigin), ("association", Association),
    ("role_at_pairing", PairingRole),  # the peer's role when this bond was made
    ("extra_keys", Optional[KeyMaterial]),
])):
    """One stored bond: key material plus how it came to exist."""

    __slots__ = ()

    def __new__(cls, peer: Address, transport: str, key: Key128, origin: KeyOrigin, association: Association,
                role_at_pairing: PairingRole, extra_keys: Optional[KeyMaterial] = None) -> "KeyRecord":
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}")
        if key.mitm_protected != (association is Association.NUMERIC_COMPARISON):
            raise ValueError("mitm_protected flag must mirror the association method")
        return tuple.__new__(cls, (peer, transport, key, origin, association, role_at_pairing, extra_keys))


@dataclass
class StoreOutcome:
    overwrote: bool


class BondTable:
    """Per-device key store, at most one record per (peer, transport), keyed by the address bytes."""

    def __init__(self) -> None:
        self.records: dict[tuple[bytes, str], KeyRecord] = {}

    def lookup(self, peer: Address, transport: str) -> Optional[KeyRecord]:
        return self.records.get((peer.value, transport))

    def commit(self, record: KeyRecord, existing: Optional[KeyRecord]) -> StoreOutcome:
        """Insert or replace the record; the caller has had its verdict and looked up ``existing``."""
        self.records[(record.peer.value, record.transport)] = record
        return StoreOutcome(overwrote=existing is not None)


class Device:
    """A profile plus the mutable state the protocol engine acts on."""

    def __init__(self, profile: DeviceProfile, policies: "PolicySet", key_material: KeyMaterial,
                 address: Optional[Address] = None) -> None:
        self.profile = profile
        self.address: Address = profile.address if address is None else address
        self.policies = policies
        self.bonds = BondTable()
        # Identity keys this device distributes during pairing; never reassigned.
        self.key_material = key_material
        # Pairable on both transports from the start; only c1 turns a transport
        # off, when it has no live session and no directly paired bond.
        self._pairable = {"BT": True, "BLE": True}
        self.sessions: list["SessionState"] = []

    @property
    def name(self) -> str:
        return self.profile.name

    def is_pairable(self, transport: str) -> bool:
        return self._pairable[transport]

    def set_pairable(self, transport: str, flag: bool) -> None:
        self._pairable[transport] = flag

    def live_sessions(self, transport: str, peer: Optional[Address] = None):
        for s in self.sessions:
            if s.live and s.transport == transport and (peer is None or peer in s.peers):
                yield s

    def has_live_session(self, transport: str, peer: Optional[Address] = None) -> bool:
        return next(self.live_sessions(transport, peer), None) is not None

    def __repr__(self) -> str:
        return f"<Device {self.name} {self.address}>"

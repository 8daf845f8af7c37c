"""Simulated device state: profile, per-transport pairability, bond store.

The bond table is the attack surface of this whole simulator. Pairing
gets a policy verdict on every prospective record before it commits any
of them (``commit``); the enumerated rejection reasons are what
scenarios assert on when a defense blocks a write.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

from .crypto import Address, Checked, Key128, TRANSPORTS, random_key128
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


def pop_options(cls, data: dict, where: str) -> dict:
    """Pop from ``data`` each field of dataclass ``cls`` that has a default.

    A value must have exactly its default's type, so a JSON ``"no"`` is not
    read as a true flag and ``true`` is not read as the number 1.
    """
    options = {}
    for f in fields(cls):
        if f.default is MISSING or f.name not in data:
            continue
        value = data.pop(f.name)
        if type(value) is not type(f.default):
            raise ValueError(f"{where}: {f.name} must be {type(f.default).__name__}, got {value!r}")
        options[f.name] = value
    return options


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
        data = dict(raw)
        required = {}
        for name in ("address", "name", "bt_version", "io_capability"):
            if name not in data:
                raise ValueError(f"{where}: missing required field {name!r}")
            required[name] = data.pop(name)
            if not isinstance(required[name], str):
                raise ValueError(f"{where}: {name} must be str, got {required[name]!r}")
        if required["io_capability"] not in _IO_BY_NAME:
            raise ValueError(f"{where}: unknown io_capability {required['io_capability']!r}")
        options = pop_options(cls, data, where)
        if data:
            raise ValueError(f"{where}: unknown field(s) {sorted(data)}")
        try:
            return cls(
                address=Address.parse(required["address"]),
                name=required["name"],
                bt_version=required["bt_version"],
                io_capability=_IO_BY_NAME[required["io_capability"]],
                **options,
            )
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None


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

    def __init__(self, profile: DeviceProfile, policies: "PolicySet", rng: random.Random,
                 address: Optional[Address] = None) -> None:
        self.profile = profile
        self.address: Address = profile.address if address is None else address
        self.policies = policies
        self.bonds = BondTable()
        # Identity keys this device distributes during pairing; never reassigned.
        self.csrk = random_key128(rng)
        self.irk = random_key128(rng)
        self.key_material = KeyMaterial(csrk=self.csrk, irk=self.irk)
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

    def live_sessions(self, transport: Optional[str] = None, peer: Optional[Address] = None):
        for s in self.sessions:
            if not s.live:
                continue
            if transport is not None and s.transport != transport:
                continue
            if peer is not None and peer not in s.peers:
                continue
            yield s

    def has_live_session(self, transport: Optional[str] = None, peer: Optional[Address] = None) -> bool:
        return next(self.live_sessions(transport, peer), None) is not None

    def __repr__(self) -> str:
        return f"<Device {self.name} {self.address}>"

"""Simulated device state: profile, per-transport pairability, bond store.

The bond table is the attack surface of this whole simulator. Pairing
asks it for a policy verdict on every prospective record
(``evaluate_store``) before it commits any of them (``commit``); the
enumerated rejection reasons are what scenarios assert on when a defense
blocks a write.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .crypto import Address, Key128, TRANSPORTS, random_key128
from .smp import CONFIRM_CAPABLE, IoCapability, KeyMaterial

if TYPE_CHECKING:
    from .pairing import SessionState
    from .policies import PolicySet, PolicyVerdict


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


def version_at_least(version: str, minimum: str) -> bool:
    return tuple(int(p) for p in version.split(".")) >= tuple(int(p) for p in minimum.split("."))


_IO_BY_NAME = {
    "DisplayOnly": IoCapability.DISPLAY_ONLY,
    "DisplayYesNo": IoCapability.DISPLAY_YES_NO,
    "KeyboardOnly": IoCapability.KEYBOARD_ONLY,
    "NoInputNoOutput": IoCapability.NO_INPUT_NO_OUTPUT,
    "KeyboardDisplay": IoCapability.KEYBOARD_DISPLAY,
}
IO_NAMES = {v: k for k, v in _IO_BY_NAME.items()}


@dataclass(frozen=True)
class RoleCaps:
    bt_role_switch: bool = True
    ble_central: bool = True
    ble_peripheral: bool = True


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
    pairable_bt: bool = True
    pairable_ble: bool = True
    discoverable: bool = True
    role_caps: RoleCaps = field(default_factory=RoleCaps)
    ctkd_backported: bool = False
    max_key_size: int = 16
    device_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.bt_version not in BT_VERSIONS:
            raise ValueError(f"unknown Bluetooth version {self.bt_version!r}")
        if not 7 <= self.max_key_size <= 16:
            raise ValueError(f"max_key_size {self.max_key_size} outside 7..16")
        if self.ctkd_supported and not self.ctkd_backported:
            if not (self.sc_host or self.sc_controller):
                raise ValueError(f"{self.name}: CTKD requires Secure Connections support")
            if not version_at_least(self.bt_version, "4.2"):
                raise ValueError(
                    f"{self.name}: CTKD requires version >= 4.2 (set ctkd_backported for older)"
                )

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
        try:
            address = Address.parse(data.pop("address"))
            name = data.pop("name")
            bt_version = str(data.pop("bt_version"))
            io_name = data.pop("io_capability")
        except KeyError as missing:
            raise ValueError(f"{where}: missing required field {missing.args[0]!r}") from None
        if io_name not in _IO_BY_NAME:
            raise ValueError(f"{where}: unknown io_capability {io_name!r}")
        role_caps = RoleCaps(**data.pop("role_caps")) if "role_caps" in data else RoleCaps()
        known = {
            f: data.pop(f)
            for f in (
                "sc_host", "sc_controller", "ctkd_supported", "h7_supported",
                "pairable_bt", "pairable_ble", "discoverable", "ctkd_backported",
                "max_key_size", "device_class",
            )
            if f in data
        }
        if data:
            raise ValueError(f"{where}: unknown field(s) {sorted(data)}")
        return cls(
            address=address,
            name=name,
            bt_version=bt_version,
            io_capability=_IO_BY_NAME[io_name],
            role_caps=role_caps,
            **known,
        )

    def to_dict(self) -> dict:
        return {
            "address": str(self.address),
            "name": self.name,
            "bt_version": self.bt_version,
            "io_capability": IO_NAMES[self.io_capability],
            "sc_host": self.sc_host,
            "sc_controller": self.sc_controller,
            "ctkd_supported": self.ctkd_supported,
            "h7_supported": self.h7_supported,
            "pairable_bt": self.pairable_bt,
            "pairable_ble": self.pairable_ble,
            "discoverable": self.discoverable,
            "role_caps": {
                "bt_role_switch": self.role_caps.bt_role_switch,
                "ble_central": self.role_caps.ble_central,
                "ble_peripheral": self.role_caps.ble_peripheral,
            },
            "ctkd_backported": self.ctkd_backported,
            "max_key_size": self.max_key_size,
            "device_class": self.device_class,
        }


@dataclass(frozen=True)
class KeyRecord:
    """One stored bond: key material plus how it came to exist."""

    peer: Address
    transport: str
    key: Key128
    origin: KeyOrigin
    association: Association
    role_at_pairing: PairingRole  # the peer's role when this bond was made
    extra_keys: Optional[KeyMaterial] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.key.mitm_protected != (self.association is Association.NUMERIC_COMPARISON):
            raise ValueError("mitm_protected flag must mirror the association method")


@dataclass(frozen=True)
class StoreContext:
    """Everything a policy decision may consult for one key-store mutation."""

    table: "BondTable"
    existing: Optional[KeyRecord]
    incoming: KeyRecord
    # For a derived record: the direct record established in the same run,
    # and what the table held on that direct transport before the run.
    ctkd_source: Optional[KeyRecord] = None
    prior_direct: Optional[KeyRecord] = None
    bt_version: Optional[str] = None


@dataclass
class StoreOutcome:
    overwrote: bool


class BondTable:
    """Per-device key store, at most one record per (peer, transport)."""

    def __init__(self) -> None:
        self.records: dict[tuple[Address, str], KeyRecord] = {}

    def lookup(self, peer: Address, transport: str) -> Optional[KeyRecord]:
        return self.records.get((peer, transport))

    def evaluate_store(self, record: KeyRecord, policy: "PolicySet", **context) -> "PolicyVerdict":
        """The policy verdict on one prospective mutation (no state change)."""
        from . import policies  # deferred: policies imports this module

        ctx = StoreContext(
            table=self,
            existing=self.lookup(record.peer, record.transport),
            incoming=record,
            **context,
        )
        return policies.evaluate(policy, ctx)

    def commit(self, record: KeyRecord) -> StoreOutcome:
        """Insert or replace the record; the caller has already had its verdict."""
        previous = self.lookup(record.peer, record.transport)
        self.records[(record.peer, record.transport)] = record
        return StoreOutcome(overwrote=previous is not None)

    def snapshot(self) -> dict:
        return dict(self.records)


class Device:
    """A profile plus the mutable state the protocol engine acts on."""

    def __init__(self, profile: DeviceProfile, policies: "PolicySet", rng: random.Random) -> None:
        self.profile = profile
        self.policies = policies
        self.bonds = BondTable()
        # Identity keys this device distributes during pairing.
        self.csrk = random_key128(rng)
        self.irk = random_key128(rng)
        self._pairable = {"BT": profile.pairable_bt, "BLE": profile.pairable_ble}
        self._manual_pairable: dict[str, bool] = {}
        self.sessions: list["SessionState"] = []
        self.last_activity: dict[str, int] = {t: 0 for t in TRANSPORTS}

    @property
    def address(self) -> Address:
        return self.profile.address

    @property
    def name(self) -> str:
        return self.profile.name

    def is_pairable(self, transport: str) -> bool:
        # Pairability never depends on being discoverable.
        return self._pairable[transport]

    def set_pairable(self, transport: str, flag: bool, manual: bool = True) -> None:
        self._pairable[transport] = flag
        if manual:
            self._manual_pairable[transport] = flag

    def manually_set(self, transport: str) -> bool:
        return transport in self._manual_pairable

    def note_activity(self, transport: str, clock: int) -> None:
        self.last_activity[transport] = clock

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

    def key_material(self) -> KeyMaterial:
        return KeyMaterial(csrk=self.csrk, irk=self.irk)

    def __repr__(self) -> str:
        return f"<Device {self.name} {self.address}>"

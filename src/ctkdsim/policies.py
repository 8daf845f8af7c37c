"""Pluggable defense policies evaluated on pairing steps and key-store writes.

``sig51_check`` models the standard's key-overwrite rule (no overwrite by a
key that is weaker in strength or MITM protection). The four countermeasures:

* C1 turns pairability off on each transport the device does not use: one
  with no live session and no directly paired bond,
* C2 binds the pairing role per peer and aborts on a mismatch,
* C3 blocks cross-transport key writes onto an already-keyed transport and
  refuses derivation from a weaker re-pairing key,
* C4 never lets the association method weaken across re-pairings.

All checks are pure, and each runs at exactly one stage: C2 when the
pairing request arrives and C4 once the association method is settled
(both in ``pairing._early_check``), C1 on the idle tick, and the overwrite
rule and C3 on each key-store write (``evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .crypto import Checked
from .device import (
    Association,
    Device,
    KeyOrigin,
    KeyRecord,
    PairingRole,
    pop_options,
)


class RejectionReason(Enum):
    MITM_DOWNGRADE = "mitm_downgrade"
    STRENGTH_DOWNGRADE = "strength_downgrade"
    C3_OVERWRITE_BLOCK = "c3_overwrite_block"
    C3_WEAK_INPUT_BLOCK = "c3_weak_input_block"
    C2_ROLE_MISMATCH = "c2_role_mismatch"
    C4_ASSOCIATION_DOWNGRADE = "c4_association_downgrade"
    NOT_PAIRABLE = "not_pairable"


class PolicyVerdict(Checked, NamedTuple("PolicyVerdict", [("allow", bool), ("reason", Optional[RejectionReason])])):
    __slots__ = ()

    def __new__(cls, allow: bool, reason: Optional[RejectionReason] = None) -> "PolicyVerdict":
        if not allow and reason is None:
            raise ValueError("a rejecting verdict needs a reason")
        return tuple.__new__(cls, (allow, reason))


ALLOW = PolicyVerdict(True)

#: The defenses, in the order ``enabled_names`` lists them.
DEFENSES = ("sig51", "c1", "c2", "c3", "c4")


@dataclass(frozen=True)
class PolicySet:
    """Independent defense toggles; the baseline is everything off."""

    sig51: bool = False  # the Bluetooth 5.1 key-overwrite rule
    c1: bool = False  # no pairing on a transport without a live session or a direct bond
    c2: bool = False  # bind each peer's pairing role
    c3: bool = False  # no cross-transport overwrite, no derivation from a weaker key
    c4: bool = False  # the association method never weakens

    @classmethod
    def from_dict(cls, raw: dict, where: str = "policies") -> "PolicySet":
        data = dict(raw)
        options = pop_options(cls, data, where)
        if data:
            raise ValueError(f"{where}: unknown policy field(s) {sorted(data)}")
        return cls(**options)

    def enabled_names(self) -> list[str]:
        return [name for name in DEFENSES if getattr(self, name)]


#: The defense lattice: all 32 subsets of ``DEFENSES``. Bit ``i`` of an index turns on ``DEFENSES[i]``.
DEFENSE_SUBSETS = tuple(
    PolicySet(**{name: True for bit, name in enumerate(DEFENSES) if mask >> bit & 1})
    for mask in range(1 << len(DEFENSES))
)


def sig51_check(existing: Optional[KeyRecord], incoming: KeyRecord) -> PolicyVerdict:
    """Reject an overwrite by a key weaker in strength or MITM protection.

    Equal strength and protection passes: that is the whole gap the
    equal-protection overwrite attacks drive through.
    """
    if existing is None:
        return ALLOW
    if incoming.key.strength < existing.key.strength:
        return PolicyVerdict(False, RejectionReason.STRENGTH_DOWNGRADE)
    if existing.key.mitm_protected and not incoming.key.mitm_protected:
        return PolicyVerdict(False, RejectionReason.MITM_DOWNGRADE)
    return ALLOW


def c2_check(existing: Optional[KeyRecord], incoming_role: PairingRole) -> PolicyVerdict:
    """Reject when a stored bond for the peer was made with a different role."""
    if existing is not None and existing.role_at_pairing != incoming_role:
        return PolicyVerdict(False, RejectionReason.C2_ROLE_MISMATCH)
    return ALLOW


def _weaker(candidate: KeyRecord, baseline: KeyRecord) -> bool:
    return (
        candidate.key.strength < baseline.key.strength
        or candidate.association.rank < baseline.association.rank
    )


def c3_check(
    existing: Optional[KeyRecord],
    incoming: KeyRecord,
    ctkd_source: Optional[KeyRecord] = None,
    prior_direct: Optional[KeyRecord] = None,
) -> PolicyVerdict:
    """Gate cross-transport writes; direct (explicit) re-pairing stays allowed.

    A derived key may not land on a transport that already has a pairing key,
    and derivation is refused outright when the direct key feeding it is
    weaker than what that transport held before the run.
    """
    if incoming.origin is not KeyOrigin.CTKD_DERIVED:
        return ALLOW
    if existing is not None:
        return PolicyVerdict(False, RejectionReason.C3_OVERWRITE_BLOCK)
    if ctkd_source is not None and prior_direct is not None and _weaker(ctkd_source, prior_direct):
        return PolicyVerdict(False, RejectionReason.C3_WEAK_INPUT_BLOCK)
    return ALLOW


def c4_check(existing: Optional[KeyRecord], incoming_association: Association) -> PolicyVerdict:
    """Association strength may never go down relative to any stored bond."""
    if existing is not None and incoming_association.rank < existing.association.rank:
        return PolicyVerdict(False, RejectionReason.C4_ASSOCIATION_DOWNGRADE)
    return ALLOW


def evaluate(
    policy: PolicySet,
    existing: Optional[KeyRecord],
    incoming: KeyRecord,
    *,
    ctkd_source: Optional[KeyRecord] = None,
    prior_direct: Optional[KeyRecord] = None,
) -> PolicyVerdict:
    """The verdict on writing ``incoming`` over ``existing``: sig51, then c3.

    ``ctkd_source`` and ``prior_direct`` only matter for a derived record:
    the direct record of the same run, and what its transport held before.
    """
    if policy.sig51:
        verdict = sig51_check(existing, incoming)
        if not verdict.allow:
            return verdict
    if policy.c3:
        return c3_check(existing, incoming, ctkd_source, prior_direct)
    return ALLOW


def c1_tick(device: Device, transport: str) -> bool:
    """Turn pairability off on a transport the device does not use.

    A transport is in use when the device has a live session on it or a bond
    on it made by direct pairing; a bond reached only through CTKD is not use.
    Returns True when this tick turned pairability off.
    """
    if not device.policies.c1 or not device.is_pairable(transport):
        return False
    if device.has_live_session(transport) or any(
        record.transport == transport and record.origin is KeyOrigin.DIRECT_PAIRING
        for record in device.bonds.records.values()
    ):
        return False
    device.set_pairable(transport, False)
    return True

"""Pluggable defense policies evaluated on pairing steps and key-store writes.

``sig51_check`` models the standard's key-overwrite rule (no overwrite by a
key that is weaker in strength or MITM protection). The four countermeasures:

* C1 turns pairability off on each transport the device does not use: one
  with no live session and no directly paired bond,
* C2 binds the pairing role per peer and aborts on a mismatch,
* C3 blocks cross-transport key writes onto an already-keyed transport and
  refuses derivation from a weaker re-pairing key,
* C4 never lets the association method weaken across re-pairings.

The checks are pure and return the ``RejectionReason`` that denies, or
None to allow. Each defense runs at exactly one stage: C2 when the pairing
request arrives and C4 once the association method is settled (both in
``pairing._early_check``), C1 on the idle tick, and the overwrite rule and
C3 on each key-store write (``evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .device import (
    Association,
    Device,
    KeyOrigin,
    KeyRecord,
    PairingRole,
    json_fields,
)


class RejectionReason(Enum):
    MITM_DOWNGRADE = "mitm_downgrade"
    STRENGTH_DOWNGRADE = "strength_downgrade"
    C3_OVERWRITE_BLOCK = "c3_overwrite_block"
    C3_WEAK_INPUT_BLOCK = "c3_weak_input_block"
    C2_ROLE_MISMATCH = "c2_role_mismatch"
    C4_ASSOCIATION_DOWNGRADE = "c4_association_downgrade"
    NOT_PAIRABLE = "not_pairable"


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
        """The set a JSON object of defense flags gives; a bad one raises ``ScenarioError`` naming it by ``where``."""
        return cls(**json_fields(raw, where, dict.fromkeys(DEFENSES, bool)))

    def enabled_names(self) -> list[str]:
        return [name for name in DEFENSES if getattr(self, name)]


#: The defense lattice: all 32 subsets of ``DEFENSES``. Bit ``i`` of an index turns on ``DEFENSES[i]``.
DEFENSE_SUBSETS = tuple(
    PolicySet(**{name: True for bit, name in enumerate(DEFENSES) if mask >> bit & 1})
    for mask in range(1 << len(DEFENSES))
)


def sig51_check(existing: Optional[KeyRecord], incoming: KeyRecord) -> Optional[RejectionReason]:
    """Reject an overwrite by a key weaker in strength or MITM protection.

    Equal strength and protection passes: that is the whole gap the
    equal-protection overwrite attacks drive through.
    """
    if existing is None:
        return None
    if incoming.key.strength < existing.key.strength:
        return RejectionReason.STRENGTH_DOWNGRADE
    if existing.key.mitm_protected and not incoming.key.mitm_protected:
        return RejectionReason.MITM_DOWNGRADE
    return None


def c2_check(existing: Optional[KeyRecord], incoming_role: PairingRole) -> Optional[RejectionReason]:
    """Reject when a stored bond for the peer was made with a different role."""
    if existing is not None and existing.role_at_pairing != incoming_role:
        return RejectionReason.C2_ROLE_MISMATCH
    return None


def _weaker(candidate: KeyRecord, baseline: KeyRecord) -> bool:
    return (
        candidate.key.strength < baseline.key.strength
        or candidate.association.rank < baseline.association.rank
    )


def c3_check(existing: Optional[KeyRecord], incoming: KeyRecord,
             prior_direct: Optional[KeyRecord] = None) -> Optional[RejectionReason]:
    """Gate cross-transport writes; direct (explicit) re-pairing stays allowed.

    A derived key may not land on a transport that already has a pairing key,
    and derivation is refused outright when the run's key is weaker than
    ``prior_direct``, what the pairing transport held before the run. A
    derived record has the strength and association of the direct record it
    came from, so ``incoming`` stands for that record.
    """
    if incoming.origin is not KeyOrigin.CTKD_DERIVED:
        return None
    if existing is not None:
        return RejectionReason.C3_OVERWRITE_BLOCK
    if prior_direct is not None and _weaker(incoming, prior_direct):
        return RejectionReason.C3_WEAK_INPUT_BLOCK
    return None


def c4_check(existing: Optional[KeyRecord], incoming_association: Association) -> Optional[RejectionReason]:
    """Association strength may never go down relative to any stored bond."""
    if existing is not None and incoming_association.rank < existing.association.rank:
        return RejectionReason.C4_ASSOCIATION_DOWNGRADE
    return None


def evaluate(policy: PolicySet, existing: Optional[KeyRecord], incoming: KeyRecord,
             prior_direct: Optional[KeyRecord] = None) -> Optional[RejectionReason]:
    """The verdict on writing ``incoming`` over ``existing``: sig51, then c3.

    ``prior_direct`` only matters for a derived record: what the run's
    pairing transport held before the run.
    """
    if policy.sig51:
        reason = sig51_check(existing, incoming)
        if reason is not None:
            return reason
    if policy.c3:
        return c3_check(existing, incoming, prior_direct)
    return None


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

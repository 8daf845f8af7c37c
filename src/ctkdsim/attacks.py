"""Scripted attacker agents driving the four cross-transport attacks.

Every attack goes through the exact same public pairing entry points an
honest device uses; agents never read a victim's private key, shared
secret, or bond table. The cross-transport issues a run exploited are
derived afterwards by inspecting the trace, not hardcoded, so asserting
them against :func:`cti_map` is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Optional

from .crypto import Address, TRANSPORT_BLE, TRANSPORT_BT, TRANSPORTS, random_address
from .device import Association, Device, DeviceProfile, KeyOrigin, PairingRole
from .pairing import (
    SimContext,
    ble_pair,
    bt_pair,
    establish_session,
)
from .policies import PolicySet, RejectionReason
from .smp import IoCapability
from .trace import (
    KIND_KEY_STORED,
    KIND_MSG_RECEIVED,
    KIND_SESSION_OK,
    TraceEvent,
)

STRATEGY_MI = "mi"
STRATEGY_SI = "si"
STRATEGY_MITM = "mitm"
STRATEGY_US = "us"
STRATEGIES = (STRATEGY_MI, STRATEGY_SI, STRATEGY_MITM, STRATEGY_US)

RECONNECT_NOT_ATTEMPTED = "not_attempted"


class CTI(IntEnum):
    """The four cross-transport specification issues."""

    EXTENDED_PAIRING = 1
    ROLE_ASYMMETRY = 2
    KEY_TAMPERING = 3
    ASSOCIATION_MANIPULATION = 4


class Requirement(Enum):
    REQUIRED = "required"
    NOT_NEEDED = "not_needed"
    SOMETIMES = "sometimes"


_CTI_TABLE = {
    STRATEGY_MI: (Requirement.REQUIRED, Requirement.NOT_NEEDED, Requirement.REQUIRED, Requirement.SOMETIMES),
    STRATEGY_SI: (Requirement.REQUIRED, Requirement.REQUIRED, Requirement.REQUIRED, Requirement.SOMETIMES),
    STRATEGY_MITM: (Requirement.REQUIRED, Requirement.REQUIRED, Requirement.REQUIRED, Requirement.SOMETIMES),
    STRATEGY_US: (Requirement.REQUIRED, Requirement.SOMETIMES, Requirement.REQUIRED, Requirement.NOT_NEEDED),
}


def cti_map(strategy: str) -> dict[CTI, Requirement]:
    """Which issues a strategy needs: required / not needed / sometimes."""
    try:
        row = _CTI_TABLE[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    return dict(zip(CTI, row))


@dataclass(slots=True)
class AttackOutcome:
    succeeded: bool
    keys_written: list[tuple[str, str, str]] = field(default_factory=list)
    overwrote_existing: bool = False
    victim_reconnect: str = RECONNECT_NOT_ATTEMPTED
    ctis_used: frozenset[CTI] = frozenset()
    rejection: Optional[RejectionReason] = None

    def to_dict(self) -> dict:
        return {
            "succeeded": self.succeeded,
            "keys_written": [list(k) for k in self.keys_written],
            "overwrote_existing": self.overwrote_existing,
            "victim_reconnect": self.victim_reconnect,
            "ctis_used": sorted(int(c) for c in self.ctis_used),
            "rejection": None if self.rejection is None else self.rejection._value_,
        }


#: The playbook's fixed capability claims: no input/output (forcing Just Works),
#: Secure Connections, cross-transport derivation and the Link Key distribution
#: flag. Its own address is never shown; each attacker device claims one.
_ATTACKER = DeviceProfile(address=Address(bytes(6)), name="charlie", bt_version="5.0",
                          io_capability=IoCapability.NO_INPUT_NO_OUTPUT, sc_host=True, sc_controller=True,
                          ctkd_supported=True, h7_supported=True)
_NO_DEFENSES = PolicySet()


def _attacker_device(ctx: SimContext, claimed: Address) -> Device:
    """The attacker under ``claimed``, built fresh for each pairing run so it holds no victim key."""
    return Device(_ATTACKER, _NO_DEFENSES, ctx.rng, claimed)


# ---------------------------------------------------------------------------
# Trace inspection: which cross-transport issues actually fired
# ---------------------------------------------------------------------------

_MASTER, _CTKD_DERIVED = PairingRole.MASTER.value, KeyOrigin.CTKD_DERIVED.value  # as payloads hold them
_JUST_WORKS, _NUMERIC_COMPARISON = Association.JUST_WORKS.value, Association.NUMERIC_COMPARISON.value


def derive_ctis(
    events: list[TraceEvent],
    *,
    target: str,
    claimed: str,
    attack_start: int,
) -> frozenset[CTI]:
    """Replay the trace and record which issue predicates fired.

    ``target`` is the attacked device's address and ``claimed`` the
    identity the attacker paired under, both as text.

    * extended pairing: the attack pairing landed on a transport where the
      target had no live session at that moment;
    * role asymmetry: a BT pairing request from the attacker arrived while
      the target's bond for that identity was made with the other role;
    * key tampering: the attack wrote a derived key into a victim's store;
    * association manipulation: the attack re-keyed a peer whose stored
      association was stronger than the one it negotiated.
    """
    fired: set[CTI] = set()
    # Rolling state: bonds[(owner, peer, transport)] -> payload of last store;
    # live session keys are (sorted peer pair, transport).
    bonds: dict[tuple[str, str, str], dict] = {}
    sessions: dict[tuple[tuple[str, str], str], bool] = {}

    for index, actor, kind, payload in events:
        if kind == KIND_MSG_RECEIVED:
            if (
                index >= attack_start
                and actor == target
                and payload.get("peer") == claimed
                and payload.get("opcode") == "request"
                and not payload.get("tunneled", False)
            ):
                transport = payload["transport"]
                target_live = any(
                    live and transport == t and actor in pair
                    for (pair, t), live in sessions.items()
                )
                if not target_live:
                    fired.add(CTI.EXTENDED_PAIRING)
                if transport == TRANSPORT_BT:
                    for t in TRANSPORTS:
                        stored = bonds.get((actor, claimed, t))
                        if stored is not None and stored["role"] != _MASTER:
                            fired.add(CTI.ROLE_ASYMMETRY)

        elif kind == KIND_SESSION_OK:
            pair = tuple(sorted((actor, payload["peer"])))
            sessions[(pair, payload["transport"])] = True

        elif kind == KIND_KEY_STORED:
            peer = payload["peer"]
            if index >= attack_start and actor == target and peer == claimed:
                if payload["origin"] == _CTKD_DERIVED:
                    fired.add(CTI.KEY_TAMPERING)
                if payload["association"] == _JUST_WORKS:
                    for t in TRANSPORTS:
                        prior = bonds.get((actor, peer, t))
                        if prior is not None and prior["association"] == _NUMERIC_COMPARISON:
                            fired.add(CTI.ASSOCIATION_MANIPULATION)
            if payload.get("overwrote"):
                pair = tuple(sorted((actor, peer)))
                sessions[(pair, payload["transport"])] = False
            bonds[(actor, peer, payload["transport"])] = payload

    return frozenset(fired)


def _keys_written(events: list[TraceEvent], victim: str, since: int) -> tuple[list, bool]:
    written = []
    overwrote = False
    for event in events[since:]:
        if event.kind == KIND_KEY_STORED and event.actor == victim:
            written.append((event.actor, event.payload["transport"], event.payload["origin"]))
            overwrote = overwrote or bool(event.payload.get("overwrote"))
    return written, overwrote


def _victim_reconnect(ctx: SimContext, victim: Device, peer: Device) -> str:
    """The impersonated device tries to come back; BT first, then BLE."""
    for transport in (TRANSPORT_BT, TRANSPORT_BLE):
        if victim.bonds.lookup(peer.address, transport) is not None:
            result = establish_session(ctx, victim, peer, transport)
            return result.outcome
    return RECONNECT_NOT_ATTEMPTED


def _attack(ctx: SimContext, claimed: Address, target: Device, transport: str,
            reconnect: Optional[tuple[Device, Device]] = None) -> AttackOutcome:
    """Pair with ``target`` as ``claimed``, take over both transports, and judge.

    The attacker always initiates, through the same pairing entry points an
    honest device uses. Both takeover sessions are always attempted, so the
    trace shows each of them. ``reconnect`` names the device that comes back
    and the peer it comes back to. The outcome reads only the pairing
    session, the takeover results and the trace.
    """
    start = ctx.trace.clock
    charlie = _attacker_device(ctx, claimed)
    pair = ble_pair if transport == TRANSPORT_BLE else bt_pair
    session = pair(ctx, charlie, target)
    events = ctx.trace.events
    victim = target.address.text
    outcome = AttackOutcome(succeeded=False, rejection=session.abort_reason)
    if not session.aborted:
        outcome.keys_written, outcome.overwrote_existing = _keys_written(events, victim, start)
        takeovers = [
            establish_session(ctx, charlie, target, t) for t in (TRANSPORT_BT, TRANSPORT_BLE)
        ]
        if reconnect is not None:
            outcome.victim_reconnect = _victim_reconnect(ctx, *reconnect)
        outcome.succeeded = all(t.ok for t in takeovers)
    outcome.ctis_used = derive_ctis(events, target=victim, claimed=claimed.text, attack_start=start)
    return outcome


# ---------------------------------------------------------------------------
# The four attacks
# ---------------------------------------------------------------------------

def master_impersonation(ctx: SimContext, bob: Device, alice: Device) -> AttackOutcome:
    """Claim the master's identity over BLE and re-key the slave's store.

    One pairing run plants attacker keys for both transports in ``bob``'s
    table under ``alice``'s address; the real ``alice`` can no longer
    connect back.
    """
    return _attack(ctx, alice.address, bob, TRANSPORT_BLE, reconnect=(alice, bob))


def slave_impersonation(ctx: SimContext, alice: Device, bob: Device) -> AttackOutcome:
    """Claim the slave's identity over BT (after a role switch) and re-key
    the master's store; the derived key lands on BLE via the tunnel."""
    return _attack(ctx, bob.address, alice, TRANSPORT_BT, reconnect=(bob, alice))


def mitm(ctx: SimContext, alice: Device, bob: Device) -> AttackOutcome:
    """Sequential composition of the two impersonations.

    When the victims run a BLE session the slave leg goes first (over BT);
    otherwise the master leg opens. The second leg targets the victim the
    first one impersonated, and runs only if the first one succeeded.
    """
    if alice.has_live_session(TRANSPORT_BLE, peer=bob.address):
        legs = ("si", "mi")
    else:
        legs = ("mi", "si")

    outcomes: list[AttackOutcome] = []
    for leg in legs:
        if leg == "si":
            outcome = slave_impersonation(ctx, alice, bob)
        else:
            outcome = master_impersonation(ctx, bob, alice)
        outcomes.append(outcome)
        if not outcome.succeeded:
            break

    succeeded = outcomes[-1].succeeded  # a failed leg ends the loop
    return AttackOutcome(
        succeeded=succeeded,
        keys_written=[k for o in outcomes for k in o.keys_written],
        overwrote_existing=any(o.overwrote_existing for o in outcomes),
        victim_reconnect=(
            _victim_reconnect(ctx, alice, bob) if succeeded else RECONNECT_NOT_ATTEMPTED
        ),
        ctis_used=frozenset().union(*(o.ctis_used for o in outcomes)),
        rejection=outcomes[-1].rejection,
    )


def unintended_session(
    ctx: SimContext,
    victim: Device,
    bonded_peer: Optional[Device] = None,
    identity: Optional[Address] = None,
) -> AttackOutcome:
    """Silently bond with the victim as ``identity``, else a fresh random device.

    One pairing on the currently unused transport yields keys for both, and
    the attacker walks away with the victim's distributed identity keys
    (CSRK/IRK), which its BLE record keeps. The run fails if it overwrote
    any record: a commit replaces only the records under the claimed
    identity, so without an overwrite the victim's existing bonds are
    untouched.
    """
    claimed = identity or random_address(ctx.rng)
    transport = TRANSPORT_BT if victim.has_live_session(TRANSPORT_BLE) else TRANSPORT_BLE
    reconnect = None if bonded_peer is None else (victim, bonded_peer)
    outcome = _attack(ctx, claimed, victim, transport, reconnect)
    outcome.succeeded = outcome.succeeded and not outcome.overwrote_existing
    return outcome

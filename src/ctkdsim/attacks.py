"""Scripted attacker agents driving the four cross-transport attacks.

Every attack goes through the exact same public pairing entry points an
honest device uses; agents never read a victim's private key, shared
secret, or bond table. The cross-transport issues a run exploited are
derived afterwards from the trace and the attack's start alone, not
hardcoded, so asserting them against :func:`cti_map` is a real check.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import NamedTuple, Optional

from .crypto import Address, TRANSPORT_BLE, TRANSPORT_BT, TRANSPORTS, random_address
from .device import Association, Device, DeviceProfile, KeyOrigin, PairingRole
from .pairing import (
    SimContext,
    ble_pair,
    bt_pair,
    establish_session,
    make_device,
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


class AttackOutcome(NamedTuple):
    succeeded: bool
    keys_written: list[tuple[str, str, str]]
    overwrote_existing: bool
    victim_reconnect: str
    ctis_used: frozenset[CTI]
    rejection: Optional[RejectionReason]

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


# ---------------------------------------------------------------------------
# Trace inspection: which cross-transport issues actually fired
# ---------------------------------------------------------------------------

_MASTER, _CTKD_DERIVED = PairingRole.MASTER.value, KeyOrigin.CTKD_DERIVED.value  # as payloads hold them
_JUST_WORKS, _NUMERIC_COMPARISON = Association.JUST_WORKS.value, Association.NUMERIC_COMPARISON.value


#: What derive_ctis reads from an attack's trace; its docstring says what each field holds.
class Replay(NamedTuple):
    ctis: frozenset[CTI]
    keys_written: tuple[tuple[str, str, str], ...]
    overwrote: bool
    bonds: dict[tuple[str, str, str], dict]
    sessions: dict[tuple[str, str, str], bool]


def derive_ctis(events: list[TraceEvent], *, attack_start: int) -> Replay:
    """Replay the trace: the issues that fired, each ``(owner, transport, origin)`` a target stored under the
    claimed identity, whether one overwrote, and per ``(owner, peer, transport)`` each real device's last store
    and whether its end of a session with that peer is live.

    Every non-tunneled pairing request received at or after
    ``attack_start`` is an attack pairing: its receiver is the target and
    its sender the claimed identity, until the next such request. A store
    by the claimed identity is the attacker's own (its device shows the
    address it claims) and is skipped. A session needs equal keys at both
    ends, so a ``session_ok`` whose two ends' replayed keys differ was
    opened by the attacker: only its peer's end goes live, flagged as a
    session with the attacker. An overwrite by X of its record for Y ends
    X's end, whoever holds the other, and Y's end unless that is flagged.

    * extended pairing: the attack pairing landed on a transport where the
      target had no live session at that moment;
    * role asymmetry: a BT pairing request from the attacker arrived while
      the target's bond for that identity was made with the other role;
    * key tampering: the attack wrote a derived key into a victim's store;
    * association manipulation: the attack re-keyed a peer whose stored
      association was stronger than the one it negotiated.
    """
    fired: set[CTI] = set()
    written, overwrote = [], False
    # Rolling state per (owner, peer, transport): the payload of the last store, and whether that end is live.
    bonds: dict[tuple[str, str, str], dict] = {}
    sessions: dict[tuple[str, str, str], bool] = {}
    with_attacker: set[tuple[str, str, str]] = set()  # the live ends whose other end is the attacker
    target = claimed = None

    for index, actor, kind, payload in events:
        if kind == KIND_MSG_RECEIVED:
            if index >= attack_start and payload.get("opcode") == "request" and not payload.get("tunneled", False):
                target, claimed = actor, payload["peer"]
                transport = payload["transport"]
                if not any(live and owner == actor and t == transport for (owner, _, t), live in sessions.items()):
                    fired.add(CTI.EXTENDED_PAIRING)
                if transport == TRANSPORT_BT:
                    for t in TRANSPORTS:
                        stored = bonds.get((actor, claimed, t))
                        if stored is not None and stored["role"] != _MASTER:
                            fired.add(CTI.ROLE_ASYMMETRY)

        elif kind == KIND_SESSION_OK:
            peer, transport = payload["peer"], payload["transport"]
            mine, theirs = (actor, peer, transport), (peer, actor, transport)
            if mine in bonds and theirs in bonds and bonds[mine]["key"] == bonds[theirs]["key"]:
                sessions[mine] = True
            else:  # the actor is the attacker, whose stores are skipped
                with_attacker.add(theirs)
            sessions[theirs] = True

        elif kind == KIND_KEY_STORED and actor != claimed:
            peer = payload["peer"]
            if actor == target and peer == claimed:
                written.append((actor, payload["transport"], payload["origin"]))
                overwrote = overwrote or payload["overwrote"]
                if payload["origin"] == _CTKD_DERIVED:
                    fired.add(CTI.KEY_TAMPERING)
                if payload["association"] == _JUST_WORKS:
                    for t in TRANSPORTS:
                        prior = bonds.get((actor, peer, t))
                        if prior is not None and prior["association"] == _NUMERIC_COMPARISON:
                            fired.add(CTI.ASSOCIATION_MANIPULATION)
            mine, theirs = (actor, peer, payload["transport"]), (peer, actor, payload["transport"])
            if payload["overwrote"]:
                sessions[mine] = False
                with_attacker.discard(mine)
                sessions[theirs] = theirs in with_attacker
            bonds[mine] = payload

    return Replay(frozenset(fired), tuple(written), overwrote, bonds, sessions)


def _victim_reconnect(ctx: SimContext, victim: Device, peer: Device) -> str:
    """The impersonated device tries to come back; BT first, then BLE."""
    for transport in (TRANSPORT_BT, TRANSPORT_BLE):
        if victim.bonds.lookup(peer.address, transport) is not None:
            result = establish_session(ctx, victim, peer, transport)
            return result.outcome
    return RECONNECT_NOT_ATTEMPTED


def _attack(ctx: SimContext, legs: list[tuple], comeback: Optional[tuple[Device, Device]] = None,
            silent: bool = False) -> AttackOutcome:
    """Run ``legs`` in order until one fails, and judge them as one attack.

    A leg ``(claimed, target, transport, reconnect)`` is a fresh attacker,
    holding no victim key, that claims ``claimed`` and pairs with ``target``
    over ``transport`` through the entry points an honest device uses. Both
    takeover sessions are always attempted, so the trace shows each of them;
    then ``reconnect``, if given, names the device that comes back and the
    peer it comes back to. ``comeback`` is one more such return, made only
    once every leg succeeded, and a ``silent`` attack fails if it overwrote
    any record. The outcome reads only the pairing sessions, the takeover
    results and the trace.
    """
    attack_start = ctx.trace.clock
    for claimed, target, transport, reconnect in legs:
        charlie = make_device(ctx, _ATTACKER, _NO_DEFENSES, claimed)
        session = (ble_pair if transport == TRANSPORT_BLE else bt_pair)(ctx, charlie, target)
        succeeded, victim_reconnect = False, RECONNECT_NOT_ATTEMPTED
        if not session.aborted:
            takeovers = [establish_session(ctx, charlie, target, t) for t in (TRANSPORT_BT, TRANSPORT_BLE)]
            if reconnect is not None:
                victim_reconnect = _victim_reconnect(ctx, *reconnect)
            succeeded = all(t.ok for t in takeovers)
        if not succeeded:
            break
    if comeback is not None:
        victim_reconnect = _victim_reconnect(ctx, *comeback) if succeeded else RECONNECT_NOT_ATTEMPTED
    replay = derive_ctis(ctx.trace.events, attack_start=attack_start)
    return AttackOutcome(succeeded and not (silent and replay.overwrote), list(replay.keys_written),
                         replay.overwrote, victim_reconnect, replay.ctis, session.abort_reason)


# ---------------------------------------------------------------------------
# The four attacks
# ---------------------------------------------------------------------------

def master_impersonation(ctx: SimContext, bob: Device, alice: Device) -> AttackOutcome:
    """Claim the master's identity over BLE and re-key the slave's store.

    One pairing run plants attacker keys for both transports in ``bob``'s
    table under ``alice``'s address; the real ``alice`` can no longer
    connect back.
    """
    return _attack(ctx, [(alice.address, bob, TRANSPORT_BLE, (alice, bob))])


def slave_impersonation(ctx: SimContext, alice: Device, bob: Device) -> AttackOutcome:
    """Claim the slave's identity over BT (after a role switch) and re-key
    the master's store; the derived key lands on BLE via the tunnel."""
    return _attack(ctx, [(bob.address, alice, TRANSPORT_BT, (bob, alice))])


def mitm(ctx: SimContext, alice: Device, bob: Device) -> AttackOutcome:
    """Sequential composition of the two impersonations.

    When the victims run a BLE session the slave leg goes first (over BT);
    otherwise the master leg opens. The second leg targets the victim the
    first one impersonated, and runs only if the first one succeeded.
    """
    master = (alice.address, bob, TRANSPORT_BLE, (alice, bob))
    slave = (bob.address, alice, TRANSPORT_BT, (bob, alice))
    legs = [slave, master] if alice.has_live_session(TRANSPORT_BLE, peer=bob.address) else [master, slave]
    return _attack(ctx, legs, comeback=(alice, bob))


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
    return _attack(ctx, [(claimed, victim, transport, reconnect)], silent=True)

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
from .device import Association, Device, DeviceProfile, PairingRole, RoleCaps
from .pairing import (
    PairingSession,
    SimContext,
    ble_pair,
    bt_pair,
    establish_session,
    make_device,
)
from .policies import RejectionReason
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

RECONNECT_OK = "ok"
RECONNECT_KEY_MISMATCH = "key_mismatch"
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


@dataclass(frozen=True)
class AttackerConfig:
    """What the attacker claims and whom it goes after.

    The claimed capability set is fixed by the playbook: no input/output
    (forcing Just Works), Secure Connections, cross-transport derivation,
    and the Link Key distribution flag. The attacker holds no victim key
    at the start of a run.
    """

    strategy: str
    target: Address
    spoofed: Optional[Address] = None  # victim identity to claim (mi/si/mitm)
    true_identity: Optional[Address] = None  # fresh identity for us
    name: str = "charlie"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
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
            "rejection": None if self.rejection is None else self.rejection.value,
        }


def _attacker_device(ctx: SimContext, config: AttackerConfig, claimed: Address) -> Device:
    profile = DeviceProfile(
        address=claimed,
        name=config.name,
        bt_version="5.0",
        io_capability=IoCapability.NO_INPUT_NO_OUTPUT,
        sc_host=True,
        sc_controller=True,
        ctkd_supported=True,
        h7_supported=True,
        pairable_bt=True,
        pairable_ble=True,
        discoverable=True,
        role_caps=RoleCaps(True, True, True),
    )
    return make_device(ctx, profile)


# ---------------------------------------------------------------------------
# Trace inspection: which cross-transport issues actually fired
# ---------------------------------------------------------------------------

def derive_ctis(
    events: list[TraceEvent],
    *,
    targets: set[str],
    attacker_identities: set[str],
    attack_start: int,
) -> frozenset[CTI]:
    """Replay the trace and record which issue predicates fired.

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

    for event in events:
        payload = event.payload
        in_window = event.index >= attack_start

        if event.kind == KIND_MSG_RECEIVED and not payload.get("tunneled", False):
            if (
                in_window
                and payload.get("opcode") == "request"
                and event.actor in targets
                and payload.get("peer") in attacker_identities
            ):
                transport = payload["transport"]
                target_live = any(
                    live and transport == t and event.actor in pair
                    for (pair, t), live in sessions.items()
                )
                if not target_live:
                    fired.add(CTI.EXTENDED_PAIRING)
                if transport == TRANSPORT_BT:
                    for t in TRANSPORTS:
                        stored = bonds.get((event.actor, payload["peer"], t))
                        if stored is not None and stored["role"] != PairingRole.MASTER.value:
                            fired.add(CTI.ROLE_ASYMMETRY)

        elif event.kind == KIND_SESSION_OK:
            pair = tuple(sorted((event.actor, payload["peer"])))
            sessions[(pair, payload["transport"])] = True

        elif event.kind == KIND_KEY_STORED:
            if in_window and event.actor in targets and payload["peer"] in attacker_identities:
                if payload["origin"] == "ctkd_derived":
                    fired.add(CTI.KEY_TAMPERING)
                if payload["association"] == Association.JUST_WORKS.value:
                    for t in TRANSPORTS:
                        prior = bonds.get((event.actor, payload["peer"], t))
                        if prior is not None and prior["association"] == Association.NUMERIC_COMPARISON.value:
                            fired.add(CTI.ASSOCIATION_MANIPULATION)
            if payload.get("overwrote"):
                pair = tuple(sorted((event.actor, payload["peer"])))
                sessions[(pair, payload["transport"])] = False
            bonds[(event.actor, payload["peer"], payload["transport"])] = payload

    return frozenset(fired)


def _keys_written(events: list[TraceEvent], victims: set[str], since: int) -> tuple[list, bool]:
    written = []
    overwrote = False
    for event in events[since:]:
        if event.kind == KIND_KEY_STORED and event.actor in victims:
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


@dataclass
class _Run:
    """One attacker pairing run against one target, from its first event on."""

    ctx: SimContext
    charlie: Device
    target: Device
    session: PairingSession
    start: int

    def outcome(self, reconnect: Optional[tuple[Device, Device]] = None, *, goal_met: bool = True) -> AttackOutcome:
        """Judge the run: take over both transports, then let a victim reconnect.

        Both takeover sessions are always attempted, so the trace shows each
        of them. ``reconnect`` names the device that comes back and the peer
        it comes back to; ``goal_met`` is any attack-specific condition.
        """
        events = self.ctx.trace.events
        targets = {str(self.target.address)}
        outcome = AttackOutcome(succeeded=False, rejection=self.session.abort_reason)
        if not self.session.aborted:
            outcome.keys_written, outcome.overwrote_existing = _keys_written(events, targets, self.start)
            takeovers = [
                establish_session(self.ctx, self.charlie, self.target, transport)
                for transport in (TRANSPORT_BT, TRANSPORT_BLE)
            ]
            if reconnect is not None:
                outcome.victim_reconnect = _victim_reconnect(self.ctx, *reconnect)
            outcome.succeeded = self.session.complete and all(t.ok for t in takeovers) and goal_met
        outcome.ctis_used = derive_ctis(
            events, targets=targets,
            attacker_identities={str(self.charlie.address)}, attack_start=self.start,
        )
        return outcome


def _pair_as(ctx: SimContext, config: AttackerConfig, claimed: Address, target: Device, transport: str) -> _Run:
    """Build the attacker under ``claimed`` and pair it with ``target``.

    The attacker always initiates, with its fixed capability claims; it
    goes through the same pairing entry points an honest device uses.
    """
    start = ctx.trace.clock
    charlie = _attacker_device(ctx, config, claimed)
    pair = ble_pair if transport == TRANSPORT_BLE else bt_pair
    return _Run(ctx, charlie, target, pair(ctx, charlie, target), start)


# ---------------------------------------------------------------------------
# The four attacks
# ---------------------------------------------------------------------------

def _impersonation(ctx: SimContext, config: AttackerConfig, target: Device,
                   impersonated: Device, transport: str) -> AttackOutcome:
    """Pair with ``target`` as ``impersonated``; the real one then tries to reconnect."""
    run = _pair_as(ctx, config, config.spoofed or impersonated.address, target, transport)
    return run.outcome(reconnect=(impersonated, target))


def master_impersonation(
    ctx: SimContext,
    config: AttackerConfig,
    bob: Device,
    alice: Device,
) -> AttackOutcome:
    """Claim the master's identity over BLE and re-key the slave's store.

    One pairing run plants attacker keys for both transports in ``bob``'s
    table under ``alice``'s address; the real ``alice`` can no longer
    connect back.
    """
    return _impersonation(ctx, config, bob, alice, TRANSPORT_BLE)


def slave_impersonation(
    ctx: SimContext,
    config: AttackerConfig,
    alice: Device,
    bob: Device,
) -> AttackOutcome:
    """Claim the slave's identity over BT (after a role switch) and re-key
    the master's store; the derived key lands on BLE via the tunnel."""
    return _impersonation(ctx, config, alice, bob, TRANSPORT_BT)


def mitm(
    ctx: SimContext,
    config: AttackerConfig,
    alice: Device,
    bob: Device,
) -> AttackOutcome:
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
            cfg = AttackerConfig(STRATEGY_SI, target=alice.address, spoofed=bob.address, name=config.name)
            outcome = slave_impersonation(ctx, cfg, alice, bob)
        else:
            cfg = AttackerConfig(STRATEGY_MI, target=bob.address, spoofed=alice.address, name=config.name)
            outcome = master_impersonation(ctx, cfg, bob, alice)
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
    config: AttackerConfig,
    victim: Device,
    bonded_peer: Optional[Device] = None,
) -> AttackOutcome:
    """Silently bond with the victim as a fresh random device.

    One pairing on the currently unused transport yields keys for both, the
    victim's existing bonds stay byte-identical, and the attacker walks away
    with the victim's distributed identity keys (CSRK/IRK).
    """
    fresh = config.true_identity or random_address(ctx.rng)
    transport = TRANSPORT_BT if victim.has_live_session(TRANSPORT_BLE) else TRANSPORT_BLE
    before = victim.bonds.snapshot()
    run = _pair_as(ctx, config, fresh, victim, transport)

    untouched = all(victim.bonds.records.get(k) == v for k, v in before.items())
    record_ble = run.charlie.bonds.lookup(victim.address, TRANSPORT_BLE)
    got_identity_keys = (
        record_ble is not None
        and record_ble.extra_keys is not None
        and record_ble.extra_keys.csrk.value == victim.csrk.value
        and record_ble.extra_keys.irk.value == victim.irk.value
    )
    reconnect = None if bonded_peer is None else (victim, bonded_peer)
    return run.outcome(reconnect, goal_met=untouched and got_identity_keys)

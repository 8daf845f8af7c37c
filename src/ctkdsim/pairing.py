"""Honest-device protocol engine.

Pairing is one key agreement with two front ends. Each step exists once:
the request and the pairability check, the early policy checks, DH and
nonces with the KDF, the CSRK/IRK exchange, and the key-store writes.
``ble_pair`` negotiates cross-transport derivation in-band, through the
Link Key flag; ``bt_pair`` negotiates it after the link is encrypted,
through BLE-style frames tunneled over it. Session establishment closes
the module.

Key-store writes are transactional per pairing run: every prospective
record gets its policy verdict first, and nothing is committed unless all
of them pass, so an aborted pairing leaves both bond tables untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Optional

from .crypto import (
    Address,
    Key128,
    Nonce,
    TRANSPORT_BLE,
    TRANSPORT_BT,
    TRANSPORTS,
    ctkd_ble_to_bt,
    ctkd_bt_to_ble,
    dh_generate,
    dh_shared,
    kdf_bt,
    kdf_le,
    other_transport,
    random_nonce,
    session_key,
)
from .device import Association, Device, DeviceProfile, KeyOrigin, KeyRecord, PairingRole
from .policies import PolicySet, RejectionReason, c2_check, c4_check
from .smp import (
    CONFIRM_CAPABLE,
    AuthReqBits,
    IoCapability,
    KeyDistBits,
    OPCODE_REQUEST,
    SmpPairingMessage,
    ctkd_requested,
    encode_bt_auth_req,
    encode_pairing,
    hexdump,
)
from .trace import (
    KIND_KEY_REJECTED,
    KIND_KEY_STORED,
    KIND_MSG_RECEIVED,
    KIND_MSG_SENT,
    KIND_POLICY_VERDICT,
    KIND_SESSION_FAIL,
    KIND_SESSION_OK,
    TraceRecorder,
)


@dataclass
class SimContext:
    """Shared deterministic state for one simulation run."""

    rng: random.Random
    trace: TraceRecorder = field(default_factory=TraceRecorder)
    dh_backend: str = "toy-modp"


def make_device(ctx: SimContext, profile: DeviceProfile, policies: Optional[PolicySet] = None) -> Device:
    return Device(profile, policies if policies is not None else PolicySet(), ctx.rng)


class PairingState(IntEnum):
    IDLE = 0
    REQUESTED = 1
    RESPONDED = 2
    KEYS_COMPUTED = 3
    CTKD_DONE = 4
    DISTRIBUTING = 5
    COMPLETE = 6
    ABORTED = 7


@dataclass
class Negotiated:
    association: Optional[Association] = None
    ctkd: bool = False
    h7: bool = False
    key_strength: int = 16


@dataclass
class PairingSession:
    initiator: Address
    responder: Address
    transport: str
    state: PairingState = PairingState.IDLE
    negotiated: Negotiated = field(default_factory=Negotiated)
    nonces: Optional[tuple[Nonce, Nonce]] = None
    abort_reason: Optional[RejectionReason] = None

    def advance(self, new_state: PairingState) -> None:
        if self.state is PairingState.ABORTED:
            raise ValueError("aborted pairing session is terminal")
        if new_state is not PairingState.ABORTED and new_state <= self.state:
            raise ValueError(f"cannot move from {self.state.name} to {new_state.name}")
        self.state = new_state

    def abort(self, reason: RejectionReason) -> None:
        self.abort_reason = reason
        self.advance(PairingState.ABORTED)

    @property
    def complete(self) -> bool:
        return self.state is PairingState.COMPLETE

    @property
    def aborted(self) -> bool:
        return self.state is PairingState.ABORTED


@dataclass
class SessionState:
    peers: tuple[Address, Address]
    transport: str
    session_key: Key128
    live: bool = True


SESSION_OK = "ok"
SESSION_KEY_MISMATCH = "key_mismatch"
SESSION_NO_BOND = "no_bond"


@dataclass
class SessionResult:
    outcome: str
    session: Optional[SessionState] = None

    @property
    def ok(self) -> bool:
        return self.outcome == SESSION_OK


def negotiate_association(
    io_i: IoCapability,
    io_r: IoCapability,
    mitm_i: bool,
    mitm_r: bool,
) -> Association:
    """Numeric Comparison only when both ends can confirm and both ask for MITM.

    Nothing authenticates this negotiation: either side may simply claim to
    have no input/output and force Just Works.
    """
    if io_i in CONFIRM_CAPABLE and io_r in CONFIRM_CAPABLE and mitm_i and mitm_r:
        return Association.NUMERIC_COMPARISON
    return Association.JUST_WORKS


def _auth_req(profile: DeviceProfile) -> AuthReqBits:
    return AuthReqBits(
        bonding=1,
        mitm=profile.wants_mitm,
        sc=profile.sc_supported,
        keypress=False,
        ct2_h7=profile.h7_supported,
    )


def build_pairing_request(profile: DeviceProfile, ctkd: bool = True) -> SmpPairingMessage:
    """The pairing request an honest device with this profile sends."""
    dist = KeyDistBits(
        enc_key=True,
        id_key=True,
        sign_key=True,
        link_key=profile.ctkd_supported and ctkd,
    )
    return SmpPairingMessage(
        opcode=OPCODE_REQUEST,
        io_capability=profile.io_capability,
        oob=False,
        auth_req=_auth_req(profile),
        max_key_size=profile.max_key_size,
        initiator_dist=dist,
        responder_dist=dist,
    )


def build_pairing_response(profile: DeviceProfile, request: SmpPairingMessage) -> SmpPairingMessage:
    """Honest response: own capabilities, distribution masked by the request."""
    link = profile.ctkd_supported and ctkd_requested(request)
    return request.as_response(
        io_capability=profile.io_capability,
        auth_req=_auth_req(profile),
        max_key_size=profile.max_key_size,
        initiator_dist=replace(request.initiator_dist, link_key=link),
        responder_dist=replace(request.responder_dist, link_key=link),
    )


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def _emit_message(ctx: SimContext, sender: Device, receiver: Device, transport: str,
                  frame: bytes, opcode: str, tunneled: bool = False, **extra) -> None:
    payload = {
        "transport": transport,
        "peer": str(receiver.address),
        "frame": hexdump(frame),
        "opcode": opcode,
        "tunneled": tunneled,
        **extra,
    }
    ctx.trace.emit(sender.address, KIND_MSG_SENT, **payload)
    payload_recv = dict(payload, peer=str(sender.address))
    ctx.trace.emit(receiver.address, KIND_MSG_RECEIVED, **payload_recv)
    sender.note_activity(transport, ctx.trace.clock)
    receiver.note_activity(transport, ctx.trace.clock)


def _emit_verdict(ctx, device: Device, *, stage, transport, peer, allow, reason, origin=None):
    ctx.trace.emit(
        device.address,
        KIND_POLICY_VERDICT,
        stage=stage,
        transport=transport,
        peer=str(peer),
        allow=allow,
        reason=None if reason is None else reason.value,
        origin=origin,
    )


def _record_payload(record: KeyRecord, overwrote: bool) -> dict:
    payload = {
        "transport": record.transport,
        "peer": str(record.peer),
        "origin": record.origin.value,
        "association": record.association.value,
        "role": record.role_at_pairing.value,
        "strength": record.key.strength,
        "mitm_protected": record.key.mitm_protected,
        "key": record.key.hex(),
        "overwrote": overwrote,
    }
    if record.extra_keys is not None:
        payload["extra_keys"] = {
            "csrk": record.extra_keys.csrk.hex(),
            "irk": record.extra_keys.irk.hex(),
        }
    return payload


def _invalidate_sessions(device: Device, peer: Address, transport: str) -> None:
    # A replaced bond kills any session that was running on it; the session
    # object is shared with the peer, so both ends observe the drop.
    for state in device.live_sessions(transport, peer):
        state.live = False


# ---------------------------------------------------------------------------
# Pairing steps shared by both transports
# ---------------------------------------------------------------------------

def _sides(initiator: Device, responder: Device) -> tuple:
    """Each end with its peer and the role that peer plays, responder first.

    The initiator is always the master: it is BLE's central, and BT lets it
    switch roles right before its request.
    """
    return ((responder, initiator, PairingRole.MASTER), (initiator, responder, PairingRole.SLAVE))


def _request(ctx: SimContext, initiator: Device, responder: Device, transport: str,
             request: SmpPairingMessage, **extra) -> PairingSession:
    """Send the pairing request; a responder that is not pairable aborts the run."""
    session = PairingSession(initiator.address, responder.address, transport)
    _emit_message(ctx, initiator, responder, transport, encode_pairing(request), "request", **extra)
    session.advance(PairingState.REQUESTED)
    if not responder.is_pairable(transport):
        _emit_verdict(
            ctx, responder, stage="pairing_request", transport=transport,
            peer=initiator.address, allow=False, reason=RejectionReason.NOT_PAIRABLE,
        )
        session.abort(RejectionReason.NOT_PAIRABLE)
    return session


def _respond(ctx: SimContext, session: PairingSession, initiator: Device, responder: Device,
             request: SmpPairingMessage, response: SmpPairingMessage, **extra) -> None:
    """Send the response and settle the association method from both messages."""
    frame = encode_pairing(response)
    _emit_message(ctx, responder, initiator, session.transport, frame, "response", **extra)
    session.advance(PairingState.RESPONDED)
    session.negotiated.association = negotiate_association(
        request.io_capability, response.io_capability,
        request.auth_req.mitm, response.auth_req.mitm,
    )


def _early_check(ctx, session: PairingSession, initiator: Device, responder: Device, stage: str) -> bool:
    """One pre-key policy stage against the stored bonds; a failure aborts the run.

    At ``pairing_request`` c2 binds each peer to the role it had when the
    bonds were made; at ``association`` c4 keeps the negotiated method from
    being weaker than any bond's.
    """
    role_stage = stage == "pairing_request"
    for device, peer, peer_role in _sides(initiator, responder):
        policies = device.policies
        if not (policies.c2_role_binding if role_stage else policies.c4_association_monotonic):
            continue
        for transport in TRANSPORTS:
            existing = device.bonds.lookup(peer.address, transport)
            if role_stage:
                verdict = c2_check(existing, peer_role, session.transport)
            else:
                verdict = c4_check(existing, session.negotiated.association)
            if not verdict.allow:
                _emit_verdict(
                    ctx, device, stage=stage, transport=session.transport,
                    peer=peer.address, allow=False, reason=verdict.reason,
                )
                session.abort(verdict.reason)
                return False
    return True


def _negotiate_ctkd(session: PairingSession, request: SmpPairingMessage,
                    response: SmpPairingMessage) -> bool:
    """CTKD needs the Link Key flag from both ends, h7 the CT2 bit from both."""
    neg = session.negotiated
    neg.ctkd = ctkd_requested(request) and ctkd_requested(response)
    neg.h7 = request.auth_req.ct2_h7 and response.auth_req.ct2_h7
    return neg.ctkd


def _agree_key(ctx: SimContext, session: PairingSession, initiator: Device, responder: Device,
               kdf, *kdf_args) -> Key128:
    """DH and nonces, drawn as keypair i, keypair r, nonce i, nonce r; then ``kdf``.

    Under Numeric Comparison honest users confirm when both screens show the
    same value, which in a lossless simulation they always do, so the key is
    MITM-protected.
    """
    kp_i = dh_generate(ctx.rng, ctx.dh_backend)
    kp_r = dh_generate(ctx.rng, ctx.dh_backend)
    n_i = random_nonce(ctx.rng, initiator.address)
    n_r = random_nonce(ctx.rng, responder.address)
    session.nonces = (n_i, n_r)
    dk = dh_shared(kp_i.private, kp_r.public)
    key = kdf(dk, initiator.address, responder.address, n_i, n_r, *kdf_args)
    if session.negotiated.association is Association.NUMERIC_COMPARISON:
        key = replace(key, mitm_protected=True)
    session.advance(PairingState.KEYS_COMPUTED)
    return key


def _exchange_identity_keys(ctx: SimContext, initiator: Device, responder: Device,
                            transport: str, tunneled: bool = False) -> None:
    """CSRK/IRK travel both ways over the encrypted link."""
    for sender, receiver in ((initiator, responder), (responder, initiator)):
        material = sender.key_material()
        frame = material.csrk.value + material.irk.value
        _emit_message(ctx, sender, receiver, transport, frame, "key_material", tunneled)


def _store_keys(ctx: SimContext, session: PairingSession, initiator: Device, responder: Device,
                direct_key: Key128, derived_key: Optional[Key128]) -> PairingSession:
    """Write the run's keys into both bond tables, all or nothing.

    Each end gets a record of the direct key on the pairing transport and,
    under CTKD, one of the derived key on the other transport; the BLE
    record keeps the peer's identity keys. Every record gets its verdict
    before any is committed, so one rejection aborts the run with both
    tables untouched.
    """
    if derived_key is not None:
        session.advance(PairingState.CTKD_DONE)
    session.advance(PairingState.DISTRIBUTING)
    pending = []  # (device, record, what the policy check needs beyond the table)
    for device, peer, peer_role in _sides(initiator, responder):
        def bond(transport, key, origin):
            return KeyRecord(
                peer.address, transport, key, origin, session.negotiated.association, peer_role,
                extra_keys=peer.key_material() if transport == TRANSPORT_BLE else None,
            )
        direct = bond(session.transport, direct_key, KeyOrigin.DIRECT_PAIRING)
        pending.append((device, direct, {}))
        if derived_key is not None:
            derived = bond(other_transport(session.transport), derived_key, KeyOrigin.CTKD_DERIVED)
            prior_direct = device.bonds.lookup(peer.address, session.transport)
            pending.append((device, derived, {"ctkd_source": direct, "prior_direct": prior_direct}))

    for device, record, context in pending:
        verdict = device.bonds.evaluate_store(
            record, device.policies, bt_version=device.profile.bt_version, **context,
        )
        _emit_verdict(
            ctx, device, stage="store", transport=record.transport, peer=record.peer,
            allow=verdict.allow, reason=verdict.reason, origin=record.origin.value,
        )
        if not verdict.allow:
            ctx.trace.emit(
                device.address, KIND_KEY_REJECTED, transport=record.transport,
                peer=str(record.peer), origin=record.origin.value, reason=verdict.reason.value,
            )
            session.abort(verdict.reason)
            return session
    for device, record, _ in pending:
        outcome = device.bonds.commit(record)
        ctx.trace.emit(device.address, KIND_KEY_STORED, **_record_payload(record, outcome.overwrote))
        if outcome.overwrote:
            _invalidate_sessions(device, record.peer, record.transport)
    session.advance(PairingState.COMPLETE)
    return session


# ---------------------------------------------------------------------------
# BLE pairing (derivation negotiated in-band)
# ---------------------------------------------------------------------------

def ble_pair(
    ctx: SimContext,
    initiator: Device,
    responder: Device,
    request: Optional[SmpPairingMessage] = None,
) -> PairingSession:
    """Run BLE pairing, deriving the BT key as well when both ends agree.

    Both pairing messages carry the Link Key flag that asks for the
    derivation. The initiator's address is whatever its profile claims;
    nothing below authenticates it.
    """
    if request is None:
        request = build_pairing_request(initiator.profile)
    session = _request(ctx, initiator, responder, TRANSPORT_BLE, request)
    if session.aborted:
        return session
    response = build_pairing_response(responder.profile, request)
    _respond(ctx, session, initiator, responder, request, response)
    _negotiate_ctkd(session, request, response)
    neg = session.negotiated
    neg.key_strength = min(request.max_key_size, response.max_key_size)
    if not (
        _early_check(ctx, session, initiator, responder, "pairing_request")
        and _early_check(ctx, session, initiator, responder, "association")
    ):
        return session

    k_ble = _agree_key(ctx, session, initiator, responder, kdf_le, neg.key_strength)
    k_bt = ctkd_ble_to_bt(k_ble, neg.h7) if neg.ctkd else None
    _exchange_identity_keys(ctx, initiator, responder, TRANSPORT_BLE)
    return _store_keys(ctx, session, initiator, responder, k_ble, k_bt)


# ---------------------------------------------------------------------------
# BT pairing (derivation negotiated over tunneled frames)
# ---------------------------------------------------------------------------

def build_bt_pairing_request(profile: DeviceProfile) -> SmpPairingMessage:
    """BT-native pairing request: no key-distribution flags, no CT2 bit.

    Cross-transport derivation cannot be asked for here; that happens in the
    tunneled exchange after the link is encrypted.
    """
    auth = AuthReqBits(bonding=1, mitm=profile.wants_mitm, sc=profile.sc_supported)
    empty = KeyDistBits()
    return SmpPairingMessage(
        opcode=OPCODE_REQUEST,
        io_capability=profile.io_capability,
        oob=False,
        auth_req=auth,
        max_key_size=16,
        initiator_dist=empty,
        responder_dist=empty,
    )


def _bt_auth_req(msg: SmpPairingMessage) -> str:
    return f"0x{encode_bt_auth_req(True, msg.auth_req.mitm):02x}"


def bt_pair(
    ctx: SimContext,
    initiator: Device,
    responder: Device,
    want_ctkd: bool = True,
) -> PairingSession:
    """Run BT pairing; CTKD rides on tunneled frames over the encrypted link.

    The initiator always shows up in the master role: the transport allows
    switching roles right before a pairing request, so the responder checks
    roles before it responds.
    """
    request = build_bt_pairing_request(initiator.profile)
    session = _request(ctx, initiator, responder, TRANSPORT_BT, request, bt_auth_req=_bt_auth_req(request))
    if session.aborted or not _early_check(ctx, session, initiator, responder, "pairing_request"):
        return session
    response = build_bt_pairing_request(responder.profile).as_response()
    _respond(ctx, session, initiator, responder, request, response, bt_auth_req=_bt_auth_req(response))
    if not _early_check(ctx, session, initiator, responder, "association"):
        return session

    k_bt = _agree_key(ctx, session, initiator, responder, kdf_bt)
    k_ble = None
    if want_ctkd and initiator.profile.ctkd_supported:
        # The link is encrypted from here on. CTKD is negotiated by BLE-style
        # pairing messages tunneled over it, which carry the CT2 bit too.
        tunnel_req = build_pairing_request(initiator.profile)
        _emit_message(
            ctx, initiator, responder, TRANSPORT_BT,
            encode_pairing(tunnel_req), "request", tunneled=True,
        )
        tunnel_resp = build_pairing_response(responder.profile, tunnel_req)
        _emit_message(
            ctx, responder, initiator, TRANSPORT_BT,
            encode_pairing(tunnel_resp), "response", tunneled=True,
        )
        if _negotiate_ctkd(session, tunnel_req, tunnel_resp):
            # The BLE identity keys ride in the same tunneled exchange.
            _exchange_identity_keys(ctx, initiator, responder, TRANSPORT_BT, tunneled=True)
            k_ble = ctkd_bt_to_ble(k_bt, session.negotiated.h7)
    return _store_keys(ctx, session, initiator, responder, k_bt, k_ble)


# ---------------------------------------------------------------------------
# Session establishment
# ---------------------------------------------------------------------------

def establish_session(
    ctx: SimContext,
    a: Device,
    b: Device,
    transport: str,
    entropy_proposal: int = 16,
) -> SessionResult:
    """Bring up a secure session; failure is a modeled outcome, not an error.

    Succeeds only when both bond tables hold byte-identical keys for the
    peer on this transport. BT may negotiate the session-key entropy down,
    BLE always inherits the pairing key's strength.
    """
    rec_a = a.bonds.lookup(b.address, transport)
    rec_b = b.bonds.lookup(a.address, transport)
    if rec_a is None or rec_b is None or rec_a.key.value != rec_b.key.value:
        failure = SESSION_NO_BOND if rec_a is None or rec_b is None else SESSION_KEY_MISMATCH
        ctx.trace.emit(a.address, KIND_SESSION_FAIL, transport=transport, peer=str(b.address), reason=failure)
        return SessionResult(failure)

    entropy = rec_a.key.strength if transport == TRANSPORT_BLE else entropy_proposal
    n_a = random_nonce(ctx.rng, a.address)
    n_b = random_nonce(ctx.rng, b.address)
    sk = session_key(transport, rec_a.key, n_a, n_b, entropy)
    state = SessionState(peers=(a.address, b.address), transport=transport, session_key=sk)
    a.sessions.append(state)
    b.sessions.append(state)
    ctx.trace.emit(
        a.address, KIND_SESSION_OK,
        transport=transport, peer=str(b.address), entropy=entropy,
    )
    a.note_activity(transport, ctx.trace.clock)
    b.note_activity(transport, ctx.trace.clock)
    return SessionResult(SESSION_OK, state)

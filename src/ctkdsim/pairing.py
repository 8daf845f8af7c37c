"""Honest-device protocol engine.

Pairing is one key agreement with two front ends. Each step exists once:
the request and the pairability check, the early policy checks, DH and
nonces with the KDF, the CSRK/IRK exchange, and the key-store writes.
``ble_pair`` negotiates cross-transport derivation in-band, through the
Link Key flag; ``bt_pair`` negotiates it after the link is encrypted,
through BLE-style frames tunneled over it. Each end acts on the frames it
was handed, as it decodes them. Session establishment closes the module.

Key-store writes are transactional per pairing run: every prospective
record gets its policy verdict first, and nothing is committed unless all
of them pass, so an aborted pairing leaves both bond tables untouched.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .crypto import (
    Address,
    Key128,
    Nonce,
    TRANSPORT_BLE,
    TRANSPORT_BT,
    TRANSPORTS,
    check_session_args,
    ctkd_ble_to_bt,
    ctkd_bt_to_ble,
    dh_agree,
    kdf_bt,
    kdf_le,
    other_transport,
    random_key128,
    random_nonce,
    session_key,
)
from .device import Association, Device, DeviceProfile, KeyOrigin, KeyRecord, PairingRole
from .policies import PolicySet, RejectionReason, c2_check, c4_check, evaluate
from .smp import (
    CONFIRM_CAPABLE,
    AuthReqBits,
    IoCapability,
    KeyDistBits,
    KeyMaterial,
    OPCODE_REQUEST,
    OPCODE_RESPONSE,
    SmpPairingMessage,
    ctkd_requested,
    decode_pairing,
    encode_bt_auth_req,
    encode_pairing,
    hexdump,
    parse_hexdump,
)
from .trace import (
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


def make_device(ctx: SimContext, profile: DeviceProfile, policies: Optional[PolicySet] = None,
                address: Optional[Address] = None) -> Device:
    """A device whose identity keys are drawn from ``ctx.rng``: the CSRK, then the IRK."""
    key_material = KeyMaterial(random_key128(ctx.rng), random_key128(ctx.rng))
    return Device(profile, policies if policies is not None else PolicySet(), key_material, address)


@dataclass(slots=True)
class Negotiated:
    association: Optional[Association] = None
    ctkd: bool = False
    h7: bool = False
    key_strength: int = 16


@dataclass(slots=True)
class PairingSession:
    transport: str
    negotiated: Negotiated = field(default_factory=Negotiated)
    abort_reason: Optional[RejectionReason] = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def complete(self) -> bool:
        # Every run that does not abort ends with both bond tables written.
        return self.abort_reason is None


@dataclass(slots=True)
class SessionState:
    peers: tuple[Address, Address]
    transport: str
    pairing_key: Key128
    nonces: tuple[Nonce, Nonce]
    entropy: int
    live: bool = True

    @property
    def session_key(self) -> Key128:  # derived on read, since no run path reads it
        return session_key(self.transport, self.pairing_key, *self.nonces, self.entropy)


SESSION_OK = "ok"
SESSION_KEY_MISMATCH = "key_mismatch"
SESSION_NO_BOND = "no_bond"


@dataclass(slots=True)
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

    Only Just Works and Numeric Comparison are modelled; Passkey Entry and OOB
    are not. Nothing authenticates this negotiation: either side may simply
    claim to have no input/output and force Just Works.
    """
    if mitm_i and mitm_r and io_i in CONFIRM_CAPABLE and io_r in CONFIRM_CAPABLE:
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


def build_pairing_response(profile: DeviceProfile, sent: str) -> SmpPairingMessage:
    """Honest response to the request frame ``sent`` (its trace text): own capabilities,
    distribution masked by the request its responder decodes."""
    request = read_frame(sent)
    link = profile.ctkd_supported and ctkd_requested(request)
    return SmpPairingMessage(
        OPCODE_RESPONSE,
        profile.io_capability,
        request.oob,
        _auth_req(profile),
        profile.max_key_size,
        replace(request.initiator_dist, link_key=link),
        replace(request.responder_dist, link_key=link),
    )


def build_bt_pairing_request(profile: DeviceProfile, opcode: int = OPCODE_REQUEST) -> SmpPairingMessage:
    """BT-native pairing request (or response): no key-distribution flags, no CT2 bit.

    Cross-transport derivation cannot be asked for here; that happens in the
    tunneled exchange after the link is encrypted.
    """
    auth = AuthReqBits(bonding=1, mitm=profile.wants_mitm, sc=profile.sc_supported)
    empty = KeyDistBits()
    return SmpPairingMessage(
        opcode=opcode,
        io_capability=profile.io_capability,
        oob=False,
        auth_req=auth,
        max_key_size=16,
        initiator_dist=empty,
        responder_dist=empty,
    )


#: Never keyed by a profile or an address: a few dozen entries whatever the traffic.
_FRAMES: dict[tuple, str] = {}
#: A bonding device's BT auth-requirements byte as trace text, by its MITM bit.
_BT_AUTH_REQ = {mitm: f"0x{encode_bt_auth_req(True, mitm):02x}" for mitm in (False, True)}


def honest(build, profile: DeviceProfile, arg) -> str:
    """``build(profile, arg)`` as its frame's trace text, built once per capability set.

    The key is ``build``, the profile's ``capabilities`` (the fields the
    message reads) and ``arg``: a response passes the request frame's text,
    the bytes its responder read.
    """
    key = (build, profile.capabilities, arg)
    text = _FRAMES.get(key)
    if text is None:
        text = _FRAMES[key] = hexdump(encode_pairing(build(profile, arg)))
    return text


@functools.cache
def read_frame(text: str) -> SmpPairingMessage:
    """The message a receiver decodes from the frame it was handed, decoded once per text."""
    return decode_pairing(parse_hexdump(text))


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def _emit_message(ctx: SimContext, sender: Device, receiver: Device, transport: str,
                  text: str, opcode: str, tunneled: bool = False) -> None:
    sender_text, receiver_text = sender.address.text, receiver.address.text
    sent = {"transport": transport, "peer": receiver_text, "frame": text, "opcode": opcode, "tunneled": tunneled}
    received = {"transport": transport, "peer": sender_text, "frame": text, "opcode": opcode, "tunneled": tunneled}
    if transport == TRANSPORT_BT and not tunneled:  # a BT-native frame: its MITM bit as BT's auth-req byte
        sent["bt_auth_req"] = received["bt_auth_req"] = _BT_AUTH_REQ[read_frame(text).auth_req.mitm]
    ctx.trace.emit(sender_text, KIND_MSG_SENT, sent)
    ctx.trace.emit(receiver_text, KIND_MSG_RECEIVED, received)


def _emit_verdict(ctx, device: Device, stage, transport, peer, reason, origin=None):
    """A verdict allows exactly when it names no reason."""
    ctx.trace.emit(device.address.text, KIND_POLICY_VERDICT, {
        "stage": stage, "transport": transport, "peer": peer.text, "allow": reason is None,
        "reason": None if reason is None else reason._value_, "origin": origin,
    })


def _abort(ctx, session: PairingSession, device: Device, stage: str, peer: Address,
           reason: RejectionReason) -> None:
    """Deny before any key work: the verdict on the run's transport, then the abort."""
    _emit_verdict(ctx, device, stage, session.transport, peer, reason)
    session.abort_reason = reason


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


def _request(ctx: SimContext, initiator: Device, responder: Device, transport: str, request: str) -> PairingSession:
    """Send the pairing request's frame; a responder that is not pairable aborts the run."""
    if initiator is responder:
        raise ValueError(f"{initiator.name} cannot pair with itself")
    session = PairingSession(transport)
    _emit_message(ctx, initiator, responder, transport, request, "request")
    if not responder.is_pairable(transport):
        _abort(ctx, session, responder, "pairing_request", initiator.address, RejectionReason.NOT_PAIRABLE)
    return session


def _respond(ctx: SimContext, session: PairingSession, initiator: Device, responder: Device,
             request: SmpPairingMessage, response: str) -> SmpPairingMessage:
    """Send the response; the association comes from both messages as read. Returns the response read."""
    _emit_message(ctx, responder, initiator, session.transport, response, "response")
    received = read_frame(response)
    session.negotiated.association = negotiate_association(
        request.io_capability, received.io_capability,
        request.auth_req.mitm, received.auth_req.mitm,
    )
    return received


def _early_check(ctx, session: PairingSession, initiator: Device, responder: Device, stage: str) -> bool:
    """One pre-key policy stage against the stored bonds; a failure aborts the run.

    At ``pairing_request`` c2 binds each peer to the role it had when the
    bonds were made; at ``association`` c4 keeps the negotiated method from
    being weaker than any bond's.
    """
    role_stage = stage == "pairing_request"
    for device, peer, peer_role in _sides(initiator, responder):
        policies = device.policies
        if not (policies.c2 if role_stage else policies.c4):
            continue
        for transport in TRANSPORTS:
            existing = device.bonds.lookup(peer.address, transport)
            if role_stage:
                reason = c2_check(existing, peer_role)
            else:
                reason = c4_check(existing, session.negotiated.association)
            if reason is not None:
                _abort(ctx, session, device, stage, peer.address, reason)
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
    """DH and nonces, drawn as private i, private r, nonce i, nonce r; then ``kdf``.

    Under Numeric Comparison honest users confirm when both screens show the
    same value, which in a lossless simulation they always do, so the key is
    MITM-protected.
    """
    dk = dh_agree(ctx.rng, ctx.dh_backend)
    n_i = random_nonce(ctx.rng)
    n_r = random_nonce(ctx.rng)
    key = kdf(dk, initiator.address, responder.address, n_i, n_r, *kdf_args)
    if session.negotiated.association is Association.NUMERIC_COMPARISON:
        key = Key128(key.value, key.strength, True)
    return key


def _exchange_identity_keys(ctx: SimContext, initiator: Device, responder: Device,
                            transport: str, tunneled: bool = False) -> None:
    """CSRK/IRK travel both ways over the encrypted link."""
    for sender, receiver in ((initiator, responder), (responder, initiator)):
        _emit_message(ctx, sender, receiver, transport, sender.key_material.frame, "key_material", tunneled)


def _store_keys(ctx: SimContext, session: PairingSession, initiator: Device, responder: Device,
                direct_key: Key128, derived_key: Optional[Key128]) -> PairingSession:
    """Write the run's keys into both bond tables, all or nothing.

    Each end gets a record of the direct key on the pairing transport and,
    under CTKD, one of the derived key on the other transport; the BLE
    record keeps the peer's identity keys. Every record gets its verdict
    before any is committed, so one rejection aborts the run with both
    tables untouched; the trace shows it by its deny verdict alone.
    """
    transport = session.transport
    derived_transport = other_transport(transport)
    association = session.negotiated.association
    over_ble = transport == TRANSPORT_BLE
    pending = []  # (device, record, existing, prior_direct): all each verdict reads
    for device, peer, peer_role in _sides(initiator, responder):
        address = peer.address
        identity = peer.key_material
        direct = KeyRecord(address, transport, direct_key, KeyOrigin.DIRECT_PAIRING, association,
                           peer_role, identity if over_ble else None)
        # The pairing transport's bond before this run: ``existing`` here, ``prior_direct`` below.
        prior_direct = device.bonds.lookup(address, transport)
        pending.append((device, direct, prior_direct, None))
        if derived_key is not None:
            derived = KeyRecord(address, derived_transport, derived_key, KeyOrigin.CTKD_DERIVED, association,
                                peer_role, None if over_ble else identity)
            existing = device.bonds.lookup(address, derived_transport)
            pending.append((device, derived, existing, prior_direct))

    for device, record, existing, prior_direct in pending:
        reason = evaluate(device.policies, existing, record, prior_direct)
        _emit_verdict(ctx, device, "store", record.transport, record.peer, reason, record.origin._value_)
        if reason is not None:
            session.abort_reason = reason
            return session
    for device, record, existing, *_ in pending:
        overwrote = device.bonds.commit(record, existing).overwrote
        peer, transport, key, origin, association, role, extra = record
        stored = {"transport": transport, "peer": peer.text, "origin": origin._value_,
                  "association": association._value_, "role": role._value_, "strength": key.strength,
                  "mitm_protected": key.mitm_protected, "key": key.hex(), "overwrote": overwrote}
        if extra is not None:
            stored["extra_keys"] = {"csrk": extra.csrk_hex, "irk": extra.irk_hex}
        ctx.trace.emit(device.address.text, KIND_KEY_STORED, stored)
        if overwrote:
            _invalidate_sessions(device, peer, transport)
    return session


# ---------------------------------------------------------------------------
# BLE pairing (derivation negotiated in-band)
# ---------------------------------------------------------------------------

def ble_pair(ctx: SimContext, initiator: Device, responder: Device, ctkd: bool = True) -> PairingSession:
    """Run BLE pairing, deriving the BT key as well when both ends agree.

    Both pairing messages carry the Link Key flag that asks for the
    derivation; the initiator sets it only when ``ctkd`` is on. The
    initiator's address is whatever its profile claims; nothing below
    authenticates it.
    """
    sent = honest(build_pairing_request, initiator.profile, ctkd)
    session = _request(ctx, initiator, responder, TRANSPORT_BLE, sent)
    if session.aborted:
        return session
    request = read_frame(sent)
    response = _respond(ctx, session, initiator, responder, request,
                        honest(build_pairing_response, responder.profile, sent))
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

def bt_pair(ctx: SimContext, initiator: Device, responder: Device, ctkd: bool = True) -> PairingSession:
    """Run BT pairing; CTKD rides on tunneled frames over the encrypted link.

    The tunneled exchange runs only when ``ctkd`` is on and the initiator
    supports the derivation. The initiator always shows up in the master
    role: the transport allows switching roles right before a pairing
    request, so the responder checks roles before it responds.
    """
    sent = honest(build_bt_pairing_request, initiator.profile, OPCODE_REQUEST)
    session = _request(ctx, initiator, responder, TRANSPORT_BT, sent)
    if session.aborted or not _early_check(ctx, session, initiator, responder, "pairing_request"):
        return session
    _respond(ctx, session, initiator, responder, read_frame(sent),
             honest(build_bt_pairing_request, responder.profile, OPCODE_RESPONSE))
    if not _early_check(ctx, session, initiator, responder, "association"):
        return session

    k_bt = _agree_key(ctx, session, initiator, responder, kdf_bt)
    k_ble = None
    if ctkd and initiator.profile.ctkd_supported:
        # The link is encrypted from here on. CTKD is negotiated by BLE-style
        # pairing messages tunneled over it, which carry the CT2 bit too.
        sent = honest(build_pairing_request, initiator.profile, True)
        _emit_message(ctx, initiator, responder, TRANSPORT_BT, sent, "request", tunneled=True)
        answer = honest(build_pairing_response, responder.profile, sent)
        _emit_message(ctx, responder, initiator, TRANSPORT_BT, answer, "response", tunneled=True)
        if _negotiate_ctkd(session, read_frame(sent), read_frame(answer)):
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
        ctx.trace.emit(a.address.text, KIND_SESSION_FAIL,
                       {"transport": transport, "peer": b.address.text, "reason": failure})
        return SessionResult(failure)

    entropy = rec_a.key.strength if transport == TRANSPORT_BLE else entropy_proposal
    nonces = (random_nonce(ctx.rng), random_nonce(ctx.rng))
    check_session_args(transport, rec_a.key, entropy)
    state = SessionState((a.address, b.address), transport, rec_a.key, nonces, entropy)
    a.sessions.append(state)
    b.sessions.append(state)
    ctx.trace.emit(a.address.text, KIND_SESSION_OK,
                   {"transport": transport, "peer": b.address.text, "entropy": entropy})
    return SessionResult(SESSION_OK, state)

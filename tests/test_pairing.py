"""Protocol engine: both pairing flows, sessions, atomicity, completion."""

import dataclasses
import itertools
import random

import pytest
from conftest import device, make_profile
from reference import ref_ble_to_bt, ref_bt_to_ble

from ctkdsim.crypto import TRANSPORT_BLE, TRANSPORT_BT
from ctkdsim.device import Association, KeyOrigin
from ctkdsim import pairing
from ctkdsim.pairing import (
    SimContext,
    ble_pair,
    bt_pair,
    build_bt_pairing_request,
    build_pairing_response,
    establish_session,
    make_device,
    negotiate_association,
)
from ctkdsim.policies import PolicySet, RejectionReason
from ctkdsim.smp import (
    OPCODE_REQUEST,
    OPCODE_RESPONSE,
    AuthReqBits,
    IoCapability,
    KeyDistBits,
    SmpPairingMessage,
    ctkd_requested,
    encode_pairing,
    hexdump,
)
from ctkdsim.crypto import Key128, dh_agree, get_backend, kdf_le, random_nonce


#: The only cells of the 5 x 5 IO capability x 2 x 2 MITM table that negotiate Numeric
#: Comparison: both ends confirm-capable and both asking for MITM. Every other cell is Just Works.
_NUMERIC_COMPARISON_CELLS = {
    (IoCapability.DISPLAY_YES_NO, IoCapability.DISPLAY_YES_NO, True, True),
    (IoCapability.DISPLAY_YES_NO, IoCapability.KEYBOARD_DISPLAY, True, True),
    (IoCapability.KEYBOARD_DISPLAY, IoCapability.DISPLAY_YES_NO, True, True),
    (IoCapability.KEYBOARD_DISPLAY, IoCapability.KEYBOARD_DISPLAY, True, True),
}


class TestAssociationNegotiation:
    def test_both_capable_and_willing(self):
        assert negotiate_association(
            IoCapability.DISPLAY_YES_NO, IoCapability.DISPLAY_YES_NO, True, True
        ) is Association.NUMERIC_COMPARISON

    def test_one_side_without_io_forces_just_works(self):
        assert negotiate_association(
            IoCapability.DISPLAY_YES_NO, IoCapability.NO_INPUT_NO_OUTPUT, True, False
        ) is Association.JUST_WORKS

    def test_no_io_anywhere(self):
        for mitm_i in (True, False):
            for mitm_r in (True, False):
                assert negotiate_association(
                    IoCapability.NO_INPUT_NO_OUTPUT, IoCapability.NO_INPUT_NO_OUTPUT,
                    mitm_i, mitm_r,
                ) is Association.JUST_WORKS

    def test_the_whole_association_table(self):
        cells = list(itertools.product(IoCapability, IoCapability, (False, True), (False, True)))
        assert len(cells) == 100
        wrong = [
            cell for cell in cells
            if negotiate_association(*cell) is not (
                Association.NUMERIC_COMPARISON if cell in _NUMERIC_COMPARISON_CELLS
                else Association.JUST_WORKS)
        ]
        assert not wrong


_IO_NAMES = ["DisplayOnly", "DisplayYesNo", "KeyboardOnly", "NoInputNoOutput", "KeyboardDisplay"]


class TestMessageConstruction:
    """Direct construction builds the messages ``dataclasses.replace`` used to."""

    @staticmethod
    def _replaced_response(profile, request):
        link = profile.ctkd_supported and ctkd_requested(request)
        return dataclasses.replace(
            request,
            opcode=OPCODE_RESPONSE,
            io_capability=profile.io_capability,
            auth_req=AuthReqBits(bonding=1, mitm=profile.wants_mitm, sc=profile.sc_supported,
                                 keypress=False, ct2_h7=profile.h7_supported),
            max_key_size=profile.max_key_size,
            initiator_dist=dataclasses.replace(request.initiator_dist, link_key=link),
            responder_dist=dataclasses.replace(request.responder_dist, link_key=link),
        )

    @pytest.mark.parametrize("io", _IO_NAMES)
    @pytest.mark.parametrize("ctkd, h7", list(itertools.product((True, False), repeat=2)))
    def test_pairing_response_equals_the_replaced_request(self, io, ctkd, h7):
        profile = make_profile("responder", 0x02, io, ctkd_supported=ctkd, h7_supported=h7,
                               max_key_size=12)
        for mitm, oob, init_byte, resp_byte in itertools.product(
                (True, False), (True, False), range(16), range(16)):
            request = SmpPairingMessage(
                OPCODE_REQUEST, IoCapability.DISPLAY_YES_NO, oob,
                AuthReqBits(bonding=1, mitm=mitm, sc=True, ct2_h7=True), 16,
                KeyDistBits.from_byte(init_byte), KeyDistBits.from_byte(resp_byte),
            )
            sent = hexdump(encode_pairing(request))
            assert build_pairing_response(profile, sent) == self._replaced_response(profile, request)

    @pytest.mark.parametrize("io", _IO_NAMES)
    def test_bt_response_is_the_request_with_the_response_opcode(self, io):
        profile = make_profile("responder", 0x02, io)
        request = build_bt_pairing_request(profile)
        assert build_bt_pairing_request(profile, OPCODE_RESPONSE) == dataclasses.replace(
            request, opcode=OPCODE_RESPONSE)


class TestBlePairing:
    def test_honest_ctkd_pairing_keys_both_transports(self, ctx, laptop, headset):
        session = ble_pair(ctx, laptop, headset)
        assert not session.aborted
        assert session.negotiated.ctkd
        for dev, peer in ((laptop, headset), (headset, laptop)):
            ble_rec = dev.bonds.lookup(peer.address, TRANSPORT_BLE)
            bt_rec = dev.bonds.lookup(peer.address, TRANSPORT_BT)
            assert ble_rec is not None and ble_rec.origin is KeyOrigin.DIRECT_PAIRING
            assert bt_rec is not None and bt_rec.origin is KeyOrigin.CTKD_DERIVED

    def test_derived_key_matches_reference_recomputation(self, ctx, laptop, headset):
        session = ble_pair(ctx, laptop, headset)
        ble_rec = headset.bonds.lookup(laptop.address, TRANSPORT_BLE)
        bt_rec = headset.bonds.lookup(laptop.address, TRANSPORT_BT)
        expected = ref_ble_to_bt(ble_rec.key.value, session.negotiated.h7)
        assert bt_rec.key.value == expected

    def test_participants_hold_identical_keys(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        for transport in (TRANSPORT_BLE, TRANSPORT_BT):
            a = laptop.bonds.lookup(headset.address, transport)
            b = headset.bonds.lookup(laptop.address, transport)
            assert a.key.value == b.key.value

    def test_not_pairable_aborts(self, ctx, laptop, headset):
        headset.set_pairable(TRANSPORT_BLE, False)
        session = ble_pair(ctx, laptop, headset)
        assert session.aborted
        assert session.abort_reason is RejectionReason.NOT_PAIRABLE
        assert not headset.bonds.records and not laptop.bonds.records

    def test_responder_link_key_clear_stores_only_ble(self, ctx, laptop):
        no_ctkd = device(ctx, "plainble", 0x51, ctkd_supported=False)
        session = ble_pair(ctx, laptop, no_ctkd)
        assert not session.aborted and not session.negotiated.ctkd
        assert no_ctkd.bonds.lookup(laptop.address, TRANSPORT_BLE) is not None
        assert no_ctkd.bonds.lookup(laptop.address, TRANSPORT_BT) is None

    def test_h7_requires_both_sides(self, ctx, laptop):
        legacy = device(ctx, "legacy", 0x52, io="NoInputNoOutput", h7_supported=False)
        session = ble_pair(ctx, laptop, legacy)
        assert not session.aborted
        assert not session.negotiated.h7
        ble_rec = legacy.bonds.lookup(laptop.address, TRANSPORT_BLE)
        bt_rec = legacy.bonds.lookup(laptop.address, TRANSPORT_BT)
        assert bt_rec.key.value == ref_ble_to_bt(ble_rec.key.value, False)

    def test_key_strength_is_min_of_max_key_sizes(self, ctx, laptop):
        weak = device(ctx, "weak", 0x53, io="NoInputNoOutput", max_key_size=7)
        session = ble_pair(ctx, laptop, weak)
        assert session.negotiated.key_strength == 7
        rec = weak.bonds.lookup(laptop.address, TRANSPORT_BLE)
        assert rec.key.strength == 7

    def test_numeric_comparison_marks_keys_mitm_protected(self, ctx):
        a = device(ctx, "phone-a", 0x54)
        b = device(ctx, "phone-b", 0x55)
        session = ble_pair(ctx, a, b)
        assert session.negotiated.association is Association.NUMERIC_COMPARISON
        rec = b.bonds.lookup(a.address, TRANSPORT_BLE)
        assert rec.key.mitm_protected

    def test_identity_keys_distributed_both_ways(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        assert laptop.bonds.lookup(headset.address, TRANSPORT_BLE).extra_keys.irk == headset.key_material.irk
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BLE).extra_keys.csrk == laptop.key_material.csrk


class TestBtPairing:
    def test_honest_ctkd_pairing_keys_both_transports(self, ctx, laptop, headset):
        session = bt_pair(ctx, laptop, headset)
        assert not session.aborted and session.negotiated.ctkd
        bt_rec = headset.bonds.lookup(laptop.address, TRANSPORT_BT)
        ble_rec = headset.bonds.lookup(laptop.address, TRANSPORT_BLE)
        assert bt_rec.origin is KeyOrigin.DIRECT_PAIRING
        assert ble_rec.origin is KeyOrigin.CTKD_DERIVED
        assert ble_rec.key.value == ref_bt_to_ble(bt_rec.key.value, session.negotiated.h7)

    def test_bt_key_is_full_strength(self, ctx, laptop, headset):
        bt_pair(ctx, laptop, headset)
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BT).key.strength == 16

    def test_tunnel_carries_identity_keys(self, ctx, laptop, headset):
        bt_pair(ctx, laptop, headset)
        ble_rec = laptop.bonds.lookup(headset.address, TRANSPORT_BLE)
        assert ble_rec.extra_keys == headset.key_material

    def test_repair_as_master_after_slave_bond_without_c2(self, ctx, laptop, headset):
        # First pairing: laptop initiates, headset records it as master.
        bt_pair(ctx, laptop, headset)
        # Role switch: headset comes back as the initiator (master).
        session = bt_pair(ctx, headset, laptop)
        assert not session.aborted

    def test_c2_aborts_role_switched_repairing(self, ctx, laptop):
        guarded = device(ctx, "guarded", 0x56, io="NoInputNoOutput",
                         policies=PolicySet(c2=True))
        bt_pair(ctx, laptop, guarded)
        snap_guarded = dict(guarded.bonds.records)
        snap_laptop = dict(laptop.bonds.records)
        session = bt_pair(ctx, guarded, laptop)
        assert session.aborted
        assert session.abort_reason is RejectionReason.C2_ROLE_MISMATCH
        # Atomicity: neither table moved.
        assert guarded.bonds.records == snap_guarded
        assert laptop.bonds.records == snap_laptop

    def test_without_ctkd_only_bt_keyed(self, ctx, laptop, headset):
        session = bt_pair(ctx, laptop, headset, ctkd=False)
        assert not session.aborted and not session.negotiated.ctkd
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BT) is not None
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BLE) is None


class TestAbortAtomicity:
    def test_store_rejection_rolls_back_everything(self, ctx, laptop):
        # Guarded device already bonded on both transports; a re-pairing
        # whose derived write C3 rejects must leave no trace in any table.
        guarded = device(ctx, "fort", 0x57, io="NoInputNoOutput",
                         policies=PolicySet(c3=True))
        first = ble_pair(ctx, laptop, guarded)
        assert not first.aborted
        snap_guarded = dict(guarded.bonds.records)
        snap_laptop = dict(laptop.bonds.records)
        second = ble_pair(ctx, laptop, guarded)
        assert second.aborted
        assert second.abort_reason is RejectionReason.C3_OVERWRITE_BLOCK
        assert guarded.bonds.records == snap_guarded
        assert laptop.bonds.records == snap_laptop

    @pytest.mark.parametrize("guarded_io, claimant", [
        ("NoInputNoOutput", {"max_key_size": 7}),  # a 7-byte key over a 16-byte bond
        ("DisplayYesNo", {"io": "NoInputNoOutput"}),  # Just Works over a Numeric Comparison bond
    ])
    def test_c3_refuses_derivation_from_a_weaker_repairing(self, ctx, guarded_io, claimant):
        # The guarded end holds only a BLE bond, so the derived BT record lands on an empty
        # transport and the weak-input rule, not the overwrite rule, decides.
        guarded = device(ctx, "fort", 0x5B, io=guarded_io, policies=PolicySet(c3=True))
        first = ble_pair(ctx, device(ctx, "peer", 0x5C), guarded, ctkd=False)
        assert not first.aborted and not first.negotiated.ctkd
        assert [record.transport for record in guarded.bonds.records.values()] == [TRANSPORT_BLE]
        snapshot = dict(guarded.bonds.records)
        session = ble_pair(ctx, device(ctx, "peer-again", 0x5C, **claimant), guarded)
        assert session.aborted and session.negotiated.ctkd
        assert session.abort_reason is RejectionReason.C3_WEAK_INPUT_BLOCK
        denied = [e.payload for e in ctx.trace.events if e.kind == "policy_verdict" and not e.payload["allow"]]
        assert denied == [{"stage": "store", "transport": TRANSPORT_BT, "peer": "02:aa:00:00:00:5c", "allow": False,
                           "reason": "c3_weak_input_block", "origin": "ctkd_derived"}]
        assert guarded.bonds.records == snapshot

    def test_sig51_refuses_a_shorter_key(self, ctx):
        a = device(ctx, "nc-a", 0x5D)
        guarded = device(ctx, "nc-b", 0x5E, policies=PolicySet(sig51=True))
        assert not ble_pair(ctx, a, guarded).aborted  # a 16-byte NC bond
        snapshot = dict(guarded.bonds.records)
        claimant = device(ctx, "nc-a-short", 0x5D, max_key_size=7)
        session = ble_pair(ctx, claimant, guarded)
        assert session.aborted
        assert session.abort_reason is RejectionReason.STRENGTH_DOWNGRADE
        denied = [e.payload for e in ctx.trace.events if e.kind == "policy_verdict" and not e.payload["allow"]]
        assert denied == [{"stage": "store", "transport": TRANSPORT_BLE, "peer": "02:aa:00:00:00:5d", "allow": False,
                           "reason": "strength_downgrade", "origin": "direct_pairing"}]
        assert guarded.bonds.records == snapshot

    @pytest.mark.parametrize("pair", [ble_pair, bt_pair])
    def test_c4_aborts_before_any_key_work(self, ctx, pair):
        a = device(ctx, "nc-a", 0x58)
        strict = device(ctx, "nc-b", 0x59, policies=PolicySet(c4=True))
        session = pair(ctx, a, strict)
        assert not session.aborted
        assert strict.bonds.lookup(a.address, session.transport).association is Association.NUMERIC_COMPARISON
        # Whoever claims a's address with no input/output forces Just Works.
        claimant = device(ctx, "nc-a-jw", 0x58, io="NoInputNoOutput")
        rng_state = ctx.rng.getstate()
        session = pair(ctx, claimant, strict)
        assert session.aborted
        assert session.abort_reason is RejectionReason.C4_ASSOCIATION_DOWNGRADE
        denied = [(e.payload["stage"], e.payload["transport"], e.payload["reason"])
                  for e in ctx.trace.events if e.kind == "policy_verdict" and not e.payload["allow"]]
        assert denied == [("association", session.transport, "c4_association_downgrade")]
        assert ctx.rng.getstate() == rng_state  # aborted before any DH or nonce draw

    @pytest.mark.parametrize("pair", [ble_pair, bt_pair])
    def test_not_pairable_denies_at_the_request(self, ctx, laptop, headset, pair):
        rng_state = ctx.rng.getstate()
        headset.set_pairable(TRANSPORT_BLE, False)
        headset.set_pairable(TRANSPORT_BT, False)
        session = pair(ctx, laptop, headset)
        assert session.aborted
        assert session.abort_reason is RejectionReason.NOT_PAIRABLE
        verdicts = [(e.actor, e.payload) for e in ctx.trace.events if e.kind == "policy_verdict"]
        assert verdicts == [(headset.address.text, {
            "stage": "pairing_request", "transport": session.transport, "peer": laptop.address.text,
            "allow": False, "reason": "not_pairable", "origin": None,
        })]
        assert ctx.rng.getstate() == rng_state
        assert not headset.bonds.records and not laptop.bonds.records

    def test_a_verdict_allows_exactly_when_it_names_no_reason(self, ctx, laptop, headset):
        reasons = [None, *RejectionReason]
        for reason in reasons:
            pairing._emit_verdict(ctx, headset, "store", TRANSPORT_BLE, laptop.address, reason)
        payloads = [e.payload for e in ctx.trace.events]
        assert [p["allow"] for p in payloads] == [reason is None for reason in reasons]
        assert [p["reason"] for p in payloads] == [None if r is None else r.value for r in reasons]

    @pytest.mark.parametrize("pair", [ble_pair, bt_pair])
    def test_self_pairing_rejected_before_any_work(self, ctx, laptop, pair):
        rng_state = ctx.rng.getstate()
        with pytest.raises(ValueError, match="cannot pair with itself"):
            pair(ctx, laptop, laptop)
        assert ctx.trace.events == []
        assert ctx.rng.getstate() == rng_state
        assert laptop.bonds.records == {}


class TestStateMachine:
    def test_states_progress_in_order(self, ctx, laptop, headset):
        session = ble_pair(ctx, laptop, headset)
        assert not session.aborted


class TestSessions:
    def test_session_after_honest_pairing_on_both_transports(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        assert establish_session(ctx, laptop, headset, TRANSPORT_BLE).ok
        assert establish_session(ctx, laptop, headset, TRANSPORT_BT).ok

    def test_unknown_peer_no_bond(self, ctx, laptop, headset):
        result = establish_session(ctx, laptop, headset, TRANSPORT_BT)
        assert result.outcome == "no_bond"

    def test_key_mismatch_detected(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        # Corrupt one side's record out-of-band to model a poisoned store.
        rec = headset.bonds.lookup(laptop.address, TRANSPORT_BT)
        headset.bonds.commit(rec._replace(key=Key128(bytes([0xEE]) * 16)), rec)
        assert establish_session(ctx, laptop, headset, TRANSPORT_BT).outcome == "key_mismatch"

    def test_ble_session_inherits_pairing_key_entropy(self, ctx, laptop):
        weak = device(ctx, "weak2", 0x5A, io="NoInputNoOutput", max_key_size=7)
        ble_pair(ctx, laptop, weak)
        result = establish_session(ctx, laptop, weak, TRANSPORT_BLE, entropy_proposal=16)
        assert result.ok
        assert result.session.session_key.strength == 7

    def test_bt_session_entropy_negotiable(self, ctx, laptop, headset):
        bt_pair(ctx, laptop, headset)
        result = establish_session(ctx, laptop, headset, TRANSPORT_BT, entropy_proposal=7)
        assert result.ok and result.session.session_key.strength == 7

    @pytest.mark.parametrize("entropy", [6, 17])
    def test_bt_session_entropy_out_of_range_raises_after_both_nonces(self, ctx, laptop, headset, entropy):
        bt_pair(ctx, laptop, headset)
        expected = random.Random()
        expected.setstate(ctx.rng.getstate())
        expected.randbytes(16), expected.randbytes(16)
        events = len(ctx.trace.events)
        with pytest.raises(ValueError, match="entropy"):
            establish_session(ctx, laptop, headset, TRANSPORT_BT, entropy_proposal=entropy)
        assert ctx.rng.getstate() == expected.getstate()  # both nonces were drawn first
        assert ctx.trace.events[events:] == []  # no session_ok
        assert not laptop.sessions and not headset.sessions

    def test_overwrite_kills_live_session(self, ctx, laptop, headset):
        ble_pair(ctx, laptop, headset)
        result = establish_session(ctx, laptop, headset, TRANSPORT_BT)
        assert result.ok and result.session.live
        # Another device claiming the laptop's address re-keys the headset.
        impostor = make_device(
            ctx, make_profile("laptop", 0x01, io="NoInputNoOutput", bt_version="5.1")
        )
        ble_pair(ctx, impostor, headset)
        assert not result.session.live


class TestNonceFreshness:
    def test_fresh_nonces_every_run(self, monkeypatch, ctx, laptop, headset):
        drawn, used = [], []

        def recorded(rng):
            nonce = random_nonce(rng)
            drawn.append(nonce.value)
            return nonce

        def kdf(dk, addr_i, addr_r, n_i, n_r, *args):
            used.extend((n_i.value, n_r.value))
            return kdf_le(dk, addr_i, addr_r, n_i, n_r, *args)

        monkeypatch.setattr(pairing, "random_nonce", recorded)
        monkeypatch.setattr(pairing, "kdf_le", kdf)
        for runs in range(1, 21):
            assert not ble_pair(ctx, laptop, headset).aborted
            assert len(drawn) == 2 * runs  # the initiator's nonce and the responder's
        assert used == drawn  # each run's key is derived from its own two draws
        assert len(set(drawn)) == len(drawn)


class _CountingEc:
    """Stands in for the P-256 backend's ``ec`` module: counts scalar multiplications, that is
    ``derive_private_key`` calls (b*G) and ``exchange`` calls on the keys it returns (a*P)."""

    def __init__(self, ec, calls: dict) -> None:
        self._ec, self._calls = ec, calls

    def __getattr__(self, name):
        return getattr(self._ec, name)

    def derive_private_key(self, scalar, curve):
        self._calls["derive_private_key"] += 1
        return _CountingKey(self._ec.derive_private_key(scalar, curve), self._calls)


class _CountingKey:
    def __init__(self, key, calls: dict) -> None:
        self._key, self._calls = key, calls

    def __getattr__(self, name):
        return getattr(self._key, name)

    def exchange(self, algorithm, peer):
        self._calls["exchange"] += 1
        return self._key.exchange(algorithm, peer)


class TestKeyAgreementDraws:
    @pytest.mark.parametrize("backend", ["toy-modp", "p256"])
    @pytest.mark.parametrize("pair", [ble_pair, bt_pair])
    def test_one_agreement_per_pairing(self, monkeypatch, backend, pair):
        calls = {"dh_agree": 0}

        def counted(name):
            inner = getattr(pairing, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pairing, name, counted(name))
        ctx = SimContext(rng=random.Random(5), dh_backend=backend)
        a = make_device(ctx, make_profile("a", 0x01))
        b = make_device(ctx, make_profile("b", 0x02))
        for runs in (1, 2):  # a first pairing, then a re-pair
            assert not pair(ctx, a, b).aborted
            assert calls == {"dh_agree": runs}

    @pytest.fixture
    def p256_calls(self, monkeypatch):
        backend = get_backend("p256")
        calls = {"derive_private_key": 0, "exchange": 0}
        monkeypatch.setattr(backend, "_ec", _CountingEc(backend._ec, calls))
        return calls

    def test_p256_agreement_is_one_scalar_multiplication(self, p256_calls):
        for seed in range(4):
            dh_agree(random.Random(seed), "p256")
            assert p256_calls == {"derive_private_key": seed + 1, "exchange": 0}

    @pytest.mark.parametrize("pair", [ble_pair, bt_pair])
    def test_p256_pairing_is_one_scalar_multiplication(self, p256_calls, pair):
        ctx = SimContext(rng=random.Random(5), dh_backend="p256")
        a = make_device(ctx, make_profile("a", 0x01))
        b = make_device(ctx, make_profile("b", 0x02))
        assert not pair(ctx, a, b).aborted
        assert p256_calls == {"derive_private_key": 1, "exchange": 0}

"""Protocol engine: both pairing flows, sessions, atomicity, state machine."""

import pytest

from conftest import device, make_profile
from reference import ref_ble_to_bt, ref_bt_to_ble

from ctkdsim.crypto import TRANSPORT_BLE, TRANSPORT_BT
from ctkdsim.device import Association, KeyOrigin
from ctkdsim.pairing import (
    PairingSession,
    PairingState,
    ble_pair,
    bt_pair,
    build_pairing_request,
    establish_session,
    make_device,
    negotiate_association,
)
from ctkdsim.policies import PolicySet, RejectionReason
from ctkdsim.smp import IoCapability, KeyMaterial
from ctkdsim.crypto import Key128


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


class TestBlePairing:
    def test_honest_ctkd_pairing_keys_both_transports(self, ctx, laptop, headset):
        session = ble_pair(ctx, laptop, headset)
        assert session.complete
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
        assert session.complete and not session.negotiated.ctkd
        assert no_ctkd.bonds.lookup(laptop.address, TRANSPORT_BLE) is not None
        assert no_ctkd.bonds.lookup(laptop.address, TRANSPORT_BT) is None

    def test_h7_requires_both_sides(self, ctx, laptop):
        legacy = device(ctx, "legacy", 0x52, io="NoInputNoOutput", h7_supported=False)
        session = ble_pair(ctx, laptop, legacy)
        assert session.complete
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
        assert laptop.bonds.lookup(headset.address, TRANSPORT_BLE).extra_keys.irk == headset.irk
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BLE).extra_keys.csrk == laptop.csrk


class TestBtPairing:
    def test_honest_ctkd_pairing_keys_both_transports(self, ctx, laptop, headset):
        session = bt_pair(ctx, laptop, headset)
        assert session.complete and session.negotiated.ctkd
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
        assert ble_rec.extra_keys == KeyMaterial(headset.csrk, headset.irk)

    def test_repair_as_master_after_slave_bond_without_c2(self, ctx, laptop, headset):
        # First pairing: laptop initiates, headset records it as master.
        bt_pair(ctx, laptop, headset)
        # Role switch: headset comes back as the initiator (master).
        session = bt_pair(ctx, headset, laptop)
        assert session.complete

    def test_c2_aborts_role_switched_repairing(self, ctx, laptop):
        guarded = device(ctx, "guarded", 0x56, io="NoInputNoOutput",
                         policies=PolicySet(c2_role_binding=True))
        bt_pair(ctx, laptop, guarded)
        snap_guarded = guarded.bonds.snapshot()
        snap_laptop = laptop.bonds.snapshot()
        session = bt_pair(ctx, guarded, laptop)
        assert session.aborted
        assert session.abort_reason is RejectionReason.C2_ROLE_MISMATCH
        # Atomicity: neither table moved.
        assert guarded.bonds.records == snap_guarded
        assert laptop.bonds.records == snap_laptop

    def test_without_ctkd_only_bt_keyed(self, ctx, laptop, headset):
        session = bt_pair(ctx, laptop, headset, want_ctkd=False)
        assert session.complete and not session.negotiated.ctkd
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BT) is not None
        assert headset.bonds.lookup(laptop.address, TRANSPORT_BLE) is None


class TestAbortAtomicity:
    def test_store_rejection_rolls_back_everything(self, ctx, laptop):
        # Guarded device already bonded on both transports; a re-pairing
        # whose derived write C3 rejects must leave no trace in any table.
        guarded = device(ctx, "fort", 0x57, io="NoInputNoOutput",
                         policies=PolicySet(c3_no_cross_overwrite=True))
        first = ble_pair(ctx, laptop, guarded)
        assert first.complete
        snap_guarded = guarded.bonds.snapshot()
        snap_laptop = laptop.bonds.snapshot()
        second = ble_pair(ctx, laptop, guarded)
        assert second.aborted
        assert second.abort_reason is RejectionReason.C3_OVERWRITE_BLOCK
        assert guarded.bonds.records == snap_guarded
        assert laptop.bonds.records == snap_laptop

    def test_c4_aborts_before_any_key_work(self, ctx):
        a = device(ctx, "nc-a", 0x58)
        strict = device(ctx, "nc-b", 0x59, policies=PolicySet(c4_association_monotonic=True))
        assert ble_pair(ctx, a, strict).complete  # NC bond
        jw_request = build_pairing_request(make_profile("nc-a", 0x58, io="NoInputNoOutput"))
        session = ble_pair(ctx, a, strict, jw_request)
        assert session.aborted
        assert session.abort_reason is RejectionReason.C4_ASSOCIATION_DOWNGRADE
        assert session.nonces is None  # aborted before the DH stage


class TestStateMachine:
    def test_states_progress_in_order(self, ctx, laptop, headset):
        session = ble_pair(ctx, laptop, headset)
        assert session.state is PairingState.COMPLETE

    def test_cannot_regress(self):
        session = PairingSession(None, None, TRANSPORT_BLE)
        session.advance(PairingState.RESPONDED)
        with pytest.raises(ValueError):
            session.advance(PairingState.REQUESTED)

    def test_aborted_is_terminal(self):
        session = PairingSession(None, None, TRANSPORT_BLE)
        session.abort(RejectionReason.NOT_PAIRABLE)
        with pytest.raises(ValueError):
            session.advance(PairingState.COMPLETE)


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
        from dataclasses import replace

        headset.bonds.records[(laptop.address, TRANSPORT_BT)] = replace(
            rec, key=Key128(bytes([0xEE]) * 16)
        )
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
    def test_fresh_nonces_every_run(self, ctx, laptop, headset):
        seen = set()
        for _ in range(20):
            session = ble_pair(ctx, laptop, headset)
            n_i, n_r = session.nonces
            assert n_i.value not in seen and n_r.value not in seen
            seen.add(n_i.value)
            seen.add(n_r.value)

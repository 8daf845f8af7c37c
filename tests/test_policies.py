"""Defense-policy decision functions and the c1 pairability tick."""

from dataclasses import fields

from conftest import device
from test_device import record

from ctkdsim.device import Association, KeyOrigin, PairingRole
from ctkdsim.pairing import establish_session
from ctkdsim.policies import (
    DEFENSES,
    PolicySet,
    RejectionReason,
    c1_tick,
    c2_check,
    c3_check,
    c4_check,
    evaluate,
    sig51_check,
)


class TestSig51:
    def test_mitm_downgrade_rejected(self):
        assert sig51_check(record(mitm=True), record(mitm=False, key_byte=0x42)) is RejectionReason.MITM_DOWNGRADE

    def test_strength_downgrade_rejected(self):
        assert sig51_check(record(strength=16), record(strength=7, key_byte=0x42)) is RejectionReason.STRENGTH_DOWNGRADE

    def test_equal_protection_allowed(self):
        assert sig51_check(record(mitm=False), record(mitm=False, key_byte=0x42)) is None

    def test_upgrade_allowed(self):
        assert sig51_check(record(mitm=False), record(mitm=True, key_byte=0x42)) is None

    def test_no_existing_key_allowed(self):
        assert sig51_check(None, record()) is None


class TestC2:
    def test_prior_slave_incoming_master_rejected(self):
        assert c2_check(record(role=PairingRole.SLAVE), PairingRole.MASTER) is RejectionReason.C2_ROLE_MISMATCH

    def test_no_prior_bond_allowed(self):
        assert c2_check(None, PairingRole.MASTER) is None

    def test_matching_role_allowed(self):
        assert c2_check(record(role=PairingRole.MASTER), PairingRole.MASTER) is None


class TestC3:
    def test_derived_key_onto_keyed_transport_rejected(self):
        incoming = record(transport="BT", origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert c3_check(record(transport="BT"), incoming) is RejectionReason.C3_OVERWRITE_BLOCK

    def test_weak_repairing_input_disables_derivation(self):
        prior_direct = record(transport="BLE", mitm=True)
        incoming = record(transport="BT", mitm=False, origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert c3_check(None, incoming, prior_direct) is RejectionReason.C3_WEAK_INPUT_BLOCK

    def test_equal_repairing_key_derives(self):
        incoming = record(transport="BT", origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert c3_check(None, incoming, record(transport="BLE")) is None

    def test_fresh_peer_allowed(self):
        assert c3_check(None, record(origin=KeyOrigin.CTKD_DERIVED)) is None

    def test_direct_repairing_not_gated(self):
        assert c3_check(record(transport="BT"), record(transport="BT", key_byte=0x42)) is None


class TestC4:
    def test_stored_nc_incoming_jw_rejected(self):
        assert c4_check(record(mitm=True), Association.JUST_WORKS) is RejectionReason.C4_ASSOCIATION_DOWNGRADE

    def test_upgrade_allowed(self):
        assert c4_check(record(mitm=False), Association.NUMERIC_COMPARISON) is None

    def test_no_history_allowed(self):
        assert c4_check(None, Association.JUST_WORKS) is None


class TestEvaluate:
    def test_baseline_never_rejects(self):
        incoming = record(mitm=False, origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert evaluate(PolicySet(), record(mitm=True), incoming) is None

    def test_sig51_allows_equal_protection_attack_write(self):
        incoming = record(mitm=False, key_byte=0x42)
        assert evaluate(PolicySet(sig51=True), record(mitm=False), incoming) is None

    def test_c3_rejects_the_same_equal_protection_write(self):
        incoming = record(mitm=False, origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert evaluate(PolicySet(c3=True), record(mitm=False), incoming) is RejectionReason.C3_OVERWRITE_BLOCK

    def test_pure_given_same_inputs(self):
        existing = record(mitm=True)
        incoming = record(mitm=False, key_byte=0x42)
        policy = PolicySet(sig51=True, c4=True)
        assert evaluate(policy, existing, incoming) == evaluate(policy, existing, incoming)


class TestC1Tick:
    def test_fresh_device_turned_off(self, ctx):
        dev = device(ctx, "fresh", 0x41, policies=PolicySet(c1=True))
        assert c1_tick(dev, "BT") and c1_tick(dev, "BLE")
        assert not dev.is_pairable("BT") and not dev.is_pairable("BLE")

    def test_direct_bond_keeps_pairable(self, ctx):
        dev = device(ctx, "bonded", 0x42, policies=PolicySet(c1=True))
        peer = device(ctx, "peer", 0x47)
        dev.bonds.commit(_bond_for(dev, peer), None)
        assert not c1_tick(dev, "BT")
        assert dev.is_pairable("BT")
        assert c1_tick(dev, "BLE")

    def test_derived_bond_alone_turned_off(self, ctx):
        dev = device(ctx, "derived", 0x45, policies=PolicySet(c1=True))
        peer = device(ctx, "peer", 0x47)
        dev.bonds.commit(_bond_for(dev, peer, KeyOrigin.CTKD_DERIVED), None)
        assert c1_tick(dev, "BT")
        assert not dev.is_pairable("BT")

    def test_live_session_keeps_pairable(self, ctx):
        # Derived bonds on both sides, so only the session counts as use.
        a = device(ctx, "a", 0x43, policies=PolicySet(c1=True))
        b = device(ctx, "b", 0x44)
        a.bonds.commit(_bond_for(a, b, KeyOrigin.CTKD_DERIVED), None)
        b.bonds.commit(_bond_for(b, a, KeyOrigin.CTKD_DERIVED), None)
        assert establish_session(ctx, a, b, "BT").ok
        assert not c1_tick(a, "BT")
        assert a.is_pairable("BT")

    def test_disabled_policy_never_fires(self, ctx):
        dev = device(ctx, "off", 0x46)
        assert not c1_tick(dev, "BT") and not c1_tick(dev, "BLE")
        assert dev.is_pairable("BT") and dev.is_pairable("BLE")


def test_policy_set_fields_are_the_defenses():
    assert tuple(f.name for f in fields(PolicySet)) == DEFENSES


def _bond_for(owner, peer, origin=KeyOrigin.DIRECT_PAIRING):
    from ctkdsim.crypto import Key128
    from ctkdsim.device import KeyRecord

    return KeyRecord(
        peer=peer.address,
        transport="BT",
        key=Key128(bytes([0x50]) * 16),
        origin=origin,
        association=Association.JUST_WORKS,
        role_at_pairing=PairingRole.MASTER,
    )

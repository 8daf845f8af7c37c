"""Defense-policy decision functions and the idle-pairability tick."""

import pytest

from conftest import device
from test_device import record

from ctkdsim.device import Association, BondTable, KeyOrigin, PairingRole, StoreContext
from ctkdsim.pairing import establish_session
from ctkdsim.policies import (
    PolicySet,
    PolicyVerdict,
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
        verdict = sig51_check(record(mitm=True), record(mitm=False, key_byte=0x42))
        assert not verdict.allow and verdict.reason is RejectionReason.MITM_DOWNGRADE

    def test_strength_downgrade_rejected(self):
        verdict = sig51_check(record(strength=16), record(strength=7, key_byte=0x42))
        assert not verdict.allow and verdict.reason is RejectionReason.STRENGTH_DOWNGRADE

    def test_equal_protection_allowed(self):
        assert sig51_check(record(mitm=False), record(mitm=False, key_byte=0x42)).allow

    def test_upgrade_allowed(self):
        assert sig51_check(record(mitm=False), record(mitm=True, key_byte=0x42)).allow

    def test_no_existing_key_allowed(self):
        assert sig51_check(None, record()).allow


class TestC2:
    def test_prior_slave_incoming_master_rejected(self):
        verdict = c2_check(record(role=PairingRole.SLAVE), PairingRole.MASTER, "BT")
        assert not verdict.allow and verdict.reason is RejectionReason.C2_ROLE_MISMATCH

    def test_no_prior_bond_allowed(self):
        assert c2_check(None, PairingRole.MASTER, "BT").allow

    def test_matching_role_allowed(self):
        assert c2_check(record(role=PairingRole.MASTER), PairingRole.MASTER, "BT").allow


class TestC3:
    def test_derived_key_onto_keyed_transport_rejected(self):
        table = BondTable()
        table.commit(record(transport="BT"))
        incoming = record(transport="BT", origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        verdict = c3_check(table, incoming)
        assert not verdict.allow and verdict.reason is RejectionReason.C3_OVERWRITE_BLOCK

    def test_weak_repairing_input_disables_derivation(self):
        table = BondTable()
        prior_direct = record(transport="BLE", mitm=True)
        incoming = record(transport="BT", origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        source = record(transport="BLE", mitm=False, key_byte=0x42)
        verdict = c3_check(table, incoming, ctkd_source=source, prior_direct=prior_direct)
        assert not verdict.allow and verdict.reason is RejectionReason.C3_WEAK_INPUT_BLOCK

    def test_fresh_peer_allowed(self):
        assert c3_check(BondTable(), record(origin=KeyOrigin.CTKD_DERIVED)).allow

    def test_direct_repairing_not_gated(self):
        table = BondTable()
        table.commit(record(transport="BT"))
        assert c3_check(table, record(transport="BT", key_byte=0x42)).allow


class TestC4:
    def test_stored_nc_incoming_jw_rejected(self):
        verdict = c4_check(record(mitm=True), Association.JUST_WORKS)
        assert not verdict.allow and verdict.reason is RejectionReason.C4_ASSOCIATION_DOWNGRADE

    def test_upgrade_allowed(self):
        assert c4_check(record(mitm=False), Association.NUMERIC_COMPARISON).allow

    def test_no_history_allowed(self):
        assert c4_check(None, Association.JUST_WORKS).allow


class TestEvaluate:
    def _context(self, table, incoming, **kw):
        return StoreContext(
            table=table,
            existing=table.lookup(incoming.peer, incoming.transport),
            incoming=incoming,
            **kw,
        )

    def test_baseline_never_rejects(self):
        table = BondTable()
        table.commit(record(mitm=True))
        incoming = record(mitm=False, origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        assert evaluate(PolicySet(), self._context(table, incoming)).allow

    def test_sig51_allows_equal_protection_attack_write(self):
        table = BondTable()
        table.commit(record(mitm=False))
        incoming = record(mitm=False, key_byte=0x42)
        assert evaluate(PolicySet(sig51_rule=True), self._context(table, incoming)).allow

    def test_c3_rejects_the_same_equal_protection_write(self):
        table = BondTable()
        table.commit(record(mitm=False))
        incoming = record(mitm=False, origin=KeyOrigin.CTKD_DERIVED, key_byte=0x42)
        verdict = evaluate(
            PolicySet(c3_no_cross_overwrite=True), self._context(table, incoming)
        )
        assert not verdict.allow and verdict.reason is RejectionReason.C3_OVERWRITE_BLOCK

    def test_pure_given_same_inputs(self):
        table = BondTable()
        table.commit(record(mitm=True))
        incoming = record(mitm=False, key_byte=0x42)
        policy = PolicySet(sig51_rule=True, c4_association_monotonic=True)
        first = evaluate(policy, self._context(table, incoming))
        second = evaluate(policy, self._context(table, incoming))
        assert first == second

    def test_version_gating_skips_old_devices(self):
        table = BondTable()
        table.commit(record(mitm=True))
        incoming = record(mitm=False, key_byte=0x42)
        gated = PolicySet(sig51_rule=True, sig51_version_gated=True)
        assert evaluate(gated, self._context(table, incoming, bt_version="5.0")).allow
        verdict = evaluate(gated, self._context(table, incoming, bt_version="5.1"))
        assert not verdict.allow

    def test_rejecting_verdict_needs_reason(self):
        with pytest.raises(ValueError):
            PolicyVerdict(False)


class TestC1Tick:
    def test_idle_transport_auto_disabled(self, ctx):
        dev = device(ctx, "idle", 0x41, policies=PolicySet(c1_auto_pairable=True, c1_idle_threshold=10))
        assert c1_tick(dev, "BLE", event_clock=10)
        assert not dev.is_pairable("BLE")

    def test_below_threshold_unchanged(self, ctx):
        dev = device(ctx, "busy", 0x42, policies=PolicySet(c1_auto_pairable=True, c1_idle_threshold=10))
        dev.note_activity("BLE", 5)
        assert not c1_tick(dev, "BLE", event_clock=9)
        assert dev.is_pairable("BLE")

    def test_live_session_keeps_pairable(self, ctx):
        a = device(ctx, "a", 0x43, policies=PolicySet(c1_auto_pairable=True, c1_idle_threshold=1))
        b = device(ctx, "b", 0x44)
        a.bonds.commit(_bond_for(a, b))
        b.bonds.commit(_bond_for(b, a))
        assert establish_session(ctx, a, b, "BT").ok
        assert not c1_tick(a, "BT", event_clock=10_000)
        assert a.is_pairable("BT")

    def test_manual_reenable_sticks(self, ctx):
        dev = device(ctx, "manual", 0x45, policies=PolicySet(c1_auto_pairable=True, c1_idle_threshold=1))
        assert c1_tick(dev, "BLE", event_clock=100)
        assert not dev.is_pairable("BLE")
        dev.set_pairable("BLE", True)  # user flips it back on
        assert not c1_tick(dev, "BLE", event_clock=10_000)
        assert dev.is_pairable("BLE")

    def test_disabled_policy_never_fires(self, ctx):
        dev = device(ctx, "off", 0x46)
        assert not c1_tick(dev, "BLE", event_clock=10_000)
        assert dev.is_pairable("BLE")


def _bond_for(owner, peer):
    from ctkdsim.crypto import Key128
    from ctkdsim.device import KeyRecord

    return KeyRecord(
        peer=peer.address,
        transport="BT",
        key=Key128(bytes([0x50]) * 16),
        origin=KeyOrigin.DIRECT_PAIRING,
        association=Association.JUST_WORKS,
        role_at_pairing=PairingRole.MASTER,
    )

"""Profiles, bond records, and the key store with its policy verdicts."""

import pytest

from conftest import device, make_profile

from ctkdsim.crypto import Address, Key128
from ctkdsim.device import (
    Association,
    BondTable,
    DeviceProfile,
    KeyOrigin,
    KeyRecord,
    PairingRole,
)
from ctkdsim.policies import PolicySet, RejectionReason


def record(peer_last=0x99, transport="BT", strength=16, mitm=False,
           association=None, origin=KeyOrigin.DIRECT_PAIRING,
           role=PairingRole.MASTER, key_byte=0x41):
    association = association or (
        Association.NUMERIC_COMPARISON if mitm else Association.JUST_WORKS
    )
    return KeyRecord(
        peer=Address(bytes([0x02, 0, 0, 0, 0, peer_last])),
        transport=transport,
        key=Key128(bytes([key_byte]) * 16, strength, mitm),
        origin=origin,
        association=association,
        role_at_pairing=role,
    )


class TestDeviceProfile:
    def test_ctkd_needs_modern_version(self):
        with pytest.raises(ValueError, match="4.2"):
            make_profile("old", 1, bt_version="4.1")

    def test_backport_flag_lifts_version_floor(self):
        profile = make_profile("old", 1, bt_version="4.1", ctkd_backported=True)
        assert profile.ctkd_supported

    def test_ctkd_needs_secure_connections(self):
        with pytest.raises(ValueError, match="Secure Connections"):
            make_profile("nosc", 1, sc_host=False, sc_controller=False)

    def test_controller_only_sc_counts(self):
        profile = make_profile("bob", 1, sc_host=False, sc_controller=True)
        assert profile.sc_supported

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            DeviceProfile.from_dict(
                {"address": "02:00:00:00:00:01", "name": "x", "bt_version": "5.0",
                 "io_capability": "DisplayYesNo", "radio_power": 9},
                "test",
            )

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="bt_version"):
            DeviceProfile.from_dict(
                {"address": "02:00:00:00:00:01", "name": "x", "io_capability": "DisplayYesNo"},
                "test",
            )

    def test_round_trips_through_dict(self):
        profile = make_profile("rt", 7, io="NoInputNoOutput", bt_version="5.2", max_key_size=12)
        assert DeviceProfile.from_dict(profile.to_dict(), "rt") == profile


class TestKeyRecord:
    def test_mitm_flag_must_mirror_association(self):
        with pytest.raises(ValueError, match="mitm"):
            KeyRecord(
                peer=Address(bytes(6)),
                transport="BT",
                key=Key128(bytes(16), 16, mitm_protected=True),
                origin=KeyOrigin.DIRECT_PAIRING,
                association=Association.JUST_WORKS,
                role_at_pairing=PairingRole.MASTER,
            )

    def test_transport_validated(self):
        with pytest.raises(ValueError, match="transport"):
            record(transport="UART")


class TestBondTable:
    def test_store_into_empty_table_always_allowed(self):
        table = BondTable()
        rec = record()
        verdict = table.evaluate_store(rec, PolicySet(sig51_rule=True, c3_no_cross_overwrite=True))
        assert verdict.allow
        assert not table.commit(rec).overwrote

    def test_lookup_after_store(self):
        table = BondTable()
        rec = record()
        table.commit(rec)
        assert table.lookup(rec.peer, "BT") == rec
        assert table.lookup(rec.peer, "BLE") is None

    def test_unknown_peer_is_none(self):
        assert BondTable().lookup(Address(bytes(6)), "BT") is None

    def test_overwrite_replaces_and_old_key_is_gone(self):
        table = BondTable()
        old = record(key_byte=0x41)
        new = record(key_byte=0x42)
        table.commit(old)
        assert table.commit(new).overwrote
        assert table.lookup(new.peer, "BT").key.value == bytes([0x42]) * 16
        assert len(table.records) == 1  # (peer, transport) uniqueness

    def test_sig51_blocks_mitm_downgrade(self):
        table = BondTable()
        table.commit(record(mitm=True))
        verdict = table.evaluate_store(record(mitm=False, key_byte=0x42), PolicySet(sig51_rule=True))
        assert not verdict.allow
        assert verdict.reason is RejectionReason.MITM_DOWNGRADE

    def test_sig51_allows_equal_protection_overwrite(self):
        table = BondTable()
        table.commit(record(mitm=False))
        new = record(mitm=False, key_byte=0x42)
        assert table.evaluate_store(new, PolicySet(sig51_rule=True)).allow
        assert table.commit(new).overwrote

    def test_rejection_leaves_table_unchanged(self):
        table = BondTable()
        old = record(mitm=True)
        table.commit(old)
        snap = table.snapshot()
        verdict = table.evaluate_store(record(mitm=False, key_byte=0x42), PolicySet(sig51_rule=True))
        assert not verdict.allow
        assert table.records == snap


class TestPairability:
    def test_pairable_despite_not_discoverable(self, ctx):
        dev = device(ctx, "hidden", 0x31, discoverable=False)
        assert dev.is_pairable("BLE") and dev.is_pairable("BT")

    def test_set_pairable_toggles(self, ctx):
        dev = device(ctx, "togg", 0x32)
        dev.set_pairable("BT", False)
        assert not dev.is_pairable("BT")
        assert dev.is_pairable("BLE")

    def test_default_dual_mode_is_pairable_everywhere(self, ctx):
        dev = device(ctx, "dflt", 0x33)
        assert dev.is_pairable("BT") and dev.is_pairable("BLE")

    def test_identity_keys_are_distinct_per_device(self, ctx):
        a = device(ctx, "a", 0x34)
        b = device(ctx, "b", 0x35)
        assert a.csrk.value != b.csrk.value
        assert a.irk.value != b.irk.value

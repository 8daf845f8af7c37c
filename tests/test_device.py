"""Profiles, bond records, and the key store with its policy verdicts."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from conftest import device, make_profile

from ctkdsim.crypto import Address, Key128
from ctkdsim.device import (
    BT_VERSIONS,
    Association,
    BondTable,
    DeviceProfile,
    KeyOrigin,
    KeyRecord,
    PairingRole,
)
from ctkdsim import pairing
from ctkdsim.pairing import (
    build_bt_pairing_request,
    build_pairing_request,
    build_pairing_response,
    honest,
    read_frame,
)
from ctkdsim.policies import PolicySet, RejectionReason, evaluate
from ctkdsim.smp import OPCODE_REQUEST, OPCODE_RESPONSE, IoCapability


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

    @pytest.mark.parametrize("version", BT_VERSIONS)
    def test_ctkd_version_floor_is_4_2(self, version):
        def build():
            return DeviceProfile(Address(bytes(6)), "old", version, IoCapability.DISPLAY_YES_NO)
        if version == "4.1":
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == "old: CTKD requires version >= 4.2 (set ctkd_backported for older)"
        else:
            assert build().ctkd_supported

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


def _profile(address=0x01, name="p", bt_version="5.0", io=IoCapability.DISPLAY_YES_NO, **caps):
    return DeviceProfile(Address(bytes([0x02, 0, 0, 0, 0, address])), name, bt_version, io, **caps)


#: One change to each field an honest message reads, from ``_profile()``'s values.
CAPABILITY_CHANGES = {
    "io_capability": {"io": IoCapability.KEYBOARD_ONLY},
    "sc": {"sc_host": False, "sc_controller": False, "ctkd_backported": True},
    "h7_supported": {"h7_supported": False},
    "max_key_size": {"max_key_size": 7},
    "ctkd_supported": {"ctkd_supported": False},
}

#: Every kind of honest message as ``honest``'s (build, arg); the response answers ``REQUEST``, the
#: request frame's text its responder reads.
REQUEST = honest(build_pairing_request, _profile(0x09), True)
HONEST_MESSAGES = [
    (build_pairing_request, True),
    (build_pairing_request, False),
    (build_pairing_response, REQUEST),
    (build_bt_pairing_request, OPCODE_REQUEST),
    (build_bt_pairing_request, OPCODE_RESPONSE),
]


class TestCapabilities:
    """``DeviceProfile.capabilities`` keys ``pairing.honest``; it is not part of the profile's value."""

    @given(
        address=st.integers(0, 255),
        name=st.text(max_size=8),
        bt_version=st.sampled_from(BT_VERSIONS[1:]),
        io=st.sampled_from(IoCapability),
        max_key_size=st.integers(7, 16),
        h7=st.booleans(),
    )
    def test_address_name_and_version_share_one_honest_entry(self, address, name, bt_version, io,
                                                              max_key_size, h7):
        caps = {"io": io, "max_key_size": max_key_size, "h7_supported": h7}
        base = _profile(**caps)
        other = _profile(address, name, bt_version, **caps)
        assert other.capabilities == base.capabilities
        for build, arg in HONEST_MESSAGES:
            first = honest(build, base, arg)
            entries = len(pairing._FRAMES)
            assert honest(build, other, arg) is first
            assert len(pairing._FRAMES) == entries

    @pytest.mark.parametrize("change", list(CAPABILITY_CHANGES))
    def test_a_capability_change_gets_its_own_entry(self, change):
        base = _profile()
        other = _profile(**CAPABILITY_CHANGES[change])
        assert other.capabilities != base.capabilities
        for build, arg in HONEST_MESSAGES:
            assert honest(build, other, arg) is not honest(build, base, arg)
            assert read_frame(honest(build, other, arg)) == build(other, arg)
        # The in-band request carries every capability field, so its frame differs too.
        assert honest(build_pairing_request, other, True) != honest(build_pairing_request, base, True)

    def test_capabilities_are_not_part_of_the_value(self):
        profile = _profile()
        object.__setattr__(profile, "capabilities", "stale")  # only the declared fields may count
        fresh = _profile()
        assert profile == fresh and hash(profile) == hash(fresh)
        assert repr(profile) == repr(fresh) and "capabilities" not in repr(fresh)
        assert profile != _profile(**CAPABILITY_CHANGES["h7_supported"])

    def test_replace_recomputes_the_capabilities(self):
        profile = _profile()
        changed = dataclasses.replace(profile, max_key_size=7)
        assert changed.capabilities == _profile(max_key_size=7).capabilities != profile.capabilities

    def test_capabilities_are_not_a_scenario_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            DeviceProfile.from_dict(
                {"address": "02:00:00:00:00:01", "name": "x", "bt_version": "5.0",
                 "io_capability": "DisplayYesNo", "capabilities": [1, True, True, 16, True]},
                "test",
            )


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


def store_verdict(table, incoming, policy):
    """The reason that denies writing ``incoming`` into ``table``, or None."""
    return evaluate(policy, table.lookup(incoming.peer, incoming.transport), incoming)


def store(table, incoming):
    """Commit ``incoming`` as pairing does, with the record it replaces looked up first."""
    return table.commit(incoming, table.lookup(incoming.peer, incoming.transport))


class TestBondTable:
    def test_store_into_empty_table_always_allowed(self):
        table = BondTable()
        rec = record()
        assert store_verdict(table, rec, PolicySet(sig51=True, c3=True)) is None
        assert not store(table, rec).overwrote

    def test_lookup_after_store(self):
        table = BondTable()
        rec = record()
        store(table, rec)
        assert table.lookup(rec.peer, "BT") == rec
        assert table.lookup(rec.peer, "BLE") is None

    @given(st.binary(min_size=6, max_size=6))
    def test_lookup_by_an_equal_but_distinct_address(self, value):
        table = BondTable()
        rec = record()._replace(peer=Address(value))
        store(table, rec)
        twin = Address(bytes(rec.peer.value))
        assert twin is not rec.peer
        assert table.lookup(twin, "BT") is rec
        assert store(table, rec._replace(peer=twin)).overwrote
        assert len(table.records) == 1

    def test_unknown_peer_is_none(self):
        assert BondTable().lookup(Address(bytes(6)), "BT") is None

    def test_overwrite_replaces_and_old_key_is_gone(self):
        table = BondTable()
        old = record(key_byte=0x41)
        new = record(key_byte=0x42)
        store(table, old)
        assert store(table, new).overwrote
        assert table.lookup(new.peer, "BT").key.value == bytes([0x42]) * 16
        assert len(table.records) == 1  # (peer, transport) uniqueness

    def test_sig51_blocks_mitm_downgrade(self):
        table = BondTable()
        store(table, record(mitm=True))
        reason = store_verdict(table, record(mitm=False, key_byte=0x42), PolicySet(sig51=True))
        assert reason is RejectionReason.MITM_DOWNGRADE

    def test_sig51_allows_equal_protection_overwrite(self):
        table = BondTable()
        store(table, record(mitm=False))
        new = record(mitm=False, key_byte=0x42)
        assert store_verdict(table, new, PolicySet(sig51=True)) is None
        assert store(table, new).overwrote

    def test_rejection_leaves_table_unchanged(self):
        table = BondTable()
        old = record(mitm=True)
        store(table, old)
        snap = dict(table.records)
        assert store_verdict(table, record(mitm=False, key_byte=0x42), PolicySet(sig51=True)) is not None
        assert table.records == snap


class TestPairability:
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
        assert a.key_material.csrk.value != b.key_material.csrk.value
        assert a.key_material.irk.value != b.key_material.irk.value

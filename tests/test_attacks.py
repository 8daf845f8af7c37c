"""The four attacks, their outcomes, and the issue-mapping table."""

import random

import pytest

from conftest import BUNDLED, attack_requests, device

from ctkdsim import attacks
from ctkdsim.attacks import (
    CTI,
    Requirement,
    cti_map,
    derive_ctis,
    master_impersonation,
    mitm,
    slave_impersonation,
    unintended_session,
)
from ctkdsim.crypto import TRANSPORT_BLE, TRANSPORT_BT, TRANSPORTS, Address
from ctkdsim.device import Association, KeyOrigin
from ctkdsim.pairing import SimContext, bt_pair, establish_session
from ctkdsim.policies import PolicySet, RejectionReason
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.trace import TraceEvent, emit_trace, read_trace


def bonded_victims(ctx, *, alice_policies=None, bob_policies=None, live="BT",
                   alice_io="DisplayYesNo", bob_io="NoInputNoOutput",
                   bob_overrides=None):
    """Alice (master) and Bob (slave) paired over BT, running one session."""
    alice = device(ctx, "alice", 0x0A, io=alice_io, policies=alice_policies)
    bob = device(ctx, "bob", 0x0B, io=bob_io, policies=bob_policies,
                 **(bob_overrides or {}))
    session = bt_pair(ctx, alice, bob)
    assert not session.aborted
    assert establish_session(ctx, alice, bob, live).ok
    return alice, bob


class TestMasterImpersonation:
    def test_baseline_takeover(self, ctx):
        alice, bob = bonded_victims(ctx)
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.succeeded
        assert outcome.overwrote_existing
        assert outcome.victim_reconnect == "key_mismatch"
        assert set(outcome.keys_written) == {
            (str(bob.address), TRANSPORT_BLE, "direct_pairing"),
            (str(bob.address), TRANSPORT_BT, "ctkd_derived"),
        }

    def test_victim_records_now_hold_attacker_keys(self, ctx):
        alice, bob = bonded_victims(ctx)
        old_bt = bob.bonds.lookup(alice.address, TRANSPORT_BT).key.value
        master_impersonation(ctx, bob, alice)
        new_bt = bob.bonds.lookup(alice.address, TRANSPORT_BT).key.value
        assert new_bt != old_bt
        assert bob.bonds.lookup(alice.address, TRANSPORT_BT).origin is KeyOrigin.CTKD_DERIVED

    def test_ctis_match_required_row(self, ctx):
        alice, bob = bonded_victims(ctx)
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.ctis_used == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}

    def test_sig51_does_not_block_equal_protection(self, ctx):
        alice, bob = bonded_victims(ctx, bob_policies=PolicySet(sig51=True))
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.succeeded

    def test_c3_blocks(self, ctx):
        alice, bob = bonded_victims(ctx, bob_policies=PolicySet(c3=True))
        outcome = master_impersonation(ctx, bob, alice)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.C3_OVERWRITE_BLOCK
        assert outcome.victim_reconnect == "not_attempted"

    def test_works_against_numeric_comparison_victims(self, ctx):
        # Both victims confirm-capable, bonded with Numeric Comparison; the
        # attacker downgrades the association in-protocol and still wins.
        alice, bob = bonded_victims(ctx, bob_io="DisplayYesNo")
        assert bob.bonds.lookup(alice.address, TRANSPORT_BT).association \
            is Association.NUMERIC_COMPARISON
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.succeeded
        assert CTI.ASSOCIATION_MANIPULATION in outcome.ctis_used

    def test_sig51_blocks_the_nc_downgrade_variant(self, ctx):
        alice, bob = bonded_victims(
            ctx, bob_io="DisplayYesNo", bob_policies=PolicySet(sig51=True)
        )
        outcome = master_impersonation(ctx, bob, alice)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.MITM_DOWNGRADE

    def test_exploitable_even_if_impersonated_peer_lacks_ctkd(self, ctx):
        # The claimed identity never negotiated CTKD; the target supports it,
        # so the attacker's own claim is all that matters.
        alice = device(ctx, "alice", 0x0A, ctkd_supported=False)
        bob = device(ctx, "bob", 0x0B, io="NoInputNoOutput")
        assert not bt_pair(ctx, alice, bob, ctkd=False).aborted
        assert bob.bonds.lookup(alice.address, TRANSPORT_BLE) is None
        assert establish_session(ctx, alice, bob, TRANSPORT_BT).ok
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.succeeded
        assert bob.bonds.lookup(alice.address, TRANSPORT_BLE) is not None

    def test_failed_bt_takeover_does_not_skip_the_ble_one(self, ctx):
        # Without CTKD on the target the attack keys only BLE; the BT
        # takeover fails, and the BLE one must still be attempted.
        alice, bob = bonded_victims(ctx, bob_overrides={"ctkd_supported": False})
        start = ctx.trace.clock
        outcome = master_impersonation(ctx, bob, alice)
        assert not outcome.succeeded
        assert outcome.keys_written == [(str(bob.address), TRANSPORT_BLE, "direct_pairing")]
        sessions = [
            (e.kind, e.payload["transport"], e.payload.get("reason"))
            for e in ctx.trace.events[start:]
            if e.kind in ("session_ok", "session_fail") and e.actor == str(alice.address)
            and e.payload["peer"] == str(bob.address)
        ]
        assert sessions == [
            ("session_fail", TRANSPORT_BT, "no_bond"),  # takeover, BT
            ("session_ok", TRANSPORT_BLE, None),  # takeover, BLE
            ("session_ok", TRANSPORT_BT, None),  # the real alice: her BT bond is untouched
        ]
        assert outcome.victim_reconnect == "ok"

    def test_no_comeback_when_the_claimed_peer_never_bonded(self, ctx):
        # Bob never bonded with alice: the attack writes fresh records, and the
        # real alice has no bond to come back with.
        alice = device(ctx, "alice", 0x0A)
        bob = device(ctx, "bob", 0x0B, io="NoInputNoOutput")
        outcome = master_impersonation(ctx, bob, alice)
        assert outcome.succeeded
        assert not outcome.overwrote_existing
        assert outcome.victim_reconnect == "not_attempted"
        assert outcome.ctis_used == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}
        assert outcome.keys_written == [
            (str(bob.address), TRANSPORT_BLE, "direct_pairing"),
            (str(bob.address), TRANSPORT_BT, "ctkd_derived"),
        ]


class TestSlaveImpersonation:
    def test_baseline_takeover(self, ctx):
        alice, bob = bonded_victims(ctx, live="BLE")
        outcome = slave_impersonation(ctx, alice, bob)
        assert outcome.succeeded
        assert outcome.overwrote_existing
        assert outcome.victim_reconnect == "key_mismatch"
        assert set(outcome.keys_written) == {
            (str(alice.address), TRANSPORT_BT, "direct_pairing"),
            (str(alice.address), TRANSPORT_BLE, "ctkd_derived"),
        }

    def test_ctis_include_role_asymmetry(self, ctx):
        alice, bob = bonded_victims(ctx, live="BLE")
        outcome = slave_impersonation(ctx, alice, bob)
        assert outcome.ctis_used == {
            CTI.EXTENDED_PAIRING, CTI.ROLE_ASYMMETRY, CTI.KEY_TAMPERING,
        }

    def test_c2_blocks_with_role_mismatch(self, ctx):
        alice, bob = bonded_victims(
            ctx, live="BLE", alice_policies=PolicySet(c2=True)
        )
        outcome = slave_impersonation(ctx, alice, bob)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.C2_ROLE_MISMATCH

    def test_c3_blocks(self, ctx):
        alice, bob = bonded_victims(
            ctx, live="BLE", alice_policies=PolicySet(c3=True)
        )
        outcome = slave_impersonation(ctx, alice, bob)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.C3_OVERWRITE_BLOCK


class TestMitm:
    def test_baseline_controls_both_victims(self, ctx):
        alice, bob = bonded_victims(ctx, live="BLE")
        outcome = mitm(ctx, alice, bob)
        assert outcome.succeeded
        assert outcome.victim_reconnect == "key_mismatch"
        # Both victims' stores now point at attacker keys.
        victims_written = {k[0] for k in outcome.keys_written}
        assert victims_written == {str(alice.address), str(bob.address)}
        assert outcome.ctis_used == {
            CTI.EXTENDED_PAIRING, CTI.ROLE_ASYMMETRY, CTI.KEY_TAMPERING,
        }

    def test_c3_fails_the_first_leg(self, ctx):
        policies = PolicySet(c3=True)
        alice, bob = bonded_victims(ctx, live="BLE", alice_policies=policies,
                                    bob_policies=policies)
        outcome = mitm(ctx, alice, bob)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.C3_OVERWRITE_BLOCK

    def test_one_failed_leg_fails_the_composition(self, ctx):
        alice, bob = bonded_victims(ctx, live="BLE")
        # Force the second leg (against bob over BLE) to fail.
        bob.set_pairable(TRANSPORT_BLE, False)
        outcome = mitm(ctx, alice, bob)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.NOT_PAIRABLE
        # The outcome merges the legs that ran: only the first leg's two writes on
        # alice, the issues both legs fired, and no comeback after a failed leg.
        assert outcome.to_dict() == {
            "succeeded": False,
            "keys_written": [
                [str(alice.address), TRANSPORT_BT, "direct_pairing"],
                [str(alice.address), TRANSPORT_BLE, "ctkd_derived"],
            ],
            "overwrote_existing": True,
            "victim_reconnect": "not_attempted",
            "ctis_used": [1, 2, 3],
            "rejection": "not_pairable",
        }

    def test_leg_order_follows_live_transport(self, ctx):
        # BT session live: the master leg opens, so the first attack message
        # is a BLE pairing request at bob.
        alice, bob = bonded_victims(ctx, live="BT")
        start = ctx.trace.clock
        outcome = mitm(ctx, alice, bob)
        assert outcome.succeeded
        first_msg = next(e for e in ctx.trace.events[start:] if e.kind == "msg_sent")
        assert first_msg.payload["transport"] == TRANSPORT_BLE

    def test_the_role_check_reads_the_victims_record_not_the_first_attackers(self, ctx):
        # Bob started the BT bond, so alice's record says bob was the master, and c2 lets a BT
        # request claiming bob through. The master leg opens (BT is live): its attacker, claiming
        # alice, stores a record of bob with bob as the slave, which is no record of alice's.
        alice = device(ctx, "alice", 0x0A, policies=PolicySet(c2=True))
        bob = device(ctx, "bob", 0x0B, io="NoInputNoOutput")
        assert not bt_pair(ctx, bob, alice).aborted
        assert establish_session(ctx, alice, bob, TRANSPORT_BT).ok
        outcome = mitm(ctx, alice, bob)
        assert outcome.succeeded and outcome.rejection is None
        assert outcome.ctis_used == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}


class TestUnintendedSession:
    def test_baseline_stealth_bond(self, ctx):
        alice, bob = bonded_victims(ctx)
        before = dict(bob.bonds.records)
        outcome = unintended_session(ctx, bob, alice)
        assert outcome.succeeded
        assert not outcome.overwrote_existing
        # Pre-existing bonds byte-identical, and still functional.
        assert all(bob.bonds.records[k] == v for k, v in before.items())
        assert outcome.victim_reconnect == "ok"

    def test_attacker_gets_victim_identity_keys(self, ctx):
        alice, bob = bonded_victims(ctx)
        start = ctx.trace.clock
        outcome = unintended_session(ctx, bob, alice)
        assert outcome.succeeded
        # The fresh identity is whatever address sent the first attack frame.
        first = next(e for e in ctx.trace.events[start:] if e.kind == "msg_sent")
        assert first.actor not in (str(alice.address), str(bob.address))

    def test_attacker_key_stored_event_carries_victim_identity_keys(self, ctx):
        alice, bob = bonded_victims(ctx)
        start = ctx.trace.clock
        assert unintended_session(ctx, bob, alice).succeeded
        victims = (str(alice.address), str(bob.address))
        stored = [
            e.payload for e in ctx.trace.events[start:]
            if e.kind == "key_stored" and e.actor not in victims
            and e.payload["transport"] == TRANSPORT_BLE
        ]
        assert len(stored) == 1
        assert stored[0]["peer"] == str(bob.address)
        assert stored[0]["extra_keys"] == {"csrk": bob.key_material.csrk.hex(), "irk": bob.key_material.irk.hex()}

    def test_claiming_a_bonded_identity_overwrites_and_fails(self, ctx):
        # The victim's BLE bond for alice is replaced, so its bonds are not untouched.
        alice, bob = bonded_victims(ctx)
        outcome = unintended_session(ctx, bob, alice, identity=alice.address)
        assert outcome.overwrote_existing
        assert not outcome.succeeded

    def test_ctis_exclude_association_manipulation(self, ctx):
        alice, bob = bonded_victims(ctx)
        outcome = unintended_session(ctx, bob, alice)
        assert outcome.ctis_used == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}

    def test_c1_blocks_when_idle_transport_disabled(self, ctx):
        alice, bob = bonded_victims(ctx, bob_policies=PolicySet(c1=True))
        from ctkdsim.policies import c1_tick

        for transport in (TRANSPORT_BT, TRANSPORT_BLE):
            c1_tick(bob, transport)
        outcome = unintended_session(ctx, bob, alice)
        assert not outcome.succeeded
        assert outcome.rejection is RejectionReason.NOT_PAIRABLE

    def test_sig51_is_out_of_scope_for_key_writes(self, ctx):
        alice, bob = bonded_victims(ctx, bob_policies=PolicySet(sig51=True))
        outcome = unintended_session(ctx, bob, alice)
        assert outcome.succeeded

    def test_fixed_fresh_identity(self, ctx):
        from ctkdsim.crypto import Address

        alice, bob = bonded_victims(ctx)
        fresh = Address.parse("02:ff:ff:ff:ff:01")
        outcome = unintended_session(ctx, bob, alice, identity=fresh)
        assert outcome.succeeded
        assert bob.bonds.lookup(fresh, TRANSPORT_BT) is not None


class TestCtiMap:
    def test_master_impersonation_row(self):
        row = cti_map("mi")
        assert row[CTI.EXTENDED_PAIRING] is Requirement.REQUIRED
        assert row[CTI.ROLE_ASYMMETRY] is Requirement.NOT_NEEDED
        assert row[CTI.KEY_TAMPERING] is Requirement.REQUIRED
        assert row[CTI.ASSOCIATION_MANIPULATION] is Requirement.SOMETIMES

    def test_slave_impersonation_row(self):
        row = cti_map("si")
        assert row[CTI.ROLE_ASYMMETRY] is Requirement.REQUIRED

    def test_mitm_row(self):
        row = cti_map("mitm")
        assert [row[c] for c in CTI] == [
            Requirement.REQUIRED, Requirement.REQUIRED,
            Requirement.REQUIRED, Requirement.SOMETIMES,
        ]

    def test_unintended_session_row(self):
        row = cti_map("us")
        assert row[CTI.ROLE_ASYMMETRY] is Requirement.SOMETIMES
        assert row[CTI.ASSOCIATION_MANIPULATION] is Requirement.NOT_NEEDED

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            cti_map("dos")


def outcome_satisfies_map(outcome, strategy):
    row = cti_map(strategy)
    for cti, need in row.items():
        if need is Requirement.REQUIRED and cti not in outcome.ctis_used:
            return False
        if need is Requirement.NOT_NEEDED and cti in outcome.ctis_used:
            return False
    return True


class TestStandardCompliance:
    def test_every_baseline_attack_matches_its_cti_row(self, ctx):
        alice, bob = bonded_victims(ctx, live="BLE")
        outcome = slave_impersonation(ctx, alice, bob)
        assert outcome_satisfies_map(outcome, "si")

        ctx2 = SimContext(rng=random.Random(11))
        alice2, bob2 = bonded_victims(ctx2)
        outcome2 = master_impersonation(ctx2, bob2, alice2)
        assert outcome_satisfies_map(outcome2, "mi")


class TestDeriveCtisFromDisk:
    """``derive_ctis`` on a trace read back from its file equals it on the live events."""

    def test_every_bundled_trace_replays_the_same(self, monkeypatch, tmp_path):
        starts = []

        def recorded(events, *, attack_start):
            starts.append(attack_start)
            return derive_ctis(events, attack_start=attack_start)

        monkeypatch.setattr(attacks, "derive_ctis", recorded)
        fired = set()
        for path in BUNDLED:
            starts.clear()
            result = run_scenario(load_scenario(path))
            assert len(starts) == 1, path.name  # one replay per attack
            live = result.trace
            out = tmp_path / f"{path.stem}.jsonl"
            emit_trace(live, out)
            on_disk = read_trace(out)
            assert on_disk == live
            replays = {start: derive_ctis(live, attack_start=start) for start in (starts[0], 0)}
            assert {start: derive_ctis(on_disk, attack_start=start) for start in replays} == replays, path.name
            assert replays[starts[0]].ctis == result.outcome.ctis_used, path.name
            fired |= result.outcome.ctis_used
        assert fired == set(CTI)  # the comparison covers every issue firing

    def test_nothing_before_the_first_attack_request_counts(self, own):
        # Every pre-state but mi-peer-without-ctkd's stores CTKD-derived keys; none of them counts.
        for path, result in zip(BUNDLED, own):
            assert derive_ctis(result.trace, attack_start=len(result.trace)).ctis == frozenset(), path.name

    def test_the_replayed_bonds_are_the_live_devices(self, own, lattice):
        # Each bond as (owner, peer, transport) -> (key, origin, role), in the live table and the replay.
        for result in [*own, *(result for results in lattice.values() for result in results)]:
            live = {(device.address.text, record.peer.text, record.transport):
                    (record.key.hex(), record.origin.value, record.role_at_pairing.value)
                    for device in result.devices.values() for record in device.bonds.records.values()}
            replayed = {bond: (p["key"], p["origin"], p["role"]) for bond, p in _replay(result).bonds.items()}
            assert replayed == live, result.scenario.name

    def test_the_replayed_sessions_are_the_live_devices(self, own, lattice):
        # Each end (owner, peer, transport) -> live, for every device and every peer a device or the replay
        # names: a peer may be an identity only the attacker claimed.
        for result in [*own, *(result for results in lattice.values() for result in results)]:
            devices = {device.address.text: device for device in result.devices.values()}
            sessions = _replay(result).sessions
            assert {owner for (owner, _, _), live in sessions.items() if live} <= set(devices), result.scenario.name
            peers = {*devices, *(peer for _, peer, _ in sessions)}
            live = {(owner, peer, transport): device.has_live_session(transport, Address.parse(peer))
                    for owner, device in devices.items() for peer in peers - {owner} for transport in TRANSPORTS}
            assert {end: sessions.get(end, False) for end in live} == live, result.scenario.name

    def test_the_attackers_session_is_live_only_at_the_target(self, own):
        # The attacker claims companion-laptop's address and opens a session with the target on each transport.
        # Its replayed keys differ from companion-laptop's, so only the target's end goes live; a state keyed by
        # the address pair would call companion-laptop live on both transports.
        result = next(run for path, run in zip(BUNDLED, own) if path.stem == "00__cypress-cyw920819evb02__mi")
        assert result.outcome.succeeded and result.outcome.victim_reconnect == "key_mismatch"
        target, laptop = result.devices["cypress-cyw920819evb02"], result.devices["companion-laptop"]
        sessions = _replay(result).sessions
        for transport in TRANSPORTS:
            assert target.has_live_session(transport, laptop.address)
            assert sessions[(target.address.text, laptop.address.text, transport)]
            assert not laptop.has_live_session(transport)
            assert not sessions.get((laptop.address.text, target.address.text, transport), False)


def _replay(result):
    """``derive_ctis`` over ``result``'s trace, its attack starting at the attack's first pairing request."""
    requests = attack_requests(result)
    return derive_ctis(result.trace, attack_start=requests[0].index if requests else len(result.trace))


def _request(index, receiver, sender, tunneled=False):
    return TraceEvent(index, receiver, "msg_received", {"transport": TRANSPORT_BT, "peer": sender, "frame": "",
                                                        "opcode": "request", "tunneled": tunneled})


def _derived(index, owner, peer, role="master"):
    return TraceEvent(index, owner, "key_stored", {"transport": TRANSPORT_BLE, "peer": peer, "origin": "ctkd_derived",
                                                   "association": "just_works", "role": role, "overwrote": False})


class TestDeriveCtisAttackPairings:
    """The latest non-tunneled request at or after the start names the target and the claimed identity."""

    def test_only_the_target_storing_under_the_claimed_identity_counts(self):
        events = [_request(0, "target", "claimed"), _derived(1, "claimed", "target"), _derived(2, "target", "other")]
        assert derive_ctis(events, attack_start=0).ctis == {CTI.EXTENDED_PAIRING}
        assert derive_ctis(events + [_derived(3, "target", "claimed")], attack_start=0).ctis \
            == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}

    def test_the_next_request_moves_the_target(self):
        events = [_request(0, "first", "a"), _request(1, "second", "b"), _derived(2, "first", "a")]
        assert CTI.KEY_TAMPERING not in derive_ctis(events, attack_start=0).ctis

    def test_tunneled_and_earlier_requests_name_no_target(self):
        events = [_request(0, "target", "claimed"), _request(1, "target", "claimed", tunneled=True),
                  _derived(2, "target", "claimed")]
        assert derive_ctis(events, attack_start=1).ctis == frozenset()

    def test_a_store_by_the_claimed_identity_is_the_attackers_and_skipped(self):
        # "alice"'s own record of "bob" says bob was the master; an attacker claiming alice then
        # stores its record of bob as "alice", and a BT request claiming bob reaches alice.
        alice_bond = _derived(0, "alice", "bob")
        events = [alice_bond, _request(1, "bob", "alice"), _derived(2, "alice", "bob", role="slave"),
                  _derived(3, "bob", "alice"), _request(4, "alice", "bob")]
        replay = derive_ctis(events, attack_start=1)
        assert replay.bonds == {("alice", "bob", TRANSPORT_BLE): alice_bond.payload,
                                ("bob", "alice", TRANSPORT_BLE): events[3].payload}
        assert replay.keys_written == (("bob", TRANSPORT_BLE, "ctkd_derived"),)
        assert replay.ctis == {CTI.EXTENDED_PAIRING, CTI.KEY_TAMPERING}  # alice's real record: no role asymmetry

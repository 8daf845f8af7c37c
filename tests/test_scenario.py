"""Scenario loading, deterministic execution, matrix aggregation, CLI."""

import ast
import dataclasses
import functools
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st
from conftest import BUNDLED, BUNDLED_COUNT, matrix_runs, reference_run

from ctkdsim import scenario as scenario_module
from ctkdsim.cli import main as cli_main
from ctkdsim.crypto import Address, get_backend, random_address, random_nonce
from ctkdsim.fixtures import bundled_profiles, matrix_scenarios, write_matrix
from ctkdsim.pairing import SimContext
from ctkdsim.policies import DEFENSE_SUBSETS, DEFENSES, PolicySet, RejectionReason
from ctkdsim.scenario import (
    AttackSpec,
    MatrixReport,
    Scenario,
    ScenarioError,
    load_scenario,
    minimal_blocking_sets,
    run_lattice,
    run_matrix,
    run_scenario,
)
from ctkdsim.trace import read_trace

ROOT = Path(__file__).resolve().parent.parent


def scenario_dict(**overrides):
    base = {
        "name": "mini",
        "seed": 1234,
        "devices": [
            {
                "profile": {
                    "address": "02:00:00:00:0a:01",
                    "name": "alice",
                    "bt_version": "5.1",
                    "io_capability": "DisplayYesNo",
                }
            },
            {
                "profile": {
                    "address": "02:00:00:00:0a:02",
                    "name": "bob",
                    "bt_version": "5.0",
                    "io_capability": "NoInputNoOutput",
                }
            },
        ],
        "pre_state": [
            {"action": "pair", "transport": "BT", "initiator": "alice", "responder": "bob"},
            {"action": "session", "transport": "BT", "initiator": "alice", "responder": "bob"},
        ],
        "attack": {"strategy": "mi", "target": "bob", "peer": "alice"},
        "expectations": {
            "succeeded": True,
            "overwrote_existing": True,
            "victim_reconnect": "key_mismatch",
        },
    }
    base.update(overrides)
    return base


def _with_step(scenario, index, **fields):
    """``scenario`` with the fields of its pre-state step ``index`` replaced, through ``dataclasses.replace``."""
    steps = list(scenario.pre_state)
    steps[index] = steps[index]._replace(**fields)
    return dataclasses.replace(scenario, pre_state=tuple(steps))


#: The run-time error of ``_session_before_pairing``, under any policies.
NO_BOND = "bad: pre_state[0] session failed (no_bond)"


def _session_before_pairing():
    """A valid Scenario whose pre-state fails at run time: ``scenario_dict``'s two steps swapped,
    so its session opens before the devices have paired."""
    scenario = Scenario.from_dict(scenario_dict(name="bad"))
    return dataclasses.replace(scenario, pre_state=scenario.pre_state[::-1])


#: The ``keys_written`` of ``scenario_dict``'s attack, as ``AttackOutcome.to_dict`` lists them.
KEYS_WRITTEN = [["02:00:00:00:0a:02", "BLE", "direct_pairing"], ["02:00:00:00:0a:02", "BT", "ctkd_derived"]]


def _with_lists():
    """``scenario_dict`` with string ``meta`` and the list-valued expectations its attack meets."""
    raw = scenario_dict(meta={"device": "bob", "note": "lists"})
    raw["expectations"].update(ctis_used=[1, 3], keys_written=[list(key) for key in KEYS_WRITTEN])
    return raw


def _mutable_parts(value):
    """Every dict, list or set inside ``value``, through tuples and the compared fields of dataclasses."""
    if isinstance(value, (dict, list, set)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _mutable_parts(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.compare:
                yield from _mutable_parts(getattr(value, f.name))


def _containers(value):
    """Every object and list inside a JSON document, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


class TestLoading:
    def test_valid_scenario_loads(self):
        scenario = Scenario.from_dict(scenario_dict())
        assert scenario.attack.strategy == "mi"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "seed": }')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_unknown_strategy(self):
        raw = scenario_dict()
        raw["attack"]["strategy"] = "dos"
        with pytest.raises(ScenarioError, match="strategy"):
            Scenario.from_dict(raw)

    def test_unknown_device_reference(self):
        raw = scenario_dict()
        raw["attack"]["target"] = "mallory"
        with pytest.raises(ScenarioError, match="mallory"):
            Scenario.from_dict(raw)

    def test_unknown_profile_field_flagged_with_path(self):
        raw = scenario_dict()
        raw["devices"][0]["profile"]["antenna"] = 3
        with pytest.raises(ScenarioError, match=r"devices\[0\]"):
            Scenario.from_dict(raw)

    def test_pre_state_validation(self):
        raw = scenario_dict()
        raw["pre_state"][0]["transport"] = "NFC"
        with pytest.raises(ScenarioError, match="transport"):
            Scenario.from_dict(raw)

    @pytest.mark.parametrize("entropy", [3, 17, "16", 12.5, True])
    def test_session_entropy_must_be_a_key_size(self, entropy):
        raw = scenario_dict()
        raw["pre_state"][1]["entropy"] = entropy
        with pytest.raises(ScenarioError, match=r"pre_state\[1\]: entropy"):
            Scenario.from_dict(raw)

    def test_session_entropy_in_range_loads(self):
        raw = scenario_dict()
        raw["pre_state"][1]["entropy"] = 7
        assert Scenario.from_dict(raw).pre_state[1].entropy == 7

    @pytest.mark.parametrize("ctkd", ["no", 0, None])
    def test_pair_ctkd_must_be_a_bool(self, ctkd):
        raw = scenario_dict()
        raw["pre_state"][0]["ctkd"] = ctkd
        with pytest.raises(ScenarioError, match=r"pre_state\[0\]: ctkd"):
            Scenario.from_dict(raw)

    @pytest.mark.parametrize("index, field", [(0, "bogus"), (0, "entropy"), (1, "ctkd")])
    def test_step_field_its_action_does_not_read(self, index, field):
        raw = scenario_dict()
        raw["pre_state"][index][field] = 1
        with pytest.raises(ScenarioError, match=rf"pre_state\[{index}\]: unknown field.*{field}"):
            Scenario.from_dict(raw)

    def test_attacker_address_is_the_unintended_session_identity(self):
        raw = scenario_dict(expectations={})
        raw["attack"] = {"strategy": "us", "target": "bob", "attacker_address": "02:00:00:00:0b:01"}
        result = run_scenario(Scenario.from_dict(raw))
        assert "02:00:00:00:0b:01" in {event.actor for event in result.trace}

    def test_no_field_of_a_loaded_scenario_can_be_assigned(self):
        scenario = Scenario.from_dict(scenario_dict())
        assert type(scenario.devices) is type(scenario.pre_state) is tuple
        for value in (scenario, scenario.devices[0], scenario.attack):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(AttributeError):
            scenario.pre_state[0].transport = "NFC"

    def test_equal_loads_are_equal_and_hash_equal(self):
        for path in BUNDLED:
            scenario, again = load_scenario(path), load_scenario(path)
            assert scenario == again and hash(scenario) == hash(again), path.name
            assert dataclasses.replace(scenario) == scenario and hash(dataclasses.replace(scenario)) == hash(scenario)
        assert len({load_scenario(path) for path in BUNDLED * 2}) == len(BUNDLED)

    def test_no_run_path_reads_a_dict_from_a_scenario(self):
        """Nothing a run reads from a Scenario, every field but the snapshot cache, holds a dict, list or
        set at any depth; ``expectations`` and ``meta`` are ``(field, value)`` pairs."""
        for path in BUNDLED:
            scenario = load_scenario(path)
            assert not list(_mutable_parts(scenario)), path.name
            for pairs in (scenario.expectations, scenario.meta):
                assert isinstance(pairs, tuple) and all(len(pair) == 2 for pair in pairs)
        scenario = Scenario.from_dict(_with_lists())
        assert scenario.meta == (("device", "bob"), ("note", "lists"))
        assert dict(scenario.expectations)["ctis_used"] == (1, 3)
        assert dict(scenario.expectations)["keys_written"] == tuple(map(tuple, KEYS_WRITTEN))
        assert not list(_mutable_parts(scenario))

    def test_a_replaced_dict_is_frozen_as_a_loaded_one(self):
        scenario = Scenario.from_dict(_with_lists())
        raw = _with_lists()
        replaced = dataclasses.replace(scenario, meta=raw["meta"], expectations=raw["expectations"])
        assert replaced == scenario and hash(replaced) == hash(scenario)
        assert replaced.expectations == scenario.expectations and not list(_mutable_parts(replaced))

    def test_missing_seed(self):
        raw = scenario_dict()
        del raw["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            Scenario.from_dict(raw)


class TestRunScenario:
    def test_expectations_checked(self):
        result = run_scenario(Scenario.from_dict(scenario_dict()))
        assert result.expectations_ok, result.expectation_failures

    def test_expectation_mismatch_reported(self):
        raw = scenario_dict()
        raw["expectations"]["succeeded"] = False
        result = run_scenario(Scenario.from_dict(raw))
        assert not result.expectations_ok
        assert any("succeeded" in f for f in result.expectation_failures)

    @pytest.mark.parametrize("pre_state", [None, "aborts with every defense on"], ids=["fork", "reference"])
    def test_an_override_run_checks_no_expectation(self, pre_state):
        raw = scenario_dict()
        raw["expectations"]["succeeded"] = False  # a mismatch under the scenario's own policies
        if pre_state:  # a second CTKD pairing of the same two devices, which c3 refuses
            step = {"action": "pair", "transport": "BT", "initiator": "alice", "responder": "bob"}
            raw["pre_state"] = [step, {**step, "transport": "BLE"}]
        scenario = Scenario.from_dict(raw)
        assert run_scenario(scenario).expectations_ok is False
        for _ in range(2):  # both fork the snapshot the first run took, or both take the reference path
            result = run_scenario(scenario, policy_override=PolicySet())
            assert result.expectation_failures is None
            assert result.expectations_ok is None
        assert run_scenario(scenario).expectations_ok is False

    @pytest.mark.parametrize("field, expected", [
        ("ctis_used", [1]), ("ctis_used", [3, 1, 2]), ("keys_written", KEYS_WRITTEN[:1]),
        ("keys_written", KEYS_WRITTEN * 2),
    ])
    def test_a_list_mismatch_prints_lists_as_json_loads_them(self, field, expected):
        """A mismatch prints the expected value as JSON loads it, though the Scenario keeps it frozen."""
        raw = scenario_dict()
        raw["expectations"][field] = expected
        result = run_scenario(Scenario.from_dict(raw))
        actual = result.outcome.to_dict()[field]
        assert result.expectation_failures == [f"{field}: expected {expected!r}, got {actual!r}"]

    def test_lists_match_in_any_order(self):
        raw = scenario_dict()
        raw["expectations"].update(ctis_used=[3, 1, 3], keys_written=KEYS_WRITTEN[::-1])
        assert run_scenario(Scenario.from_dict(raw)).expectation_failures == []

    def test_same_seed_identical_traces(self):
        scenario = Scenario.from_dict(scenario_dict())
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.trace_digest() == second.trace_digest()
        assert [e.to_json() for e in first.trace] == [e.to_json() for e in second.trace]

    def test_seed_override_changes_key_material(self):
        scenario = Scenario.from_dict(scenario_dict())
        first = run_scenario(scenario)
        second = run_scenario(dataclasses.replace(scenario, seed=999))
        keys_first = [e.payload["key"] for e in first.trace if e.kind == "key_stored"]
        keys_second = [e.payload["key"] for e in second.trace if e.kind == "key_stored"]
        assert keys_first != keys_second

    def test_policy_override_applies_to_every_device(self):
        scenario = Scenario.from_dict(scenario_dict())
        result = run_scenario(scenario, policy_override=PolicySet(c3=True))
        assert not result.outcome.succeeded
        assert result.outcome.rejection.value == "c3_overwrite_block"


    @pytest.mark.parametrize("step_ctkd", [False, None], ids=["ctkd-false", "ctkd-default"])
    @pytest.mark.parametrize("transport", ["BLE", "BT"])
    def test_pre_state_pairing_bonds_the_expected_transports(self, transport, step_ctkd):
        step = {"action": "pair", "transport": transport, "initiator": "alice", "responder": "bob"}
        if step_ctkd is not None:
            step["ctkd"] = step_ctkd
        # The attack bonds under an identity of its own, so alice's and bob's
        # bonds with each other are the pre-state's.
        raw = scenario_dict(
            pre_state=[step],
            attack={"strategy": "us", "target": "bob", "attacker_address": "02:00:00:00:0a:09"},
            expectations={},
        )
        result = run_scenario(Scenario.from_dict(raw))
        alice, bob = result.devices["alice"], result.devices["bob"]
        expected = {transport} if step_ctkd is False else {"BT", "BLE"}
        for device, peer in ((alice, bob), (bob, alice)):
            bonded = {t for t in ("BT", "BLE") if device.bonds.lookup(peer.address, t) is not None}
            assert bonded == expected, device.name


class TestBundledFixtures:
    def test_sixteen_profiles_cover_all_versions(self):
        profiles = bundled_profiles()
        victims = {n: p for n, p in profiles.items() if not n.startswith("companion-")}
        assert len(victims) == 16
        assert {p.bt_version for p in victims.values()} == {"4.1", "4.2", "5.0", "5.1", "5.2"}

    def test_backported_profile_is_the_41_one(self):
        profiles = bundled_profiles()
        old = [p for p in profiles.values() if p.bt_version == "4.1"]
        assert len(old) == 1 and old[0].ctkd_backported

    def test_matrix_has_64_scenarios(self):
        scenarios = matrix_scenarios()
        assert len(scenarios) == 64
        strategies = [s.attack.strategy for s in scenarios]
        assert strategies.count("mi") == strategies.count("si") == 16
        assert strategies.count("mitm") == strategies.count("us") == 16

    def test_write_matrix_round_trips(self, tmp_path):
        paths = write_matrix(tmp_path)
        assert len(paths) == 64
        loaded = [load_scenario(p) for p in sorted(paths)]
        assert [s.name for s in loaded] == [s.name for s in matrix_scenarios()]
        # The committed matrix is exactly what the generator writes today.
        committed = sorted((ROOT / "scenarios" / "matrix").glob("*.json"))
        assert [p.name for p in committed] == [p.name for p in sorted(paths)]
        for generated, on_disk in zip(sorted(paths), committed):
            assert generated.read_bytes() == on_disk.read_bytes(), on_disk.name

    def test_profiles_reproduce_observed_authreq_bytes(self):
        # The confirm-capable 5.1 laptop and the no-IO legacy headset emit
        # the AuthReq values seen on real hardware: 0x2d/0x09 on LE,
        # 0x03/0x02 on the BT auth-requirements scale.
        from ctkdsim.pairing import build_pairing_request
        from ctkdsim.smp import encode_bt_auth_req, encode_pairing

        profiles = bundled_profiles()
        laptop = profiles["lenovo-x1-7th-gen"]
        headset = profiles["sony-wh-ch700n"]
        assert encode_pairing(build_pairing_request(laptop))[3] == 0x2D
        assert encode_pairing(build_pairing_request(headset))[3] == 0x09
        assert encode_bt_auth_req(True, laptop.wants_mitm) == 0x03
        assert encode_bt_auth_req(True, headset.wants_mitm) == 0x02


class TestRunMatrix:
    def test_empty_list_is_empty_success(self):
        report = run_matrix([])
        assert report.total == 0
        assert report.all_expected
        assert "(no scenarios)" in report.render_text()

    def test_totals_equal_sum_of_scenarios(self):
        scenarios = matrix_scenarios()[:8]
        report = run_matrix(scenarios)
        individual = [run_scenario(s).outcome.succeeded for s in scenarios]
        assert report.succeeded == sum(individual)
        assert report.total == len(scenarios)

    def test_errors_do_not_abort_the_matrix(self):
        good = Scenario.from_dict(scenario_dict())
        bad = _session_before_pairing()
        report = run_matrix([bad, good])
        assert report.total == 1
        assert report.errors == [NO_BOND]

    def test_json_report_shape(self):
        report = run_matrix(matrix_scenarios()[:4])
        data = report.to_json_dict()
        assert data["summary"]["total"] == 4
        assert len(data["rows"]) == 4
        assert data["policies"] is None

    def test_text_table_mirrors_role_column(self):
        scenarios = [s for s in matrix_scenarios() if dict(s.meta)["device"] == "sony-wh-ch700n"]
        text = run_matrix(scenarios).render_text()
        assert "sony-wh-ch700n" in text
        assert "Master" in text


class TestCorpusInvariants:
    def test_sig51_strictly_weaker_than_c3_on_attack_corpus(self, lattice_rows):
        """Whatever the overwrite rule blocks, c3 blocks too; not vice versa."""
        matrix = _matrix_part(lattice_rows)
        blocked_sig51, blocked_c3 = (
            {row["scenario"] for row in matrix[policies].rows if not row["succeeded"]}
            for policies in (PolicySet(sig51=True), PolicySet(c3=True))
        )
        assert matrix[PolicySet()].total == 64
        assert blocked_sig51 <= blocked_c3
        assert blocked_c3 - blocked_sig51  # converse fails: equal-protection overwrites

    def test_derived_keys_match_reference_everywhere(self, baseline):
        """Corpus-wide cross-module check: every derived store equals the
        independent recomputation from its direct sibling."""
        from reference import ref_ble_to_bt, ref_bt_to_ble

        checked = 0
        for result in baseline:
            stores = [e for e in result.trace if e.kind == "key_stored"]
            for event in stores:
                if event.payload["origin"] != "ctkd_derived":
                    continue
                direct = next(
                    e for e in stores
                    if e.actor == event.actor
                    and e.payload["peer"] == event.payload["peer"]
                    and e.payload["origin"] == "direct_pairing"
                    and abs(e.index - event.index) < 12
                )
                h7 = _paired_h7(result.trace, event.index)
                convert = ref_ble_to_bt if direct.payload["transport"] == "BLE" else ref_bt_to_ble
                expected = convert(bytes.fromhex(direct.payload["key"]), h7)
                assert bytes.fromhex(event.payload["key"]) == expected
                checked += 1
        assert checked >= 64 * 2

    def test_every_key_event_consumes_exactly_one_verdict(self, baseline):
        for result in baseline:
            _assert_a_verdict_before_every_store(result)


def _assert_a_verdict_before_every_store(result) -> int:
    """Checks the run's key events and returns how many there were.

    A key event must have a pending store-stage verdict for the same
    mutation; verdicts without key events are fine (aborted runs stop
    before committing anything).
    """
    checked = 0
    pending: dict[tuple, int] = {}
    for event in result.trace:
        key = (event.actor, event.payload.get("peer"),
               event.payload.get("transport"), event.payload.get("origin"))
        if event.kind == "policy_verdict" and event.payload.get("stage") == "store":
            pending[key] = pending.get(key, 0) + 1
        elif event.kind == "key_stored":
            assert pending.get(key, 0) >= 1, (result.scenario.name, event.index)
            pending[key] -= 1
            checked += 1
    return checked


def _paired_h7(events, near_index: int) -> bool:
    """Recover the negotiated conversion branch from the nearest preceding
    pairing-message pair that carried CT2 bits (bit 5 of byte 3)."""
    from ctkdsim.smp import parse_hexdump

    bits = []
    for event in events:
        if event.index >= near_index:
            break
        if event.kind == "msg_sent" and event.payload.get("opcode") in ("request", "response"):
            frame = parse_hexdump(event.payload["frame"])
            if event.payload["transport"] == "BLE" or event.payload.get("tunneled"):
                bits.append(bool(frame[3] & 0x20))
    return len(bits) >= 2 and bits[-1] and bits[-2]


class TestExtraScenarios:
    def test_bundled_edge_cases_meet_expectations(self, own):
        extra = [(path, result) for path, result in zip(BUNDLED, own) if path.parent.name == "extra"]
        assert len(extra) == BUNDLED_COUNT - 64  # beside the matrix's 64
        for path, result in extra:
            assert result.expectations_ok, (path.name, result.expectation_failures)


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_dict()))
        trace_path = tmp_path / "out.jsonl"
        code = cli_main(["run", str(path), "--trace", str(trace_path)])
        assert code == 0
        assert read_trace(trace_path)
        assert "expectations: ok" in capsys.readouterr().out

    def test_run_expectation_mismatch_exits_1(self, tmp_path, capsys):
        raw = scenario_dict()
        raw["expectations"]["victim_reconnect"] = "ok"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 1

    def test_run_config_error_exits_2(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        assert cli_main(["run", str(path)]) == 2

    def test_run_negative_seed_override_exits_2(self, tmp_path, capsys):
        # random.Random drops the sign, so -5 would silently replay seed 5.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_dict()))
        assert cli_main(["run", str(path), "--seed", "-5"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert cli_main(["run", str(path), "--seed", "0"]) == 0

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 100_000, b'{"seed": ' + b"9" * 5000 + b"}",
    ], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
    def test_run_unparsable_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_matrix_with_policies_and_report(self, tmp_path, capsys):
        write_matrix(tmp_path / "m")
        report_path = tmp_path / "report.json"
        code = cli_main([
            "matrix", str(tmp_path / "m"),
            "--policies", "c1,c3",
            "--report", str(report_path),
        ])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["summary"]["succeeded"] == 0
        assert data["policies"] == ["c1", "c3"]

    def test_matrix_with_policies_checks_no_expectation(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert cli_main(["matrix", str(ROOT / "scenarios" / "matrix"), "--policies", "c1",
                         "--report", str(report_path)]) == 0
        rows = json.loads(report_path.read_text())["rows"]
        assert len(rows) == 64
        assert {row["expectations_ok"] for row in rows} == {None}
        # Checked, the bundled expectations would fail: c1 blocks attacks they expect to succeed.
        expected = {s.name: dict(s.expectations)["succeeded"] for s in matrix_scenarios()}
        assert any(row["succeeded"] != expected[row["scenario"]] for row in rows)

    def test_matrix_policies_long_defense_name_is_unknown_exits_2(self, capsys):
        code = cli_main(["matrix", str(ROOT / "scenarios" / "extra"), "--policies", "c1,c1_auto_pairable"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --policies: unknown field(s) ['c1_auto_pairable']")

    def test_matrix_policies_naming_no_defense_exits_2(self, capsys):
        code = cli_main(["matrix", str(ROOT / "scenarios" / "extra"), "--policies", "sig51_version_gated"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("policies", ["", ",", "none"], ids=["empty", "comma", "none"])
    def test_matrix_policies_naming_no_defense_is_the_empty_override(self, tmp_path, capsys, policies):
        """A given ``--policies`` always overrides the files' own: these name the empty set, printed as none."""
        report = tmp_path / "r.json"
        assert cli_main(["matrix", str(ROOT / "scenarios" / "extra"), "--policies", policies,
                         "--report", str(report)]) == 0
        extras = BUNDLED_COUNT - 64  # every bundled case outside the matrix's 64
        assert f"{extras}/{extras} attack runs succeeded (policies: none)\n" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["policies"] == [] and {row["expectations_ok"] for row in data["rows"]} == {None}

    def test_matrix_policies_none_with_a_defense_exits_2(self, capsys):
        assert cli_main(["matrix", str(ROOT / "scenarios" / "extra"), "--policies", "c1,none"]) == 2
        assert capsys.readouterr().err.startswith("config error: --policies: unknown field(s) ['none']")

    def test_matrix_empty_dir_exits_2(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert cli_main(["matrix", str(tmp_path / "empty")]) == 2

    def test_kdf_selftest_passes(self, capsys):
        assert cli_main(["kdf-selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_run_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_dict()))
        assert cli_main(["run", str(path), "--trace", str(tmp_path / "missing" / "t.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_matrix_unwritable_report_path_exits_2(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        assert cli_main(["matrix", str(ROOT / "scenarios" / "extra"), "--report", str(report)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_run_reads_a_utf8_scenario_under_an_ascii_locale(self, tmp_path):
        text = MUTATED.read_text(encoding="utf-8").replace('"phone"', '"café-phone"')
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
        env.update(PYTHONPATH=str(ROOT / "src"), LC_ALL="C", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "ctkdsim", "run", str(path)],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        assert done.returncode == 0, done.stderr
        assert "expectations: ok" in done.stdout

    def test_python_m_ctkdsim_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "ctkdsim", "kdf-selftest"],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        assert done.returncode == 0, done.stderr
        assert "checks passed" in done.stdout


MUTATED = ROOT / "scenarios" / "extra" / "mi-peer-without-ctkd.json"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(value, prefix=()):
    """The path of every value inside a JSON document, the document's own first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _replaced(raw, path, value):
    """``raw`` with the value at ``path`` replaced (in place; the root returns ``value``)."""
    if not path:
        return value
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return raw


def _run_cli(raw) -> tuple[int, str]:
    """``ctkdsim run`` on ``raw`` written to a file: the exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(err):
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw))
        code = cli_main(["run", str(path)])
    return code, err.getvalue()


class TestMalformedInput:
    """Each malformed file is a config error (exit 2), never a traceback or a misread."""

    @pytest.mark.parametrize("path, value", [
        (("seed",), "abc"),
        (("seed",), -5),
        (("devices",), 5),
        (("attack",), [1]),
        ((), [1]),
        (("expectations",), [1]),
        (("devices", 0), "x"),
        (("pre_state", 0), "pair"),
        (("devices", 0, "profile", "address"), 5),
        (("devices", 0, "profile", "max_key_size"), "x"),
        (("devices", 0, "policies"), {"c1_idle_threshold": "x"}),
        (("attack", "attacker_address"), "nope"),
        (("devices", 1, "profile", "address"), "02:00:00:00:0e:05"),
        (("devices", 0, "policies"), {"c3": "false"}),
        (("devices", 0, "profile", "sc_host"), "no"),
        (("devices", 0, "profile", "address"), "0x2:0:0:0:0:1"),
        (("devices", 0, "profile", "address"), " 2:+0:0_0:0:0:1"),
        (("devices", 0, "profile", "address"), "02:00:00:00:00:\u0663"),
        (("attack", "attacker_address"), "2:ff:ff:ff:ff:1"),
        (("pre_state", 0, "responder"), "legacy-speaker"),
        (("pre_state", 1, "initiator"), "phone"),
        (("attack", "peer"), "phone"),
        (("attack", "attacker_address"), "02:00:00:00:0e:07"),
        (("attack",), {"strategy": "us", "target": "phone", "peer": "legacy-speaker",
                       "attacker_address": "02:00:00:00:0E:06"}),
        (("devices", 0, "policies"), {"c1_auto_pairable": True}),
        (("devices", 0, "policies"), {"c3_no_cross_overwrite": True}),
        (("devices", 0, "profile", "pairable_bt"), True),
        (("devices", 0, "policies"), {"c1_idle_threshold": -1}),
        (("attack", "attacker_name"), "mallory"),
        (("pre_state",), [
            {"action": "pair", "transport": "BLE", "initiator": "legacy-speaker", "responder": "phone"},
            {"action": "session", "transport": "BLE", "initiator": "legacy-speaker",
             "responder": "phone", "entropy": 7},
        ]),
        (("expectations", "succeded"), True),
        (("pre_state", 0, "initiator"), "mallory"),
        (("pre_state", 1, "responder"), "mallory"),
        (("expectations", "succeeded"), 1),
        (("expectations", "overwrote_existing"), 1.0),
        (("expectations", "victim_reconnect"), True),
        (("expectations", "rejection"), 5),
        (("expectations", "ctis_used"), [True]),
        (("expectations", "ctis_used"), 5),
        (("expectations", "ctis_used"), [[1]]),
        (("expectations", "keys_written"), [1]),
        (("expectations", "keys_written"), [["02:00:00:00:0e:06", "BT"]]),
        (("expectations", "succeeded"), {"a": [1]}),
        (("meta", "note"), {"a": 1}),
        (("meta", "note"), [["a", 1]]),
    ], ids=[
        "seed-text", "seed-negative", "devices-number", "attack-list", "top-level-list", "expectations-list",
        "device-text", "step-text", "address-number", "max-key-size-text", "c1-threshold-text",
        "attacker-address-unparsable", "duplicate-address", "policy-flag-text", "profile-flag-text",
        "address-0x-prefix", "address-space-sign-underscore", "address-non-ascii-digit",
        "attacker-address-one-digit-octets",
        "pair-step-with-itself", "session-step-with-itself", "peer-is-target",
        "attacker-address-not-us", "us-attacker-address-of-listed-device",
        "policy-long-name-c1", "policy-long-name-c3", "profile-pairable-bt", "c1-threshold-negative",
        "attacker-name", "ble-session-entropy", "expectation-unknown-field",
        "step-initiator-unlisted", "step-responder-unlisted",
        "expected-succeeded-integer", "expected-overwrote-float", "expected-reconnect-bool",
        "expected-rejection-integer", "expected-cti-bool", "expected-ctis-integer", "expected-ctis-nested",
        "expected-keys-flat", "expected-key-two-strings", "expected-succeeded-object",
        "meta-object", "meta-list",
    ])
    def test_config_error_exits_2(self, path, value):
        raw = _replaced(json.loads(MUTATED.read_text()), path, value)
        with pytest.raises(ScenarioError):
            Scenario.from_dict(raw)
        code, err = _run_cli(raw)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("path, value, message", [
        (("devices", 0, "profile", "sc_host"), "no", "devices[0].profile.sc_host must be true or false"),
        (("devices", 0, "profile", "zz"), 1, "devices[0].profile: unknown field(s) ['zz']"),
        (("devices", 0, "policies"), {"c3": "false"}, "devices[0].policies.c3 must be true or false"),
        (("devices", 0, "policies"), {"zz": True}, "devices[0].policies: unknown field(s) ['zz']"),
        (("devices", 0, "zz"), 1, "devices[0]: unknown field(s) ['zz']"),
    ], ids=["profile-flag", "profile-field", "policy-flag", "policy-field", "device-field"])
    def test_an_error_names_its_object(self, path, value, message):
        """A profile's or policy set's error names it, apart from the device entry that holds it."""
        code, err = _run_cli(_replaced(json.loads(MUTATED.read_text()), path, value))
        assert code == 2 and err.startswith("config error: ")
        assert f".{message}" in err

    def test_unmutated_file_still_runs(self):
        assert _run_cli(json.loads(MUTATED.read_text()))[0] == 0

    @pytest.mark.parametrize("path, value, build, field", [
        (("seed",), -5, lambda s: dataclasses.replace(s, seed=-5), "seed"),
        (("devices", 1, "profile", "address"), "02:00:00:00:0e:05",
         lambda s: dataclasses.replace(s, devices=(s.devices[0], dataclasses.replace(
             s.devices[1], profile=dataclasses.replace(s.devices[1].profile, address=s.devices[0].profile.address)))),
         "devices[1]: address"),
        (("pre_state", 0, "responder"), "legacy-speaker",
         lambda s: s.pre_state[0]._replace(responder="legacy-speaker"), "initiator and responder"),
        (("pre_state", 1, "initiator"), "phone",
         lambda s: s.pre_state[1]._replace(initiator="phone"), "initiator and responder"),
        (("pre_state", 0, "initiator"), "mallory", lambda s: _with_step(s, 0, initiator="mallory"),
         "pre_state[0]: initiator"),
        (("pre_state", 1, "responder"), "mallory", lambda s: _with_step(s, 1, responder="mallory"),
         "pre_state[1]: responder"),
        (("pre_state", 1), {"action": "session", "transport": "BLE", "initiator": "legacy-speaker",
                            "responder": "phone", "entropy": 7},
         lambda s: s.pre_state[1]._replace(transport="BLE", entropy=7), "entropy"),
        (("attack", "peer"), "phone", lambda s: dataclasses.replace(s.attack, peer="phone"), "peer and target"),
        (("attack", "attacker_address"), "02:00:00:00:0e:07",
         lambda s: dataclasses.replace(s.attack, attacker_address=Address.parse("02:00:00:00:0e:07")),
         "attacker_address"),
        (("attack",), {"strategy": "us", "target": "phone", "peer": "legacy-speaker",
                       "attacker_address": "02:00:00:00:0E:06"},
         lambda s: dataclasses.replace(s, attack=AttackSpec("us", "phone", "legacy-speaker",
                                                            Address.parse("02:00:00:00:0E:06"))),
         "attack.attacker_address"),
        (("expectations", "succeded"), True,
         lambda s: dataclasses.replace(s, expectations=s.expectations + (("succeded", True),)), "expectations"),
        (("pre_state", 0, "transport"), "NFC", lambda s: s.pre_state[0]._replace(transport="NFC"), "transport"),
        (("attack", "strategy"), "zz", lambda s: dataclasses.replace(s.attack, strategy="zz"), "strategy"),
        (("attack", "peer"), "nobody",
         lambda s: dataclasses.replace(s, attack=dataclasses.replace(s.attack, peer="nobody")), "attack: peer"),
        (("devices",), lambda raw: raw["devices"] + raw["devices"][:1],
         lambda s: dataclasses.replace(s, devices=s.devices + s.devices[:1]), "devices[2]: name"),
        (("expectations",), {"succeeded": 1}, lambda s: dataclasses.replace(s, expectations=(("succeeded", 1),)),
         "expectations.succeeded"),
        (("expectations",), 5, lambda s: dataclasses.replace(s, expectations=5), "expectations"),
    ], ids=[
        "seed-negative", "duplicate-address", "pair-step-with-itself", "session-step-with-itself",
        "step-initiator-unlisted", "step-responder-unlisted", "ble-session-entropy", "peer-is-target",
        "attacker-address-not-us", "us-attacker-address-of-listed-device", "expectation-unknown-field",
        "step-transport-nfc", "strategy-unknown", "peer-unlisted", "device-listed-twice", "expectation-integer",
        "expectations-not-an-object",
    ])
    def test_a_replace_that_breaks_a_rule_fails_as_loading_does(self, path, value, build, field):
        """The same rule broken in the file and by ``dataclasses.replace`` or ``Step._replace`` on the
        loaded, unmutated file: both raise ``ScenarioError`` naming the same field, and the file's
        message is the replace's with the file's path before it."""
        scenario = load_scenario(MUTATED)
        with pytest.raises(ScenarioError) as replaced:
            build(scenario)
        raw = json.loads(MUTATED.read_text())
        raw = _replaced(raw, path, value(raw) if callable(value) else value)
        with pytest.raises(ScenarioError) as loaded:
            Scenario.from_dict(raw, str(MUTATED))
        assert field in str(replaced.value)
        assert str(loaded.value).startswith(str(MUTATED))
        assert str(loaded.value).endswith(str(replaced.value))
        assert _run_cli(raw)[0] == 2
        assert scenario == load_scenario(MUTATED)

    @pytest.mark.parametrize("field, value", [
        ("expectations", (("succeeded",),)), ("meta", (("x",),)), ("meta", [["a", "b", "c"]]),
    ])
    def test_a_replace_given_no_object_or_pairs_names_its_field(self, field, value):
        """Only code can give ``expectations`` or ``meta`` something that is neither an object nor
        ``(field, value)`` pairs; it is a ``ScenarioError`` naming the field, as a file's would be."""
        with pytest.raises(ScenarioError, match=f"^{field} must be a JSON object, got "):
            dataclasses.replace(load_scenario(MUTATED), **{field: value})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_one_field_replaced_loads_and_runs_or_is_a_config_error(self, data):
        path = data.draw(st.sampled_from(BUNDLED), label="scenario")
        raw = json.loads(path.read_text())
        # The scenario's own scalars reach past the type checks: names,
        # addresses, transports, strategies, key sizes in the wrong places.
        own = st.sampled_from(sorted({json.dumps(v) for v in _scalars(raw)})).map(json.loads)
        where = data.draw(st.sampled_from(list(_json_paths(raw))), label="path")
        raw = _replaced(raw, where, data.draw(JSON_VALUES | own, label="value"))
        try:
            scenario = Scenario.from_dict(raw)
        except ScenarioError:
            assert _run_cli(raw)[0] == 2
            return
        # A pre-state that fails at run time is a ScenarioError, kept in the report.
        report = run_matrix([scenario])
        report.render_text()
        json.dumps(report.to_json_dict())
        assert _run_cli(raw)[0] in (0, 1, 2)


def _scalars(value):
    """Every value inside a JSON document that is neither an object nor a list."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        yield value
        return
    for child in value:
        yield from _scalars(child)


def _attack_requests_on_unused_transports(result) -> list:
    """The attack's pairing requests that reach a device on a transport it does not use.

    The attack opens with the first pairing request after the pre-state's
    pairings. Use is read from the trace before it: a transport is in use by
    a device with a live session or a direct-pairing bond on it.
    """
    requests = [
        event for event in result.trace
        if event.kind == "msg_received" and event.payload["opcode"] == "request"
        and not event.payload["tunneled"]
    ]
    attack = requests[sum(step.action == "pair" for step in result.scenario.pre_state):]
    origins, live = {}, {}  # (device, peer, transport) -> origin; (pair, transport) -> live
    for event in result.trace[:attack[0].index]:
        payload = event.payload
        pair = (frozenset((event.actor, payload.get("peer"))), payload.get("transport"))
        if event.kind == "session_ok":
            live[pair] = True
        elif event.kind == "key_stored":
            origins[(event.actor, payload["peer"], payload["transport"])] = payload["origin"]
            if payload["overwrote"]:
                live[pair] = False

    def in_use(device: str, transport: str) -> bool:
        return any(
            d == device and t == transport and origin == "direct_pairing"
            for (d, _peer, t), origin in origins.items()
        ) or any(
            is_live and device in pair and t == transport for (pair, t), is_live in live.items()
        )

    return [event for event in attack if not in_use(event.actor, event.payload["transport"])]


def _matrix_part(lattice_rows) -> dict:
    """The sweep's reports cut to the rows of the 64 matrix scenarios, leaving out the bundled extras."""
    return {policies: MatrixReport(matrix_runs(report.rows), policies, report.errors)
            for policies, report in lattice_rows.items()}


def _outcome_row(row: dict) -> list:
    """The outcome fields of a ``run_matrix`` row or an ``AttackOutcome.to_dict()``, as
    ``bench/reference/lattice_rows.json`` holds them."""
    return [row["succeeded"], row["rejection"], row["ctis_used"]]


def _row(result) -> dict:
    """The ``run_matrix`` row of a run under a defense set, rebuilt from its ``ScenarioResult``."""
    scenario, outcome, meta = result.scenario, result.outcome.to_dict(), dict(result.scenario.meta)
    return {
        "scenario": scenario.name,
        "device": meta.get("device", scenario.name),
        "version": meta.get("bt_version"),
        "attacker_role": meta.get("attacker_role"),
        "strategy": scenario.attack.strategy,
        "succeeded": outcome["succeeded"],
        "rejection": outcome["rejection"],
        "ctis_used": outcome["ctis_used"],
        "expectations_ok": result.expectations_ok,
    }


def countermeasure_table(lattice=None) -> str:
    """README's per-attack table of minimal blocking defense sets over the 64 matrix scenarios.

    After a change that moves it, paste the output of::

        PYTHONPATH=src:tests python -c "import test_scenario; print(test_scenario.countermeasure_table(), end='')"
    """
    minimal = minimal_blocking_sets(run_lattice(matrix_scenarios()) if lattice is None else lattice)
    rows = ["| attack | minimal defense sets that block it on every matrix scenario |", "| --- | --- |"]
    rows += [f"| `{strategy}` | {' or '.join('`{' + ','.join(p.enabled_names()) + '}`' for p in sets) or 'none'} |"
             for strategy, sets in minimal.items()]
    return "\n".join(rows) + "\n"


class TestLattice:
    """``DEFENSE_SUBSETS``, ``run_lattice`` and ``minimal_blocking_sets``."""

    def test_subsets_are_in_the_bench_lattice_reference_order(self):
        rows = json.loads((ROOT / "bench" / "reference" / "lattice_rows.json").read_text())["rows"]
        assert [",".join(p.enabled_names()) or "none" for p in DEFENSE_SUBSETS] == list(rows)

    def test_the_bench_policy_names_are_the_defenses_in_order(self):
        """The bench indexes its lattice by bit over its own ``POLICY_NAMES``, so the reference rows' keys
        follow both orders. The literal is read from the source; the bench is not imported."""
        tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
        values = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(target, ast.Name) and target.id == "POLICY_NAMES" for target in node.targets)]
        assert len(values) == 1
        assert ast.literal_eval(values[0]) == DEFENSES

    def test_outcomes_equal_the_recorded_run_matrix_rows(self, lattice_rows):
        reference = json.loads((ROOT / "bench" / "reference" / "lattice_rows.json").read_text())
        for policies, report in _matrix_part(lattice_rows).items():
            assert not report.errors
            assert [row["scenario"] for row in report.rows] == reference["scenarios"]
            got = [_outcome_row(row) for row in report.rows]
            assert got == reference["rows"][",".join(policies.enabled_names()) or "none"]

    def test_rows_equal_the_full_runs_under_every_set(self, lattice_rows, lattice):
        """Every row of the sweep is the row of the same scenario's full run under the same set."""
        assert list(lattice_rows) == list(lattice) == list(DEFENSE_SUBSETS)
        for policies, report in lattice_rows.items():
            assert report.policy_override == policies and report.errors == []
            assert report.rows == [_row(result) for result in lattice[policies]]

    def test_a_sweep_builds_no_scenario_result(self, monkeypatch):
        """A sweep reads each run's outcome and nothing else: it runs every scenario under every set
        and builds no ``ScenarioResult``, so it copies no trace event."""
        built, attacks = [], []
        monkeypatch.setattr(scenario_module, "ScenarioResult", lambda *args: built.append(args))
        run_attack = scenario_module._run_attack
        monkeypatch.setattr(scenario_module, "_run_attack", lambda *args: attacks.append(args) or run_attack(*args))
        lattice = run_lattice(matrix_scenarios()[:4])
        assert built == []
        assert len(attacks) == sum(report.total for report in lattice.values()) == 4 * len(DEFENSE_SUBSETS)

    def test_a_scenario_error_is_kept_and_the_sweep_goes_on(self):
        good = Scenario.from_dict(scenario_dict())
        bad = _session_before_pairing()
        lattice = run_lattice([bad, good])
        assert list(lattice) == list(DEFENSE_SUBSETS)
        for policies, report in lattice.items():
            assert report.policy_override == policies
            assert [row["scenario"] for row in report.rows] == ["mini"]
            assert report.errors == [NO_BOND]

    def test_minimal_blocking_sets_over_the_matrix(self, lattice_rows):
        minimal = minimal_blocking_sets(_matrix_part(lattice_rows))
        assert {strategy: [p.enabled_names() for p in sets] for strategy, sets in minimal.items()} == {
            "mi": [["c1"], ["c3"]], "si": [["c2"], ["c3"]], "mitm": [["c2"], ["c3"]], "us": [["c1"]],
        }

    def test_readme_countermeasure_table_matches_the_lattice(self, lattice_rows):
        table = countermeasure_table(_matrix_part(lattice_rows))
        assert table in (ROOT / "README.md").read_text(encoding="utf-8"), (
            "README's countermeasure table differs from minimal_blocking_sets; it should read:\n" + table
        )


def _device_state(result) -> dict:
    """Per device: its bond records, its pairability, and per session every field and which
    distinct session object it is, in first-seen order, so a session both ends share shows."""
    order: dict[int, int] = {}
    state = {}
    for name, device in result.devices.items():
        sessions = [(order.setdefault(id(s), len(order)), dataclasses.astuple(s)) for s in device.sessions]
        state[name] = (dict(device.bonds.records), [device.is_pairable(t) for t in ("BT", "BLE")], sessions)
    return state


#: The run of ``scenario_dict`` whose second pairing c3 aborts: a second CTKD pairing between the
#: same two devices writes a derived key onto a keyed transport.
C3_ABORT = r"^mini: pre_state\[1\] pairing aborted \(c3_overwrite_block\)"


def _aborts_under_c3(**overrides) -> dict:
    step = {"action": "pair", "transport": "BT", "initiator": "alice", "responder": "bob"}
    return scenario_dict(pre_state=[step, {**step, "transport": "BLE"}], expectations={}, **overrides)


class TestFork:
    """Every run forks its scenario's all-defenses pre-state (``run_scenario``'s docstring)."""

    def test_a_fork_equals_the_reference_path_of_every_bundled_scenario(self):
        """Every bundled scenario under its own policies and under every set: ``BUNDLED_COUNT`` x 33
        pairs of runs, each compared as it finishes; no ``ScenarioResult`` is kept."""
        assert len(BUNDLED) == BUNDLED_COUNT
        runs = 0
        for path in BUNDLED:
            scenario = load_scenario(path)
            for policies in (None, *DEFENSE_SUBSETS):
                forked = run_scenario(scenario, policy_override=policies)
                full = reference_run(scenario, policies)
                where = (scenario.name, policies and policies.enabled_names())
                assert forked.trace_digest() == full.trace_digest(), where
                assert forked.outcome.to_dict() == full.outcome.to_dict(), where
                assert forked.expectation_failures == full.expectation_failures, where
                assert _device_state(forked) == _device_state(full), where
                runs += 1
            # One snapshot served all 33 forks; no bundled pre-state aborts with every defense on.
            assert list(scenario._snapshots) == ["toy-modp"], scenario.name
            assert None not in scenario._snapshots.values(), scenario.name
        assert runs == BUNDLED_COUNT * 33

    def test_a_sweep_writes_into_no_event_its_fork_shares(self, lattice_rows):
        """Every kept snapshot payload, and each dict inside one, made read-only: a sweep over every
        bundled scenario still gives the unwrapped sweep's rows, so no run writes into them."""
        def read_only(event):
            payload = {key: MappingProxyType(value) if type(value) is dict else value
                       for key, value in event.payload.items()}
            return event._replace(payload=MappingProxyType(payload))

        scenarios, nested = [], 0
        for path in BUNDLED:
            scenario = load_scenario(path)
            snapshot = scenario_module._snapshot(scenario, "toy-modp")
            events = tuple(map(read_only, snapshot.events))
            nested += sum(type(value) is MappingProxyType for event in events for value in event.payload.values())
            scenario._snapshots["toy-modp"] = snapshot._replace(events=events)
            scenarios.append(scenario)
        assert nested  # pre-state payloads hold dicts too, as identity key exchanges do
        with pytest.raises(TypeError):
            events[0].payload["wrecked"] = True
        assert run_lattice(scenarios) == lattice_rows

    def test_a_pre_state_that_aborts_with_every_defense_on_takes_the_reference_path(self, tmp_path, capsys):
        scenario = Scenario.from_dict(_aborts_under_c3())
        with pytest.raises(ScenarioError, match=C3_ABORT):
            reference_run(scenario, DEFENSE_SUBSETS[-1])
        none = PolicySet()
        expected = reference_run(scenario, none).trace_digest()
        for _ in range(2):
            assert run_scenario(scenario, policy_override=none).trace_digest() == expected
            with pytest.raises(ScenarioError, match=C3_ABORT):
                run_scenario(scenario, policy_override=PolicySet(c3=True))
            # Under its own policies, which turn no defense on, the run takes the reference path too.
            own = run_scenario(scenario)
            assert own.trace_digest() == expected
            assert own.expectation_failures == reference_run(scenario).expectation_failures == []
        assert scenario._snapshots == {"toy-modp": None}
        # With c3 as a device's own policy, the pre-state error is a config error naming its step.
        raw = _aborts_under_c3()
        raw["devices"][1]["policies"] = {"c3": True}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        for _ in range(2):
            assert cli_main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "pre_state[1] pairing aborted (c3_overwrite_block)" in err

    def test_a_fork_shares_no_session_with_the_snapshot_or_another_fork(self):
        """A successful mitm invalidates the pre-state's sessions; a second run forks them live."""
        scenario = load_scenario(ROOT / "scenarios" / "matrix" / "02__cypress-cyw920819evb02__mitm.json")
        for policies in (None, DEFENSE_SUBSETS[1]):  # own, and {sig51}: under both the mitm succeeds
            expected = reference_run(scenario, policies)
            first = run_scenario(scenario, policy_override=policies)
            assert first.outcome.succeeded
            assert [s for d in first.devices.values() for s in d.sessions if not s.live]
            second = run_scenario(scenario, policy_override=policies)
            assert first.trace_digest() == second.trace_digest() == expected.trace_digest()
            assert _device_state(first) == _device_state(second) == _device_state(expected)
            sessions = [{id(s) for d in r.devices.values() for s in d.sessions} for r in (first, second)]
            assert sessions[0] and not sessions[0] & sessions[1]

    def test_seeds_and_dataclasses_replace_fork_apart(self):
        scenario = Scenario.from_dict(scenario_dict())
        reseeded = [dataclasses.replace(scenario, seed=seed) for seed in (1, 2, 99)]
        weaker = _with_step(scenario, 1, entropy=7)  # its BT session key takes 7 bytes of entropy
        for policies in (None, PolicySet(sig51=True)):
            digests = []
            for varied in (scenario, *reseeded, weaker):
                digests.append(run_scenario(varied, policy_override=policies).trace_digest())
                assert digests[-1] == reference_run(varied, policies).trace_digest()
            assert len(set(digests)) == len(digests)

    def test_a_loaded_scenario_shares_nothing_with_its_input(self):
        """Emptying every object and list of the input after a run changes neither the Scenario nor
        its next run, which forks its snapshot and equals the first run and the reference path."""
        raw = _with_lists()
        scenario = Scenario.from_dict(raw)
        first = run_scenario(scenario)
        assert first.expectation_failures == []
        for container in list(_containers(raw)):
            container.clear()
        for result in (run_scenario(scenario), reference_run(scenario)):
            assert result.trace_digest() == first.trace_digest()
            assert result.outcome == first.outcome
            assert result.expectation_failures == []
        assert scenario == Scenario.from_dict(_with_lists())

    def test_each_dh_backend_forks_a_snapshot_of_its_own(self, monkeypatch):
        scenario = Scenario.from_dict(scenario_dict())
        every = (None, PolicySet(sig51=True))
        toy = [run_scenario(scenario, policy_override=policies).trace_digest() for policies in every]
        monkeypatch.setattr(scenario_module, "SimContext", functools.partial(SimContext, dh_backend="p256"))
        for policies, toy_digest in zip(every, toy):
            p256 = run_scenario(scenario, policy_override=policies).trace_digest()
            assert p256 != toy_digest
            assert p256 == reference_run(scenario, policies).trace_digest()
        assert list(scenario._snapshots) == ["toy-modp", "p256"]

    @pytest.mark.parametrize("words", [0, 1, 623, 624, 625, 624 * 64, 624 * 64 + 1])
    def test_a_counted_generator_counts_every_word_it_draws(self, words):
        """Seeding and one ``getrandbits(32 * rng.words)`` reach a counted generator's state after
        any number of words, past 64 generator blocks too, and after each kind of draw the
        simulator makes."""
        def reached(rng) -> bool:
            replay = random.Random(7)
            replay.getrandbits(32 * rng.words)
            return replay.getstate() == rng.getstate()

        rng = scenario_module._Counted(7)
        for _ in range(words):
            rng.getrandbits(32)
        assert rng.words == words and reached(rng)
        for draw in (random_nonce,  # getrandbits(128), as for every key and nonce
                     get_backend("toy-modp").private,  # randrange(2, 2**127 - 2)
                     get_backend("p256").private,  # randrange(1, the P-256 group order)
                     random_address,  # randbytes(5)
                     lambda rng: rng.getrandbits(0)):
            draw(rng)
            assert reached(rng), draw


class TestLatticeInvariants:
    """Properties over every bundled scenario and the whole 32-subset lattice."""

    def test_a_superset_of_defenses_blocks_whatever_a_subset_blocks(self, lattice):
        blocked, names = {}, {}
        for policies, results in lattice.items():
            names[policies] = set(policies.enabled_names())
            blocked[policies] = {r.scenario.name for r in results if not r.outcome.succeeded}
        assert len(blocked) == 32
        violations = [
            (names[small], names[big], sorted(blocked[small] - blocked[big])[:3])
            for small, big in itertools.product(blocked, repeat=2)
            if names[small] < names[big] and not blocked[small] <= blocked[big]
        ]
        assert not violations

    def test_a_verdict_before_every_store_under_every_defense_subset(self, lattice):
        runs = checked = 0
        for results in lattice.values():
            for result in results:
                checked += _assert_a_verdict_before_every_store(result)
                runs += 1
        assert runs == 32 * BUNDLED_COUNT
        assert checked

    def test_a_runs_rejection_is_its_one_deny_verdict(self, own, lattice):
        runs = denied = 0
        for results in (own, *lattice.values()):
            for result in results:
                denies = [event.payload["reason"] for event in result.trace
                          if event.kind == "policy_verdict" and not event.payload["allow"]]
                rejection = result.outcome.rejection
                assert len(denies) <= 1, result.scenario.name
                assert denies == ([] if rejection is None else [rejection.value]), result.scenario.name
                runs += 1
                denied += len(denies)
        assert runs == 33 * BUNDLED_COUNT
        assert denied == 1626

    def test_c1_rejects_exactly_the_attacks_that_reach_an_unused_transport(self, lattice):
        by_name = {result.scenario.name: result for result in lattice[PolicySet()]}
        c1_runs = lattice[PolicySet(c1=True)]
        assert len(by_name) == len(c1_runs) == BUNDLED_COUNT
        rejected = {r.scenario.name for r in c1_runs if r.outcome.rejection is RejectionReason.NOT_PAIRABLE}
        predicted = {name for name, r in by_name.items() if _attack_requests_on_unused_transports(r)}
        assert rejected == predicted
        assert rejected and len(rejected) < BUNDLED_COUNT

    def test_outcomes_do_not_depend_on_the_dh_backend(self, monkeypatch, own, lattice):
        """Each bundled scenario on P-256, under its own policies and under every defense subset,
        ends as on the toy group; only the secrets, and so the key bytes in the trace, differ."""
        monkeypatch.setattr(scenario_module, "SimContext", functools.partial(SimContext, dh_backend="p256"))
        scenarios = [load_scenario(path) for path in BUNDLED]
        differ, runs, digests_differ = [], 0, False
        for policies, toy_results in {None: own, **lattice}.items():
            for scenario, toy in zip(scenarios, toy_results, strict=True):
                result = run_scenario(scenario, policy_override=policies)
                runs += 1
                if result.outcome.to_dict() != toy.outcome.to_dict():
                    differ.append((scenario.name, policies))
                if policies is None:
                    digests_differ |= result.trace_digest() != toy.trace_digest()
        assert runs == 33 * BUNDLED_COUNT
        assert not differ
        assert digests_differ  # the runs took the P-256 path

    def test_outcomes_do_not_depend_on_the_seed(self):
        differ = []
        for path in BUNDLED:
            scenario = load_scenario(path)
            outcomes = [run_scenario(dataclasses.replace(scenario, seed=seed)).outcome.to_dict()
                        for seed in (1, 2, 3)]
            if outcomes[0] != outcomes[1] or outcomes[0] != outcomes[2]:
                differ.append(path.name)
        assert len(BUNDLED) == BUNDLED_COUNT
        assert not differ

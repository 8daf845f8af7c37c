"""Scenario loading, deterministic execution, matrix aggregation, CLI."""

import json

import pytest

from ctkdsim.cli import main as cli_main
from ctkdsim.fixtures import bundled_profiles, matrix_scenarios, write_matrix
from ctkdsim.policies import PolicySet
from ctkdsim.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    run_matrix,
    run_scenario,
)
from ctkdsim.trace import read_trace


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
        assert Scenario.from_dict(raw).pre_state[1]["entropy"] == 7

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

    def test_same_seed_identical_traces(self):
        scenario = Scenario.from_dict(scenario_dict())
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.trace_digest() == second.trace_digest()
        assert [e.to_json() for e in first.trace] == [e.to_json() for e in second.trace]

    def test_seed_override_changes_key_material(self):
        scenario = Scenario.from_dict(scenario_dict())
        first = run_scenario(scenario)
        second = run_scenario(scenario, seed_override=999)
        keys_first = [e.payload["key"] for e in first.trace if e.kind == "key_stored"]
        keys_second = [e.payload["key"] for e in second.trace if e.kind == "key_stored"]
        assert keys_first != keys_second

    def test_policy_override_applies_to_every_device(self):
        scenario = Scenario.from_dict(scenario_dict())
        result = run_scenario(scenario, policy_override=PolicySet(c3_no_cross_overwrite=True))
        assert not result.outcome.succeeded
        assert result.outcome.rejection.value == "c3_overwrite_block"


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
        bad = Scenario.from_dict(scenario_dict(name="bad"))
        bad.pre_state[0]["responder"] = "alice"  # self-pairing will fail
        bad.pre_state[0]["initiator"] = "alice"
        report = run_matrix([bad, good])
        assert report.total == 1
        assert len(report.errors) == 1

    def test_json_report_shape(self):
        report = run_matrix(matrix_scenarios()[:4])
        data = report.to_json_dict()
        assert data["summary"]["total"] == 4
        assert len(data["rows"]) == 4
        assert data["policies"] is None

    def test_text_table_mirrors_role_column(self):
        scenarios = [s for s in matrix_scenarios() if s.meta["device"] == "sony-wh-ch700n"]
        text = run_matrix(scenarios).render_text()
        assert "sony-wh-ch700n" in text
        assert "Master" in text


@pytest.fixture(scope="module")
def baseline():
    return [run_scenario(s) for s in matrix_scenarios()]


class TestCorpusInvariants:
    def test_sig51_strictly_weaker_than_c3_on_attack_corpus(self):
        """Whatever the overwrite rule blocks, c3 blocks too; not vice versa."""
        scenarios = matrix_scenarios()
        sig51 = run_matrix(scenarios, policy_override=PolicySet(sig51_rule=True))
        c3 = run_matrix(scenarios, policy_override=PolicySet(c3_no_cross_overwrite=True))
        blocked_sig51 = {r["scenario"] for r in sig51.rows if not r["succeeded"]}
        blocked_c3 = {r["scenario"] for r in c3.rows if not r["succeeded"]}
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
        # A key event must have a pending store-stage verdict for the same
        # mutation; verdicts without key events are fine (aborted runs stop
        # before committing anything).
        for result in baseline:
            pending: dict[tuple, int] = {}
            for event in result.trace:
                key = (event.actor, event.payload.get("peer"),
                       event.payload.get("transport"), event.payload.get("origin"))
                if event.kind == "policy_verdict" and event.payload.get("stage") == "store":
                    pending[key] = pending.get(key, 0) + 1
                elif event.kind in ("key_stored", "key_rejected"):
                    assert pending.get(key, 0) >= 1, (result.scenario.name, event.index)
                    pending[key] -= 1


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
    def test_bundled_edge_cases_meet_expectations(self):
        import pathlib

        extra_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "extra"
        paths = sorted(extra_dir.glob("*.json"))
        assert len(paths) == 5
        for path in paths:
            result = run_scenario(load_scenario(path))
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

    def test_matrix_empty_dir_exits_2(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert cli_main(["matrix", str(tmp_path / "empty")]) == 2

    def test_kdf_selftest_passes(self, capsys):
        assert cli_main(["kdf-selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

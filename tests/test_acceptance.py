"""Acceptance suite: one test per criterion, strictest stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import hashlib
import random
import time

from conftest import cti_map_breaches, matrix_runs
from reference import ref_ble_to_bt, ref_bt_to_ble

from ctkdsim.crypto import Key128, TRANSPORT_BLE, TRANSPORT_BT, ctkd_ble_to_bt, ctkd_bt_to_ble
from ctkdsim.fixtures import matrix_scenarios
from ctkdsim.policies import PolicySet, RejectionReason
from ctkdsim.scenario import run_matrix, run_scenario
from ctkdsim.smp import AuthReqBits, decode_pairing, encode_pairing
from ctkdsim.trace import emit_trace
from ctkdsim.vectors import load_ctkd_vectors
from test_smp import _random_message


def _report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_kdf_oracle_equivalence():
    """Conversion matches the independent oracle and the published vectors."""
    start = time.perf_counter()
    rng = random.Random(0xACCE1)
    checked = 0
    for _ in range(1000):
        raw = rng.randbytes(16)
        key = Key128(raw)
        for h7 in (True, False):
            assert ctkd_ble_to_bt(key, h7).value == ref_ble_to_bt(raw, h7)
            assert ctkd_bt_to_ble(key, h7).value == ref_bt_to_ble(raw, h7)
            checked += 2
    for direction, fn in (("ble_to_bt", ctkd_ble_to_bt), ("bt_to_ble", ctkd_bt_to_ble)):
        for key_in, h7, expected in load_ctkd_vectors(direction):
            assert fn(key_in, h7).value == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"{checked} oracle comparisons + fixture vectors in {elapsed:.2f}s")


def test_criterion_2_baseline_matrix_64_of_64(baseline):
    """Every profile falls to every attack under the baseline policy."""
    start = time.perf_counter()
    report = run_matrix(matrix_scenarios())
    elapsed = time.perf_counter() - start
    assert report.total == 64
    assert report.succeeded == 64, [r for r in report.rows if not r["succeeded"]]
    assert report.all_expected
    versions = {r["version"] for r in report.rows}
    assert versions == {"4.1", "4.2", "5.0", "5.1", "5.2"}
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"64/64 attack runs succeeded in {elapsed:.2f}s")


def _matrix_under(lattice, policies: PolicySet) -> list:
    """The 64 matrix runs under ``policies``, from the session's defense lattice."""
    return matrix_runs(lattice[policies])


def test_criterion_3_overwrite_rule_is_ineffective(lattice):
    """The 5.1 key-overwrite rule blocks nothing at equal strength/protection."""
    results = _matrix_under(lattice, PolicySet(sig51=True))
    assert len(results) == 64
    assert all(r.outcome.succeeded for r in results), [r.scenario.name for r in results if not r.outcome.succeeded]
    _report(3, "64/64 still succeed with the overwrite rule enforced everywhere")


def test_criterion_4_countermeasures_block(lattice):
    """C3 stops impersonation and MitM; C1+C3 stop everything."""
    c3 = _matrix_under(lattice, PolicySet(c3=True))
    imp = [r for r in c3 if r.scenario.attack.strategy in ("mi", "si", "mitm")]
    assert len(imp) == 48
    assert all(not r.outcome.succeeded for r in imp)
    rejections = {r.outcome.rejection for r in imp}
    assert rejections <= {RejectionReason.C3_OVERWRITE_BLOCK, RejectionReason.C3_WEAK_INPUT_BLOCK}, rejections

    both = _matrix_under(lattice, PolicySet(c1=True, c3=True))
    assert len(both) == 64
    assert not any(r.outcome.succeeded for r in both), [r.scenario.name for r in both if r.outcome.succeeded]
    _report(4, "c3: 0/48 impersonation+MitM succeed; c1+c3: 0/64 overall")


def test_criterion_5_cti_mapping_holds(own, lattice):
    """Trace-derived issue usage matches the per-strategy requirement row on every bundled run, under its
    own policies and under each defense set."""
    runs = [*own, *(result for results in lattice.values() for result in results)]
    assert cti_map_breaches(runs) == {}
    succeeded = [result for result in runs if result.outcome.succeeded]
    assert {result.scenario.attack.strategy for result in succeeded} == {"mi", "si", "mitm", "us"}
    _report(5, f"{len(succeeded)} successful runs of {len(runs)} consistent with the issue-requirement table")


def test_criterion_6_victim_lockout(baseline):
    """Impersonation ends with the victim locked out and the attacker keyed
    on both transports."""
    checked = 0
    for result in baseline:
        strategy = result.scenario.attack.strategy
        if strategy not in ("mi", "si", "mitm"):
            continue
        assert result.outcome.victim_reconnect == "key_mismatch", result.scenario.name

        target = str(result.devices[result.scenario.attack.target].address)
        peer = str(result.devices[result.scenario.attack.peer].address)
        pair = {target, peer}
        first_session = next(e.index for e in result.trace if e.kind == "session_ok")
        takeover_transports = {
            e.payload["transport"]
            for e in result.trace
            if e.kind == "session_ok"
            and e.index > first_session
            and {e.actor, e.payload["peer"]} == pair
        }
        assert takeover_transports == {TRANSPORT_BT, TRANSPORT_BLE}, result.scenario.name
        mismatches = [
            e for e in result.trace
            if e.kind == "session_fail"
            and e.payload["reason"] == "key_mismatch"
            and {e.actor, e.payload["peer"]} == pair
        ]
        assert mismatches, result.scenario.name
        checked += 1
    assert checked == 48
    _report(6, "48/48 impersonation runs: victim locked out, attacker on both transports")


def test_criterion_7_unintended_session_stealth(baseline):
    """A silent bond leaves existing records untouched and leaks CSRK/IRK."""
    checked = 0
    for result in baseline:
        if result.scenario.attack.strategy != "us":
            continue
        outcome = result.outcome
        assert outcome.succeeded and not outcome.overwrote_existing

        victim_name = result.scenario.attack.target
        victim = result.devices[victim_name]
        peer = result.devices[result.scenario.attack.peer]
        attack_start = next(
            e.index for e in result.trace if e.kind == "session_ok"
        ) + 1

        # Pre-attack stores on the victim for its honest peer, replayed from
        # the trace, must equal what the table holds now, byte for byte.
        pre_attack_keys = {
            (e.payload["transport"]): e.payload["key"]
            for e in result.trace
            if e.kind == "key_stored"
            and e.index < attack_start
            and e.actor == str(victim.address)
            and e.payload["peer"] == str(peer.address)
        }
        assert pre_attack_keys
        for transport, key_hex in pre_attack_keys.items():
            assert victim.bonds.lookup(peer.address, transport).key.hex() == key_hex

        # No event after the attack start touched the honest bond.
        assert not any(
            e.kind == "key_stored"
            and e.index >= attack_start
            and e.actor == str(victim.address)
            and e.payload["peer"] == str(peer.address)
            for e in result.trace
        )

        # The attacker's BLE record for the victim carries the victim's
        # distributed identity keys.
        attacker_store = next(
            e for e in result.trace
            if e.kind == "key_stored"
            and e.index >= attack_start
            and e.payload["peer"] == str(victim.address)
            and e.payload["transport"] == TRANSPORT_BLE
        )
        assert attacker_store.payload["extra_keys"] == {
            "csrk": victim.key_material.csrk.hex(),
            "irk": victim.key_material.irk.hex(),
        }
        checked += 1
    assert checked == 16
    _report(7, "16/16 silent bonds: existing records intact, CSRK/IRK captured")


def test_criterion_8_determinism(tmp_path):
    """Same seed, byte-identical JSONL traces (hash-compared)."""
    digests = []
    for scenario in matrix_scenarios()[:6]:
        paths = []
        for run in range(2):
            result = run_scenario(scenario)
            path = tmp_path / f"{scenario.name}.{run}.jsonl"
            emit_trace(result.trace, path)
            paths.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert paths[0] == paths[1], scenario.name
        digests.append(paths[0])
    assert len(set(digests)) == len(digests)  # distinct scenarios, distinct traces
    _report(8, f"{len(digests)} scenarios re-run with identical trace hashes")


def test_criterion_9_codec_round_trip():
    """10,000 random messages survive encode/decode; observed bytes decode right."""
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        msg = _random_message(rng)
        assert decode_pairing(encode_pairing(msg)) == msg

    strong = AuthReqBits.from_byte(0x2D)
    weak = AuthReqBits.from_byte(0x09)
    assert strong.sc and weak.sc
    assert strong.ct2_h7 and not weak.ct2_h7
    _report(9, "10,000 round-trips; 0x2d/0x09 decode with sc set, ct2 split")

"""Golden trace digests and outcomes of every bundled scenario.

``golden_digests.json`` holds, for each bundled scenario
(``scenarios/matrix`` and ``scenarios/extra``) under each of seven policy
sets, the SHA-256 trace digest and the ``AttackOutcome.to_dict()`` of the
run. A refactor that changes a single trace byte or outcome field fails
here. The seven sets are the scenarios' own policies, each of ``sig51``,
``c1``, ``c2``, ``c3`` and ``c4`` alone, and all five together: between
them they reach every denying (stage, transport, reason) verdict that the
full 32-subset policy lattice reaches.

The file was recorded once, from the repository root, with::

    PYTHONPATH=src:tests python -c "import json, test_golden; \
json.dump(test_golden.observe_all(), open('tests/golden_digests.json', 'w'), indent=1, sort_keys=True)"

It is a contract, not a cache: re-record it only for a change that is
meant to alter trace bytes, and say so in the change log.

Every bundled scenario runs on the toy DH group, so ``P256_GOLDEN`` below
holds the digests of 16 seeded Numeric Comparison pairings on P-256, the
only real ECDH path: BLE-first and BT-first, CTKD on and off, h7 on and
off, two seeds each. It was recorded with::

    PYTHONPATH=src:tests python -c "import test_golden as g; \
print({k: g.observe_p256(*c) for k, c in g.P256_CASES.items()})"
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
from conftest import BUNDLED, BUNDLED_COUNT, make_profile

from ctkdsim.crypto import TRANSPORT_BLE, TRANSPORT_BT, TRANSPORTS, other_transport
from ctkdsim.device import Association
from ctkdsim.pairing import SimContext, ble_pair, bt_pair, establish_session, make_device
from ctkdsim.policies import DEFENSE_SUBSETS, DEFENSES
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.trace import trace_digest

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
MATRIX_FILES = [path for path in BUNDLED if path.parent.name == "matrix"]
#: The scenarios' own policies, each defense alone, and all five together.
POLICY_SETS = {
    "own": None,
    **{name: DEFENSE_SUBSETS[1 << bit] for bit, name in enumerate(DEFENSES)},
    "all": DEFENSE_SUBSETS[-1],
}


def _key(path: Path, policy_name: str) -> str:
    return f"{path.parent.name}/{path.stem}|{policy_name}"


def _observed(result) -> dict:
    return {"digest": result.trace_digest(), "outcome": result.outcome.to_dict()}


def observe(path: Path, policy_name: str) -> dict:
    return _observed(run_scenario(load_scenario(path), policy_override=POLICY_SETS[policy_name]))


def observe_all() -> dict:
    return {
        _key(path, name): observe(path, name)
        for path in BUNDLED
        for name in POLICY_SETS
    }


def _runs(own, lattice, policy_name: str) -> dict:
    """Each bundled scenario's run under ``policy_name``, from the session fixtures:
    ``own`` for the scenarios' own policies, ``lattice`` for every other set here."""
    if policy_name == "own":
        return dict(zip(BUNDLED, own))
    results = lattice[POLICY_SETS[policy_name]]
    assert len(results) == len(BUNDLED)
    return dict(zip(BUNDLED, results))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_bundled_scenario_and_policy_set(golden):
    assert len(BUNDLED) == BUNDLED_COUNT
    assert set(golden) == {_key(p, n) for p in BUNDLED for n in POLICY_SETS}


@pytest.mark.parametrize("policy_name", list(POLICY_SETS))
def test_digests_and_outcomes_match_golden(golden, own, lattice, policy_name):
    observed = {path: _observed(result) for path, result in _runs(own, lattice, policy_name).items()}
    mismatches = [path.name for path, seen in observed.items() if seen != golden[_key(path, policy_name)]]
    assert not mismatches, f"{len(mismatches)} runs differ under {policy_name}: {mismatches[:5]}"


P256_CASES = {
    f"{first}-first|ctkd={ctkd}|h7={h7}|seed={seed}": (first, ctkd, h7, seed)
    for first in (TRANSPORT_BLE, TRANSPORT_BT)
    for ctkd in (True, False)
    for h7 in (True, False)
    for seed in (1, 2)
}
P256_GOLDEN = {
    "BLE-first|ctkd=True|h7=True|seed=1": "2045aa8806f439eb32b30ae342dac2b60c28600fc5a93f967ac547211c304a89",
    "BLE-first|ctkd=True|h7=True|seed=2": "bec68bc7ea2c7327b62952e16959ce7bf8b77e745eb114134b0cd8e905f7d8eb",
    "BLE-first|ctkd=True|h7=False|seed=1": "dd51439968beb3a85b7954aa4ab419c2d9f94075ecf7949a94672cbedc43cc17",
    "BLE-first|ctkd=True|h7=False|seed=2": "d8f61f77e42ba750514a0e75939b4961da9be88ff44754a5d9ff4be392ac9f96",
    "BLE-first|ctkd=False|h7=True|seed=1": "d635519b5223f3d1da2f395f2f68ae95c3c758eabd6ce741494e1a91596e34fc",
    "BLE-first|ctkd=False|h7=True|seed=2": "3e636da6839674c2a3af1f10ce67f6f92161627e86da18fcf74d03cb0eeff7ad",
    "BLE-first|ctkd=False|h7=False|seed=1": "ed987d023e67d3f88964bcd1f95aafa48734f48cf7c0a5d0196ca49415f94658",
    "BLE-first|ctkd=False|h7=False|seed=2": "8d4fae0b118582d5363a8866de73bb69857a710e3317b0e516c4f416664fe46c",
    "BT-first|ctkd=True|h7=True|seed=1": "4902534045e021af633cfd4835b8851aef025e3f4b860f91d3e6a8cdb7c52505",
    "BT-first|ctkd=True|h7=True|seed=2": "f3b9462b0636b521c78c6b942f56d2a5f45e6e8ae8ef5a7df18a74c8bca19bba",
    "BT-first|ctkd=True|h7=False|seed=1": "638c91c469e65e59c8d93ddb9d6f863f54317a19eea570e49c731e81185b1764",
    "BT-first|ctkd=True|h7=False|seed=2": "3242660b58b298a47221da5bf1c5a86c752458f362d0b6aae93f1482555521f0",
    "BT-first|ctkd=False|h7=True|seed=1": "81a550a36051f4509d44efff25434f4a1d649d8606d5c72ba8328e92bfb4b224",
    "BT-first|ctkd=False|h7=True|seed=2": "3112868f9bbdadc1fd43cc7bb23466950431afaa46d9d4a84873b4b1f07aafd7",
    "BT-first|ctkd=False|h7=False|seed=1": "1ceb6e1c2c9af45cea2d8a250e8d96973e1226c1f8f54fcdd4d5ffaa439ead1b",
    "BT-first|ctkd=False|h7=False|seed=2": "7072af928a8511bc21ede6fbb21b92d68cd5523c28cc5f5be2aa0319e53a1c39",
}


def observe_p256(first: str, ctkd: bool, h7: bool, seed: int) -> str:
    """Pair two DisplayYesNo devices, open sessions, re-pair on the other transport, reopen.

    Without CTKD the second transport only gets a key by pairing on it, so
    such a pair is paired on both transports before the first sessions.
    """
    ctx = SimContext(rng=random.Random(seed), dh_backend="p256")
    a = make_device(ctx, make_profile("a", 0x01, bt_version="5.1", h7_supported=h7))
    b = make_device(ctx, make_profile("b", 0x02, ctkd_supported=ctkd, h7_supported=h7))

    def pair(transport):
        session = (ble_pair if transport == TRANSPORT_BLE else bt_pair)(ctx, a, b)
        assert not session.aborted and session.negotiated.association is Association.NUMERIC_COMPARISON
        return session

    second = other_transport(first)
    pair(first)
    if not ctkd:
        pair(second)
    assert all(establish_session(ctx, a, b, t).ok for t in TRANSPORTS)
    pair(second)
    assert all(establish_session(ctx, a, b, t).ok for t in TRANSPORTS)
    return trace_digest(ctx.trace.events)


def test_p256_golden_covers_every_case():
    assert set(P256_GOLDEN) == set(P256_CASES) and len(P256_CASES) == 16


@pytest.mark.parametrize("case", list(P256_CASES))
def test_p256_numeric_comparison_digests_match_golden(case):
    assert observe_p256(*P256_CASES[case]) == P256_GOLDEN[case]


#: The number of sessions and a SHA-256 over each one's transport and session
#: key, across the 64 matrix scenarios. Recorded when every session key was
#: still derived as its session came up, so a key derived later must equal it.
SESSION_KEY_GOLDEN = {
    "own": (240, "9954fb2f25cab2bb392391171d6e805850309072045139d5f5640c74651ecba2"),
    "all": (64, "e5e30e5c5d1be596f58a3f4bb29ff407b6b2d8d064edf8cb8fa2bdbff9782188"),
}


def _session_keys(results) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for result in results:
        seen = set()  # both ends of a session hold the same state
        for device in result.devices.values():
            for state in device.sessions:
                if id(state) in seen:
                    continue
                seen.add(id(state))
                key = state.session_key
                digest.update(f"{state.transport} {key.strength} {key.mitm_protected} {key.hex()}\n".encode())
                count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("policy_name", list(SESSION_KEY_GOLDEN))
def test_matrix_session_keys_match_golden(own, lattice, policy_name):
    runs = _runs(own, lattice, policy_name)
    assert _session_keys(runs[path] for path in MATRIX_FILES) == SESSION_KEY_GOLDEN[policy_name]

"""Golden trace digests and outcomes of every bundled scenario.

``golden_digests.json`` holds, for each of the 69 bundled scenarios
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
"""

import json
from pathlib import Path

import pytest

from ctkdsim.policies import PolicySet
from ctkdsim.scenario import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SCENARIO_FILES = sorted((ROOT / "scenarios").glob("*/*.json"))
POLICY_SETS = {
    "own": None,
    "sig51": PolicySet(sig51_rule=True),
    "c1": PolicySet(c1_auto_pairable=True),
    "c2": PolicySet(c2_role_binding=True),
    "c3": PolicySet(c3_no_cross_overwrite=True),
    "c4": PolicySet(c4_association_monotonic=True),
    "all": PolicySet.from_dict({name: True for name in ("sig51", "c1", "c2", "c3", "c4")}),
}


def _key(path: Path, policy_name: str) -> str:
    return f"{path.parent.name}/{path.stem}|{policy_name}"


def observe(path: Path, policy_name: str) -> dict:
    result = run_scenario(load_scenario(path), policy_override=POLICY_SETS[policy_name])
    return {"digest": result.trace_digest(), "outcome": result.outcome.to_dict()}


def observe_all() -> dict:
    return {
        _key(path, name): observe(path, name)
        for path in SCENARIO_FILES
        for name in POLICY_SETS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_bundled_scenario_and_policy_set(golden):
    assert len(SCENARIO_FILES) == 69
    assert set(golden) == {_key(p, n) for p in SCENARIO_FILES for n in POLICY_SETS}


@pytest.mark.parametrize("policy_name", list(POLICY_SETS))
def test_digests_and_outcomes_match_golden(golden, policy_name):
    mismatches = [
        path.name
        for path in SCENARIO_FILES
        if observe(path, policy_name) != golden[_key(path, policy_name)]
    ]
    assert not mismatches, f"{len(mismatches)} runs differ under {policy_name}: {mismatches[:5]}"

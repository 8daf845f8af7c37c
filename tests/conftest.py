import random
from pathlib import Path

import pytest

from ctkdsim import scenario as scenario_module
from ctkdsim.device import DeviceProfile
from ctkdsim.pairing import SimContext, make_device
from ctkdsim.policies import DEFENSE_SUBSETS, PolicySet
from ctkdsim.scenario import ScenarioResult, check_expectations, load_scenario, run_lattice, run_scenario

BUNDLED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*/*.json"))


def make_profile(name: str, last_byte: int, io: str = "DisplayYesNo", **overrides) -> DeviceProfile:
    raw = {
        "address": f"02:aa:00:00:00:{last_byte:02x}",
        "name": name,
        "bt_version": "5.0",
        "io_capability": io,
    }
    raw.update(overrides)
    return DeviceProfile.from_dict(raw, name)


@pytest.fixture
def ctx():
    return SimContext(rng=random.Random(7))


@pytest.fixture
def laptop(ctx):
    return make_device(ctx, make_profile("laptop", 0x01, bt_version="5.1"))


@pytest.fixture
def headset(ctx):
    return make_device(ctx, make_profile("headset", 0x02, io="NoInputNoOutput"))


def device(ctx, name, last_byte, io="DisplayYesNo", policies=None, **overrides):
    return make_device(ctx, make_profile(name, last_byte, io, **overrides),
                       policies if policies is not None else PolicySet())


@pytest.fixture(scope="session")
def lattice():
    """Each of the 69 bundled scenarios under each of the 32 defense subsets, run once per test
    session: per set, the full ``ScenarioResult``s in ``BUNDLED`` order, for the tests that read
    traces, devices or session keys. Tests must not change them."""
    assert len(BUNDLED) == 69
    bundled = [load_scenario(path) for path in BUNDLED]
    return {p: [run_scenario(s, policy_override=p) for s in bundled] for p in DEFENSE_SUBSETS}


@pytest.fixture(scope="session")
def lattice_rows():
    """``run_lattice`` over the 69 bundled scenarios, once per test session: per defense subset,
    the ``MatrixReport`` whose rows are in ``BUNDLED`` order. No run's ``ScenarioResult`` is kept."""
    assert len(BUNDLED) == 69
    return run_lattice([load_scenario(path) for path in BUNDLED])


@pytest.fixture(scope="session")
def own():
    """Each of the 69 bundled scenarios under its own policies, in ``BUNDLED`` order, run once per
    test session. Tests read the results and must not change them."""
    assert len(BUNDLED) == 69
    return [run_scenario(load_scenario(path)) for path in BUNDLED]


def matrix_runs(results: list) -> list:
    """The runs (or rows) of the 64 matrix scenarios among ``results``, which are in ``BUNDLED`` order."""
    assert len(results) == len(BUNDLED)
    return [result for path, result in zip(BUNDLED, results) if path.parent.name == "matrix"]


@pytest.fixture(scope="session")
def baseline(own):
    """The 64 matrix scenarios under their own policies: ``own``'s ``matrix/`` entries."""
    return matrix_runs(own)


def attack_requests(result) -> list:
    """The pairing requests ``result``'s attack received, in order: the non-tunneled ones after the
    pre-state's, one per ``pair`` step (a BT pairing's tunnelled SMP request is not counted)."""
    requests = [event for event in result.trace if event.kind == "msg_received"
                and event.payload["opcode"] == "request" and not event.payload["tunneled"]]
    return requests[sum(step.action == "pair" for step in result.scenario.pre_state):]


def reference_run(scenario, policy_override=None) -> ScenarioResult:
    """``run_scenario`` on the reference path: the pre-state run afresh under the policies in
    force, never forked from a snapshot, then the attack; the guard every fork is checked by."""
    policies = [spec.policies if policy_override is None else policy_override for spec in scenario.devices]
    # Built through the module's name, so a test that rebinds ``scenario_module.SimContext`` to
    # another DH backend runs the reference path on that backend too.
    ctx = scenario_module.SimContext(rng=random.Random(scenario.seed))
    devices = scenario_module._pre_state(scenario, ctx, policies)
    outcome = scenario_module._run_attack(ctx, scenario, devices)
    failures = check_expectations(scenario.expectations, outcome) if policy_override is None else None
    return ScenarioResult(scenario, outcome, ctx.trace.events, devices, failures)

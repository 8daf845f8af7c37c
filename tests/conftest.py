import random
from pathlib import Path

import pytest

from ctkdsim.device import DeviceProfile
from ctkdsim.pairing import SimContext, make_device
from ctkdsim.policies import PolicySet
from ctkdsim.scenario import load_scenario, run_lattice, run_scenario

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
    """The 69 bundled scenarios under each of the 32 defense subsets, run once per test session."""
    assert len(BUNDLED) == 69
    return run_lattice([load_scenario(path) for path in BUNDLED])


@pytest.fixture(scope="session")
def own():
    """Each of the 69 bundled scenarios under its own policies, in ``BUNDLED`` order, run once per
    test session. Tests read the results and must not change them."""
    assert len(BUNDLED) == 69
    return [run_scenario(load_scenario(path)) for path in BUNDLED]


def matrix_runs(results: list) -> list:
    """The runs of the 64 matrix scenarios among ``results``, which are in ``BUNDLED`` order."""
    assert len(results) == len(BUNDLED)
    return [result for path, result in zip(BUNDLED, results) if path.parent.name == "matrix"]


@pytest.fixture(scope="session")
def baseline(own):
    """The 64 matrix scenarios under their own policies: ``own``'s ``matrix/`` entries."""
    return matrix_runs(own)

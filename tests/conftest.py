import random
from pathlib import Path

import pytest

from ctkdsim.device import DeviceProfile
from ctkdsim.pairing import SimContext, make_device
from ctkdsim.policies import PolicySet
from ctkdsim.scenario import load_scenario, run_lattice

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

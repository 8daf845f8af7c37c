"""Per-layer call counts over the matrix, pinned so hot-path rewrites keep call-count parity.

One pass runs the 64 matrix scenarios under their own policies and again
with all five defenses on. Each counted function is rebound in every
``ctkdsim`` module that holds it, as ``bench/tracer.py`` does, so a call
through a name bound by ``from .crypto import ...`` is counted too; the
three methods are patched on their class. Constructions of the four value
types built on every run are counted through each type's ``__new__``.
Every event a run records must have come through ``TraceRecorder.emit``.

A change that adds or drops a crypto computation, an event, a verdict, a
commit, a bond lookup or a key, nonce, secret or record fails here. Re-pin
a number only in a change that is meant to move it, and name the move in
the change log.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from ctkdsim import crypto, policies
from ctkdsim.crypto import Key128, Nonce, SharedSecret
from ctkdsim.device import BondTable, KeyRecord
from ctkdsim.policies import DEFENSE_SUBSETS
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.trace import TraceRecorder

MATRIX = sorted((Path(__file__).resolve().parent.parent / "scenarios" / "matrix").glob("*.json"))

FUNCTIONS = {
    crypto: ("aes_cmac", "ctkd_ble_to_bt", "ctkd_bt_to_ble", "dh_generate", "dh_private",
             "dh_shared", "kdf_le", "kdf_bt", "session_key"),
    policies: ("evaluate",),
}
METHODS = ((TraceRecorder, "emit"), (BondTable, "commit"), (BondTable, "lookup"))
VALUES = (Key128, Nonce, SharedSecret, KeyRecord)

POLICY_SETS = {"own": None, "all": DEFENSE_SUBSETS[-1]}

EXPECTED = {
    "own": {
        "aes_cmac": 432, "ctkd_ble_to_bt": 48, "ctkd_bt_to_ble": 96, "dh_generate": 144,
        "dh_private": 144, "dh_shared": 144, "kdf_le": 48, "kdf_bt": 96, "session_key": 0,
        "evaluate": 576, "TraceRecorder.emit": 3008, "BondTable.commit": 576, "BondTable.lookup": 1312,
        "Key128": 704, "Nonce": 768, "SharedSecret": 144, "KeyRecord": 576,
    },
    "all": {
        "aes_cmac": 192, "ctkd_ble_to_bt": 0, "ctkd_bt_to_ble": 64, "dh_generate": 64,
        "dh_private": 64, "dh_shared": 64, "kdf_le": 0, "kdf_bt": 64, "session_key": 0,
        "evaluate": 256, "TraceRecorder.emit": 1536, "BondTable.commit": 256, "BondTable.lookup": 928,
        "Key128": 512, "Nonce": 256, "SharedSecret": 64, "KeyRecord": 256,
    },
}


def _counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _install(monkeypatch, calls: Counter) -> None:
    modules = [m for n, m in list(sys.modules.items()) if n == "ctkdsim" or n.startswith("ctkdsim.")]
    for owner, names in FUNCTIONS.items():
        for name in names:
            original = getattr(owner, name)
            wrapper = _counting(calls, name, original)
            bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
            for module, attr in bound:
                monkeypatch.setattr(module, attr, wrapper)
    for cls, name in METHODS:
        monkeypatch.setattr(cls, name, _counting(calls, f"{cls.__name__}.{name}", vars(cls)[name]))
    for cls in VALUES:
        monkeypatch.setattr(cls, "__new__", staticmethod(_counting(calls, cls.__name__, cls.__new__)))


@pytest.mark.parametrize("policy_name", list(POLICY_SETS))
def test_matrix_call_counts(monkeypatch, policy_name):
    assert len(MATRIX) == 64
    scenarios = [load_scenario(path) for path in MATRIX]
    calls = Counter()
    _install(monkeypatch, calls)
    events = 0
    for scenario in scenarios:
        events += len(run_scenario(scenario, policy_override=POLICY_SETS[policy_name]).trace)
    assert {name: calls[name] for name in EXPECTED[policy_name]} == EXPECTED[policy_name]
    # Every event goes through TraceRecorder.emit, the method bench/tracer.py counts events by.
    assert calls["TraceRecorder.emit"] == events

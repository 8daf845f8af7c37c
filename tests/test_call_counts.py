"""Per-layer call counts over the matrix, pinned so hot-path rewrites keep call-count parity.

One pass runs the 64 freshly loaded matrix scenarios under their own
policies, and another with all five defenses on. Every run forks its
scenario's pre-state snapshot (``run_scenario``), and the first run of
each Scenario takes it, running the pre-state with all five on, so the
first pass under the scenarios' own policies looks bonds up as c2 and c4
do. A second pass under either, over the same Scenario objects, forks
each pre-state from the snapshot the first one kept, so it runs no
pre-state computation at all. Each counted function is rebound in every
``ctkdsim`` module that holds it, as ``bench/tracer.py`` does, so a call
through a name bound by ``from .crypto import ...`` is counted too; the
three methods are patched on their class. Constructions of the four
value types built on every run are counted through each type's
``__new__``. Every event a run records was emitted once, by the run or
by the snapshot it copies, through ``TraceRecorder.emit``.

A change that adds or drops a crypto computation, an event, a verdict, a
commit, a bond lookup, a trace replay by ``derive_ctis`` (one per attack)
or a key, nonce, secret or record fails here. The four attacks are
counted too, 16 each per pass, so a dispatch that calls them other than
through their module names, which the bench rebinds, fails here. Re-pin
a number only in a change that is meant to move it, and name the move in
the change log.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from ctkdsim import attacks, crypto, policies
from ctkdsim.crypto import Key128, Nonce, SharedSecret
from ctkdsim.device import BondTable, KeyRecord
from ctkdsim.policies import DEFENSE_SUBSETS
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.trace import TraceRecorder

MATRIX = sorted((Path(__file__).resolve().parent.parent / "scenarios" / "matrix").glob("*.json"))

FUNCTIONS = {
    crypto: ("aes_cmac", "ctkd_ble_to_bt", "ctkd_bt_to_ble", "dh_agree", "dh_generate",
             "dh_shared", "kdf_le", "kdf_bt", "session_key"),
    policies: ("evaluate",),
    attacks: ("derive_ctis", "master_impersonation", "slave_impersonation", "mitm", "unintended_session"),
}
METHODS = ((TraceRecorder, "emit"), (BondTable, "commit"), (BondTable, "lookup"))
VALUES = (Key128, Nonce, SharedSecret, KeyRecord)

POLICY_SETS = {"own": None, "all": DEFENSE_SUBSETS[-1]}

#: Events of each matrix scenario's pre-state: one CTKD pairing (12 messages, 4 verdicts,
#: 4 stored keys) and one session.
PRE_STATE_EVENTS = 21

#: The matrix runs each attack once per profile, under either set.
ATTACKS = {"master_impersonation": 16, "slave_impersonation": 16, "mitm": 16, "unintended_session": 16}

EXPECTED = {
    "own": {
        "aes_cmac": 432, "ctkd_ble_to_bt": 48, "ctkd_bt_to_ble": 96, "dh_agree": 144,
        "dh_generate": 0, "dh_shared": 0, "kdf_le": 48, "kdf_bt": 96, "session_key": 0,
        "evaluate": 576, "derive_ctis": 64, "TraceRecorder.emit": 3008, "BondTable.commit": 576, "BondTable.lookup": 1824,
        "Key128": 704, "Nonce": 768, "SharedSecret": 144, "KeyRecord": 576,
        **ATTACKS,
    },
    "all": {
        "aes_cmac": 192, "ctkd_ble_to_bt": 0, "ctkd_bt_to_ble": 64, "dh_agree": 64,
        "dh_generate": 0, "dh_shared": 0, "kdf_le": 0, "kdf_bt": 64, "session_key": 0,
        "evaluate": 256, "derive_ctis": 64, "TraceRecorder.emit": 1536, "BondTable.commit": 256, "BondTable.lookup": 928,
        "Key128": 512, "Nonce": 256, "SharedSecret": 64, "KeyRecord": 256,
        **ATTACKS,
    },
    # A second pass under their own policies is the first without its pre-state work, the
    # snapshot's, which runs with all five on: the attacks alone, most of them successful.
    "own, second pass": {
        "aes_cmac": 240, "ctkd_ble_to_bt": 48, "ctkd_bt_to_ble": 32, "dh_agree": 80,
        "dh_generate": 0, "dh_shared": 0, "kdf_le": 48, "kdf_bt": 32, "session_key": 0,
        "evaluate": 320, "derive_ctis": 64, "TraceRecorder.emit": 1664, "BondTable.commit": 320, "BondTable.lookup": 928,
        "Key128": 320, "Nonce": 512, "SharedSecret": 80, "KeyRecord": 320,
        **ATTACKS,
    },
    # A second pass with all five on runs no pre-state: only the c1 tick and the attacks, each
    # blocked before its keys (the attacker device's two identity keys, c2's bond lookups).
    "all, second pass": {
        "aes_cmac": 0, "ctkd_ble_to_bt": 0, "ctkd_bt_to_ble": 0, "dh_agree": 0,
        "dh_generate": 0, "dh_shared": 0, "kdf_le": 0, "kdf_bt": 0, "session_key": 0,
        "evaluate": 0, "derive_ctis": 64, "TraceRecorder.emit": 192, "BondTable.commit": 0, "BondTable.lookup": 32,
        "Key128": 128, "Nonce": 0, "SharedSecret": 0, "KeyRecord": 0,
        **ATTACKS,
    },
}


def _counting(calls: Counter, name: str, fn, returned=None):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        result = fn(*args, **kwargs)
        if returned is not None:
            returned.append(result)
        return result
    return wrapper


def _install(monkeypatch, calls: Counter, emitted: list) -> None:
    """Count every call in ``calls``; keep each event ``TraceRecorder.emit`` returns in ``emitted``."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ctkdsim" or n.startswith("ctkdsim.")]
    for owner, names in FUNCTIONS.items():
        for name in names:
            original = getattr(owner, name)
            wrapper = _counting(calls, name, original)
            bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
            for module, attr in bound:
                monkeypatch.setattr(module, attr, wrapper)
    for cls, name in METHODS:
        returned = emitted if (cls, name) == (TraceRecorder, "emit") else None
        monkeypatch.setattr(cls, name, _counting(calls, f"{cls.__name__}.{name}", vars(cls)[name], returned))
    for cls in VALUES:
        monkeypatch.setattr(cls, "__new__", staticmethod(_counting(calls, cls.__name__, cls.__new__)))


def _one_pass(scenarios: list, policies, calls: Counter, emitted: list) -> list:
    """Each scenario's trace. A trace is a prefix copied from a snapshot, then the events that
    ``emit`` returned during its run; a run that took the snapshot emitted that prefix first."""
    calls.clear()
    traces = []
    for scenario in scenarios:
        emitted.clear()
        trace = run_scenario(scenario, policy_override=policies).trace
        own = 0
        while own < min(len(trace), len(emitted)) and trace[-1 - own] is emitted[-1 - own]:
            own += 1
        copied, uncopied = len(trace) - own, len(emitted) - own
        assert uncopied in (0, copied) and emitted[:uncopied] == trace[:uncopied], scenario.name
        traces.append(trace)
    return traces


@pytest.mark.parametrize("policy_name", list(POLICY_SETS))
def test_matrix_call_counts(monkeypatch, policy_name):
    assert len(MATRIX) == 64
    scenarios = [load_scenario(path) for path in MATRIX]
    calls, emitted = Counter(), []
    _install(monkeypatch, calls, emitted)
    traces = _one_pass(scenarios, POLICY_SETS[policy_name], calls, emitted)
    assert {name: calls[name] for name in EXPECTED[policy_name]} == EXPECTED[policy_name]
    # Every event was emitted once, by the run or by the snapshot it copies, through
    # TraceRecorder.emit, the method bench/tracer.py counts events by: over fresh scenarios,
    # as many calls as events.
    assert calls["TraceRecorder.emit"] == sum(map(len, traces))


@pytest.mark.parametrize("policy_name", list(POLICY_SETS))
def test_a_second_pass_forks_every_pre_state(monkeypatch, policy_name):
    scenarios = [load_scenario(path) for path in MATRIX]
    calls, emitted = Counter(), []
    _install(monkeypatch, calls, emitted)
    first = _one_pass(scenarios, POLICY_SETS[policy_name], calls, emitted)
    assert {name: calls[name] for name in EXPECTED[policy_name]} == EXPECTED[policy_name]
    second = _one_pass(scenarios, POLICY_SETS[policy_name], calls, emitted)
    expected = EXPECTED[f"{policy_name}, second pass"]
    assert {name: calls[name] for name in expected} == expected
    # The same events; each pre-state's are copied from its snapshot, not emitted again.
    assert second == first
    assert calls["TraceRecorder.emit"] == sum(map(len, second)) - len(MATRIX) * PRE_STATE_EVENTS

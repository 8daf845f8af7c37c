"""Bundled device profiles and the standard evaluation matrix.

Sixteen victim profiles (Bluetooth 4.1 through 5.2, phones, laptops,
headsets, one development board) plus two synthetic companion devices they
bond with in pre-state. Every profile gets one scenario per attack
strategy, 64 in total. Addresses are synthetic (locally administered).

Run ``python -m ctkdsim.fixtures <dir>`` to write the scenario files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .attacks import STRATEGIES
from .device import DeviceProfile
from .scenario import Scenario

# name, bt_version, attacker role (per impersonation playbook), io capability,
# Just Works only headsets/boards have no display.
_VICTIMS = [
    ("cypress-cyw920819evb02", "5.0", "Slave", "NoInputNoOutput"),
    ("dell-latitude-7390", "4.2", "Slave", "DisplayYesNo"),
    ("google-pixel-2", "5.0", "Slave", "DisplayYesNo"),
    ("google-pixel-4", "5.0", "Slave", "DisplayYesNo"),
    ("lenovo-x1-3rd-gen", "4.2", "Slave", "DisplayYesNo"),
    ("lenovo-x1-7th-gen", "5.1", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-a40", "5.0", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-a51", "5.0", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-a90", "5.0", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-s10", "5.0", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-s10e", "5.0", "Slave", "DisplayYesNo"),
    ("samsung-galaxy-s20", "5.0", "Slave", "DisplayYesNo"),
    ("xiaomi-mi-10t-lite", "5.1", "Slave", "DisplayYesNo"),
    ("xiaomi-mi-11", "5.2", "Slave", "DisplayYesNo"),
    ("sony-wh-1000xm3", "4.2", "Master", "NoInputNoOutput"),
    ("sony-wh-ch700n", "4.1", "Master", "NoInputNoOutput"),
]


def _victim_profile(index: int, name: str, version: str, io_cap: str) -> dict:
    profile = {
        "address": f"02:00:00:00:01:{index + 1:02x}",
        "name": name,
        "bt_version": version,
        "io_capability": io_cap,
    }
    if name == "sony-wh-ch700n":
        # 4.1 device with vendor-backported derivation support, SC only on
        # the controller side, no salted-conversion support.
        profile.update(ctkd_backported=True, sc_host=False, h7_supported=False)
    return profile


def _companion_profile(kind: str) -> dict:
    if kind == "laptop":
        return {
            "address": "02:00:00:00:02:01",
            "name": "companion-laptop",
            "bt_version": "5.1",
            "io_capability": "DisplayYesNo",
        }
    return {
        "address": "02:00:00:00:02:02",
        "name": "companion-headset",
        "bt_version": "5.0",
        "io_capability": "NoInputNoOutput",
    }


def bundled_profiles() -> dict[str, DeviceProfile]:
    """All bundled profiles by name (16 victims + 2 companions)."""
    profiles = {}
    for i, (name, version, _role, io_cap) in enumerate(_VICTIMS):
        profiles[name] = DeviceProfile.from_dict(_victim_profile(i, name, version, io_cap), name)
    for kind in ("laptop", "headset"):
        raw = _companion_profile(kind)
        profiles[raw["name"]] = DeviceProfile.from_dict(raw, raw["name"])
    return profiles


def _scenario_dict(index: int, victim_index: int, strategy: str) -> dict:
    name, version, role, io_cap = _VICTIMS[victim_index]
    victim = _victim_profile(victim_index, name, version, io_cap)
    # A confirm-capable victim bonds with the headset so the pre-state
    # association is Just Works either way (nobody downgrades anything in
    # the baseline matrix; the attacks must win on equal protection).
    companion = _companion_profile("headset" if io_cap == "DisplayYesNo" else "laptop")
    peer = companion["name"]

    if strategy in ("mi", "us"):
        # Victim is the slave side; the companion paired into it as master.
        initiator, responder, live = peer, name, "BT"
    else:
        # Victim is the master side; attack arrives over BT mid-BLE-session.
        initiator, responder, live = name, peer, "BLE"
    pre = [
        {"action": "pair", "transport": "BT", "initiator": initiator, "responder": responder},
        {"action": "session", "transport": live, "initiator": initiator, "responder": responder},
    ]
    # Every attack wins at baseline; only the unintended session leaves the
    # victim's bonds untouched.
    us = strategy == "us"
    expectations = {
        "succeeded": True,
        "overwrote_existing": not us,
        "victim_reconnect": "ok" if us else "key_mismatch",
        "rejection": None,
    }

    return {
        "name": f"{name}__{strategy}",
        "seed": 40_000 + index,
        "devices": [{"profile": victim}, {"profile": companion}],
        "pre_state": pre,
        "attack": {"strategy": strategy, "target": name, "peer": peer},
        "expectations": expectations,
        "meta": {"device": name, "bt_version": version, "attacker_role": role},
    }


def _matrix_dicts() -> list[dict]:
    """The raw matrix scenarios, victim by victim, in ``STRATEGIES`` order."""
    cells = [(v, strategy) for v in range(len(_VICTIMS)) for strategy in STRATEGIES]
    return [_scenario_dict(index, v, strategy) for index, (v, strategy) in enumerate(cells)]


def matrix_scenarios() -> list[Scenario]:
    """The 64 bundled scenarios: 16 profiles x 4 strategies, baseline policies."""
    return [Scenario.from_dict(raw) for raw in _matrix_dicts()]


def write_matrix(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index, raw in enumerate(_matrix_dicts()):
        path = directory / f"{index:02d}__{raw['name']}.json"
        path.write_text(json.dumps(raw, indent=2) + "\n")
        written.append(path)
    return written


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "scenarios/matrix"
    paths = write_matrix(target)
    print(f"wrote {len(paths)} scenario files to {target}")

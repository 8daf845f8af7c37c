"""Scenario ingestion, deterministic execution, and matrix aggregation.

A scenario file is plain JSON: a seed, device profiles with per-device
policy flags, a pre-state (bonds and live sessions to establish honestly),
one attack, and the expected outcome fields. Same seed, same bytes out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .attacks import (
    STRATEGIES,
    STRATEGY_MI,
    STRATEGY_MITM,
    STRATEGY_SI,
    AttackerConfig,
    AttackOutcome,
    master_impersonation,
    mitm,
    slave_impersonation,
    unintended_session,
)
from .crypto import MAX_STRENGTH, MIN_STRENGTH, TRANSPORTS, Address
from .device import Device, DeviceProfile
from .pairing import (
    SimContext,
    ble_pair,
    bt_pair,
    build_pairing_request,
    establish_session,
    make_device,
)
from .policies import PolicySet, c1_tick
from .trace import TraceEvent, TraceRecorder, trace_digest


class ScenarioError(ValueError):
    """Configuration problem, with enough context to find the bad field."""


#: The one optional field each pre-state action reads, besides the
#: action, the two devices and the transport.
_STEP_OPTIONS = {"pair": "ctkd", "session": "entropy"}


@dataclass
class DeviceSpec:
    profile: DeviceProfile
    policies: PolicySet


@dataclass
class AttackSpec:
    strategy: str
    target: str
    peer: Optional[str] = None
    attacker_name: str = "charlie"
    attacker_address: Optional[str] = None  # fixed fresh identity for `us`


@dataclass
class Scenario:
    name: str
    seed: int
    devices: list[DeviceSpec]
    pre_state: list[dict]
    attack: AttackSpec
    expectations: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict, where: str = "scenario") -> "Scenario":
        data = dict(raw)
        name = data.pop("name", where)
        try:
            seed = int(data.pop("seed"))
            device_list = data.pop("devices")
            attack_raw = dict(data.pop("attack"))
        except KeyError as missing:
            raise ScenarioError(f"{where}: missing required field {missing.args[0]!r}") from None

        devices = []
        for i, entry in enumerate(device_list):
            entry = dict(entry)
            where_dev = f"{where}.devices[{i}]"
            if "profile" not in entry:
                raise ScenarioError(f"{where_dev}: missing 'profile'")
            try:
                profile = DeviceProfile.from_dict(entry.pop("profile"), where_dev)
                policies = PolicySet.from_dict(entry.pop("policies", {}), f"{where_dev}.policies")
            except ValueError as err:
                raise ScenarioError(str(err)) from None
            if entry:
                raise ScenarioError(f"{where_dev}: unknown field(s) {sorted(entry)}")
            devices.append(DeviceSpec(profile, policies))
        names = [spec.profile.name for spec in devices]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{where}: duplicate device names")

        pre_state = list(data.pop("pre_state", []))
        for i, step in enumerate(pre_state):
            cls._validate_step(step, names, f"{where}.pre_state[{i}]")

        strategy = attack_raw.pop("strategy", None)
        if strategy not in STRATEGIES:
            raise ScenarioError(f"{where}.attack: unknown strategy {strategy!r}")
        target = attack_raw.pop("target", None)
        if target not in names:
            raise ScenarioError(f"{where}.attack: target {target!r} is not a listed device")
        peer = attack_raw.pop("peer", None)
        if peer is not None and peer not in names:
            raise ScenarioError(f"{where}.attack: peer {peer!r} is not a listed device")
        if strategy in (STRATEGY_MI, STRATEGY_SI, STRATEGY_MITM) and peer is None:
            raise ScenarioError(f"{where}.attack: strategy {strategy!r} needs a 'peer'")
        attack = AttackSpec(
            strategy=strategy,
            target=target,
            peer=peer,
            attacker_name=attack_raw.pop("attacker_name", "charlie"),
            attacker_address=attack_raw.pop("attacker_address", None),
        )
        if attack_raw:
            raise ScenarioError(f"{where}.attack: unknown field(s) {sorted(attack_raw)}")

        expectations = dict(data.pop("expectations", {}))
        meta = dict(data.pop("meta", {}))
        if data:
            raise ScenarioError(f"{where}: unknown field(s) {sorted(data)}")
        return cls(name, seed, devices, pre_state, attack, expectations, meta)

    @staticmethod
    def _validate_step(step: dict, names: list[str], where: str) -> None:
        action = step.get("action")
        if action not in _STEP_OPTIONS:
            raise ScenarioError(f"{where}: unknown action {action!r}")
        for role_field in ("initiator", "responder"):
            if step.get(role_field) not in names:
                raise ScenarioError(f"{where}: {role_field} {step.get(role_field)!r} is not a listed device")
        if step.get("transport") not in TRANSPORTS:
            raise ScenarioError(f"{where}: bad transport {step.get('transport')!r}")
        unknown = set(step) - {"action", "initiator", "responder", "transport", _STEP_OPTIONS[action]}
        if unknown:
            raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)} for action {action!r}")
        if not isinstance(step.get("ctkd", True), bool):
            raise ScenarioError(f"{where}: ctkd must be true or false, got {step['ctkd']!r}")
        entropy = step.get("entropy", MAX_STRENGTH)
        if isinstance(entropy, bool) or not isinstance(entropy, int) \
                or not MIN_STRENGTH <= entropy <= MAX_STRENGTH:
            raise ScenarioError(
                f"{where}: entropy must be an integer in {MIN_STRENGTH}..{MAX_STRENGTH}, got {entropy!r}"
            )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from None
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from None
    return Scenario.from_dict(raw, where=str(path))


@dataclass
class ScenarioResult:
    scenario: Scenario
    outcome: AttackOutcome
    trace: list[TraceEvent]
    devices: dict[str, Device]
    expectation_failures: list[str]

    @property
    def expectations_ok(self) -> bool:
        return not self.expectation_failures

    def trace_digest(self) -> str:
        return trace_digest(self.trace)


def check_expectations(expectations: dict, outcome: AttackOutcome) -> list[str]:
    got = outcome.to_dict()
    failures = []
    for key, expected in expectations.items():
        if key not in got:
            failures.append(f"{key}: no such outcome field")
            continue
        actual = got[key]
        if key == "keys_written":
            matched = sorted(map(tuple, actual)) == sorted(map(tuple, expected))
        elif key == "ctis_used":
            matched = set(actual) == set(expected)
        else:
            matched = actual == expected
        if not matched:
            failures.append(f"{key}: expected {expected!r}, got {actual!r}")
    return failures


def run_scenario(
    scenario: Scenario,
    policy_override: Optional[PolicySet] = None,
    seed_override: Optional[int] = None,
) -> ScenarioResult:
    """Execute pre-state then the attack; fully deterministic under the seed."""
    seed = scenario.seed if seed_override is None else seed_override
    ctx = SimContext(rng=random.Random(seed), trace=TraceRecorder())

    devices: dict[str, Device] = {}
    for spec in scenario.devices:
        policies = policy_override if policy_override is not None else spec.policies
        devices[spec.profile.name] = make_device(ctx, spec.profile, policies)

    for i, step in enumerate(scenario.pre_state):
        initiator = devices[step["initiator"]]
        responder = devices[step["responder"]]
        transport = step["transport"]
        if step["action"] == "pair":
            request = None
            if transport == "BLE":
                request = build_pairing_request(initiator.profile, ctkd=step.get("ctkd", True))
                session = ble_pair(ctx, initiator, responder, request)
            else:
                session = bt_pair(ctx, initiator, responder, want_ctkd=step.get("ctkd", True))
            if not session.complete:
                raise ScenarioError(
                    f"{scenario.name}: pre_state[{i}] pairing aborted "
                    f"({session.abort_reason and session.abort_reason.value})"
                )
        else:
            result = establish_session(
                ctx, initiator, responder, transport, step.get("entropy", 16)
            )
            if not result.ok:
                raise ScenarioError(
                    f"{scenario.name}: pre_state[{i}] session failed ({result.outcome})"
                )

    # Idle-transport auto-disable fires between normal operation and attack.
    for device in devices.values():
        for transport in TRANSPORTS:
            c1_tick(device, transport, ctx.trace.clock)

    outcome = _dispatch_attack(ctx, scenario, devices)
    failures = check_expectations(scenario.expectations, outcome)
    return ScenarioResult(scenario, outcome, list(ctx.trace.events), devices, failures)


def _dispatch_attack(ctx: SimContext, scenario: Scenario, devices: dict[str, Device]) -> AttackOutcome:
    attack = scenario.attack
    target = devices[attack.target]
    peer = devices[attack.peer] if attack.peer else None
    spoofed = peer.address if peer else None
    true_identity = (
        Address.parse(attack.attacker_address) if attack.attacker_address else None
    )
    config = AttackerConfig(
        strategy=attack.strategy,
        target=target.address,
        spoofed=spoofed,
        true_identity=true_identity,
        name=attack.attacker_name,
    )
    if attack.strategy == STRATEGY_MI:
        return master_impersonation(ctx, config, target, peer)
    if attack.strategy == STRATEGY_SI:
        return slave_impersonation(ctx, config, target, peer)
    if attack.strategy == STRATEGY_MITM:
        return mitm(ctx, config, target, peer)
    return unintended_session(ctx, config, target, peer)


# ---------------------------------------------------------------------------
# Matrix runs
# ---------------------------------------------------------------------------

CHECK = "✓"
CROSS = "✗"


@dataclass
class MatrixReport:
    rows: list[dict]
    policy_override: Optional[PolicySet] = None
    errors: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.rows if r["succeeded"])

    @property
    def all_expected(self) -> bool:
        # None means "not checked" (policy override in force).
        return all(r["expectations_ok"] in (True, None) for r in self.rows)

    def by_device(self) -> dict[str, dict]:
        grouped: dict[str, dict] = {}
        for row in self.rows:
            entry = grouped.setdefault(
                row["device"],
                {"version": row.get("version"), "attacker_role": row.get("attacker_role")},
            )
            entry[row["strategy"]] = row["succeeded"]
        return grouped

    def to_json_dict(self) -> dict:
        return {
            "policies": self.policy_override.enabled_names() if self.policy_override else None,
            "summary": {
                "total": self.total,
                "succeeded": self.succeeded,
                "blocked": self.total - self.succeeded,
                "all_expectations_ok": self.all_expected,
            },
            "rows": self.rows,
            "by_device": self.by_device(),
            "errors": self.errors,
        }

    def render_text(self) -> str:
        grouped = self.by_device()
        if not grouped:
            return "(no scenarios)\n"
        name_w = max(len("Device"), *(len(d) for d in grouped))
        lines = [
            f"{'Device':<{name_w}}  {'Version':<7}  {'Role':<6}  {'MI/SI':<5}  {'MitM':<4}  US",
            "-" * (name_w + 2 + 7 + 2 + 6 + 2 + 5 + 2 + 4 + 2 + 2),
        ]

        def mark(value) -> str:
            if value is None:
                return "."
            return CHECK if value else CROSS

        for device, entry in grouped.items():
            role = entry.get("attacker_role") or "-"
            imp = entry.get("mi") if role == "Master" else entry.get("si")
            if imp is None:
                imp = entry.get("mi", entry.get("si"))
            lines.append(
                f"{device:<{name_w}}  {entry.get('version') or '-':<7}  {role:<6}  "
                f"{mark(imp):<5}  {mark(entry.get('mitm')):<4}  {mark(entry.get('us'))}"
            )
        lines.append("")
        lines.append(
            f"{self.succeeded}/{self.total} attack runs succeeded"
            + ("" if self.policy_override is None
               else f" (policies: {','.join(self.policy_override.enabled_names()) or 'none'})")
        )
        return "\n".join(lines) + "\n"


def run_matrix(
    scenarios: list[Scenario],
    policy_override: Optional[PolicySet] = None,
) -> MatrixReport:
    """Run every scenario; per-scenario failures never abort the matrix."""
    rows = []
    errors = []
    for scenario in scenarios:
        try:
            result = run_scenario(scenario, policy_override=policy_override)
        except ScenarioError as err:
            errors.append(str(err))
            continue
        outcome = result.outcome
        rows.append(
            {
                "scenario": scenario.name,
                # Matrix fixtures carry the profile name in meta; ad-hoc
                # scenarios each get their own table row.
                "device": scenario.meta.get("device", scenario.name),
                "version": scenario.meta.get("bt_version"),
                "attacker_role": scenario.meta.get("attacker_role"),
                "strategy": scenario.attack.strategy,
                "succeeded": outcome.succeeded,
                "rejection": None if outcome.rejection is None else outcome.rejection.value,
                "ctis_used": sorted(int(c) for c in outcome.ctis_used),
                "expectations_ok": result.expectations_ok
                if policy_override is None
                else None,
            }
        )
    return MatrixReport(rows, policy_override, errors)

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
from typing import NamedTuple, Optional

from .attacks import (STRATEGIES, STRATEGY_MI, STRATEGY_MITM, STRATEGY_SI, STRATEGY_US, AttackOutcome,
                      master_impersonation, mitm, slave_impersonation, unintended_session)
from .crypto import MAX_STRENGTH, MIN_STRENGTH, TRANSPORT_BLE, TRANSPORT_BT, TRANSPORTS, Address, Checked
from .device import Device, DeviceProfile, ScenarioError, json_fields, json_typed
from .pairing import SessionState, SimContext, ble_pair, bt_pair, establish_session, make_device
from .policies import DEFENSE_SUBSETS, PolicySet, c1_tick
from .trace import PAYLOAD_SCHEMAS, TraceEvent, trace_digest


#: The one optional field each pre-state action reads, besides the
#: action, the two devices and the transport.
_STEP_OPTIONS = {"pair": "ctkd", "session": "entropy"}


def _listed(value, item) -> bool:
    """Whether ``value`` is a JSON list, or the tuple a Scenario keeps one as, whose every item passes ``item``."""
    return type(value) in (list, tuple) and all(map(item, value))


#: Per outcome field, its JSON type (as ``AttackOutcome.to_dict`` gives it) and whether a value has it.
_EXPECTED = {
    "succeeded": ("true or false", lambda value: type(value) is bool),
    "overwrote_existing": ("true or false", lambda value: type(value) is bool),
    "victim_reconnect": ("a string", lambda value: type(value) is str),
    "rejection": ("a string or null", lambda value: value is None or type(value) is str),
    "ctis_used": ("a list of integers", lambda value: _listed(value, lambda cti: type(cti) is int)),
    "keys_written": ("a list of three-string lists", lambda value: _listed(
        value, lambda key: _listed(key, lambda part: type(part) is str) and len(key) == 3)),
}


def _expected(name: str, value):
    """``value`` as a Scenario keeps expectation ``name``, each list a tuple, when it has the outcome field's JSON
    type; a kept value passes too, as ``dataclasses.replace`` gives it back."""
    kind, has_kind = _EXPECTED[name]
    if not has_kind(value):
        raise ScenarioError(f"expectations.{name} must be {kind}, got {value!r}")
    return tuple(map(tuple, value)) if name == "keys_written" else tuple(value) if name == "ctis_used" else value


class Step(Checked, NamedTuple("Step", [("action", str), ("initiator", str), ("responder", str),
                                        ("transport", str), ("ctkd", bool), ("entropy", int)])):
    """One pre-state step: ``action`` ("pair" or "session") between two device names on
    ``transport``. ``ctkd`` is read by a ``pair`` step and ``entropy`` by a BT ``session``; a step
    that does not read one holds its default. The constructor checks these rules and ``Scenario``
    the names, so a loaded step and one built or ``_replace``d in code are checked alike, as every
    way of building a Scenario checks the same rules."""

    __slots__ = ()

    def __new__(cls, action: str, initiator: str, responder: str, transport: str,
                ctkd: bool = True, entropy: int = MAX_STRENGTH) -> "Step":
        if type(action) is not str or action not in _STEP_OPTIONS:
            raise ScenarioError(f"unknown action {action!r}")
        if initiator == responder:
            raise ScenarioError(f"initiator and responder are both {initiator!r}")
        if transport not in TRANSPORTS:
            raise ScenarioError(f"bad transport {transport!r}")
        if type(ctkd) is not bool:
            raise ScenarioError(f"ctkd must be true or false, got {ctkd!r}")
        if type(entropy) is not int or not MIN_STRENGTH <= entropy <= MAX_STRENGTH:  # so true is no integer
            raise ScenarioError(f"entropy must be an integer in {MIN_STRENGTH}..{MAX_STRENGTH}, got {entropy!r}")
        if not ctkd and action != "pair":
            raise ScenarioError("ctkd is read only by a pair step")
        if entropy != MAX_STRENGTH and (action, transport) != ("session", TRANSPORT_BT):
            # A BLE session key always takes the pairing key's strength.
            raise ScenarioError("entropy is read only by a BT session")
        return tuple.__new__(cls, (action, initiator, responder, transport, ctkd, entropy))


@dataclass(frozen=True)
class DeviceSpec:
    profile: DeviceProfile
    policies: PolicySet


@dataclass(frozen=True)
class AttackSpec:
    """The attack's strategy, its target and peer (device names), and the fresh identity ``us``
    may fix. The constructor checks the rules between them; ``Scenario`` checks the names."""

    strategy: str
    target: str
    peer: Optional[str] = None
    attacker_address: Optional[Address] = None  # fixed fresh identity for `us`

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {self.strategy!r}")
        if self.peer == self.target:
            raise ScenarioError(f"peer and target are both {self.target!r}")
        if self.strategy != STRATEGY_US and self.peer is None:
            raise ScenarioError(f"strategy {self.strategy!r} needs a 'peer'")
        if self.strategy != STRATEGY_US and self.attacker_address is not None:
            raise ScenarioError(f"attacker_address is read only by strategy {STRATEGY_US!r}")


@dataclass(frozen=True)
class Scenario:
    """A scenario: an immutable, hashable value that shares no object with the dict it was loaded
    from. ``from_dict``, the constructor and ``dataclasses.replace`` check the same rules: each
    ``Step`` and ``AttackSpec`` its own, and ``__post_init__`` those between fields.
    ``expectations`` and ``meta`` are tuples of ``(field, value)`` pairs in file order, a dict given
    for either being made so: each expectation of its outcome field's JSON type, each list a tuple,
    and each meta value a string."""

    name: str
    seed: int
    devices: tuple[DeviceSpec, ...]
    pre_state: tuple[Step, ...]
    attack: AttackSpec
    expectations: tuple[tuple[str, object], ...] = ()
    meta: tuple[tuple[str, str], ...] = ()
    #: Per DH backend, the pre-state snapshot that every run forks, or None (see run_scenario).
    _snapshots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """The rules between fields, each message naming its field; ``from_dict`` prefixes its ``where``."""
        if type(self.seed) is not int or self.seed < 0:  # random.Random drops the sign: -5 would replay seed 5
            raise ScenarioError(f"seed must be a non-negative integer, got {self.seed!r}")
        names = [spec.profile.name for spec in self.devices]
        addresses = [spec.profile.address for spec in self.devices]
        for what, listed in (("name", names), ("address", addresses)):
            for i, value in enumerate(listed):
                if listed.index(value) < i:
                    raise ScenarioError(f"devices[{i}]: {what} {value} is also devices[{listed.index(value)}]'s")
        for i, step in enumerate(self.pre_state):
            for role, name in (("initiator", step.initiator), ("responder", step.responder)):
                if name not in names:
                    raise ScenarioError(f"pre_state[{i}]: {role} {name!r} is not a listed device")
        for role, name in (("target", self.attack.target), ("peer", self.attack.peer)):
            if name not in names and (role == "target" or name is not None):
                raise ScenarioError(f"attack: {role} {name!r} is not a listed device")
        if self.attack.attacker_address in addresses:
            raise ScenarioError(f"attack.attacker_address: {self.attack.attacker_address} is a listed device's address")
        for name in ("expectations", "meta"):  # a JSON object, or the (field, value) pairs one is kept as
            try:
                object.__setattr__(self, name, dict(getattr(self, name)))
            except (TypeError, ValueError):
                raise ScenarioError(f"{name} must be a JSON object, got {getattr(self, name)!r}") from None
        unknown = [key for key in self.expectations if key not in AttackOutcome._fields]
        if unknown:
            raise ScenarioError(f"expectations: unknown field(s) {sorted(unknown, key=str)}")
        object.__setattr__(self, "expectations", tuple((key, _expected(key, value))
                                                       for key, value in self.expectations.items()))
        object.__setattr__(self, "meta", tuple((key, json_typed(value, str, f"meta.{key}"))
                                               for key, value in self.meta.items()))

    @classmethod
    def from_dict(cls, raw: dict, where: str = "scenario") -> "Scenario":
        """Parse a scenario's JSON shape, naming each bad field by its ``where`` path; the
        constructors check the rest. A bad one raises ``ScenarioError`` and nothing else."""
        data = json_fields(raw, where, {"name": str, "seed": int, "devices": list, "pre_state": list, "attack": dict,
                                        "expectations": dict, "meta": dict}, required=("seed", "devices", "attack"))
        devices = []
        for i, entry in enumerate(data["devices"]):
            where_dev = f"{where}.devices[{i}]"
            entry = json_fields(entry, where_dev, {"profile": dict, "policies": dict}, required=("profile",))
            devices.append(DeviceSpec(DeviceProfile.from_dict(entry["profile"], f"{where_dev}.profile"),
                                      PolicySet.from_dict(entry.get("policies", {}), f"{where_dev}.policies")))
        steps = data.get("pre_state", [])
        pre_state = tuple(_step(step, f"{where}.pre_state[{i}]") for i, step in enumerate(steps))
        kinds = {"strategy": str, "target": str, "peer": str, "attacker_address": str}
        attack = json_fields(data["attack"], f"{where}.attack", kinds, required=("strategy", "target"))
        address = attack.get("attacker_address")
        address = None if address is None else _at(f"{where}.attack.attacker_address: ", Address.parse, address)
        attack = _at(f"{where}.attack: ", AttackSpec, attack["strategy"], attack["target"], attack.get("peer"), address)
        return _at(f"{where}.", cls, data.get("name", where), data["seed"], tuple(devices), pre_state, attack,
                   data.get("expectations", {}), data.get("meta", {}))


def _at(where: str, build, *args):
    """``build(*args)``; a ``ValueError`` it raises becomes a ``ScenarioError`` with ``where`` before its message."""
    try:
        return build(*args)
    except ValueError as err:
        raise ScenarioError(f"{where}{err}") from None


def _step(step: dict, where: str) -> Step:
    action = json_typed(step, dict, where).get("action")
    if type(action) is str and action in _STEP_OPTIONS:  # else Step names the bad action
        unknown = set(step) - {"action", "initiator", "responder", "transport", _STEP_OPTIONS[action]}
        if unknown:
            raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)} for action {action!r}")
    return _at(f"{where}: ", Step, action, step.get("initiator"), step.get("responder"), step.get("transport"),
               step.get("ctkd", True), step.get("entropy", MAX_STRENGTH))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from None
    except (OSError, ValueError, RecursionError) as err:
        # Unreadable, not UTF-8, or past the parser's integer or nesting limits.
        raise ScenarioError(f"{path}: {err}") from None
    return Scenario.from_dict(raw, where=str(path))


@dataclass
class ScenarioResult:
    scenario: Scenario
    outcome: AttackOutcome
    trace: list[TraceEvent]
    devices: dict[str, Device]
    #: The scenario's expectations that the outcome missed; None under a policy override,
    #: which checks none, since they describe the scenario's own policies.
    expectation_failures: Optional[list[str]]

    @property
    def expectations_ok(self) -> Optional[bool]:
        """Whether the outcome met every expectation; None when none was checked."""
        return None if self.expectation_failures is None else not self.expectation_failures

    def trace_digest(self) -> str:
        return trace_digest(self.trace)


#: Outcome lists compared without regard to order: as a multiset and as a set.
_UNORDERED = {"keys_written": sorted, "ctis_used": set}


def check_expectations(expectations: tuple, outcome: AttackOutcome) -> list[str]:
    """The messages of the ``(field, value)`` pairs of a Scenario's ``expectations`` that ``outcome`` misses."""
    got = outcome.to_dict()
    failures = []
    for key, expected in expectations:
        actual = got[key]  # a Scenario keeps only outcome fields, each of its JSON type
        if key in _UNORDERED:  # a kept list, compared and printed as JSON loads it
            expected = [list(item) if type(item) is tuple else item for item in expected]
            matched = _UNORDERED[key](actual) == _UNORDERED[key](expected)
        else:
            matched = actual == expected
        if not matched:
            failures.append(f"{key}: expected {expected!r}, got {actual!r}")
    return failures


def run_scenario(scenario: Scenario, policy_override: Optional[PolicySet] = None) -> ScenarioResult:
    """Execute pre-state then the attack; fully deterministic under the scenario's seed, which
    ``dataclasses.replace(scenario, seed=n)`` varies.

    Each device runs under its own policies, or every device under
    ``policy_override`` (every run of ``run_lattice``, and of ``run_matrix``
    given a set). Only a run under the scenario's own policies checks the
    scenario's expectations, which describe those policies: under an
    override ``expectation_failures`` and ``expectations_ok`` are None.

    Every run forks. The scenario's first run runs the pre-state once with
    all five defenses on and keeps what it left on the Scenario
    (``_snapshot``); every run copies its devices, gives each device its
    policies, ticks c1 and runs the attack. The trace bytes are those of the
    reference path (``_pre_state``, then the attack) under the same
    policies, since a device's checks read only its own policies, each of
    which is a subset of all five, and:

    * a defense can only add denials;
    * an early-stage verdict is emitted only by ``pairing._abort``, so only
      on a deny;
    * every store verdict is emitted with ``allow: true`` and names no policy
      (``_emit_verdict`` computes ``allow`` from the reason);
    * c1 acts only at the tick after the pre-state.

    So a pre-state that passes with all five on writes the same bytes and
    leaves the same state under every subset. A scenario whose all-defenses
    pre-state aborts or raises keeps no snapshot: each of its runs takes the
    reference path, so a pre-state error still names its ``pre_state[i]``
    under the policies in force. The snapshot is kept per DH backend on the
    Scenario, an immutable value; one that ``dataclasses.replace`` varies,
    its seed included, starts with none.

    A fork's trace starts with the snapshot's own pre-state events, which
    the run only reads. This function swaps them for copies before it
    returns, so every payload dict of the trace it hands out, and every
    dict inside one, is the caller's own. ``run_matrix`` reads only the
    outcome, so a sweep copies no event.

    The fork pays only when one Scenario object runs again: the run
    that takes the snapshot costs more than the reference path would (the
    all-defenses pre-state and a copy), each later run less. ``ctkdsim run``
    and ``ctkdsim matrix`` run each fresh Scenario once.
    """
    ctx, devices, outcome, shared = _run(scenario, policy_override)
    events = ctx.trace.events
    for index, actor, kind, payload in events[:shared]:
        payload = payload.copy()
        for name in _NESTED:
            if name in payload:
                payload[name] = payload[name].copy()
        events[index] = tuple.__new__(TraceEvent, (index, actor, kind, payload))
    failures = check_expectations(scenario.expectations, outcome) if policy_override is None else None
    return ScenarioResult(scenario, outcome, events, devices, failures)


def _run(scenario: Scenario, policy_override: Optional[PolicySet]
         ) -> tuple[SimContext, dict[str, Device], AttackOutcome, int]:
    """Run ``scenario`` as ``run_scenario`` does, but copy nothing: the context, devices and
    outcome, and how many of the trace's first events are the snapshot's own, shared."""
    policies = [spec.policies if policy_override is None else policy_override for spec in scenario.devices]
    ctx, devices, shared = _fork(scenario, policies)
    return ctx, devices, _run_attack(ctx, scenario, devices), shared


def _pre_state(scenario: Scenario, ctx: SimContext, policies: list[PolicySet]) -> dict[str, Device]:
    """The reference path up to the attack on a fresh ``ctx``: each device built under its
    ``policies`` (in ``scenario.devices`` order), and every pre-state step run on them."""
    devices = {spec.profile.name: make_device(ctx, spec.profile, device_policies)
               for spec, device_policies in zip(scenario.devices, policies)}
    for i, step in enumerate(scenario.pre_state):
        initiator = devices[step.initiator]
        responder = devices[step.responder]
        if step.action == "pair":
            pair = ble_pair if step.transport == TRANSPORT_BLE else bt_pair
            session = pair(ctx, initiator, responder, step.ctkd)
            if session.aborted:
                raise ScenarioError(
                    f"{scenario.name}: pre_state[{i}] pairing aborted "
                    f"({session.abort_reason and session.abort_reason.value})"
                )
        else:
            result = establish_session(ctx, initiator, responder, step.transport, step.entropy)
            if not result.ok:
                raise ScenarioError(
                    f"{scenario.name}: pre_state[{i}] session failed ({result.outcome})"
                )
    return devices


def _run_attack(ctx: SimContext, scenario: Scenario, devices: dict[str, Device]) -> AttackOutcome:
    # c1 turns each unused transport off between normal operation and attack.
    for device in devices.values():
        for transport in TRANSPORTS:
            c1_tick(device, transport)
    # Each attack is called through its module name: bench/tracer.py rebinds those names by identity.
    attack = scenario.attack
    target = devices[attack.target]
    peer = devices[attack.peer] if attack.peer else None
    if attack.strategy == STRATEGY_MI:
        return master_impersonation(ctx, target, peer)
    if attack.strategy == STRATEGY_SI:
        return slave_impersonation(ctx, target, peer)
    if attack.strategy == STRATEGY_MITM:
        return mitm(ctx, target, peer)
    return unintended_session(ctx, target, peer, attack.attacker_address)


# ---------------------------------------------------------------------------
# Pre-state snapshots, which every run forks
# ---------------------------------------------------------------------------

#: The payload keys whose value is an object, which ``run_scenario`` copies too.
_NESTED = frozenset(key for schema in PAYLOAD_SCHEMAS.values() for key, kind in schema.items()
                    if isinstance(kind, dict))


class _Counted(random.Random):
    """A generator that counts the 32-bit words its draws take. Every draw the simulator makes,
    ``randrange`` and ``randbytes`` included, goes through ``getrandbits``, and ``getrandbits(k)``
    takes ``ceil(k / 32)`` words, so seeding and one ``getrandbits(32 * words)`` reach its state."""

    words = 0

    def getrandbits(self, k: int) -> int:
        self.words += -(-k // 32)
        return super().getrandbits(k)


class _Snapshot(NamedTuple):
    """What a scenario's all-defenses pre-state left on one DH backend, which ``_fork`` starts from.

    The rng is kept as a word count, counted as the pre-state drew: a fork seeds
    ``random.Random`` and skips the words with one ``getrandbits``: about 9 us for the 40 words
    of a matrix pre-state, against about 12 us for ``setstate`` from a kept ``rng.getstate()``
    on a generator built as ``random.Random(0)`` (``timeit``, Python 3.11.7, 2-vCPU shared VM).
    A kept state is also a 24.4 kB tuple: 64 of them hold 1.56 MB. A fork shares the events,
    which no run writes into. The devices are the pre-state's own, under all five defenses; a fork
    builds its own under its policies from their identity keys, and copies their bonds and
    sessions. No pre-state step changes a device's pairability (only the c1 tick after it does),
    so a fork's devices start pairable, as built.
    """

    words: int  # 32-bit words the pre-state drew from its seeded generator
    events: tuple  # its TraceEvents as recorded; each fork's trace starts with these very tuples
    devices: tuple  # its Devices, in DeviceSpec order; no fork changes them


def _snapshot(scenario: Scenario, dh_backend: str) -> Optional[_Snapshot]:
    """What the pre-state leaves with all five defenses on, or None when it aborts or raises."""
    ctx = SimContext(rng=_Counted(scenario.seed), dh_backend=dh_backend)
    try:
        devices = _pre_state(scenario, ctx, [DEFENSE_SUBSETS[-1]] * len(scenario.devices))
    except ScenarioError:
        return None
    return _Snapshot(ctx.rng.words, tuple(ctx.trace.events), tuple(devices.values()))


def _fork(scenario: Scenario, policies: list[PolicySet]) -> tuple[SimContext, dict[str, Device], int]:
    """A context and devices in the state the pre-state leaves with each device under its
    ``policies``, and how many trace events the context shares with the snapshot: the
    scenario's snapshot on the context's DH backend, taken first if it has none, or the
    reference path's state, which shares none, when it keeps none."""
    ctx = SimContext(rng=random.Random(scenario.seed))
    if ctx.dh_backend not in scenario._snapshots:
        scenario._snapshots[ctx.dh_backend] = _snapshot(scenario, ctx.dh_backend)
    snapshot = scenario._snapshots[ctx.dh_backend]
    if snapshot is None:
        return ctx, _pre_state(scenario, ctx, policies), 0
    ctx.rng.getrandbits(32 * snapshot.words)
    ctx.trace.events.extend(snapshot.events)  # shared: no run writes into an earlier event's payload
    copies: dict[int, SessionState] = {}  # id(kept session) -> its copy, which both ends share
    devices = {}
    for device_policies, kept in zip(policies, snapshot.devices):
        device = devices[kept.name] = Device(kept.profile, device_policies, kept.key_material)
        device.bonds.records = kept.bonds.records.copy()
        for s in kept.sessions:
            if id(s) not in copies:
                copies[id(s)] = SessionState(s.peers, s.transport, s.live)
            device.sessions.append(copies[id(s)])
    return ctx, devices, len(snapshot.events)


# ---------------------------------------------------------------------------
# Matrix runs
# ---------------------------------------------------------------------------

CHECK = "✓"
CROSS = "✗"
_MARKS = {None: ".", True: CHECK, False: CROSS}  # per cell: not run, succeeded, blocked


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
        header = f"{'Device':<{name_w}}  {'Version':<7}  {'Role':<6}  {'MI/SI':<5}  {'MitM':<4}  US"
        lines = [header, "-" * len(header)]
        for device, entry in grouped.items():
            role = entry.get("attacker_role") or "-"
            imp = entry.get("mi") if role == "Master" else entry.get("si")
            if imp is None:
                imp = entry.get("mi", entry.get("si"))
            lines.append(
                f"{device:<{name_w}}  {entry.get('version') or '-':<7}  {role:<6}  "
                f"{_MARKS[imp]:<5}  {_MARKS[entry.get('mitm')]:<4}  {_MARKS[entry.get('us')]}"
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
    """Run every scenario; a scenario error goes into ``errors`` and never aborts the rest. Each row
    reads only its run's outcome, so no run builds a ``ScenarioResult`` or copies a trace event."""
    rows = []
    errors = []
    for scenario in scenarios:
        try:
            _, _, outcome, _ = _run(scenario, policy_override)
        except ScenarioError as err:
            errors.append(str(err))
            continue
        meta = dict(scenario.meta)
        rows.append(
            {
                "scenario": scenario.name,
                # Matrix fixtures carry the profile name in meta; ad-hoc
                # scenarios each get their own table row.
                "device": meta.get("device", scenario.name),
                "version": meta.get("bt_version"),
                "attacker_role": meta.get("attacker_role"),
                "strategy": scenario.attack.strategy,
                "succeeded": outcome.succeeded,
                "rejection": None if outcome.rejection is None else outcome.rejection._value_,
                "ctis_used": sorted(int(c) for c in outcome.ctis_used),
                "expectations_ok": None if policy_override is not None
                else not check_expectations(scenario.expectations, outcome),
            }
        )
    return MatrixReport(rows, policy_override, errors)


def run_lattice(scenarios: list[Scenario]) -> dict[PolicySet, MatrixReport]:
    """``run_matrix`` under each set of ``DEFENSE_SUBSETS``; no run builds a ``ScenarioResult``."""
    return {policies: run_matrix(scenarios, policies) for policies in DEFENSE_SUBSETS}


def minimal_blocking_sets(lattice: dict[PolicySet, MatrixReport]) -> dict[str, list[PolicySet]]:
    """Per attack strategy, the defense sets under which none of its scenarios succeeds,
    without any set that holds a smaller such set. Raises ``ScenarioError`` when a report holds
    errors: a scenario that raised under a set has no row there, so it cannot count as blocked."""
    names = {policies: set(policies.enabled_names()) for policies in lattice}
    blocking: dict[str, list[PolicySet]] = {}
    for policies, report in lattice.items():
        if report.errors:
            raise ScenarioError(f"under {{{','.join(policies.enabled_names())}}}: {report.errors[0]}")
        succeeded = {row["strategy"] for row in report.rows if row["succeeded"]}
        for strategy in dict.fromkeys(row["strategy"] for row in report.rows):
            sets = blocking.setdefault(strategy, [])
            if strategy not in succeeded:
                sets.append(policies)
    return {strategy: [p for p in sets if not any(names[q] < names[p] for q in sets)]
            for strategy, sets in blocking.items()}

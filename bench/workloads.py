"""The benchmark's three workloads: their inputs, one work unit, and its checks.

A workload builds its inputs in ``__init__`` (that is the set-up that
``setup_s`` times), names its units with ``units()``, runs one unit with
``run(key)`` through the simulator's public entry points, and judges the
output afterwards with ``check(key, output)``. ``fingerprint`` reduces an
output to the bytes that must repeat: the same unit must give the same
fingerprint in every pass, in the untraced and in the traced run.
``check_pass`` sees the fingerprints of one whole pass, for invariants
that span units.

Every call into the simulator goes through a module attribute looked up at
call time (``ctkdsim.run_scenario``, never a name bound at import), so the
traced run's wrappers see it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import env

ctkdsim = env.import_ctkdsim()
from ctkdsim import trace as trace_mod  # noqa: E402  (needs the path set above)

HERE = Path(__file__).resolve().parent
MATRIX_DIR = env.ROOT / "scenarios" / "matrix"
MATRIX_SIZE = 64
REFERENCE_DIR = HERE / "reference"
MATRIX_REFERENCE = REFERENCE_DIR / "matrix_digests.json"
LATTICE_REFERENCE = REFERENCE_DIR / "lattice_rows.json"
PAIRING_REFERENCE = REFERENCE_DIR / "pairing_nc_digests.json"
PAIRING_REFERENCE_SEED = 1

POLICY_NAMES = ("sig51", "c1", "c2", "c3", "c4")


def load_matrix() -> list:
    paths = sorted(MATRIX_DIR.glob("*.json"))
    if len(paths) != MATRIX_SIZE:
        raise env.SetupError(f"expected {MATRIX_SIZE} scenario files in {MATRIX_DIR}, found {len(paths)}")
    return [ctkdsim.load_scenario(path) for path in paths]


def read_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise env.SetupError(f"cannot read reference {path}: {err}") from None


def policy_lattice() -> list:
    """All 32 subsets of the five defenses, indexed by bit mask over POLICY_NAMES."""
    return [
        ctkdsim.PolicySet.from_dict(
            {name: True for bit, name in enumerate(POLICY_NAMES) if mask >> bit & 1}
        )
        for mask in range(1 << len(POLICY_NAMES))
    ]


def policy_key(policies) -> str:
    return ",".join(policies.enabled_names()) or "none"


def outcome_row(row: dict) -> list:
    return [row["succeeded"], row["rejection"], row["ctis_used"]]


class Matrix:
    """The 64 bundled scenarios under their own policies, as ``ctkdsim run`` does them."""

    name = "matrix"

    def __init__(self, seed: int) -> None:
        self.scenarios = load_matrix()
        self.reference = read_reference(MATRIX_REFERENCE)

    def units(self) -> list:
        return list(range(len(self.scenarios)))

    def run(self, key: int):
        result = ctkdsim.run_scenario(self.scenarios[key])
        return result, trace_mod.trace_digest(result.trace)

    @staticmethod
    def fingerprint(output) -> str:
        return output[1]

    def check(self, key: int, output):
        result, digest = output
        name = self.scenarios[key].name
        if result.expectation_failures:
            return f"{name}: {'; '.join(result.expectation_failures)}"
        if digest != self.reference.get(name):
            return f"{name}: trace digest {digest[:16]} differs from the reference"
        return None

    def check_pass(self, fingerprints: dict) -> dict:
        return {}


class Lattice:
    """All 32 defense subsets x the 64 matrix scenarios, one scenario per ``run_matrix`` call."""

    name = "lattice"

    def __init__(self, seed: int) -> None:
        self.scenarios = load_matrix()
        self.policies = policy_lattice()
        reference = read_reference(LATTICE_REFERENCE)
        if reference.get("scenarios") != [s.name for s in self.scenarios]:
            raise env.SetupError(f"{LATTICE_REFERENCE} lists other scenarios than {MATRIX_DIR}")
        self.reference = reference["rows"]

    def units(self) -> list:
        return [(mask, i) for mask in range(len(self.policies)) for i in range(len(self.scenarios))]

    def run(self, key):
        mask, i = key
        return ctkdsim.run_matrix([self.scenarios[i]], policy_override=self.policies[mask])

    @staticmethod
    def fingerprint(report) -> tuple:
        return [outcome_row(row) for row in report.rows], report.errors

    def check(self, key, report):
        mask, i = key
        where = f"{self.scenarios[i].name} under {policy_key(self.policies[mask])}"
        if report.errors:
            return f"{where}: {report.errors[0]}"
        if len(report.rows) != 1:
            return f"{where}: {len(report.rows)} rows"
        expected = self.reference[policy_key(self.policies[mask])][i]
        got = outcome_row(report.rows[0])
        if got != expected:
            return f"{where}: outcome {got} differs from the reference {expected}"
        return None

    def check_pass(self, fingerprints: dict) -> dict:
        """Monotonicity: no superset of defenses lets through an attack a subset blocked."""
        succeeded = {
            key: rows[0][0] for key, (rows, _errors) in fingerprints.items() if len(rows) == 1
        }
        failures = {}
        for (mask, i), ok in succeeded.items():
            if not ok:
                continue
            for subset in range(len(self.policies)):
                if subset & mask == subset and succeeded.get((subset, i)) is False:
                    failures[(mask, i)] = (
                        f"{self.scenarios[i].name}: succeeds under {policy_key(self.policies[mask])} "
                        f"but is blocked under its subset {policy_key(self.policies[subset])}"
                    )
                    break
        return failures


# ---------------------------------------------------------------------------
# pairing_nc: generated Numeric Comparison pairs on P-256
# ---------------------------------------------------------------------------

NC_VERSIONS = ("4.2", "5.0", "5.1", "5.2")
NC_PAIRS = 256  # enough that the top 1% of samples, run_p99_ms, spans several pairs of any seed
BT, BLE = "BT", "BLE"


@dataclass(frozen=True)
class PairSpec:
    a: object  # DeviceProfile, the initiator of every pairing
    b: object
    first: str  # transport of the first pairing
    sim_seed: int

    @property
    def ctkd(self) -> bool:
        return self.a.ctkd_supported and self.b.ctkd_supported

    @property
    def second(self) -> str:
        return BLE if self.first == BT else BT


def generate_pairs(seed: int) -> list:
    """Seeded DisplayYesNo dual-mode pairs.

    The strata are balanced so that every seed runs the same mix: half the
    pairs both support CTKD, half do not (one side or both lack it), and
    within each half the first pairing is on BT for half of them.
    """
    rng = random.Random(seed)
    pairs = []
    used = set()

    def profile(name: str, ctkd: bool):
        while True:
            address = ctkdsim.Address(bytes([0x02]) + rng.randbytes(5))
            if address not in used:
                used.add(address)
                break
        return ctkdsim.DeviceProfile(
            address=address,
            name=name,
            bt_version=rng.choice(NC_VERSIONS),
            io_capability=ctkdsim.IoCapability.DISPLAY_YES_NO,
            ctkd_supported=ctkd,
            h7_supported=rng.random() < 0.5,
        )

    for i in range(NC_PAIRS):
        both = i % 2 == 0
        first = BT if i % 4 < 2 else BLE
        ctkd_a, ctkd_b = (True, True) if both else rng.choice([(True, False), (False, True), (False, False)])
        pairs.append(
            PairSpec(profile(f"nc{i}-a", ctkd_a), profile(f"nc{i}-b", ctkd_b), first, rng.getrandbits(64))
        )
    return pairs


@dataclass
class NcRun:
    pairings: list  # PairingSession, in order; the last is the re-pair
    before: list  # SessionResult on BT and BLE before the re-pair
    after: list  # SessionResult on BT and BLE after it
    events: list  # the whole trace
    repair_span: tuple  # indices of the re-pair's first event and of the one after its last
    digest: str


class PairingNc:
    """Pair, open sessions on both transports, re-pair on the other transport, reopen.

    Without CTKD a transport only gets a key by pairing on it, so such a
    pair is paired on both transports before the first sessions.
    """

    name = "pairing_nc"

    def __init__(self, seed: int) -> None:
        self.pairs = generate_pairs(seed)

    def units(self) -> list:
        return list(range(len(self.pairs)))

    @staticmethod
    def _pair(ctx, a, b, transport: str):
        if transport == BLE:
            return ctkdsim.ble_pair(ctx, a, b)
        return ctkdsim.bt_pair(ctx, a, b)

    def run(self, key: int) -> NcRun:
        spec = self.pairs[key]
        ctx = ctkdsim.SimContext(rng=random.Random(spec.sim_seed), dh_backend="p256")
        a = ctkdsim.make_device(ctx, spec.a)
        b = ctkdsim.make_device(ctx, spec.b)
        pairings = [self._pair(ctx, a, b, spec.first)]
        if not spec.ctkd:
            pairings.append(self._pair(ctx, a, b, spec.second))
        before = [ctkdsim.establish_session(ctx, a, b, t) for t in (BT, BLE)]
        start = ctx.trace.clock
        pairings.append(self._pair(ctx, a, b, spec.second))
        end = ctx.trace.clock
        after = [ctkdsim.establish_session(ctx, a, b, t) for t in (BT, BLE)]
        events = ctx.trace.events
        return NcRun(pairings, before, after, events, (start, end), trace_mod.trace_digest(events))

    @staticmethod
    def fingerprint(output: NcRun) -> str:
        return output.digest

    def check(self, key: int, out: NcRun):
        spec = self.pairs[key]
        where = f"pair {key} ({spec.first} first, ctkd={spec.ctkd})"
        nc = ctkdsim.Association.NUMERIC_COMPARISON
        for session in out.pairings:
            if not session.complete:
                return f"{where}: {session.transport} pairing aborted ({session.abort_reason})"
            if session.negotiated.association is not nc:
                return f"{where}: {session.transport} pairing used {session.negotiated.association}"
            if session.negotiated.ctkd != spec.ctkd:
                return f"{where}: {session.transport} pairing negotiated ctkd={session.negotiated.ctkd}"
        for result in out.before + out.after:
            if not result.ok:
                return f"{where}: session failed ({result.outcome})"
        stored = [e for e in out.events if e.kind == trace_mod.KIND_KEY_STORED]
        for event in stored:
            if not event.payload["mitm_protected"] or event.payload["association"] != nc.value:
                return f"{where}: stored an unprotected {event.payload['transport']} key"
        start, end = out.repair_span
        repaired = [e for e in stored if start <= e.index < end]
        # Both devices store the direct key, and the derived one under CTKD.
        if len(repaired) != (4 if spec.ctkd else 2):
            return f"{where}: re-pair stored {len(repaired)} keys"
        for event in repaired:
            if not event.payload["overwrote"]:
                return f"{where}: re-pair did not overwrite {event.payload['transport']}"
        overwritten = {BT, BLE} if spec.ctkd else {spec.second}
        for result in out.before:
            if result.session.live == (result.session.transport in overwritten):
                return f"{where}: {result.session.transport} session live={result.session.live} after the re-pair"
        return None

    def check_pass(self, fingerprints: dict) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Matrix, Lattice, PairingNc)}

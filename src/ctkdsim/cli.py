"""Command-line front end.

Exit codes: 0 when expectations were met (or nothing was checked), 1 on an
expectation/selftest mismatch, 2 on configuration errors. A command signals
a configuration error by raising ``ScenarioError`` or ``OSError``; ``main``
reports it and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .policies import DEFENSES, PolicySet
from .scenario import ScenarioError, load_scenario, run_matrix, run_scenario
from .trace import emit_trace
from .vectors import run_selftest

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2


def _parse_policies(spec: str) -> PolicySet:
    """The defenses a ``--policies`` list names: none for an empty list, or for ``none``, which is
    how the report prints the empty set."""
    names = [] if spec.strip() == "none" else [part.strip() for part in spec.split(",") if part.strip()]
    return PolicySet.from_dict(dict.fromkeys(names, True), "--policies")


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, seed_override=args.seed)
    if args.trace:
        emit_trace(result.trace, args.trace)

    outcome = result.outcome.to_dict()
    print(f"scenario: {scenario.name}")
    print(f"outcome:  {json.dumps(outcome, sort_keys=True)}")
    print(f"trace:    {len(result.trace)} events (digest {result.trace_digest()[:16]})")
    if result.expectations_ok:
        print(f"expectations: ok ({len(scenario.expectations)} checked)")
        return EXIT_OK
    for failure in result.expectation_failures:
        print(f"expectation mismatch: {failure}")
    return EXIT_MISMATCH


def _cmd_matrix(args) -> int:
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ScenarioError(f"no scenario files in {directory}")
    scenarios = [load_scenario(p) for p in paths]
    override = None if args.policies is None else _parse_policies(args.policies)

    report = run_matrix(scenarios, policy_override=override)
    print(report.render_text(), end="")
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        print(f"report written to {args.report}")
    if report.errors:
        for err in report.errors:
            print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    # Bundled expectations describe each scenario's own policy config: under
    # --policies no run checks them, and its rows' None counts as expected.
    return EXIT_OK if report.all_expected else EXIT_MISMATCH


def _cmd_kdf_selftest(_args) -> int:
    checks = run_selftest()
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"{status}  {check.name}{detail}")
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctkdsim",
        description="Deterministic BT/BLE cross-transport pairing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--trace", help="write the JSONL event trace here")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.set_defaults(func=_cmd_run)

    matrix_p = sub.add_parser("matrix", help="run every scenario in a directory")
    matrix_p.add_argument("directory", help="directory of scenario JSON files")
    matrix_p.add_argument(
        "--policies",
        help=f"force these defenses on every device (comma list: {','.join(DEFENSES)}; none for no defense)",
    )
    matrix_p.add_argument("--report", help="write a JSON report here")
    matrix_p.set_defaults(func=_cmd_matrix)

    selftest_p = sub.add_parser("kdf-selftest", help="run key-derivation vector checks")
    selftest_p.set_defaults(func=_cmd_kdf_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

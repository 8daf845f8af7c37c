"""Record the reference outputs that the benchmark checks against.

    python3 bench/make_reference.py

It overwrites ``reference/matrix_digests.json`` (the trace digest of every
bundled matrix scenario), ``reference/lattice_rows.json`` (the outcome row
of every scenario under each of the 32 defense subsets) and
``reference/pairing_nc_digests.json`` (the trace digest of every
pairing_nc unit for one seed, which smoke.py checks) with what the
simulator in this checkout produces. Run it only at a commit whose outputs
are known to be right; a change that alters trace bytes or outcomes must
say so, not re-record.
"""

from __future__ import annotations

import json
import sys

import workloads
from workloads import (
    LATTICE_REFERENCE,
    MATRIX_REFERENCE,
    PAIRING_REFERENCE,
    PAIRING_REFERENCE_SEED,
    ctkdsim,
)


def main() -> int:
    scenarios = workloads.load_matrix()
    digests = {}
    for scenario in scenarios:
        result = ctkdsim.run_scenario(scenario)
        if result.expectation_failures:
            print(f"{scenario.name}: {result.expectation_failures}", file=sys.stderr)
            return 1
        digests[scenario.name] = result.trace_digest()

    rows = {}
    for policies in workloads.policy_lattice():
        report = ctkdsim.run_matrix(scenarios, policy_override=policies)
        if report.errors:
            print(f"{workloads.policy_key(policies)}: {report.errors}", file=sys.stderr)
            return 1
        rows[workloads.policy_key(policies)] = [workloads.outcome_row(r) for r in report.rows]

    pairing = workloads.PairingNc(PAIRING_REFERENCE_SEED)
    pairing_digests = []
    for key in pairing.units():
        output = pairing.run(key)
        failure = pairing.check(key, output)
        if failure:
            print(failure, file=sys.stderr)
            return 1
        pairing_digests.append(output.digest)

    MATRIX_REFERENCE.write_text(json.dumps(digests, indent=1) + "\n")
    # One line per defense subset keeps the file readable in a diff.
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in rows.items()]
    LATTICE_REFERENCE.write_text(
        '{"scenarios": ' + json.dumps([s.name for s in scenarios]) + ',\n"rows": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )
    PAIRING_REFERENCE.write_text(
        json.dumps({"seed": PAIRING_REFERENCE_SEED, "digests": pairing_digests}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {MATRIX_REFERENCE}")
    print(f"wrote {len(rows)} x {len(scenarios)} rows to {LATTICE_REFERENCE}")
    print(f"wrote {len(pairing_digests)} digests to {PAIRING_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

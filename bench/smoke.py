"""Smoke test of the benchmark harness.

    python3 bench/smoke.py

Runs every workload briefly with ``--trace 0`` and ``--trace 1`` and checks
that each run printed every metric ``BENCHMARK.json`` names, with its unit;
that no unit failed; and that in the traced run every unit's trace digest
(or outcome rows) equalled the untraced one. It checks the pairing_nc
digests of the reference seed against ``reference/pairing_nc_digests.json``
(the matrix and lattice runs check their references themselves). Then it
checks that a directory holding only ``BENCHMARK.json`` and ``bench/``
makes the benchmark fail without printing a result. It takes under a
minute and exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int, report_path: Path) -> None:
    where = f"{workload} --trace {trace}"
    done = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--report", str(report_path))
    expect(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{where}: {result['failed']} failed units")
    expect(result["attempted"] >= 1, f"{where}: nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == wanted, f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{where}: {name} is not a number")
        expect(f"  {name} " in done.stdout, f"{where}: {name} not printed by name")
    report = json.loads(report_path.read_text())
    expect(report["fingerprint_mismatches"] == 0, f"{where}: traced and untraced digests differ")
    if trace:
        expect(report["traced_units"] > 0, f"{where}: no traced unit compared")


def check_pairing_reference() -> None:
    import workloads

    reference = json.loads(workloads.PAIRING_REFERENCE.read_text())
    pairing = workloads.PairingNc(reference["seed"])
    digests = [pairing.run(key).digest for key in pairing.units()]
    expect(digests == reference["digests"], "pairing_nc digests differ from the reference")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        for trace in ("0", "1"):
            done = bench(bare, "--workload", "matrix", "--seed", "1", "--seconds", "1", "--trace", trace)
            expect(done.returncode != 0, f"bare directory, --trace {trace}: exit 0")
            expect(done.stdout.strip() == "", f"bare directory, --trace {trace}: printed {done.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in (w["name"] for w in spec["workloads"]):
                for trace in (0, 1):
                    check_run(spec, workload, trace, Path(tmp) / "report.json")
                    print(f"ok  {workload} --trace {trace}", flush=True)
        check_pairing_reference()
        print("ok  pairing_nc digests equal the reference")
        check_bare_directory()
        print("ok  bare directory fails without a result")
    except SmokeFailure as failure:
        print(f"FAIL  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

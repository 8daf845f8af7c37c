"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

A closed loop with one client: the process runs work units back to back,
each started only when the previous one has returned, in whole seeded
passes over the workload's units, until ``--seconds`` have passed. Every
unit is timed from outside through the simulator's public entry points and
its outputs are checked afterwards, outside the timed region; a unit that
raises or fails a check is counted as failed and the run goes on.

Timings are CPU time: of this thread for a unit, of the child process for
set-up. Units do no I/O and never wait, so CPU time is their service time;
unlike wall time it leaves out the time a shared host runs other guests on
this machine's CPU (steal), which made wall-clock tails swing threefold
between runs. CPU time still follows the host's speed, which jumped 1.6x
within seconds on the VM the benchmark was tuned on; so every timing is
host-normalised by the calibration kernel run beside it (calibration.py);
``setup_s``, whose CPU time did not follow the kernel's from one probe to
the next, by the kernel's median over the whole run. The raw CPU times are
printed and written to ``--report`` too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload untraced for a third of the time, then traced (see tracer.py) for
the rest, and reports the per-layer metrics; every unit of the traced
phase must give the same trace digest (or outcome rows) as in the untraced
phase.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, and the environment.
``--report`` also writes all of it, with the ratios' bases and the
failures, as JSON. The exit code is 0 when every check passed, 1 when one
failed, and 2 when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time_ns

import calibration
import env

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("matrix", "lattice", "pairing_nc")
END_TO_END = {
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WARMUP = 64  # untimed units before the first timed one
# Fresh interpreters timed for setup_s, after one untimed one that writes the
# bytecode caches. Half run before the timed loop and half after it, so that
# the median spans two moments of a noisy host.
SETUP_PROBES = 20
MAX_FAILURE_MESSAGES = 20


class Failures:
    def __init__(self) -> None:
        self.count = 0
        self.messages: list[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)


class Phase:
    """One closed-loop measurement: each timed unit's CPU time and the kernel times around it."""

    def __init__(self) -> None:
        self.runs: list = []  # (unit key, or None if it failed; CPU ns), in run order
        self.kernel_ns: list = []  # kernel times; runs[i] ran between kernel_ns[i] and [i + 1]
        self.attempted = 0
        self.mismatches = 0  # units whose fingerprint differs from their first one

    def record(self, key, elapsed_ns: int, kernel_after_ns: int) -> None:
        self.runs.append((key, elapsed_ns))
        self.kernel_ns.append(kernel_after_ns)

    def completed(self, normalised: bool = True) -> list:
        """(unit key, latency ns) of each completed run, in run order.

        Normalised latencies are scaled to the reference host speed by the
        kernel times just before and after each run (calibration.scale).
        """
        k = self.kernel_ns
        return [
            (key, ns * calibration.scale(k[i], k[i + 1]) if normalised else ns)
            for i, (key, ns) in enumerate(self.runs)
            if key is not None
        ]

    def latencies_ns(self, normalised: bool = True) -> dict:
        """Unit key -> latencies of its completed runs."""
        latencies: dict = {}
        for key, ns in self.completed(normalised):
            latencies.setdefault(key, []).append(ns)
        return latencies

    def kernel_us(self) -> float:
        return statistics.median(self.kernel_ns) / 1000 if self.kernel_ns else 0.0


def runs_per_s(latencies_ns: dict) -> float:
    """Units per second of a pass in which every unit takes its median time.

    Each unit counts once, as in a pass. Taking each unit's median keeps
    the host's brief stalls out of the rate.
    """
    typical_pass_ns = sum(statistics.median(runs) for runs in latencies_ns.values())
    return len(latencies_ns) / (typical_pass_ns / 1e9) if typical_pass_ns else 0.0


@dataclass
class Outcome:
    attempted: int
    failures: Failures
    metrics: dict  # name -> {"value", "unit"}
    notes: dict  # name -> how the value was measured (sample count, base)
    fingerprint_mismatches: int
    summary: str = ""
    bases: dict = field(default_factory=dict)  # ratio name -> its denominator
    raw: dict = field(default_factory=dict)  # end-to-end metric -> its value before normalising
    traced_units: int = 0


def run_phase(workload, seconds: float, seed: int, fingerprints: dict, failures: Failures,
              run_unit, warmup: bool) -> Phase:
    """Whole passes over the workload's units, in a seeded order, until ``seconds`` pass.

    With ``warmup`` WARMUP untimed units run first, so lazy imports and caches
    are settled before the first timed unit. ``fingerprints`` maps each unit
    to its first fingerprint; a later run of the unit must repeat it.
    """
    phase = Phase()

    def one(key, timed: bool, pass_fingerprints: dict) -> bool:
        start = thread_time_ns()
        try:
            output = run_unit(workload.run, key)
        except Exception as err:  # a failed unit is counted, never raised
            elapsed = thread_time_ns() - start
            message = f"{key}: {type(err).__name__}: {err}"
        else:
            elapsed = thread_time_ns() - start
            message = None
        # The kernel runs right after the unit, before its checks, so that
        # both see the same host speed.
        kernel_ns = calibration.timed_kernel_ns() if timed else 0
        if message is None:
            try:
                message = workload.check(key, output)
                fingerprint = workload.fingerprint(output)
            except Exception as err:
                message = f"{key}: check raised {type(err).__name__}: {err}"
            else:
                if fingerprints.setdefault(key, fingerprint) != fingerprint:
                    phase.mismatches += 1
                    message = message or f"{key}: output differs from an earlier run of the same unit"
                pass_fingerprints[key] = fingerprint
        phase.attempted += 1
        if message:
            failures.add(message)
        if timed:
            phase.record(None if message else key, elapsed, kernel_ns)
        return not message

    if warmup:
        order = workload.units()
        random.Random(seed).shuffle(order)
        for key in order[:WARMUP]:
            one(key, False, {})

    gc.collect()
    phase.kernel_ns.append(calibration.timed_kernel_ns())
    deadline = perf_counter() + seconds
    pass_index = 0
    while pass_index == 0 or perf_counter() < deadline:
        order = workload.units()
        random.Random(seed * 7919 + pass_index).shuffle(order)
        pass_fingerprints: dict = {}
        failed = {key for key in order if not one(key, True, pass_fingerprints)}
        for key, message in workload.check_pass(pass_fingerprints).items():
            if key not in failed:
                failures.add(message)
        pass_index += 1
    return phase


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """CPU times of fresh interpreters that import ctkdsim and build the inputs.

    They are raw. A probe's CPU time did not follow the kernel times taken
    around it, whether the kernel ran in this process, in the probe after
    its set-up, or in the probe before and after it; so run() scales only
    their median, by the kernel's median over the whole run.
    """
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(count):
        start = children_cpu_s()
        probe = subprocess.run(command, cwd=env.ROOT, capture_output=True, text=True, timeout=120)
        times.append(children_cpu_s() - start)
        if probe.returncode != 0:
            raise env.SetupError(f"set-up probe failed: {probe.stderr.strip()[-2000:]}")
    return times


def percentile_99(samples: list) -> float:
    return statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else samples[0]


def latency_metrics(phase: Phase) -> tuple[dict, dict, dict]:
    """Host-normalised latency metrics, their notes, and the same metrics raw."""
    values, raw = {}, {}
    for into, normalised in ((raw, False), (values, True)):
        latencies = phase.latencies_ns(normalised)
        samples = [ns for runs in latencies.values() for ns in runs] or [0]  # none completed: see failures
        into["runs_per_s"] = runs_per_s(latencies)
        into["run_p50_ms"] = statistics.median(samples) / 1e6
        into["run_p99_ms"] = percentile_99(samples) / 1e6
    beyond = sum(1 for ns in samples if ns / 1e6 > values["run_p99_ms"])
    notes = {
        "runs_per_s": f"{len(latencies)} units, each at its median",
        "run_p50_ms": f"{len(samples)} samples",
        "run_p99_ms": f"{len(samples)} samples, {beyond} beyond",
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond run_p99_ms; run longer", file=sys.stderr)
    return values, notes, raw


def run(args) -> Outcome:
    if not args.trace:
        setup_probes(args.workload, args.seed, 1)
        setup_times = setup_probes(args.workload, args.seed, SETUP_PROBES // 2)
    import workloads  # after the probes, which report a broken checkout more clearly

    workload_cls = workloads.WORKLOADS[args.workload]
    failures = Failures()
    fingerprints: dict = {}
    direct = lambda fn, key: fn(key)  # noqa: E731

    if not args.trace:
        phase = run_phase(workload_cls(args.seed), args.seconds, args.seed, fingerprints, failures,
                          direct, warmup=True)
        setup_times += setup_probes(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        values, notes, raw = latency_metrics(phase)
        for name in raw:
            notes[name] += f"; raw CPU time {raw[name]:.6g}"
        raw["setup_s"] = statistics.median(setup_times)
        raw["kernel_us"] = phase.kernel_us()
        values["setup_s"] = raw["setup_s"] * calibration.REFERENCE_US / raw["kernel_us"]
        notes["setup_s"] = (f"median of {len(setup_times)} fresh interpreters, scaled by the run's "
                            f"kernel median; raw CPU time {raw['setup_s']:.6g}")
        notes["peak_rss_mb"] = f"this process; calibration kernel {raw['kernel_us']:.1f} us"
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        return Outcome(phase.attempted, failures, metrics, notes, phase.mismatches, raw=raw)

    import tracer as tracer_mod

    untraced = run_phase(workload_cls(args.seed), args.seconds / 3, args.seed, fingerprints, failures,
                         direct, warmup=True)
    tracer = tracer_mod.Tracer()
    uninstall = tracer_mod.install(tracer)
    try:
        workload = workload_cls(args.seed)  # loaded again, so that scenario.load is traced
        load_calls, load_ns = tracer.totals.pop("scenario.load", (0, 0))
        tracer.totals.clear()
        tracer.counts.clear()
        traced = run_phase(workload, args.seconds * 2 / 3, args.seed, fingerprints, failures,
                           tracer.run_unit, warmup=False)
    finally:
        uninstall()
    if args.spans:
        tracer.write_spans(args.spans)

    values, bases = tracer.metrics()
    values["scenario.load.self_us"] = load_ns / 1000 / load_calls if load_calls else 0.0
    values["host.kernel_us"] = traced.kernel_us()
    values["tracing.runs_per_s_untraced"] = runs_per_s(untraced.latencies_ns())
    values["tracing.runs_per_s_traced"] = runs_per_s(traced.latencies_ns())
    values["tracing.overhead_pct"] = (
        100 * (1 - values["tracing.runs_per_s_traced"] / values["tracing.runs_per_s_untraced"])
        if values["tracing.runs_per_s_untraced"] else 0.0
    )
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracer_mod.PER_LAYER.items()}
    notes = {name: f"base {base}" for name, base in bases.items()}
    notes["scenario.load.self_us"] = f"per file, {load_calls} files"
    return Outcome(
        untraced.attempted + traced.attempted, failures, metrics, notes,
        untraced.mismatches + traced.mismatches,
        summary=f"per traced unit, over {tracer.units} traced units; {untraced.attempted} untraced",
        bases=bases, traced_units=tracer.units,
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the units of every pass; generates the pairs of pairing_nc")
    parser.add_argument("--seconds", type=float, required=True, help="measured time; whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--report", help="also write the full result as JSON here")
    parser.add_argument("--spans", help="with --trace 1, write the kept spans here as JSONL")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except env.SetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    failures = outcome.failures
    environment = env.environment()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in environment.items()))
    if outcome.summary:
        print(f"  ({outcome.summary})")
    for name, metric in outcome.metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<6} {outcome.notes.get(name, '')}")
    print(f"  {'failed_ratio':<32} {failures.count} / {outcome.attempted}")
    for message in failures.messages:
        print(f"  failed: {message}")

    result = {
        "correct": failures.count == 0,
        "attempted": outcome.attempted,
        "failed": failures.count,
        "metrics": outcome.metrics,
    }
    if args.report:
        report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, environment=environment, notes=outcome.notes,
                      bases=outcome.bases, failures=failures.messages,
                      fingerprint_mismatches=outcome.fingerprint_mismatches,
                      traced_units=outcome.traced_units, raw=outcome.raw)
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

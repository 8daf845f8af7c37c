"""Span recorder for the traced run, wrapped around the simulator's public calls.

Nothing here changes the simulator's sources: ``install`` replaces each
public function (and a few methods) with a wrapper that records a span,
and returns a function that puts the originals back. Modules that did
``from .crypto import dh_generate`` hold their own binding of the
function, so a wrapper is rebound in every ``ctkdsim`` module that holds
the original, not only in the module that defines it.

A span has a name, a start, an end and a parent; spans of one work unit
share the unit's id. Only aggregates are kept for every span (calls and
self time, which is the span's duration minus that of its child spans);
the full records are kept for the first ``KEEP_UNITS`` units, in memory,
and written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

from workloads import ctkdsim

UNIT = "unit"
AGENT = "attacks.agent"
DH_BACKENDS = {"toy-modp": "toy", "p256": "p256"}
KEEP_UNITS = 64  # units whose full span records are kept for --spans

#: Every per-layer metric of the traced run, with its unit. Values are per
#: work unit, except ``scenario.load.self_us`` (per loaded scenario file),
#: the ratios (whose bases are reported beside them), the ``tracing.*``
#: figures, which compare the traced phase with the untraced one (both
#: host-normalised), and ``host.kernel_us``, the calibration kernel's median
#: CPU time in the traced phase, which tells how fast the host ran.
PER_LAYER = {
    "crypto.cmac.calls": "count",
    "crypto.cmac.self_us": "us",
    "crypto.convert.calls": "count",
    "crypto.convert.self_us": "us",
    "crypto.dh_generate.toy.calls": "count",
    "crypto.dh_generate.toy.self_us": "us",
    "crypto.dh_generate.p256.calls": "count",
    "crypto.dh_generate.p256.self_us": "us",
    "crypto.dh_shared.toy.calls": "count",
    "crypto.dh_shared.toy.self_us": "us",
    "crypto.dh_shared.p256.calls": "count",
    "crypto.dh_shared.p256.self_us": "us",
    "crypto.kdf.calls": "count",
    "crypto.kdf.self_us": "us",
    "crypto.address_str.calls": "count",
    "crypto.address_str.self_us": "us",
    "smp.encode.calls": "count",
    "smp.encode.self_us": "us",
    "smp.hexdump.calls": "count",
    "smp.hexdump.self_us": "us",
    "trace.emit.calls": "count",
    "trace.emit.self_us": "us",
    "trace.serialise.self_us": "us",
    "trace.serialise.bytes": "bytes",
    "trace.events": "count",
    "policies.evaluate.calls": "count",
    "policies.evaluate.self_us": "us",
    "policies.verdicts": "count",
    "policies.deny_ratio": "ratio",
    "device.lookup.calls": "count",
    "device.commit.calls": "count",
    "device.overwrite_ratio": "ratio",
    "pairing.pair.calls": "count",
    "pairing.pair.self_us": "us",
    "pairing.session.calls": "count",
    "pairing.session.self_us": "us",
    "pairing.abort_ratio": "ratio",
    "attacks.agent.calls": "count",
    "attacks.agent.self_us": "us",
    "attacks.derive_ctis.calls": "count",
    "attacks.derive_ctis.self_us": "us",
    "attacks.attempted": "count",
    "attacks.success_ratio": "ratio",
    "scenario.load.self_us": "us",
    "scenario.run.self_us": "us",
    "scenario.check.self_us": "us",
    "unit.unattributed_us": "us",
    "tracing.runs_per_s_untraced": "1/s",
    "tracing.runs_per_s_traced": "1/s",
    "tracing.overhead_pct": "%",
    "host.kernel_us": "us",
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, span_id, start_ns, child_ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [calls, self_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (unit_id, span_id, parent_id, name, start_ns, end_ns)
        self.unit_id = None
        self.units = 0
        self._next_id = 0

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self._next_id, perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][1]
        if self.units <= KEEP_UNITS:
            self.spans.append((self.unit_id, span_id, parent, name, start, end))

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def run_unit(self, fn, *args):
        """Run one work unit under a root span; its self time is what no layer span covers."""
        self.units += 1
        self.unit_id = self.units
        frame = self._enter(UNIT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.unit_id = None

    def wrap(self, name, fn, on_result=None):
        """Span wrapper; ``name`` is a string or a function of the call's arguments."""
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name_of(*args, **kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result:
                on_result(result)
            return result

        return wrapper

    def count(self, name, fn, on_result=None):
        """Count-only wrapper, for calls too frequent and too cheap to time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if on_result:
                on_result(result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for unit_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "unit": unit_id, "id": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer values (per traced work unit) and the bases of the ratios.

        ``scenario.load.self_us`` and ``tracing.*`` are left at 0 for the
        caller, which measures them outside the traced units.
        """
        units = max(self.units, 1)
        calls = {name: total[0] for name, total in self.totals.items()}
        self_us = {name: total[1] / 1000 for name, total in self.totals.items()}
        counts = self.counts
        values = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = (calls.get(layer, 0) + counts.get(layer, 0)) / units
            elif kind == "self_us":
                values[metric] = self_us.get(layer, 0.0) / units
            else:
                values[metric] = 0.0
        values["unit.unattributed_us"] = self_us.get(UNIT, 0.0) / units
        values["trace.serialise.bytes"] = counts["trace.serialise.bytes"] / units
        values["trace.events"] = calls.get("trace.emit", 0) / units
        values["policies.verdicts"] = counts["policies.verdicts"] / units
        values["attacks.attempted"] = counts["attacks.attempted"] / units
        bases = {
            "policies.deny_ratio": counts["policies.verdicts"],
            "device.overwrite_ratio": counts["device.commit"],
            "pairing.abort_ratio": calls.get("pairing.pair", 0),
            "attacks.success_ratio": counts["attacks.attempted"],
        }
        numerators = {
            "policies.deny_ratio": counts["policies.denied"],
            "device.overwrite_ratio": counts["device.overwrote"],
            "pairing.abort_ratio": counts["pairing.aborted"],
            "attacks.success_ratio": counts["attacks.succeeded"],
        }
        for metric, base in bases.items():
            values[metric] = numerators[metric] / base if base else 0.0
        return values, bases


def _modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "ctkdsim" or n.startswith("ctkdsim.")]


def install(tracer: Tracer):
    """Wrap the public calls of every hot-path layer; returns the function that undoes it."""
    crypto, smp, trace = ctkdsim.crypto, ctkdsim.smp, ctkdsim.trace
    device, policies, pairing = ctkdsim.device, ctkdsim.policies, ctkdsim.pairing
    attacks, scenario = ctkdsim.attacks, ctkdsim.scenario
    counts = tracer.counts
    undo = []

    def rebind(original, wrapper) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def span(module, attr, name, on_result=None) -> None:
        original = getattr(module, attr)
        rebind(original, tracer.wrap(name, original, on_result))

    def method(cls, attr, wrapper_of) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        undo.append((cls, attr, original))

    def on_emit(event) -> None:
        if event.kind == trace.KIND_POLICY_VERDICT:
            counts["policies.verdicts"] += 1
            counts["policies.denied"] += not event.payload["allow"]

    def on_pair(session) -> None:
        counts["pairing.aborted"] += session.aborted

    def on_attack(outcome) -> None:
        # mitm runs the two impersonations as legs; only the whole attack counts.
        if not tracer.in_span(AGENT):
            counts["attacks.attempted"] += 1
            counts["attacks.succeeded"] += outcome.succeeded

    def on_commit(outcome) -> None:
        counts["device.overwrote"] += outcome.overwrote

    def on_json(text) -> None:
        counts["trace.serialise.bytes"] += len(text) + 1  # the digest hashes a newline too

    span(crypto, "aes_cmac", "crypto.cmac")
    span(crypto, "ctkd_ble_to_bt", "crypto.convert")
    span(crypto, "ctkd_bt_to_ble", "crypto.convert")
    span(crypto, "dh_generate",
         lambda rng, backend="toy-modp": f"crypto.dh_generate.{DH_BACKENDS[backend]}")
    span(crypto, "dh_shared",
         lambda private, public: f"crypto.dh_shared.{DH_BACKENDS[private.backend]}")
    for attr in ("kdf_le", "kdf_bt", "session_key"):
        span(crypto, attr, "crypto.kdf")
    method(crypto.Address, "__str__", lambda fn: tracer.wrap("crypto.address_str", fn))
    span(smp, "encode_pairing", "smp.encode")
    span(smp, "hexdump", "smp.hexdump")
    method(trace.TraceRecorder, "emit", lambda fn: tracer.wrap("trace.emit", fn, on_emit))
    span(trace, "trace_digest", "trace.serialise")
    method(trace.TraceEvent, "to_json", lambda fn: tracer.count("trace.to_json", fn, on_json))
    span(policies, "evaluate", "policies.evaluate")
    method(device.BondTable, "lookup", lambda fn: tracer.count("device.lookup", fn))
    method(device.BondTable, "commit", lambda fn: tracer.count("device.commit", fn, on_commit))
    span(pairing, "ble_pair", "pairing.pair", on_pair)
    span(pairing, "bt_pair", "pairing.pair", on_pair)
    span(pairing, "establish_session", "pairing.session")
    for attr in ("master_impersonation", "slave_impersonation", "mitm", "unintended_session"):
        span(attacks, attr, AGENT, on_attack)
    span(attacks, "derive_ctis", "attacks.derive_ctis")
    span(scenario, "load_scenario", "scenario.load")
    span(scenario, "run_scenario", "scenario.run")
    span(scenario, "check_expectations", "scenario.check")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall

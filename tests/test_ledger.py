"""The reach ledger: every ``src/ctkdsim`` function that no CLI path runs is named here, with the
reason it stays, or it is deleted.

A fresh interpreter runs a fixed slice of CLI paths under ``sys.setprofile``, installed before
``import ctkdsim`` so that calls made at import time count:

* ``matrix scenarios/matrix``;
* ``matrix scenarios/extra --policies c1,c2 --report <tmp>``;
* ``run <a matrix mitm scenario> --trace <tmp>``, and the written trace read back to its digest;
* ``kdf-selftest``;
* one config error: ``run`` on a directory;
* ``minimal_blocking_sets(run_lattice(<scenarios/extra>))``;
* ``python -m ctkdsim.fixtures <tmp>``, through ``runpy``.

A function is one whose code lives in its module's file: module functions, methods, property
getters, class and static methods, each named ``module.qualname`` (``__qualname__``, since 3.10
code objects carry none). Methods that ``dataclasses`` or ``NamedTuple`` generate, and the trace
renderers built with ``exec``, live in no module file and are skipped.

Several entries stay because the benchmark harness reads them, so a second test checks that every
name ``bench/`` reads from ``ctkdsim`` exists.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MITM_SCENARIO = "scenarios/matrix/02__cypress-cyw920819evb02__mitm.json"

#: Every function the slice never calls, with the reason it stays.
UNREACHED = {
    "attacks.cti_map": "the claim table that tests read (ROADMAP item 11)",
    "crypto.Address.__str__": "bench/tracer.py wraps it from the class dict; error messages format addresses",
    "crypto.Checked._make": "the _replace contract that tests/test_values.py pins",
    "crypto.session_key": "bench/tracer.py spans it by name (ROADMAP item 16)",
    "device.Device.__repr__": "debugging",
    "fixtures.bundled_profiles": "tests read the bundled profiles",
    "fixtures.matrix_scenarios": "tests read the matrix without its files",
    "pairing.PairingSession.complete": "bench/workloads.py reads it (ROADMAP item 8)",
    "smp.KeyMaterial._make": "copy, pickle and _replace are pinned by tests/test_values.py::TestKeyMaterial",
    "smp.KeyMaterial._replace": "copy, pickle and _replace are pinned by tests/test_values.py::TestKeyMaterial",
    "smp.KeyMaterial.__getnewargs__": "copy, pickle and _replace are pinned by tests/test_values.py::TestKeyMaterial",
    "smp.KeyMaterial.__repr__": "copy, pickle and _replace are pinned by tests/test_values.py::TestKeyMaterial",
}


def _code_key(code) -> tuple:
    # Not the code object itself: runpy compiles fixtures.py afresh, into new code objects.
    return code.co_filename, code.co_firstlineno, code.co_name


def _codes(obj):
    """The functions ``obj`` holds as a module or class attribute."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        yield from (f for f in (obj.fget, obj.fset, obj.fdel) if f is not None)
    elif callable(obj) and hasattr(inspect.unwrap(obj), "__code__"):
        yield inspect.unwrap(obj)  # through functools.cache


def _functions(package) -> dict[str, tuple]:
    """``module.qualname`` -> code key of every function whose code lives in ``package``'s files."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        members = list(vars(module).values())
        for cls in members:
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                members.extend(vars(cls).values())
        for member in members:
            for function in _codes(member):
                if function.__code__.co_filename == module.__file__:
                    found[f"{info.name}.{function.__qualname__}"] = _code_key(function.__code__)
    return found


def _slice() -> None:
    """The CLI paths the ledger counts as reached."""
    from ctkdsim import cli
    from ctkdsim.scenario import load_scenario, minimal_blocking_sets, run_lattice
    from ctkdsim.trace import read_trace, trace_digest

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(["matrix", "scenarios/matrix"]),
                 cli.main(["matrix", "scenarios/extra", "--policies", "c1,c2", "--report", f"{tmp}/report.json"]),
                 cli.main(["run", MITM_SCENARIO, "--trace", f"{tmp}/trace.jsonl"]),
                 cli.main(["kdf-selftest"]),
                 cli.main(["run", "scenarios/matrix"])]
        assert codes == [0, 0, 0, 0, 2], codes
        trace_digest(read_trace(f"{tmp}/trace.jsonl"))
        minimal_blocking_sets(run_lattice([load_scenario(p) for p in sorted(Path("scenarios/extra").glob("*.json"))]))
        argv = sys.argv
        sys.argv = ["fixtures", f"{tmp}/matrix"]
        try:
            runpy.run_module("ctkdsim.fixtures", run_name="__main__")
        finally:
            sys.argv = argv


def _probe() -> list[str]:
    """The functions of ``ctkdsim`` that ``_slice`` never calls, counted from before its import."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(_code_key(frame.f_code))

    sys.setprofile(profile)
    try:
        import ctkdsim

        _slice()
    finally:
        sys.setprofile(None)
    return sorted(name for name, key in _functions(ctkdsim).items() if key not in called)


def test_unreached_functions_are_the_ledger():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    unreached = set(json.loads(child.stdout))
    assert unreached - set(UNREACHED) == set(), "unreached, with no reason: delete it, or add it with one"
    assert set(UNREACHED) - unreached == set(), "reached now: delete its ledger entry"


# ---------------------------------------------------------------------------
# Names the benchmark harness reads
# ---------------------------------------------------------------------------

def _bench_names() -> list[tuple[str, str]]:
    """``(owner, attribute)`` for every name the bench reads from ``ctkdsim``: the ``span`` and
    ``method`` targets of ``bench/tracer.py``'s ``install()``, with its ``for attr in (...)``
    tuples, and each ``ctkdsim.<name>`` in ``bench/workloads.py``. Owners are dotted paths from
    ``ctkdsim``; read with ``ast``, so no bench module is imported."""
    tree = ast.parse((ROOT / "bench/tracer.py").read_text())
    install = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "install")
    aliases = {}  # local name -> dotted path, from ``crypto, smp = ctkdsim.crypto, ctkdsim.smp``
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                aliases[target.id] = ast.unparse(value)
    names = []
    for statement in install.body:
        # A ``span`` in a ``for attr in (...)`` loop names each of the tuple's strings.
        loop = isinstance(statement, ast.For) and isinstance(statement.iter, ast.Tuple)
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("span", "method"):
                owner, attr = node.args[:2]
                head, _, rest = ast.unparse(owner).partition(".")
                path = ".".join(filter(None, [aliases[head], rest]))
                for name in [e.value for e in statement.iter.elts] if loop else [attr.value]:
                    names.append((path, name))
    for node in ast.walk(ast.parse((ROOT / "bench/workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ctkdsim":
            names.append(("ctkdsim", node.attr))
    return names


def test_every_name_the_bench_reads_exists():
    import ctkdsim  # here, not at the top: the ledger's interpreter imports this file before ctkdsim

    names = _bench_names()
    # The parse found the names that keep two ledger entries.
    assert {("ctkdsim.crypto", "session_key"), ("ctkdsim.crypto.Address", "__str__")} <= set(names)
    missing = []
    for path, name in names:
        owner = ctkdsim
        for part in path.split(".")[1:]:
            owner = getattr(owner, part)
        if not (name in vars(owner) if isinstance(owner, type) else hasattr(owner, name)):
            missing.append(f"{path}.{name}")
    assert missing == []


if __name__ == "__main__":
    print(json.dumps(_probe()))

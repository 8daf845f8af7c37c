"""Where the benchmark finds the simulator, and what it records about the host."""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or inputs)."""


def import_ctkdsim():
    """Import ``ctkdsim`` from this checkout's ``src/``, never from site-packages."""
    package_dir = SRC / "ctkdsim"
    if not (package_dir / "__init__.py").is_file():
        raise SetupError(f"no simulator sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("ctkdsim")
    if Path(module.__file__).resolve().parent != package_dir:
        raise SetupError(f"ctkdsim imported from {module.__file__}, not from {package_dir}")
    return module


def git_commit() -> str:
    """HEAD commit read from ``.git`` directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        import cryptography

        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = None
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "platform": platform.platform(),
    }

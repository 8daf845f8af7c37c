"""A fixed calibration kernel that measures how fast the host is running now.

The benchmark was tuned on a shared VM whose speed jumps between states
about 1.6x apart, within half a second and between runs: the same fixed
loop took 180 us in one half-second window and 300 us in the next. Every
CPU timing on such a host carries that factor. So run.py runs ``kernel``
before the first timed unit and after every one, and divides each unit's
CPU time by the mean of the kernel times just before and just after it
(``scale``). A unit's host-normalised time is its CPU time at the host
speed where one kernel call takes ``REFERENCE_US``.

The kernel does the same kinds of work as the simulator: SHA-256 of short
inputs, hex formatting, small dicts, JSON encoding and big-integer ``pow``.
It touches nothing of ``ctkdsim``, so no change to the simulator moves it,
and a change that makes the simulator slower shows in full.
"""

from __future__ import annotations

import hashlib
import json
from time import thread_time_ns

REFERENCE_US = 250.0  # the kernel's CPU time at the host speed that metrics are scaled to

_DOCUMENT = {f"k{i}": [i, "v" * i, {"x": i}] for i in range(20)}
_MODULUS = 0xFFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1  # 192-bit, as a toy DH group


def kernel() -> str:
    digests = {}
    for i in range(40):
        digests[f"{i:04x}"] = hashlib.sha256(bytes([i]) * 16).hexdigest()
    json.dumps(_DOCUMENT, sort_keys=True)
    pow(5, _MODULUS - 3, _MODULUS)
    return " ".join(f"{b:02x}" for b in bytes(range(64)))


def timed_kernel_ns() -> int:
    start = thread_time_ns()
    kernel()
    return thread_time_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that takes a CPU time measured between two kernel calls to reference speed."""
    return REFERENCE_US * 1000 * 2 / (before_ns + after_ns)

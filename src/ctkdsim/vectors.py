"""Fixture-backed known-answer checks for the key-derivation core.

The .vec files were frozen from an independently written CMAC composition
(see the test suite's reference module) and include the published
conversion vectors from the core specification appendix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .crypto import (
    BackendMismatchError,
    Key128,
    aes_cmac,
    ctkd_ble_to_bt,
    ctkd_bt_to_ble,
    dh_agree,
    dh_generate,
    dh_shared,
)


def _vector_lines(filename: str) -> list[list[str]]:
    text = resources.files("ctkdsim").joinpath(f"data/vectors/{filename}").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


def load_cmac_vectors() -> list[tuple[bytes, bytes, bytes]]:
    """(key, message, mac) triples; '-' encodes the empty message."""
    rows = []
    for key_hex, msg_hex, mac_hex in _vector_lines("cmac_standard.vec"):
        msg = b"" if msg_hex == "-" else bytes.fromhex(msg_hex)
        rows.append((bytes.fromhex(key_hex), msg, bytes.fromhex(mac_hex)))
    return rows


def load_ctkd_vectors(direction: str) -> list[tuple[Key128, bool, bytes]]:
    """(key_in, h7_flag, key_out) triples for one conversion direction."""
    if direction not in ("ble_to_bt", "bt_to_ble"):
        raise ValueError(f"unknown direction {direction!r}")
    rows = []
    for key_hex, flag, out_hex in _vector_lines(f"ctkd_{direction}.vec"):
        rows.append((Key128.from_hex(key_hex), flag == "1", bytes.fromhex(out_hex)))
    return rows


@dataclass
class SelftestCheck:
    name: str
    passed: bool
    detail: str = ""


def run_selftest() -> list[SelftestCheck]:
    """Vector and invariant checks suitable for a quick CLI pass."""
    checks = []

    cmac_vectors = load_cmac_vectors()
    bad = [
        (key, msg, mac)
        for key, msg, mac in cmac_vectors
        if aes_cmac(key, msg) != mac
    ]
    checks.append(
        SelftestCheck(
            "cmac-known-answers",
            not bad,
            f"{len(cmac_vectors)} vectors" if not bad else f"{len(bad)} mismatches",
        )
    )

    for direction, fn in (("ble_to_bt", ctkd_ble_to_bt), ("bt_to_ble", ctkd_bt_to_ble)):
        vectors = load_ctkd_vectors(direction)
        mismatches = [
            key_in.hex()
            for key_in, h7, expected in vectors
            if fn(key_in, h7).value != expected
        ]
        checks.append(
            SelftestCheck(
                f"ctkd-{direction}-vectors",
                not mismatches,
                f"{len(vectors)} vectors" if not mismatches else f"bad inputs: {mismatches}",
            )
        )

    rng = random.Random(2024)
    keys = [Key128(rng.randbytes(16)) for _ in range(64)]
    deterministic = all(
        ctkd_ble_to_bt(k, h7).value == ctkd_ble_to_bt(k, h7).value
        and ctkd_bt_to_ble(k, h7).value == ctkd_bt_to_ble(k, h7).value
        for k in keys
        for h7 in (True, False)
    )
    checks.append(SelftestCheck("ctkd-deterministic", deterministic, "64 keys, both branches"))

    branch_split = all(
        ctkd_ble_to_bt(k, True).value != ctkd_ble_to_bt(k, False).value
        and ctkd_bt_to_ble(k, True).value != ctkd_bt_to_ble(k, False).value
        for k in keys
    )
    checks.append(SelftestCheck("ctkd-branch-separation", branch_split, "salted vs legacy"))

    not_inverse = all(
        ctkd_ble_to_bt(ctkd_bt_to_ble(k, True), True).value != k.value for k in keys
    )
    checks.append(SelftestCheck("ctkd-directions-not-inverse", not_inverse, "64 keys"))

    pairs = [(dh_generate(rng), dh_generate(rng)) for _ in range(32)]
    symmetric = all(
        dh_shared(a.private, b.public).value == dh_shared(b.private, a.public).value
        for a, b in pairs
    )
    checks.append(SelftestCheck("dh-symmetry", symmetric, "32 pairs"))

    # One agreement draws as two keypairs in a row do, and reaches their exchange's secret by
    # another route: one fixed-base multiplication of the product of the two draws.
    agree_rng, pair_rng = random.Random(2025), random.Random(2025)
    agrees = all(
        dh_agree(agree_rng, b) == dh_shared(dh_generate(pair_rng, b).private, dh_generate(pair_rng, b).public)
        for b in ["toy-modp"] * 32 + ["p256"] * 16
    ) and agree_rng.getrandbits(64) == pair_rng.getrandbits(64)
    checks.append(SelftestCheck("dh-agree-matches-exchange", agrees, "32 toy-modp, 16 p256 draws"))

    try:
        toy = dh_generate(rng)
        p256 = dh_generate(rng, "p256")
        dh_shared(toy.private, p256.public)
        mismatch_raises = False
    except BackendMismatchError:
        mismatch_raises = True
    checks.append(SelftestCheck("dh-backend-mismatch-rejected", mismatch_raises))

    return checks

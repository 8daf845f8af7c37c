"""Key material and key-derivation primitives for the simulator.

Implements the cross-transport conversion of pairing keys between the two
Bluetooth transports (an AES-CMAC chain with fixed 4-byte tags), plus
model-level stand-ins for the per-transport pairing-key and session-key
derivations. The pairing/session KDFs are deliberately not the standard's
f5/E3 constructions: they are deterministic, collision-resistant domain
separated CMAC chains, which is all the protocol-level attacks need.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC

MIN_STRENGTH = 7
MAX_STRENGTH = 16

#: Transports are plain strings everywhere ("BT" / "BLE"); a two-element
#: tuple keeps validation trivial without an enum import dance.
TRANSPORT_BT = "BT"
TRANSPORT_BLE = "BLE"
TRANSPORTS = (TRANSPORT_BT, TRANSPORT_BLE)


def other_transport(transport: str) -> str:
    if transport == TRANSPORT_BT:
        return TRANSPORT_BLE
    if transport == TRANSPORT_BLE:
        return TRANSPORT_BT
    raise ValueError(f"unknown transport {transport!r}")


class BackendMismatchError(ValueError):
    """Raised when a DH private and public value come from different groups."""


@dataclass(frozen=True, order=True)
class Address:
    """6-byte device identifier, shared by both transports on a dual-mode device."""

    value: bytes
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.value) != 6:
            raise ValueError("address must be 6 bytes")
        object.__setattr__(self, "text", self.value.hex(":"))

    @classmethod
    def parse(cls, text: str) -> "Address":
        """The inverse of ``str``, in either case: two hex digits per octet."""
        address = cls(bytes.fromhex(text.replace(":", " ")))
        if address.text != text.lower():
            raise ValueError(f"bad address {text!r}")
        return address

    def __str__(self) -> str:
        return self.text

    def __hash__(self) -> int:
        # By value alone, as the generated method hashes, without building a one-field tuple.
        return hash(self.value)


class Checked:
    """Base of an immutable value: a ``NamedTuple`` whose ``__new__`` checks its fields.

    ``_make``, and so ``_replace``, construct through that ``__new__`` too. A value
    equals a plain tuple of the same fields.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Key128(Checked, NamedTuple("Key128", [("value", bytes), ("strength", int), ("mitm_protected", bool)])):
    """16-byte key with a declared entropy (in bytes) and MITM-protection flag."""

    __slots__ = ()

    def __new__(cls, value: bytes, strength: int = MAX_STRENGTH, mitm_protected: bool = False) -> "Key128":
        if len(value) != 16:
            raise ValueError("key must be 16 bytes")
        if not MIN_STRENGTH <= strength <= MAX_STRENGTH:
            raise ValueError(f"strength {strength} outside {MIN_STRENGTH}..{MAX_STRENGTH}")
        return tuple.__new__(cls, (value, strength, mitm_protected))

    @classmethod
    def from_hex(cls, text: str, strength: int = MAX_STRENGTH, mitm_protected: bool = False) -> "Key128":
        return cls(bytes.fromhex(text), strength, mitm_protected)

    def hex(self) -> str:
        return self.value.hex()


@dataclass(frozen=True)
class TagString:
    """One of the four fixed 4-character conversion tags.

    When a tag is used as a MAC key it is expanded to a 16-byte salt with
    the ASCII bytes in the low positions; when used as a MAC message it is
    the bare 4 ASCII bytes. Both encodings come from this one table.
    """

    ascii: str

    def __post_init__(self) -> None:
        if self.ascii not in ("tmp1", "tmp2", "lebr", "brle"):
            raise ValueError(f"unknown tag {self.ascii!r}")

    @property
    def salt_encoding(self) -> bytes:
        return bytes(12) + self.ascii.encode("ascii")

    @property
    def message_encoding(self) -> bytes:
        return self.ascii.encode("ascii")


TAG_TMP1 = TagString("tmp1")
TAG_TMP2 = TagString("tmp2")
TAG_LEBR = TagString("lebr")
TAG_BRLE = TagString("brle")


class Nonce(Checked, NamedTuple("Nonce", [("value", bytes)])):
    """Fresh 16-byte per-run value."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "Nonce":
        if len(value) != 16:
            raise ValueError("nonce must be 16 bytes")
        return tuple.__new__(cls, (value,))


class SharedSecret(Checked, NamedTuple("SharedSecret", [("value", bytes)])):
    """16-byte Diffie-Hellman shared secret."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "SharedSecret":
        if len(value) != 16:
            raise ValueError("shared secret must be 16 bytes")
        return tuple.__new__(cls, (value,))


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Standard AES-CMAC of ``message`` under a 16-byte ``key``."""
    if len(key) != 16:
        raise ValueError("CMAC key must be 16 bytes")
    mac = CMAC(AES(key))
    mac.update(message)
    return mac.finalize()


def _convert(key: Key128, h7_supported: bool, tag: TagString, key_id: TagString) -> Key128:
    # Salted-first branch when both sides negotiated h7; otherwise the input
    # key itself keys the first MAC and the tag is the message.
    if h7_supported:
        intermediate = aes_cmac(tag.salt_encoding, key.value)
    else:
        intermediate = aes_cmac(key.value, tag.message_encoding)
    out = aes_cmac(intermediate, key_id.message_encoding)
    # Conversion changes neither the declared entropy nor the MITM flag.
    return Key128(out, key.strength, key.mitm_protected)


def ctkd_ble_to_bt(k_ble: Key128, h7_supported: bool) -> Key128:
    """Derive the BT pairing key from a BLE pairing key (tags tmp1/lebr)."""
    return _convert(k_ble, h7_supported, TAG_TMP1, TAG_LEBR)


def ctkd_bt_to_ble(k_bt: Key128, h7_supported: bool) -> Key128:
    """Derive the BLE pairing key from a BT pairing key (tags tmp2/brle)."""
    return _convert(k_bt, h7_supported, TAG_TMP2, TAG_BRLE)


# ---------------------------------------------------------------------------
# Diffie-Hellman backends
# ---------------------------------------------------------------------------

class DhPrivate(NamedTuple):
    """The private half of a keypair.

    ``value`` is the integer exponent for toy-modp and the
    ``EllipticCurvePrivateKey`` for p256.
    """

    value: object
    backend: str


@dataclass(frozen=True)
class DhPublic:
    """The public half of a keypair.

    ``value`` is the integer group element for toy-modp and the uncompressed
    X9.62 point bytes for p256. For p256, ``key`` carries the
    ``EllipticCurvePublicKey`` those bytes were encoded from, so ``shared``
    need not decode them again; like ``Address.text`` it is not part of the
    value. A ``DhPublic`` built from bytes alone has no ``key``.
    """

    value: object
    backend: str
    key: object = field(default=None, compare=False, repr=False)


class DhKeyPair(NamedTuple):
    private: DhPrivate
    public: DhPublic


class ToyModPBackend:
    """Deterministic commutative group: modular exponentiation mod 2**127 - 1.

    The attacks in this simulator are protocol-level, so the group only has
    to be commutative and collision-free at desk scale, not secure.
    """

    name = "toy-modp"
    prime = 2**127 - 1
    generator = 5

    def private(self, rng: random.Random) -> DhPrivate:
        return DhPrivate(rng.randrange(2, self.prime - 1), self.name)

    def generate(self, rng: random.Random) -> DhKeyPair:
        private = self.private(rng)
        return DhKeyPair(private, DhPublic(_toy_power(private.value), self.name))

    def shared(self, private: DhPrivate, public: DhPublic) -> bytes:
        return pow(public.value, private.value, self.prime).to_bytes(16, "big")

    def agree(self, rng: random.Random) -> bytes:
        # (g**b)**a == g**(a*b mod p-1), since the group order divides p - 1.
        a, b = self.private(rng).value, self.private(rng).value
        return _toy_power(a * b % (self.prime - 1)).to_bytes(16, "big")


@functools.cache
def _toy_generator_table() -> tuple[tuple[int, ...], ...]:
    """Row ``i``, entry ``j`` is ``generator**(j << 8*i) % prime``: 16 rows of 256."""
    prime = ToyModPBackend.prime
    rows = []
    base = ToyModPBackend.generator
    for _ in range(16):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % prime)
        rows.append(tuple(row))
        base = row[-1] * base % prime
    return tuple(rows)


def _toy_power(exponent: int) -> int:
    """generator**exponent % prime, as one table entry per exponent byte."""
    prime, power = ToyModPBackend.prime, 1
    for row, byte in zip(_toy_generator_table(), exponent.to_bytes(16, "little")):
        if byte:
            power = power * row[byte] % prime
    return power


class P256Backend:
    """NIST P-256 behind the same interface (seeded deterministically).

    ``generate`` and ``shared`` are the two-party ECDH exchange: each side's point, then one
    side's scalar times the other's point. ``agree`` computes the same secret with one
    fixed-base multiplication: a*(b*G) == (a*b mod n)*G, so it takes the x-coordinate of
    the product's public point.
    """

    name = "p256"
    # Order of the P-256 base point.
    _order = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

    def __init__(self) -> None:
        # Imported here: the backend is built on first use, so `import ctkdsim` skips them.
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        self._ec = ec
        self._curve = ec.SECP256R1()
        self._ecdh = ec.ECDH()
        self._format = (Encoding.X962, PublicFormat.UncompressedPoint)
        # One tag byte, then the x-coordinate as 32 big-endian bytes.
        self._compressed = (Encoding.X962, PublicFormat.CompressedPoint)

    def private(self, rng: random.Random) -> DhPrivate:
        scalar = rng.randrange(1, self._order)
        return DhPrivate(self._ec.derive_private_key(scalar, self._curve), self.name)

    def generate(self, rng: random.Random) -> DhKeyPair:
        private = self.private(rng)
        public = private.value.public_key()
        pub = public.public_bytes(*self._format)
        return DhKeyPair(private, DhPublic(pub, self.name, public))

    def shared(self, private: DhPrivate, public: DhPublic) -> bytes:
        peer = public.key
        if peer is None:
            peer = self._ec.EllipticCurvePublicKey.from_encoded_point(self._curve, public.value)
        return private.value.exchange(self._ecdh, peer)[:16]

    def agree(self, rng: random.Random) -> bytes:
        # n is prime and both scalars lie in [1, n-1], so the reduced product is never 0.
        a, b = rng.randrange(1, self._order), rng.randrange(1, self._order)
        point = self._ec.derive_private_key(a * b % self._order, self._curve).public_key()
        return point.public_bytes(*self._compressed)[1:17]


_BACKENDS = {
    ToyModPBackend.name: ToyModPBackend(),
}


def get_backend(name: str):
    if name == P256Backend.name and name not in _BACKENDS:
        _BACKENDS[name] = P256Backend()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown DH backend {name!r}") from None


def dh_generate(rng: random.Random, backend: str = ToyModPBackend.name) -> DhKeyPair:
    """Generate a keypair in the configured group from the simulation RNG."""
    return get_backend(backend).generate(rng)


def dh_agree(rng: random.Random, backend: str = ToyModPBackend.name) -> SharedSecret:
    """The secret both ends of one key agreement compute, with no public value built.

    Draws the initiator's private value, then the responder's, as ``dh_generate`` would.
    """
    return SharedSecret(get_backend(backend).agree(rng))


def dh_shared(private: DhPrivate, public: DhPublic) -> SharedSecret:
    """16-byte shared secret; symmetric in the two participants."""
    if private.backend != public.backend:
        raise BackendMismatchError(
            f"private key from {private.backend!r}, public key from {public.backend!r}"
        )
    return SharedSecret(get_backend(private.backend).shared(private, public))


# ---------------------------------------------------------------------------
# Pairing-key and session-key derivations (model-level)
# ---------------------------------------------------------------------------

def _truncate_to_strength(tag: bytes, strength: int) -> bytes:
    # Entropy reduction keeps the leading `strength` bytes and zeroes the rest.
    return tag[:strength] + bytes(16 - strength)


def kdf_le(
    dk: SharedSecret,
    addr_i: Address,
    addr_r: Address,
    n_i: Nonce,
    n_r: Nonce,
    strength: int,
) -> Key128:
    """BLE pairing key from the DH secret, addresses and nonces.

    BLE negotiates key entropy, so the result is truncated and zero-padded
    to ``strength`` bytes and labeled with it.
    """
    if not MIN_STRENGTH <= strength <= MAX_STRENGTH:
        raise ValueError(f"strength {strength} outside {MIN_STRENGTH}..{MAX_STRENGTH}")
    msg = b"LE" + addr_i.value + addr_r.value + n_i.value + n_r.value
    tag = aes_cmac(dk.value, msg)
    return Key128(_truncate_to_strength(tag, strength), strength)


def kdf_bt(
    dk: SharedSecret,
    addr_m: Address,
    addr_s: Address,
    n_m: Nonce,
    n_s: Nonce,
) -> Key128:
    """BT pairing key: same shape as the BLE one but always full strength."""
    msg = b"BT" + addr_m.value + addr_s.value + n_m.value + n_s.value
    return Key128(aes_cmac(dk.value, msg), MAX_STRENGTH)


def check_session_args(transport: str, pairing_key: Key128, negotiated_entropy: int) -> None:
    """Every argument check of ``session_key``, for a caller that derives the key later."""
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}")
    if not MIN_STRENGTH <= negotiated_entropy <= MAX_STRENGTH:
        raise ValueError(f"entropy {negotiated_entropy} outside {MIN_STRENGTH}..{MAX_STRENGTH}")
    if transport == TRANSPORT_BLE and negotiated_entropy != pairing_key.strength:
        raise ValueError(
            f"BLE session entropy {negotiated_entropy} must equal "
            f"pairing-key strength {pairing_key.strength}"
        )


def session_key(
    transport: str,
    pairing_key: Key128,
    n_a: Nonce,
    n_b: Nonce,
    negotiated_entropy: int,
) -> Key128:
    """Fresh session key from the pairing key and two nonces.

    BT may negotiate the session-key entropy down; a BLE session key always
    inherits the entropy of its pairing key.
    """
    check_session_args(transport, pairing_key, negotiated_entropy)
    msg = b"SK" + transport.encode("ascii") + n_a.value + n_b.value
    tag = aes_cmac(pairing_key.value, msg)
    return Key128(
        _truncate_to_strength(tag, negotiated_entropy),
        negotiated_entropy,
        pairing_key.mitm_protected,
    )


def random_key128(rng: random.Random) -> Key128:
    return Key128(rng.getrandbits(128).to_bytes(16, "little"))


def random_nonce(rng: random.Random) -> Nonce:
    return Nonce(rng.getrandbits(128).to_bytes(16, "little"))


def random_address(rng: random.Random) -> Address:
    # Locally-administered unicast prefix keeps synthetic addresses obvious.
    return Address(bytes([0x02]) + rng.randbytes(5))

"""The run path's value objects: immutable ``NamedTuple``s that keep the checks of the
frozen dataclasses they replaced.

``Old`` holds those dataclasses as they were, as the reference: every type accepts and
rejects the same arguments, with the same exception and message, builds the same field
values from positional, keyword and default arguments, and ``_replace`` rejects what
``dataclasses.replace`` did.
"""

import copy
import dataclasses
import itertools
import pickle
import re
from dataclasses import dataclass
from typing import Optional

import pytest

from ctkdsim.crypto import (
    MAX_STRENGTH,
    MIN_STRENGTH,
    TRANSPORTS,
    Address,
    DhKeyPair,
    DhPrivate,
    DhPublic,
    Key128,
    Nonce,
    SharedSecret,
)
from ctkdsim.device import Association, KeyOrigin, KeyRecord, PairingRole
from ctkdsim.smp import KeyMaterial, hexdump


class Old:
    """The value types as frozen dataclasses, checks and messages unchanged."""

    @dataclass(frozen=True)
    class Key128:
        value: bytes
        strength: int = MAX_STRENGTH
        mitm_protected: bool = False

        def __post_init__(self) -> None:
            if len(self.value) != 16:
                raise ValueError("key must be 16 bytes")
            if not MIN_STRENGTH <= self.strength <= MAX_STRENGTH:
                raise ValueError(f"strength {self.strength} outside {MIN_STRENGTH}..{MAX_STRENGTH}")

    @dataclass(frozen=True)
    class Nonce:
        value: bytes

        def __post_init__(self) -> None:
            if len(self.value) != 16:
                raise ValueError("nonce must be 16 bytes")

    @dataclass(frozen=True)
    class SharedSecret:
        value: bytes

        def __post_init__(self) -> None:
            if len(self.value) != 16:
                raise ValueError("shared secret must be 16 bytes")

    @dataclass(frozen=True)
    class KeyRecord:
        peer: Address
        transport: str
        key: Key128
        origin: KeyOrigin
        association: Association
        role_at_pairing: PairingRole
        extra_keys: Optional[KeyMaterial] = None

        def __post_init__(self) -> None:
            if self.transport not in TRANSPORTS:
                raise ValueError(f"unknown transport {self.transport!r}")
            if self.key.mitm_protected != (self.association is Association.NUMERIC_COMPARISON):
                raise ValueError("mitm_protected flag must mirror the association method")

    @dataclass(frozen=True)
    class KeyMaterial:
        csrk: Key128
        irk: Key128
        csrk_hex: str = dataclasses.field(init=False, compare=False, repr=False)
        irk_hex: str = dataclasses.field(init=False, compare=False, repr=False)
        frame: str = dataclasses.field(init=False, compare=False, repr=False)

        def __post_init__(self) -> None:
            object.__setattr__(self, "csrk_hex", self.csrk.hex())
            object.__setattr__(self, "irk_hex", self.irk.hex())
            object.__setattr__(self, "frame", hexdump(self.csrk.value + self.irk.value))

    @dataclass(frozen=True)
    class DhPrivate:
        value: object
        backend: str

    @dataclass(frozen=True)
    class DhKeyPair:
        private: DhPrivate
        public: DhPublic


K16 = bytes(range(16))
PEER = Address(bytes([2, 0, 0, 0, 0, 9]))
JW_KEY, NC_KEY = Key128(K16), Key128(K16, 16, True)
MATERIAL = KeyMaterial(Key128(bytes(16)), Key128(bytes([1]) * 16))
RECORD = (PEER, "BT", JW_KEY, KeyOrigin.DIRECT_PAIRING, Association.JUST_WORKS, PairingRole.MASTER)
PRIVATE = DhPrivate(12345, "toy-modp")
PUBLIC = DhPublic(678, "toy-modp")


def _call(*args, **kwargs):
    return args, kwargs


#: Per type: argument lists, some it accepts and some it rejects.
CASES = {
    Key128: [
        _call(K16), _call(K16, 7), _call(K16, 16, True), _call(value=K16, mitm_protected=True),
        _call(K16, strength=MIN_STRENGTH), _call(bytes(15)), _call(bytes(17)), _call(b""), _call(K16, 6),
        _call(K16, 17), _call(bytes(15), 3), _call(None), _call(K16, None), _call(), _call(K16, 16, True, 1),
        _call(K16, colour=1), _call(K16, value=K16),
    ],
    Nonce: [_call(K16), _call(value=K16), _call(bytes(15)), _call(bytes(17)), _call(None), _call(), _call(K16, K16)],
    SharedSecret: [_call(K16), _call(value=K16), _call(bytes(15)), _call(b""), _call(None), _call(), _call(K16, 1)],
    KeyRecord: [
        _call(*RECORD), _call(*RECORD, MATERIAL), _call(*RECORD, extra_keys=None),
        _call(PEER, "BLE", NC_KEY, KeyOrigin.CTKD_DERIVED, Association.NUMERIC_COMPARISON, PairingRole.SLAVE),
        _call(peer=PEER, transport="BLE", key=JW_KEY, origin=KeyOrigin.CTKD_DERIVED,
              association=Association.JUST_WORKS, role_at_pairing=PairingRole.SLAVE, extra_keys=MATERIAL),
        _call(PEER, "LE", *RECORD[2:]), _call(PEER, "bt", *RECORD[2:]), _call(PEER, "BT", NC_KEY, *RECORD[3:]),
        _call(PEER, "BT", JW_KEY, KeyOrigin.DIRECT_PAIRING, Association.NUMERIC_COMPARISON, PairingRole.MASTER),
        _call(PEER, "LE", NC_KEY, *RECORD[3:]), _call(PEER, "BT", None, *RECORD[3:]), _call(*RECORD[:5]),
        _call(*RECORD, None, None),
    ],
    DhPrivate: [_call(12345, "toy-modp"), _call(value=1, backend="p256"), _call(1), _call(1, "p256", 2)],
    DhKeyPair: [_call(PRIVATE, PUBLIC), _call(public=PUBLIC, private=PRIVATE), _call(PRIVATE), _call()],
}
#: Per type: the arguments of a value, and keyword changes for ``_replace``, good and bad.
REPLACE = {
    Key128: ((K16,), [{"strength": 8}, {"mitm_protected": True}, {"value": bytes(15)}, {"strength": 17}]),
    Nonce: ((K16,), [{"value": bytes(16)}, {"value": bytes(3)}]),
    SharedSecret: ((K16,), [{"value": bytes(16)}, {"value": b""}]),
    KeyRecord: (RECORD, [{"peer": Address(bytes(6))}, {"extra_keys": MATERIAL}, {"transport": "LE"},
                         {"key": NC_KEY}, {"key": NC_KEY, "association": Association.NUMERIC_COMPARISON}]),
    DhPrivate: ((1, "toy-modp"), [{"backend": "p256"}]),
    DhKeyPair: ((PRIVATE, PUBLIC), [{"public": DhPublic(1, "toy-modp")}]),
}
TYPES = list(CASES)


def _outcome(make, args, kwargs):
    """The field values ``make`` builds, or the type and message of what it raises, with the
    name of the method that bound the arguments (``__init__`` or ``__new__``) left out."""
    try:
        value = make(*args, **kwargs)
    except (TypeError, ValueError, AttributeError) as err:
        return type(err), re.sub(r"^[\w.]+\.__(init|new)__\(\) ", "", str(err))
    return "built", tuple(getattr(value, f.name) for f in dataclasses.fields(value)) \
        if dataclasses.is_dataclass(value) else tuple(value)


def _reference(cls):
    return getattr(Old, cls.__name__)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestValueObjects:
    def test_accepts_and_rejects_what_the_dataclass_did(self, cls):
        outcomes = [_outcome(cls, args, kwargs) for args, kwargs in CASES[cls]]
        assert outcomes == [_outcome(_reference(cls), args, kwargs) for args, kwargs in CASES[cls]]
        assert {kind for kind, _ in outcomes} >= {"built", TypeError}
        assert ValueError in {kind for kind, _ in outcomes} or cls in (DhPrivate, DhKeyPair)

    def test_fields_and_repr_are_the_dataclass_ones(self, cls):
        reference = _reference(cls)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(reference))
        args, kwargs = CASES[cls][0]
        assert repr(cls(*args, **kwargs)) == repr(reference(*args, **kwargs)).removeprefix("Old.")

    def test_fields_cannot_be_assigned(self, cls):
        args, kwargs = CASES[cls][0]
        value = cls(*args, **kwargs)
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(TypeError):
            vars(value)
        assert _outcome(cls, args, kwargs) == ("built", tuple(value))

    def test_equal_fields_give_equal_values_and_hashes(self, cls):
        for args, kwargs in CASES[cls]:
            if _outcome(cls, args, kwargs)[0] != "built":
                continue
            a, b = cls(*args, **kwargs), cls(*args, **kwargs)
            assert a == b and hash(a) == hash(b)
            assert a == tuple(a)  # a value equals the plain tuple of its fields
            assert cls(*a) == a and cls._make(a) == a

    def test_replace_checks_as_dataclasses_replace_did(self, cls):
        base, changes = REPLACE[cls]
        value, old = cls(*base), _reference(cls)(*base)
        for change in changes:
            assert _outcome(value._replace, (), change) == _outcome(dataclasses.replace, (old,), change), change
        assert {_outcome(value._replace, (), change)[0] for change in changes} >= \
            ({"built"} if cls in (DhPrivate, DhKeyPair) else {"built", ValueError})


#: Keys that differ in value, in strength alone, and in the MITM flag alone.
MATERIAL_KEYS = [Key128(bytes(16)), Key128(K16), Key128(K16, 7), Key128(K16, 16, True)]


class TestKeyMaterial:
    """``KeyMaterial`` takes two keys and stores three texts, so it is checked apart from ``CASES``."""

    def test_accepts_and_rejects_what_the_dataclass_did(self):
        cases = [
            _call(JW_KEY, NC_KEY), _call(csrk=JW_KEY, irk=NC_KEY), _call(JW_KEY), _call(),
            _call(JW_KEY, NC_KEY, "00"), _call(JW_KEY, NC_KEY, frame="00"), _call(None, NC_KEY),
            _call(JW_KEY, None), _call(JW_KEY, irk=NC_KEY, colour=1),
        ]
        outcomes = [_outcome(KeyMaterial, args, kwargs) for args, kwargs in cases]
        assert outcomes == [_outcome(Old.KeyMaterial, args, kwargs) for args, kwargs in cases]
        assert {kind for kind, _ in outcomes} == {"built", TypeError, AttributeError}

    def test_fields_texts_and_repr_are_the_dataclass_ones(self):
        assert KeyMaterial._fields == tuple(f.name for f in dataclasses.fields(Old.KeyMaterial))
        for csrk, irk in itertools.product(MATERIAL_KEYS, repeat=2):
            new, old = KeyMaterial(csrk, irk), Old.KeyMaterial(csrk, irk)
            assert (new.csrk_hex, new.irk_hex, new.frame) == (old.csrk_hex, old.irk_hex, old.frame)
            assert repr(new) == repr(old).removeprefix("Old.")

    def test_equal_and_hashed_as_the_dataclass(self):
        pairs = list(itertools.product(MATERIAL_KEYS, repeat=2))
        for a, b in itertools.product(pairs, repeat=2):
            new_a, new_b = KeyMaterial(*a), KeyMaterial(*b)
            assert (new_a == new_b) == (Old.KeyMaterial(*a) == Old.KeyMaterial(*b))
            if new_a == new_b:
                assert hash(new_a) == hash(new_b)
        assert MATERIAL == tuple(MATERIAL) and KeyMaterial._make(MATERIAL) == MATERIAL

    def test_fields_cannot_be_assigned(self):
        old = Old.KeyMaterial(*MATERIAL[:2])
        for name in (*KeyMaterial._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(MATERIAL, name, None)
            with pytest.raises(AttributeError):
                setattr(old, name, None)
        with pytest.raises(TypeError):
            vars(MATERIAL)

    def test_replace_and_copies_are_the_dataclass_ones(self):
        old = Old.KeyMaterial(*MATERIAL[:2])
        for change in ({"csrk": NC_KEY}, {"irk": JW_KEY}, {"csrk": JW_KEY, "irk": NC_KEY}, {}):
            assert tuple(MATERIAL._replace(**change)) == _outcome(dataclasses.replace, (old,), change)[1]
        with pytest.raises(TypeError):
            MATERIAL._replace(frame="00")  # the texts follow the keys; dataclasses.replace raised ValueError
        for duplicate in (copy.copy(MATERIAL), copy.deepcopy(MATERIAL), pickle.loads(pickle.dumps(MATERIAL))):
            assert duplicate == MATERIAL and type(duplicate) is KeyMaterial

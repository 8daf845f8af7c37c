"""Key material, CMAC core, cross-transport conversion, DH, and the KDFs."""

import dataclasses
import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

from reference import (
    RFC4493_KEY,
    RFC4493_VECTORS,
    STD_H6_W_LEBR,
    STD_H7_TMP1_OF_W,
    STD_W,
    ref_aes_cmac,
    ref_ble_to_bt,
    ref_bt_to_ble,
    ref_toy_dh_shared,
)

from ctkdsim.crypto import (
    Address,
    BackendMismatchError,
    DhPrivate,
    DhPublic,
    Key128,
    Nonce,
    P256Backend,
    SharedSecret,
    TAG_BRLE,
    TAG_LEBR,
    TAG_TMP1,
    TAG_TMP2,
    TagString,
    ToyModPBackend,
    aes_cmac,
    ctkd_ble_to_bt,
    ctkd_bt_to_ble,
    dh_agree,
    dh_generate,
    dh_shared,
    get_backend,
    kdf_bt,
    kdf_le,
    random_key128,
    random_nonce,
    session_key,
)


def _rng(seed=0xC0FFEE):
    return random.Random(seed)


class TestKey128:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Key128(bytes(15))

    @pytest.mark.parametrize("strength", [6, 17, 0])
    def test_rejects_bad_strength(self, strength):
        with pytest.raises(ValueError):
            Key128(bytes(16), strength)

    def test_hex_round_trip(self):
        key = Key128.from_hex("00112233445566778899aabbccddeeff", 7, True)
        assert key.hex() == "00112233445566778899aabbccddeeff"
        assert key.strength == 7 and key.mitm_protected


class TestAddressText:
    @given(st.binary(min_size=6, max_size=6))
    def test_matches_per_byte_rendering_and_round_trips(self, value):
        text = str(Address(value))
        assert text == ":".join(f"{b:02x}" for b in value)
        assert Address.parse(text) == Address(value)

    def test_cached_text_is_not_part_of_the_value(self):
        a = Address(bytes([2, 0, 0, 0, 0, 1]))
        b = Address(bytes([2, 0, 0, 0, 0, 2]))
        object.__setattr__(a, "text", "stale")  # only value may count below
        assert a == Address(bytes([2, 0, 0, 0, 0, 1]))
        assert hash(a) == hash(Address(bytes([2, 0, 0, 0, 0, 1])))
        assert a < b and sorted([b, a]) == [a, b]
        assert repr(a) == "Address(value=b'\\x02\\x00\\x00\\x00\\x00\\x01')"

    @given(st.lists(st.binary(min_size=6, max_size=6), min_size=1, max_size=8))
    def test_hash_order_and_repr_follow_the_bytes(self, values):
        for value in values:
            a, b = Address(value), Address(bytes(value))
            assert a == b and hash(a) == hash(b)
            assert repr(a) == f"Address(value={value!r})"
        assert [a.value for a in sorted(map(Address, values))] == sorted(values)

    def test_replace_renders_the_new_value(self):
        a = Address.parse("02:00:00:00:00:01")
        b = dataclasses.replace(a, value=bytes([0xAB, 0, 0, 0, 0, 0xFF]))
        assert str(b) == "ab:00:00:00:00:ff"
        assert str(a) == "02:00:00:00:00:01"

    def test_parse_accepts_either_case(self):
        assert Address.parse("AB:cd:EF:01:23:45") == Address(bytes.fromhex("abcdef012345"))
        assert str(Address.parse("AB:CD:EF:01:23:45")) == "ab:cd:ef:01:23:45"

    @pytest.mark.parametrize("text", [
        "0x2:0:0:0:0:1", " 2:+0:0_0:0:0:1", "02:00:00:00:00:\u0663", "2:0:0:0:0:1",
        "02:00:00:00:00:001", "02:00:00:00:00", "02:00:00:00:00:01:", "02-00-00-00-00-01",
        "02:00:00:00:00:01\n", "020000000001", "", "02:00:00:00:00:0g",
    ])
    def test_parse_rejects_anything_but_two_hex_digits_per_octet(self, text):
        with pytest.raises(ValueError):
            Address.parse(text)


class TestTags:
    def test_salt_encoding_is_zero_padded_ascii(self):
        assert TAG_TMP1.salt_encoding == bytes(12) + b"tmp1"
        assert TAG_TMP2.salt_encoding.hex() == "000000000000000000000000746d7032"
        assert TAG_LEBR.message_encoding == b"lebr"
        assert TAG_BRLE.message_encoding == b"brle"

    def test_only_the_four_tags_exist(self):
        with pytest.raises(ValueError):
            TagString("zzzz")


class TestAesCmac:
    def test_rfc4493_vectors(self):
        for msg, expected in RFC4493_VECTORS:
            assert aes_cmac(RFC4493_KEY, msg).hex() == expected

    def test_empty_message_zero_key_matches_reference(self):
        assert aes_cmac(bytes(16), b"") == ref_aes_cmac(bytes(16), b"")

    def test_deterministic(self):
        key, msg = _rng().randbytes(16), b"hello"
        assert aes_cmac(key, msg) == aes_cmac(key, msg)

    def test_matches_reference_on_random_inputs(self):
        rng = _rng(1)
        for _ in range(1000):
            key = rng.randbytes(16)
            msg = rng.randbytes(rng.randrange(0, 96))
            assert aes_cmac(key, msg) == ref_aes_cmac(key, msg)

    def test_single_bit_flip_changes_tag(self):
        rng = _rng(2)
        key = rng.randbytes(16)
        msg = rng.randbytes(32)
        base = aes_cmac(key, msg)
        for _ in range(100):
            bit = rng.randrange(len(msg) * 8)
            flipped = bytearray(msg)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert aes_cmac(key, bytes(flipped)) != base

    def test_rejects_non_16_byte_key(self):
        with pytest.raises(ValueError):
            aes_cmac(bytes(24), b"")


class TestCtkdConversion:
    def test_zero_key_values_match_reference_composition(self):
        zero = Key128(bytes(16))
        assert ctkd_bt_to_ble(zero, True).hex() == ref_bt_to_ble(bytes(16), True).hex()
        assert ctkd_bt_to_ble(zero, True).hex() == "bf5d874e93be59f82b57f0589c486e1a"
        assert ctkd_ble_to_bt(zero, False).hex() == "43fd2e9972a86f8e8905f4757dcc4fe5"

    def test_published_conversion_vectors(self):
        # The salted first step and the key-id second step, straight from
        # the core specification appendix.
        assert aes_cmac(TAG_TMP1.salt_encoding, STD_W) == STD_H7_TMP1_OF_W
        assert aes_cmac(STD_W, TAG_LEBR.message_encoding) == STD_H6_W_LEBR
        assert ctkd_ble_to_bt(Key128(STD_W), True).value == aes_cmac(STD_H7_TMP1_OF_W, b"lebr")

    def test_matches_reference_oracle_on_random_keys(self):
        rng = _rng(3)
        for _ in range(250):
            raw = rng.randbytes(16)
            key = Key128(raw)
            for h7 in (True, False):
                assert ctkd_ble_to_bt(key, h7).value == ref_ble_to_bt(raw, h7)
                assert ctkd_bt_to_ble(key, h7).value == ref_bt_to_ble(raw, h7)

    def test_deterministic(self):
        key = Key128(_rng(4).randbytes(16))
        assert ctkd_bt_to_ble(key, True) == ctkd_bt_to_ble(key, True)
        assert ctkd_ble_to_bt(key, False) == ctkd_ble_to_bt(key, False)

    def test_branches_never_collide(self):
        rng = _rng(5)
        for _ in range(200):
            key = Key128(rng.randbytes(16))
            assert ctkd_bt_to_ble(key, True).value != ctkd_bt_to_ble(key, False).value
            assert ctkd_ble_to_bt(key, True).value != ctkd_ble_to_bt(key, False).value

    def test_output_differs_from_input(self):
        rng = _rng(6)
        for _ in range(1000):
            key = Key128(rng.randbytes(16))
            assert ctkd_bt_to_ble(key, True).value != key.value
            assert ctkd_ble_to_bt(key, True).value != key.value

    def test_directions_are_not_inverses(self):
        rng = _rng(7)
        for _ in range(20):
            key = Key128(rng.randbytes(16))
            assert ctkd_ble_to_bt(ctkd_bt_to_ble(key, True), True).value != key.value

    def test_strength_and_mitm_flag_pass_through(self):
        rng = _rng(8)
        for strength in (7, 10, 16):
            for mitm in (False, True):
                key = Key128(rng.randbytes(16), strength, mitm)
                for out in (ctkd_bt_to_ble(key, True), ctkd_ble_to_bt(key, False)):
                    assert out.strength == strength
                    assert out.mitm_protected is mitm


class _FixedDraw:
    """Stands in for the simulation RNG: ``randrange`` returns the chosen values in turn."""

    def __init__(self, *values: int) -> None:
        self.values = list(values)

    def randrange(self, start: int, stop: int) -> int:
        value = self.values.pop(0)
        assert start <= value < stop
        return value


#: The order n of the P-256 base point: a scalar lies in [1, n-1].
_N = P256Backend._order


class TestDiffieHellman:
    @pytest.mark.parametrize("exponent", [2, 255, 256, 2**120, ToyModPBackend.prime - 2],
                             ids=["2", "255", "256", "2^120", "prime-2"])
    def test_toy_public_is_the_generator_power_at_edge_exponents(self, exponent):
        pair = dh_generate(_FixedDraw(exponent))
        assert pair.private.value == exponent
        assert pair.public.value == pow(5, exponent, 2**127 - 1)

    def test_toy_public_is_the_generator_power_for_seeded_draws(self):
        rng = _rng(15)
        for _ in range(1000):
            pair = dh_generate(rng)
            assert pair.public.value == pow(5, pair.private.value, 2**127 - 1)

    def test_p256_shared_equals_the_secret_of_the_derived_scalar(self):
        for seed in range(8):
            a = dh_generate(random.Random(seed), "p256")
            b = dh_generate(random.Random(seed + 100), "p256")
            scalar = random.Random(seed).randrange(1, P256Backend._order)
            key = ec.derive_private_key(scalar, ec.SECP256R1())
            peer = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), b.public.value)
            assert dh_shared(a.private, b.public).value == key.exchange(ec.ECDH(), peer)[:16]
            assert a.public.value == key.public_key().public_bytes(
                Encoding.X962, PublicFormat.UncompressedPoint)

    def test_p256_shared_with_the_carried_point_equals_shared_from_bytes(self):
        for seed in range(8):
            a = dh_generate(random.Random(seed), "p256")
            b = dh_generate(random.Random(seed + 200), "p256")
            assert b.public.key is not None
            from_bytes = DhPublic(b.public.value, "p256")
            assert from_bytes.key is None
            assert dh_shared(a.private, b.public) == dh_shared(a.private, from_bytes)

    def test_public_equality_ignores_the_carried_point(self):
        pair = dh_generate(random.Random(3), "p256")
        from_bytes = DhPublic(pair.public.value, "p256")
        assert pair.public == from_bytes
        assert hash(pair.public) == hash(from_bytes)
        assert repr(pair.public) == repr(from_bytes)
        other = dh_generate(random.Random(4), "p256").public
        assert DhPublic(pair.public.value, "p256", other.key) == pair.public

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), backend=st.sampled_from(["toy-modp", "p256"]))
    def test_agree_draws_and_computes_as_the_two_party_exchange(self, seed, backend):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        secret = dh_agree(rng_a, backend)
        private = get_backend(backend).private(rng_b)
        assert secret == dh_shared(private, dh_generate(rng_b, backend).public)
        assert rng_a.getrandbits(64) == rng_b.getrandbits(64)

    def test_toy_agree_matches_reference_group_law_for_seeded_draws(self):
        rng_a, rng_b = _rng(16), _rng(16)
        prime = ToyModPBackend.prime
        for _ in range(500):
            a = dh_generate(rng_b).private.value
            public_b = pow(ToyModPBackend.generator, dh_generate(rng_b).private.value, prime)
            assert dh_agree(rng_a).value == ref_toy_dh_shared(a, public_b, prime)

    @pytest.mark.parametrize("a, b", [(2, 2), (2, (ToyModPBackend.prime - 1) // 2),
                                      (ToyModPBackend.prime - 2, ToyModPBackend.prime - 2),
                                      (255, 256), (2**120, 2**120 + 1)],
                             ids=["2,2", "2,(p-1)/2", "prime-2,prime-2", "255,256", "2^120,2^120+1"])
    def test_toy_agree_at_edge_exponent_pairs(self, a, b):
        prime = ToyModPBackend.prime
        draws = _FixedDraw(a, b)
        secret = dh_agree(draws)
        assert draws.values == []  # the initiator's draw, then the responder's
        assert secret.value == pow(5, a * b, prime).to_bytes(16, "big")  # 1 when p-1 divides a*b
        assert secret.value == ref_toy_dh_shared(a, pow(5, b, prime), prime)
        assert secret == dh_shared(DhPrivate(a, "toy-modp"), dh_generate(_FixedDraw(b)).public)

    @pytest.mark.parametrize("a, b", [(1, 1), (_N - 1, _N - 1), (2, (_N + 1) // 2), (1, _N - 1), (_N - 1, 2),
                                      (2**255, 3)],
                             ids=["1,1", "n-1,n-1", "2,(n+1)/2", "1,n-1", "n-1,2", "2^255,3"])
    def test_p256_agree_at_edge_scalar_pairs(self, a, b):
        draws = _FixedDraw(a, b)
        secret = dh_agree(draws, "p256")
        assert draws.values == []  # the initiator's draw, then the responder's
        curve = ec.SECP256R1()
        peer = ec.derive_private_key(b, curve).public_key()
        assert secret.value == ec.derive_private_key(a, curve).exchange(ec.ECDH(), peer)[:16]
        p256 = get_backend("p256")
        assert secret == dh_shared(p256.private(_FixedDraw(a)), dh_generate(_FixedDraw(b), "p256").public)

    def test_same_seed_same_keypair(self):
        a = dh_generate(random.Random(42))
        b = dh_generate(random.Random(42))
        assert a == b

    def test_distinct_seeds_distinct_publics(self):
        seen = set()
        for seed in range(1000):
            pair = dh_generate(random.Random(seed))
            seen.add(pair.public.value)
        assert len(seen) == 1000

    def test_symmetry(self):
        rng = _rng(9)
        for _ in range(50):
            a = dh_generate(rng)
            b = dh_generate(rng)
            assert dh_shared(a.private, b.public) == dh_shared(b.private, a.public)

    def test_matches_reference_group_law(self):
        rng = _rng(10)
        a = dh_generate(rng)
        b = dh_generate(rng)
        expected = ref_toy_dh_shared(a.private.value, b.public.value, ToyModPBackend.prime)
        assert dh_shared(a.private, b.public).value == expected

    def test_distinct_peers_distinct_secrets(self):
        rng = _rng(11)
        me = dh_generate(rng)
        secrets = {dh_shared(me.private, dh_generate(rng).public).value for _ in range(1000)}
        assert len(secrets) == 1000

    def test_backend_mismatch_raises(self):
        rng = _rng(12)
        toy = dh_generate(rng)
        p256 = dh_generate(rng, "p256")
        with pytest.raises(BackendMismatchError):
            dh_shared(toy.private, p256.public)

    def test_p256_backend_symmetry(self):
        rng = _rng(13)
        a = dh_generate(rng, "p256")
        b = dh_generate(rng, "p256")
        assert dh_shared(a.private, b.public) == dh_shared(b.private, a.public)
        assert len(dh_shared(a.private, b.public).value) == 16


def _kdf_fixture(rng):
    dk = SharedSecret(rng.randbytes(16))
    addr_a = Address(rng.randbytes(6))
    addr_b = Address(rng.randbytes(6))
    n_a = random_nonce(rng)
    n_b = random_nonce(rng)
    return dk, addr_a, addr_b, n_a, n_b


class TestPairingKdfs:
    def test_deterministic(self):
        dk, a, b, na, nb = _kdf_fixture(_rng(14))
        assert kdf_le(dk, a, b, na, nb, 16) == kdf_le(dk, a, b, na, nb, 16)
        assert kdf_bt(dk, a, b, na, nb) == kdf_bt(dk, a, b, na, nb)

    def test_any_single_input_change_changes_output(self):
        rng = _rng(15)
        dk, a, b, na, nb = _kdf_fixture(rng)
        base = kdf_le(dk, a, b, na, nb, 16).value
        seen = {base}
        for _ in range(100):
            which = rng.randrange(5)
            dk2, a2, b2, na2, nb2 = dk, a, b, na, nb
            if which == 0:
                dk2 = SharedSecret(rng.randbytes(16))
            elif which == 1:
                a2 = Address(rng.randbytes(6))
            elif which == 2:
                b2 = Address(rng.randbytes(6))
            elif which == 3:
                na2 = random_nonce(rng)
            else:
                nb2 = random_nonce(rng)
            out = kdf_le(dk2, a2, b2, na2, nb2, 16).value
            assert out != base
            seen.add(out)
        assert len(seen) == 101

    def test_strength_contract(self):
        dk, a, b, na, nb = _kdf_fixture(_rng(16))
        for strength in (7, 12, 16):
            key = kdf_le(dk, a, b, na, nb, strength)
            assert key.strength == strength
            # Reduced-entropy keys are truncated and zero padded.
            assert key.value[strength:] == bytes(16 - strength)
        with pytest.raises(ValueError):
            kdf_le(dk, a, b, na, nb, 6)

    def test_bt_kdf_is_always_full_strength(self):
        dk, a, b, na, nb = _kdf_fixture(_rng(17))
        assert kdf_bt(dk, a, b, na, nb).strength == 16

    def test_le_and_bt_kdfs_are_domain_separated(self):
        dk, a, b, na, nb = _kdf_fixture(_rng(18))
        assert kdf_le(dk, a, b, na, nb, 16).value != kdf_bt(dk, a, b, na, nb).value


class TestSessionKey:
    def test_ble_entropy_must_match_pairing_key(self):
        rng = _rng(19)
        key = Key128(rng.randbytes(16), strength=10)
        na, nb = random_nonce(rng), random_nonce(rng)
        with pytest.raises(ValueError):
            session_key("BLE", key, na, nb, 16)
        assert session_key("BLE", key, na, nb, 10).strength == 10

    def test_fresh_nonces_fresh_session_key(self):
        rng = _rng(20)
        key = Key128(rng.randbytes(16))
        na, nb = random_nonce(rng), random_nonce(rng)
        first = session_key("BT", key, na, nb, 16)
        second = session_key("BT", key, random_nonce(rng), random_nonce(rng), 16)
        assert first.value != second.value

    def test_bt_entropy_negotiation(self):
        rng = _rng(21)
        key = Key128(rng.randbytes(16))
        na, nb = random_nonce(rng), random_nonce(rng)
        weak = session_key("BT", key, na, nb, 7)
        strong = session_key("BT", key, na, nb, 16)
        assert weak.strength == 7 and strong.strength == 16
        assert weak.value != strong.value
        assert weak.value[7:] == bytes(9)

    def test_rejects_unknown_transport(self):
        rng = _rng(22)
        key = Key128(rng.randbytes(16))
        na, nb = random_nonce(rng), random_nonce(rng)
        with pytest.raises(ValueError):
            session_key("UART", key, na, nb, 16)


class TestRandomDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 3])
    def test_keys_and_nonces_are_randbytes_draws(self, seed):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_nonce(rng).value == reference.randbytes(16)
            assert random_key128(rng).value == reference.randbytes(16)
        assert rng.getstate() == reference.getstate()


class TestNonce:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            Nonce(bytes(8))

    def test_no_reuse_across_draws(self):
        rng = _rng(23)
        values = {random_nonce(rng).value for _ in range(1000)}
        assert len(values) == 1000

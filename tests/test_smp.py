"""Codec round-trips, observed AuthReq bytes, and strictness on bad input."""

import random

import pytest
from hypothesis import example, given, strategies as st

from ctkdsim.crypto import Key128
from ctkdsim.smp import (
    AuthReqBits,
    CodecError,
    IoCapability,
    KeyDistBits,
    KeyMaterial,
    OPCODE_REQUEST,
    OPCODE_RESPONSE,
    SmpPairingMessage,
    ctkd_requested,
    decode_pairing,
    encode_bt_auth_req,
    encode_pairing,
    hexdump,
    parse_hexdump,
)


class TestAuthReqBits:
    def test_observed_byte_0x2d(self):
        # Confirm-capable SC device with the conversion variant enabled.
        bits = AuthReqBits.from_byte(0x2D)
        assert bits == AuthReqBits(bonding=1, mitm=True, sc=True, keypress=False, ct2_h7=True)
        assert bits.to_byte() == 0x2D

    def test_observed_byte_0x09(self):
        # SC device with no MITM request and no conversion-variant bit.
        bits = AuthReqBits.from_byte(0x09)
        assert bits == AuthReqBits(bonding=1, mitm=False, sc=True)
        assert bits.sc and not bits.ct2_h7
        assert bits.to_byte() == 0x09

    def test_reserved_bits_rejected(self):
        for raw in (0x40, 0x80, 0xC0, 0xFF):
            with pytest.raises(CodecError):
                AuthReqBits.from_byte(raw)

    def test_bonding_field_bounds(self):
        with pytest.raises(CodecError):
            AuthReqBits(bonding=4)


class TestBtAuthReqByte:
    def test_observed_bytes(self):
        assert encode_bt_auth_req(True, True) == 0x03   # bonding + MITM
        assert encode_bt_auth_req(True, False) == 0x02  # bonding only


def _random_message(rng: random.Random) -> SmpPairingMessage:
    return SmpPairingMessage(
        opcode=rng.choice((OPCODE_REQUEST, OPCODE_RESPONSE)),
        io_capability=rng.choice(list(IoCapability)),
        oob=rng.random() < 0.5,
        auth_req=AuthReqBits(
            bonding=rng.randrange(4),
            mitm=rng.random() < 0.5,
            sc=rng.random() < 0.5,
            keypress=rng.random() < 0.5,
            ct2_h7=rng.random() < 0.5,
        ),
        max_key_size=rng.randrange(7, 17),
        initiator_dist=KeyDistBits(*(rng.random() < 0.5 for _ in range(4))),
        responder_dist=KeyDistBits(*(rng.random() < 0.5 for _ in range(4))),
    )


class TestCodecRoundTrip:
    def test_fixed_layout(self):
        msg = SmpPairingMessage(
            opcode=OPCODE_REQUEST,
            io_capability=IoCapability.NO_INPUT_NO_OUTPUT,
            oob=False,
            auth_req=AuthReqBits.from_byte(0x2D),
            max_key_size=16,
            initiator_dist=KeyDistBits(True, True, True, True),
            responder_dist=KeyDistBits(True, True, True, True),
        )
        assert encode_pairing(msg) == bytes([0x01, 0x03, 0x00, 0x2D, 0x10, 0x0F, 0x0F])

    def test_random_round_trip(self):
        rng = random.Random(99)
        for _ in range(2000):
            msg = _random_message(rng)
            assert decode_pairing(encode_pairing(msg)) == msg

    @given(st.data())
    def test_round_trip_property(self, data):
        msg = SmpPairingMessage(
            opcode=data.draw(st.sampled_from((OPCODE_REQUEST, OPCODE_RESPONSE))),
            io_capability=data.draw(st.sampled_from(list(IoCapability))),
            oob=data.draw(st.booleans()),
            auth_req=AuthReqBits(
                bonding=data.draw(st.integers(0, 3)),
                mitm=data.draw(st.booleans()),
                sc=data.draw(st.booleans()),
                keypress=data.draw(st.booleans()),
                ct2_h7=data.draw(st.booleans()),
            ),
            max_key_size=data.draw(st.integers(7, 16)),
            initiator_dist=KeyDistBits(*(data.draw(st.booleans()) for _ in range(4))),
            responder_dist=KeyDistBits(*(data.draw(st.booleans()) for _ in range(4))),
        )
        assert decode_pairing(encode_pairing(msg)) == msg


class TestDecodeErrors:
    def test_length_error(self):
        with pytest.raises(CodecError, match="7 bytes"):
            decode_pairing(bytes(6))
        with pytest.raises(CodecError, match="7 bytes"):
            decode_pairing(bytes(8))

    def test_key_size_range(self):
        good = bytes([0x01, 0x03, 0x00, 0x09, 0x10, 0x00, 0x00])
        for bad_size in (6, 17):
            frame = bytearray(good)
            frame[4] = bad_size
            with pytest.raises(CodecError, match="key size"):
                decode_pairing(bytes(frame))

    def test_reserved_bits_in_dist_fields(self):
        frame = bytearray([0x01, 0x03, 0x00, 0x09, 0x10, 0x00, 0x00])
        frame[5] = 0x10
        with pytest.raises(CodecError, match="reserved"):
            decode_pairing(bytes(frame))

    def test_bad_io_and_oob(self):
        frame = bytearray([0x01, 0x05, 0x00, 0x09, 0x10, 0x00, 0x00])
        with pytest.raises(CodecError, match="IO"):
            decode_pairing(bytes(frame))
        frame = bytearray([0x01, 0x03, 0x02, 0x09, 0x10, 0x00, 0x00])
        with pytest.raises(CodecError, match="OOB"):
            decode_pairing(bytes(frame))

    def test_bad_opcode(self):
        with pytest.raises(CodecError, match="opcode"):
            decode_pairing(bytes([0x03, 0x03, 0x00, 0x09, 0x10, 0x00, 0x00]))


class TestCtkdRequested:
    def _msg(self, init_link, resp_link):
        return SmpPairingMessage(
            opcode=OPCODE_REQUEST,
            io_capability=IoCapability.NO_INPUT_NO_OUTPUT,
            oob=False,
            auth_req=AuthReqBits(bonding=1, sc=True),
            max_key_size=16,
            initiator_dist=KeyDistBits(link_key=init_link),
            responder_dist=KeyDistBits(link_key=resp_link),
        )

    def test_both_set(self):
        assert ctkd_requested(self._msg(True, True))

    def test_one_side_only(self):
        assert not ctkd_requested(self._msg(True, False))
        assert not ctkd_requested(self._msg(False, True))

    def test_all_zero(self):
        assert not ctkd_requested(self._msg(False, False))


class TestHexdump:
    def test_convention(self):
        assert hexdump(bytes([0x01, 0xAB, 0x00])) == "01 ab 00"

    @given(st.binary(max_size=64))
    @example(b"")
    def test_matches_per_byte_rendering(self, data):
        assert hexdump(data) == " ".join(f"{b:02x}" for b in data)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 24))
            assert parse_hexdump(hexdump(data)) == data

    def test_parse_accepts_either_case(self):
        assert parse_hexdump("01 AB cD") == bytes([0x01, 0xAB, 0xCD])

    @pytest.mark.parametrize("text", [
        "1 ab", "0x1 ab", "+1 ab", "01 a_b", "01 ab\u0663", "01  ab", " 01 ab", "01 ab ",
        "01\tab", "01ab", "001 ab", "01 ag",
    ])
    def test_parse_rejects_anything_but_two_hex_digits_per_octet(self, text):
        with pytest.raises(ValueError):
            parse_hexdump(text)


class TestKeyMaterialText:
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_text_is_rendered_at_construction(self, csrk, irk):
        material = KeyMaterial(Key128(csrk), Key128(irk))
        # Stored in the tuple, not rendered on each read.
        assert tuple(material)[2:] == (csrk.hex(), irk.hex(), hexdump(csrk + irk))
        assert (material.csrk_hex, material.irk_hex, material.frame) == tuple(material)[2:]

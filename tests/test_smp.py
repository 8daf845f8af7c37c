"""Codec round-trips, observed AuthReq bytes, and strictness on bad input."""

import random

import pytest
from hypothesis import given, strategies as st

from ctkdsim.smp import (
    AuthReqBits,
    CodecError,
    IoCapability,
    KeyDistBits,
    OPCODE_REQUEST,
    OPCODE_RESPONSE,
    SmpPairingMessage,
    ctkd_requested,
    decode_bt_auth_req,
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
        assert decode_bt_auth_req(0x03) == (True, True)   # bonding + MITM
        assert decode_bt_auth_req(0x02) == (True, False)  # bonding only
        assert encode_bt_auth_req(True, True) == 0x03
        assert encode_bt_auth_req(True, False) == 0x02

    def test_range_checked(self):
        with pytest.raises(CodecError):
            decode_bt_auth_req(0x06)


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

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 24))
            assert parse_hexdump(hexdump(data)) == data

"""Static pairing content is rendered once, and that changes nothing a run writes.

Honest SMP frames, as trace text, come from a cache keyed by capability
fields (``pairing.honest``), and a receiver acts on the message it decodes
from the frame it was handed, decoded once per text (``pairing.read_frame``).
Identity-key text is rendered once per ``KeyMaterial``, and payloads read
pre-rendered address and enum text. The bundled scenarios use only two IO
capabilities at key size 16, so the golden digests alone cannot catch a
cache key that drops a field: the Hypothesis tests here cover the whole
capability space.
"""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from conftest import make_profile, reference_run

from ctkdsim import pairing
from ctkdsim.attacks import unintended_session
from ctkdsim.crypto import Address, TRANSPORT_BLE, random_address
from ctkdsim.device import Association, DeviceProfile
from ctkdsim.pairing import (
    SimContext,
    ble_pair,
    bt_pair,
    build_bt_pairing_request,
    build_pairing_request,
    build_pairing_response,
    establish_session,
    honest,
    make_device,
    read_frame,
)
from ctkdsim.policies import PolicySet
from ctkdsim.scenario import load_scenario, run_scenario
from ctkdsim.smp import (
    OPCODE_REQUEST,
    OPCODE_RESPONSE,
    IoCapability,
    decode_bt_auth_req,
    decode_pairing,
    encode_pairing,
    hexdump,
)
from ctkdsim.trace import KIND_KEY_STORED, KIND_MSG_RECEIVED, KIND_MSG_SENT

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MATRIX = sorted((ROOT / "scenarios" / "matrix").glob("*.json"))


@st.composite
def profiles(draw) -> DeviceProfile:
    """Any valid profile: every capability field drawn, under a random address."""
    fields = draw(st.fixed_dictionaries({
        "io_capability": st.sampled_from(IoCapability),
        "sc_host": st.booleans(),
        "sc_controller": st.booleans(),
        "h7_supported": st.booleans(),
        "ctkd_supported": st.booleans(),
        "ctkd_backported": st.booleans(),
        "max_key_size": st.integers(7, 16),
    }))
    sc = fields["sc_host"] or fields["sc_controller"]
    assume(sc or not fields["ctkd_supported"] or fields["ctkd_backported"])
    address = Address(bytes([0x02]) + draw(st.binary(min_size=5, max_size=5)))
    return DeviceProfile(address, "p", "5.0", **fields)


class TestHonestFramesEqualAFreshBuild:
    @staticmethod
    def _check(text, fresh) -> None:
        assert text == hexdump(encode_pairing(fresh))
        assert read_frame(text) == fresh
        assert read_frame(text) is read_frame(text)

    @settings(max_examples=400, deadline=None)
    @given(initiator=profiles(), responder=profiles(), ctkd=st.booleans())
    def test_request_and_response(self, initiator, responder, ctkd):
        request = honest(build_pairing_request, initiator, ctkd)
        self._check(request, build_pairing_request(initiator, ctkd))
        response = honest(build_pairing_response, responder, request)
        fresh = build_pairing_response(responder, hexdump(encode_pairing(build_pairing_request(initiator, ctkd))))
        self._check(response, fresh)

    @settings(max_examples=200, deadline=None)
    @given(profile=profiles(), opcode=st.sampled_from([OPCODE_REQUEST, OPCODE_RESPONSE]))
    def test_bt_message(self, profile, opcode):
        frame = honest(build_bt_pairing_request, profile, opcode)
        self._check(frame, build_bt_pairing_request(profile, opcode))

    @settings(max_examples=100, deadline=None)
    @given(initiator=profiles(), responder=profiles())
    def test_bt_native_frames_show_their_senders_auth_req_byte(self, initiator, responder):
        assume(initiator.address != responder.address)
        ctx = SimContext(rng=random.Random(0))
        a, b = make_device(ctx, initiator), make_device(ctx, responder)
        assert not bt_pair(ctx, a, b).aborted
        wants_mitm = {a.address.text: initiator.wants_mitm, b.address.text: responder.wants_mitm}
        shown = 0
        for event in ctx.trace.events:
            if event.kind in (KIND_MSG_SENT, KIND_MSG_RECEIVED):
                payload = event.payload
                sender = event.actor if event.kind == KIND_MSG_SENT else payload["peer"]
                assert ("bt_auth_req" in payload) == (not payload["tunneled"])
                if "bt_auth_req" in payload:
                    shown += 1
                    assert decode_bt_auth_req(int(payload["bt_auth_req"], 16)) == (True, wants_mitm[sender])
        assert shown == 4  # the request and the response, each sent and received


def _claims_no_input_no_output(build, profile, arg):
    """``pairing.honest``, except that a DisplayYesNo responder's response claims NoInputNoOutput."""
    text = honest(build, profile, arg)
    if text.startswith("02 01 ") and profile.io_capability is IoCapability.DISPLAY_YES_NO:
        text = "02 03 " + text[6:]
    return text


class TestReceiversActOnTheBytes:
    """The association, and with it the keys' MITM protection, comes from the frames each end was
    handed: a response frame that claims NoInputNoOutput forces Just Works on two DisplayYesNo ends."""

    @pytest.mark.parametrize("tampered", [False, True], ids=["honest", "tampered"])
    @pytest.mark.parametrize("pair", [ble_pair, bt_pair], ids=["ble", "bt"])
    def test_a_response_that_claims_no_input_no_output_forces_just_works(self, monkeypatch, pair, tampered):
        if tampered:
            monkeypatch.setattr(pairing, "honest", _claims_no_input_no_output)
        ctx = SimContext(rng=random.Random(1))
        a, b = (make_device(ctx, make_profile(name, n)) for n, name in enumerate("ab", 1))
        session = pair(ctx, a, b)
        assert not session.aborted
        expected = Association.JUST_WORKS if tampered else Association.NUMERIC_COMPARISON
        assert session.negotiated.association is expected
        stored = [e.payload for e in ctx.trace.events if e.kind == KIND_KEY_STORED]
        assert len(stored) == 4  # both ends, both transports: CTKD still ran
        assert {(p["association"], p["mitm_protected"]) for p in stored} == {(expected.value, not tampered)}
        # The initiator was handed the frame the trace shows.
        response = next(e for e in ctx.trace.events if e.kind == KIND_MSG_RECEIVED and e.actor == a.address.text
                        and e.payload["opcode"] == "response")
        assert read_frame(response.payload["frame"]).io_capability is (
            IoCapability.NO_INPUT_NO_OUTPUT if tampered else IoCapability.DISPLAY_YES_NO)


#: 20 capability sets for generated victims.
CAPABILITY_SETS = [
    {"io_capability": io, "max_key_size": size, "h7_supported": h7}
    for io in IoCapability
    for size in (7, 16)
    for h7 in (True, False)
]


def _us_attacks(rounds: int, rng: random.Random) -> None:
    """``us`` under a fresh random identity against a generated victim, each time.

    Every other victim runs a BLE session with a companion first, so its
    attack pairs over BT; the others are attacked over BLE.
    """
    for i in range(rounds):
        ctx = SimContext(rng=random.Random(rng.random()))
        caps = CAPABILITY_SETS[i % len(CAPABILITY_SETS)]
        victim = make_device(ctx, DeviceProfile(random_address(rng), f"v{i}", "5.0", **caps))
        companion = None
        if i % 2:
            companion = make_device(ctx, DeviceProfile(random_address(rng), f"c{i}", "5.0",
                                                       IoCapability.NO_INPUT_NO_OUTPUT))
            assert not bt_pair(ctx, companion, victim).aborted
            assert establish_session(ctx, victim, companion, TRANSPORT_BLE).ok
        unintended_session(ctx, victim, companion)


#: The scenarios' own policies, and an override; under either every run forks a snapshot.
OVERRIDES, OVERRIDE_IDS = [None, PolicySet()], ["own", "override"]


class TestBoundedMemory:
    def test_frames_grow_with_capability_sets_not_with_traffic(self):
        rng = random.Random(3)
        before, decoded_before = set(pairing._FRAMES), read_frame.cache_info().currsize
        _us_attacks(2 * len(CAPABILITY_SETS), rng)
        first = set(pairing._FRAMES) - before
        decoded = read_frame.cache_info().currsize
        # Per victim capability set: its BT response, its response to the
        # attacker's request and its response to the companion's. Beside
        # them, the attacker's and the companion's two requests each. Every
        # text a device decodes is one of these frames.
        assert len(first) <= 3 * len(CAPABILITY_SETS) + 4
        assert decoded - decoded_before <= 3 * len(CAPABILITY_SETS) + 4
        _us_attacks(10 * len(CAPABILITY_SETS), rng)
        assert set(pairing._FRAMES) == before | first
        assert read_frame.cache_info().currsize == decoded

    def test_each_frame_text_is_decoded_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pairing, "decode_pairing", lambda data: calls.append(data) or decode_pairing(data))
        read_frame.cache_clear()
        scenarios = [load_scenario(path) for path in MATRIX]
        for policies in (None, PolicySet()):
            for scenario in scenarios:
                run_scenario(scenario, policy_override=policies)
        assert calls and len(calls) == len(set(calls)) == read_frame.cache_info().currsize

    @pytest.mark.parametrize("policies", OVERRIDES, ids=OVERRIDE_IDS)
    def test_matrix_passes_retain_nothing_after_the_first(self, policies):
        # The first pass keeps each scenario's pre-state snapshot; later passes fork it.
        scenarios = [load_scenario(path) for path in MATRIX]

        def one_pass():
            for scenario in scenarios:
                run_scenario(scenario, policy_override=policies)
            gc.collect()

        only_src = [tracemalloc.Filter(True, str(SRC / "*"))]
        tracemalloc.start()
        try:
            one_pass()
            after_first = tracemalloc.take_snapshot().filter_traces(only_src)
            one_pass()
            one_pass()
            after_third = tracemalloc.take_snapshot().filter_traces(only_src)
        finally:
            tracemalloc.stop()
        grown = [s for s in after_third.compare_to(after_first, "lineno") if s.size_diff > 0]
        assert not grown, grown[:5]

    @pytest.mark.parametrize("policies", OVERRIDES, ids=OVERRIDE_IDS)
    def test_each_key_stored_event_owns_its_extra_keys(self, policies):
        # Both runs fork one snapshot, so each fork must copy every payload dict.
        scenario = load_scenario(MATRIX[3])  # an us attack: the attacker keeps the victim's keys
        result = run_scenario(scenario, policy_override=policies)
        digest = result.trace_digest()
        dicts = [e.payload["extra_keys"] for e in result.trace
                 if e.kind == KIND_KEY_STORED and "extra_keys" in e.payload]
        assert len(dicts) >= 4
        assert len({id(d) for d in dicts}) == len(dicts)
        others = [dict(d) for d in dicts[1:]]
        dicts[0]["csrk"] = "00" * 16
        dicts[0]["extra"] = True
        assert [dict(d) for d in dicts[1:]] == others
        assert run_scenario(scenario, policy_override=policies).trace_digest() == digest

    def test_a_fork_owns_every_payload_dict_and_every_dict_inside_one(self):
        # Two forks of one snapshot: wrecking every payload of the first leaves the second a full run.
        scenario = load_scenario(MATRIX[3])  # an us attack: its pre-state stores identity keys
        for policies in (None, PolicySet(sig51=True)):
            full = reference_run(scenario, policies)
            first = run_scenario(scenario, policy_override=policies)
            nested = [value for event in first.trace for value in event.payload.values() if type(value) is dict]
            assert nested
            for payload in [*nested, *(event.payload for event in first.trace)]:
                payload.clear()
                payload["wrecked"] = True
            second = run_scenario(scenario, policy_override=policies)
            assert second.trace_digest() == full.trace_digest()
            assert second.outcome.to_dict() == full.outcome.to_dict()


#: One scenario per attack strategy, and the one Numeric Comparison pre-bond.
HASH_SEED_SCENARIOS = [*MATRIX[:4], ROOT / "scenarios" / "extra" / "nc-bond-mi-baseline.json"]


@pytest.mark.parametrize("path", HASH_SEED_SCENARIOS, ids=lambda p: p.stem)
def test_trace_bytes_do_not_depend_on_the_hash_seed(path, tmp_path):
    golden = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
    traces = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"trace-{hash_seed}.jsonl"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-m", "ctkdsim", "run", str(path), "--trace", str(out)],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        assert done.returncode == 0, done.stdout + done.stderr
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]
    key = f"{path.parent.name}/{path.stem}|own"
    assert hashlib.sha256(traces[0]).hexdigest() == golden[key]["digest"]

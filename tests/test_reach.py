"""The reach table: what the bundled scenarios reach, under their own policies and under each of
the 32 defense subsets (the session ``own`` and ``lattice`` fixtures).

Each literal below is read from the traces alone: the deny cells ``(stage, transport, reason)``
with their counts, each strategy's CTI sets on successful runs, the ``mitm`` leg orders, and the
``(stored, negotiated)`` association pairs of the attacks' pairings. A change that moves what the
bundled runs reach updates the literal in the same change and names the cells in ``CHANGES.md``;
the literals record coverage, they are no bound.

Unreached today, each with the ROADMAP item that should reach it or delete it:

* deny cells: ``strength_downgrade`` (item 10) and a BLE ``c2_role_mismatch`` (item 4);
* CTI sets: ``us`` with CTI 2 (item 4);
* association pairs: any that negotiates Numeric Comparison, since the attacker's one profile
  claims NoInputNoOutput and so forces Just Works (items 9 and 17).
"""

from collections import Counter

from conftest import attack_requests

from ctkdsim.device import Association
from ctkdsim.pairing import negotiate_association
from ctkdsim.smp import decode_pairing, parse_hexdump

JW, NC = Association.JUST_WORKS.value, Association.NUMERIC_COMPARISON.value

#: Deny verdicts over the 32 x ``BUNDLED_COUNT`` runs of ``lattice``; a run has at most one.
LATTICE_DENIES = {
    ("pairing_request", "BLE", "not_pairable"): 608,
    ("pairing_request", "BT", "c2_role_mismatch"): 521,
    ("store", "BLE", "c3_overwrite_block"): 257,
    ("store", "BT", "c3_overwrite_block"): 150,
    ("association", "BLE", "c4_association_downgrade"): 40,
    ("store", "BLE", "mitm_downgrade"): 20,
    ("pairing_request", "BT", "not_pairable"): 16,
    ("store", "BT", "c3_weak_input_block"): 4,
    ("association", "BT", "c4_association_downgrade"): 4,
    ("store", "BT", "mitm_downgrade"): 2,
}

#: Deny verdicts over the ``BUNDLED_COUNT`` runs of ``own``: the bundled extras that set a defense.
OWN_DENIES = {
    ("pairing_request", "BLE", "not_pairable"): 1,
    ("store", "BT", "c3_overwrite_block"): 1,
    ("store", "BT", "c3_weak_input_block"): 1,
    ("store", "BLE", "mitm_downgrade"): 1,
}

#: Per strategy, the CTI sets of its successful runs in ``own`` and ``lattice``.
CTI_SETS = {"mi": {(1, 3), (3, 4), (1, 3, 4)}, "si": {(1, 2, 3), (1, 2, 3, 4)}, "mitm": {(1, 2, 3), (1, 2, 3, 4)},
            "us": {(1, 3)}}

#: The legs each ``mitm`` run opened, in order; a leg that fails ends the attack.
MITM_LEG_ORDERS = {("slave", "master"), ("slave",), ("master", "slave"), ("master",)}

#: ``(stored, negotiated)`` per attack pairing that reached negotiation: the strongest association
#: the victim had stored for the claimed identity (None without a bond), and the one negotiated.
ASSOCIATION_PAIRS = {(None, JW), (JW, JW), (NC, JW)}


def _runs(own, lattice) -> list:
    """Every run of the two fixtures: ``own``'s ``BUNDLED_COUNT``, then ``lattice``'s 32 x ``BUNDLED_COUNT``."""
    return [*own, *(result for results in lattice.values() for result in results)]


def _denies(results) -> dict:
    cells = Counter()
    for result in results:
        for event in result.trace:
            if event.kind == "policy_verdict" and not event.payload["allow"]:
                cells[event.payload["stage"], event.payload["transport"], event.payload["reason"]] += 1
    return dict(cells)


def _attack_pairings(result) -> list:
    """Per pairing the attack opened (``attack_requests``), in order: its transport, the strongest
    association the victim had stored for the claimed identity, and the one the request and the
    victim's response negotiate, None when the victim denied the request before responding.

    An attacker's device shows the address it claims, so from the attack's first request on, a store
    whose actor is the latest request's claimed identity is that attacker's, and not the victim's."""
    trace = result.trace
    requests = attack_requests(result)
    claims = {request.index: request.payload["peer"] for request in requests}
    claimed, attackers = None, set()
    for event in trace:
        claimed = claims.get(event.index, claimed)
        if event.kind == "key_stored" and event.actor == claimed:
            attackers.add(event.index)
    pairings = []
    for request in requests:
        victim, claimed = request.actor, request.payload["peer"]
        stored = {event.payload["transport"]: Association(event.payload["association"])
                  for event in trace[:request.index] if event.kind == "key_stored" and event.index not in attackers
                  and event.actor == victim and event.payload["peer"] == claimed}
        strongest = max(stored.values(), key=lambda association: association.rank, default=None)
        response = next((event for event in trace[request.index:]
                         if event.kind == "msg_sent" and event.actor == victim
                         and event.payload["opcode"] == "response" and not event.payload["tunneled"]), None)
        negotiated = None
        if response is not None:
            sent, answer = (decode_pairing(parse_hexdump(e.payload["frame"])) for e in (request, response))
            negotiated = negotiate_association(sent.io_capability, answer.io_capability,
                                               sent.auth_req.mitm, answer.auth_req.mitm).value
        pairings.append((request.payload["transport"], strongest and strongest.value, negotiated))
    return pairings


class TestReach:
    def test_deny_cells(self, own, lattice):
        assert _denies(own) == OWN_DENIES
        assert _denies(result for results in lattice.values() for result in results) == LATTICE_DENIES

    def test_cti_sets_of_successful_runs(self, own, lattice):
        reached: dict = {}
        for result in _runs(own, lattice):
            if result.outcome.succeeded:
                ctis = tuple(sorted(int(cti) for cti in result.outcome.ctis_used))
                reached.setdefault(result.scenario.attack.strategy, set()).add(ctis)
        assert reached == CTI_SETS

    def test_mitm_leg_orders(self, own, lattice):
        # The slave leg pairs over BT, the master leg over BLE.
        reached = {tuple("slave" if transport == "BT" else "master" for transport, _, _ in _attack_pairings(r))
                   for r in _runs(own, lattice) if r.scenario.attack.strategy == "mitm"}
        assert reached == MITM_LEG_ORDERS

    def test_association_pairs(self, own, lattice):
        reached = {(stored, negotiated) for result in _runs(own, lattice)
                   for _, stored, negotiated in _attack_pairings(result) if negotiated is not None}
        assert reached == ASSOCIATION_PAIRS

"""Anatomy of a master-impersonation takeover, event by event.

Two honest devices bond over BT and run a session. The attacker then pairs
with the slave over the idle BLE transport, claiming the master's address
and no input/output capabilities. One pairing run later the attacker owns
both transports and the real master is locked out.
"""

import random

from ctkdsim import (
    SimContext,
    bt_pair,
    establish_session,
    make_device,
    master_impersonation,
)
from ctkdsim.device import DeviceProfile
from ctkdsim.pairing import read_frame
from ctkdsim.smp import ctkd_requested

ctx = SimContext(rng=random.Random(42))

alice = make_device(ctx, DeviceProfile.from_dict({
    "address": "02:11:11:11:11:01", "name": "alice-laptop",
    "bt_version": "5.1", "io_capability": "DisplayYesNo",
}))
bob = make_device(ctx, DeviceProfile.from_dict({
    "address": "02:11:11:11:11:02", "name": "bob-headphones",
    "bt_version": "4.2", "io_capability": "NoInputNoOutput",
}))

# Honest life: one BT pairing (which also keys BLE via cross-transport
# derivation) and a live BT session.
session = bt_pair(ctx, alice, bob)
assert not session.aborted
establish_session(ctx, alice, bob, "BT")
print("pre-state: bonded on both transports, BT session live")
print(f"  bob's BT key for alice : {bob.bonds.lookup(alice.address, 'BT').key.hex()}")

# The attack: one BLE pairing against bob, spoofing alice's address.
attack_start = ctx.trace.clock
outcome = master_impersonation(ctx, bob, alice)

print("\nattack outcome:")
for field, value in outcome.to_dict().items():
    print(f"  {field:<20}: {value}")
print(f"  bob's BT key for alice : {bob.bonds.lookup(alice.address, 'BT').key.hex()}  (attacker-derived)")

# bob acts only on the frame he was handed: what he decoded from the request.
request = next(event for event in ctx.trace.events[attack_start:]
               if event.kind == "msg_received" and event.actor == bob.address.text
               and event.payload["opcode"] == "request")
claimed = read_frame(request.payload["frame"])
print(f"\nthe request bob decoded, frame {request.payload['frame']}:")
print(f"  IO capability : {claimed.io_capability.name}  (forces Just Works)")
print(f"  MITM          : {claimed.auth_req.mitm}")
print(f"  Link Key      : {ctkd_requested(claimed)}  (asks for CTKD)")
print(f"  CT2           : {claimed.auth_req.ct2_h7}")

# The trace tells the same story.
print("\nattack-window events:")
for event in ctx.trace.events[attack_start:]:
    if event.kind in ("key_stored", "session_ok", "session_fail"):
        extra = {k: v for k, v in event.payload.items()
                 if k in ("transport", "origin", "overwrote", "reason")}
        print(f"  [{event.index:>3}] {event.kind:<12} actor={event.actor} {extra}")

assert outcome.succeeded
real_reconnect = establish_session(ctx, alice, bob, "BT")
print(f"\nreal alice reconnect over BT: {real_reconnect.outcome}")

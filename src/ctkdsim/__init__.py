"""Deterministic message-level simulator of BT/BLE pairing with
cross-transport key derivation, the key-overwrite attacks it enables, and
the defense policies that do (or do not) block them."""

from .attacks import (
    CTI,
    AttackerConfig,
    AttackOutcome,
    Requirement,
    cti_map,
    derive_ctis,
    master_impersonation,
    mitm,
    slave_impersonation,
    unintended_session,
)
from .crypto import (
    Address,
    DhKeyPair,
    Key128,
    Nonce,
    SharedSecret,
    TagString,
    aes_cmac,
    ctkd_ble_to_bt,
    ctkd_bt_to_ble,
    dh_generate,
    dh_shared,
    kdf_bt,
    kdf_le,
    session_key,
)
from .device import (
    Association,
    BondTable,
    Device,
    DeviceProfile,
    KeyOrigin,
    KeyRecord,
    PairingRole,
)
from .pairing import (
    PairingSession,
    PairingState,
    SessionState,
    SimContext,
    ble_pair,
    bt_pair,
    build_pairing_request,
    establish_session,
    make_device,
    negotiate_association,
)
from .policies import (
    PolicySet,
    PolicyVerdict,
    RejectionReason,
    c1_tick,
    c2_check,
    c3_check,
    c4_check,
    evaluate,
    sig51_check,
)
from .scenario import (
    MatrixReport,
    Scenario,
    ScenarioError,
    load_scenario,
    run_matrix,
    run_scenario,
)
from .smp import (
    AuthReqBits,
    IoCapability,
    KeyDistBits,
    SmpPairingMessage,
    ctkd_requested,
    decode_pairing,
    encode_pairing,
)
from .trace import TraceEvent, TraceRecorder, emit_trace, read_trace

__version__ = "0.1.0"

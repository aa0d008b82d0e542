"""Golden values for the lab's hot path: the card, the procedure-byte
machine, status classification and whole sweeps.

The literals below were recorded from the straightforward implementation
(fresh result objects per call, a dispatch dict per command, the ATR
parsed on every use). Any rework of these layers must reproduce them
octet for octet.
"""

import hashlib
import random

import pytest

from simlink import tlv
from simlink.apdu import (
    CommandApdu,
    INS_AUTHENTICATE,
    INS_ENVELOPE,
    INS_FETCH,
    INS_GET_RESPONSE,
    INS_READ_BINARY,
    INS_READ_RECORD,
    INS_SELECT,
    INS_STATUS,
    INS_TERMINAL_RESPONSE,
    ProcedureState,
    StatusClass,
    StatusKind,
    classify_status,
)
from simlink.errors import ProtocolViolation
from simlink.lab import StallPolicy, lab_sweep, render_csv, run_one
from simlink.vsim import USIM_AID, Card, SimProfile, build_filesystem, demo_profile

README_GRID = (0.0, 150.0, 300.0, 600.0, 900.0)
STALL_OFF = StallPolicy(enabled=False)
STALL_ON = StallPolicy(enabled=True, null_interval_ms=100.0)


# ---------------------------------------------------------------------------
# Sweeps and sessions
# ---------------------------------------------------------------------------

HEADER = "rtt_ms,stall,success_rate,median_elapsed_ms\n"

GOLDEN_CSV = {
    (7, "off"): HEADER + "0,off,1.0,132.538\n150,off,1.0,1870.38\n"
                         "300,off,0.0,300\n600,off,0.0,300\n900,off,0.0,300\n",
    (7, "on"): HEADER + "0,on,1.0,132.538\n150,on,1.0,1870.38\n"
                        "300,on,1.0,3878.96\n600,on,1.0,7784.68\n900,on,1.0,11698.8\n",
    (4242, "off"): HEADER + "0,off,1.0,143.315\n150,off,1.0,1911.62\n"
                            "300,off,0.0,300\n600,off,0.0,300\n900,off,0.0,300\n",
    (4242, "on"): HEADER + "0,on,1.0,143.315\n150,on,1.0,1911.62\n"
                           "300,on,1.0,3971\n600,on,1.0,7719.16\n900,on,1.0,11720\n",
}


@pytest.mark.parametrize("seed,stall", sorted(GOLDEN_CSV))
def test_readme_grid_sweep_csv(seed, stall):
    policy = STALL_ON if stall == "on" else STALL_OFF
    rows = lab_sweep(README_GRID, policy, seed=seed, jitter_ms=50.0)
    assert render_csv(rows) == GOLDEN_CSV[(seed, stall)]


# (rtt_ms, stall, seed, jitter_ms, waiting_time_ms)
SESSIONS = [
    (0.0, "off", 1, 0.0, 300.0),
    (150.0, "off", 2, 50.0, 300.0),
    (290.0, "off", 3, 20.0, 300.0),
    (450.0, "off", 4, 0.0, 300.0),
    (450.0, "on", 5, 50.0, 300.0),
    (900.0, "on", 6, 50.0, 300.0),
    (2500.0, "on", 7, 300.0, 300.0),
    (80.0, "on", 8, 0.0, 50.0),
]

ALL_PHASES = ["reset", "read_iccid", "select_usim", "read_imsi", "authenticate",
              "status_poll", "proactive_fetch"]
ICCID, IMSI = "8901234567890123455", "232019876543210"


def _report(phases, aka_ok, elapsed_ms, exchanges, failure=None, ids=True):
    return {"completed_phases": phases, "aka_ok": aka_ok, "elapsed_ms": elapsed_ms,
            "failure": failure, "iccid": ICCID if ids else None,
            "imsi": IMSI if ids else None, "exchanges": exchanges}


GOLDEN_REPORTS = [
    _report(ALL_PHASES, True, 0.0, 13),
    _report(ALL_PHASES, True, 1997.762, 13),
    _report(ALL_PHASES[:5], True, 2288.419, 7, "TimeoutExpired(status_poll)"),
    _report(["reset"], False, 300.0, 0, "TimeoutExpired(read_iccid)", ids=False),
    _report(ALL_PHASES, True, 6033.469, 13),
    _report(ALL_PHASES, True, 11770.294, 13),
    _report(ALL_PHASES, True, 30832.772, 13),
    _report(["reset"], False, 50.0, 0, "TimeoutExpired(read_iccid)", ids=False),
]


def test_seeded_session_reports():
    got = [
        run_one(rtt, STALL_ON if stall == "on" else STALL_OFF, seed=seed,
                jitter_ms=jitter, waiting_time_ms=budget).to_dict()
        for rtt, stall, seed, jitter, budget in SESSIONS
    ]
    assert got == GOLDEN_REPORTS


# ---------------------------------------------------------------------------
# The card: a seeded command stream, digested
# ---------------------------------------------------------------------------

GOLDEN_CARD_SHA256 = "6359025cb36249d0fb271dc651bff2d01d8ef63f2d8b39b10c52458dc69ed26c"


def _terminal_response(number: int) -> bytes:
    return (tlv.encode_tlv(tlv.TAG_COMMAND_DETAILS, bytes([number, 0x13, 0x00]))
            + tlv.encode_tlv(tlv.TAG_DEVICE_IDENTITIES,
                             bytes([tlv.DEV_TERMINAL, tlv.DEV_UICC]))
            + tlv.encode_tlv(tlv.TAG_RESULT, b"\x00"))


def _random_commands(rng: random.Random) -> list:
    pick = rng.randrange(16)
    if pick == 14:  # a read right after selecting the file it needs
        if rng.random() < 0.3:
            return [CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x7F\x10"),
                    CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x6F\x3A"),
                    _random_command(4, rng)]
        return [CommandApdu(0x00, INS_SELECT, 0x00, 0x04,
                            data=rng.choice([b"\x2F\xE2", b"\x6F\x07"])),
                _random_command(3, rng)]
    return [_random_command(pick, rng)]


def _random_command(pick: int, rng: random.Random) -> CommandApdu:
    if pick == 0:
        fid = rng.choice([b"\x3F\x00", b"\x2F\xE2", b"\x2F\xE2", b"\x7F\x10",
                          b"\x6F\x3A", b"\x6F\x07", b"\x6F\x07", b"\x12\x34"])
        return CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=fid)
    if pick == 1:  # wrong-length file id
        return CommandApdu(0x00, INS_SELECT, 0x00, 0x04,
                           data=bytes(rng.randrange(256)
                                      for _ in range(rng.choice([0, 1, 3]))))
    if pick == 2:
        aid = USIM_AID if rng.random() < 0.7 else b"\xA0\x00\x00"
        return CommandApdu(0x00, INS_SELECT, 0x04, 0x04, data=aid)
    if pick == 3:
        return CommandApdu(0x00, INS_READ_BINARY, rng.choice([0, 0, 0, 0x80]),
                           rng.choice([0, 0, 0, 1, 5, 8, 11]),
                           le=rng.choice([None, 1, 4, 9, 10, 12, 256]))
    if pick == 4:
        return CommandApdu(0x00, INS_READ_RECORD, rng.randrange(4),
                           rng.choice([0x04, 0x04, 0x02]),
                           le=rng.choice([None, 14, 13, 256]))
    if pick == 5:
        return CommandApdu(0x00, INS_GET_RESPONSE, 0x00, 0x00, le=rng.randrange(1, 257))
    if pick in (6, 7, 8):
        return CommandApdu(0x80, INS_STATUS, 0x00, 0x00)
    if pick == 9:
        size = 16 if rng.random() < 0.8 else rng.choice([0, 8, 17])
        return CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81,
                           data=bytes(rng.randrange(256) for _ in range(size)),
                           le=56)
    if pick == 10:
        return CommandApdu(0x80, INS_FETCH, 0x00, 0x00, le=rng.randrange(1, 257))
    if pick == 11:
        body = (_terminal_response(rng.randrange(1, 5)) if rng.random() < 0.7
                else bytes(rng.randrange(256) for _ in range(rng.randrange(6))))
        return CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0x00, 0x00, data=body)
    if pick == 12:
        return CommandApdu(0x80, INS_ENVELOPE, 0x00, 0x00, data=b"\xD1\x00")
    if pick == 13:  # unknown instruction
        return CommandApdu(0x00, rng.choice([0x00, 0x20, 0x44, 0xE2]), 0x00, 0x00)
    return CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x3F\x00")


def card_stream_digest(seed: int = 2024, commands: int = 2000) -> str:
    rng = random.Random(seed)
    profile = demo_profile()
    card = Card(profile)
    digest = hashlib.sha256()
    was_reset = False
    sent = 0
    while sent < commands:
        roll = rng.random()
        if roll < 0.005:
            card = Card(profile, proactive_trigger_polls=rng.randrange(1, 5))
            was_reset = False
            digest.update(b"|new")
        elif roll < 0.04 or (not was_reset and roll < 0.3):
            digest.update(b"|atr" + card.reset())
            was_reset = True
        for cmd in _random_commands(rng):
            sent += 1
            try:
                resp = card.process(cmd)
            except RuntimeError as exc:  # a command before the first reset
                digest.update(b"|err" + str(exc).encode())
                continue
            digest.update(b"|" + resp.to_bytes())
    digest.update(b"|sqn%d|acked%r" % (card.sqn, card.acked_numbers))
    return digest.hexdigest()


def test_card_responses_for_a_seeded_stream():
    assert card_stream_digest() == GOLDEN_CARD_SHA256


def _tree_contents(node) -> list:
    """Every node's fields under ``node``, depth first."""
    out = [(node.file_id, node.kind, node.body, node.records, node.aid,
            sorted(node.children))]
    for child in node.children.values():
        out += _tree_contents(child)
    return out


def test_cards_of_one_identity_share_a_tree_the_stream_leaves_unchanged():
    profile = demo_profile()
    first = Card(profile)
    second = Card(SimProfile.from_json(profile.to_json()))
    assert first._root is second._root and first._adf is second._adf
    before = _tree_contents(first._root) + _tree_contents(first._adf)
    assert card_stream_digest() == GOLDEN_CARD_SHA256
    assert _tree_contents(first._root) + _tree_contents(first._adf) == before
    assert build_filesystem.cache_info().maxsize == 64


# ---------------------------------------------------------------------------
# The procedure-byte machine and status classification, exhaustively
# ---------------------------------------------------------------------------

GOLDEN_STEP_SHA256 = "bfd081ea18c607e44501c26e98f5b6c95c02391aa1e64fc5bce17e29197faf28"


def _step_line(state: ProcedureState, byte: int) -> str:
    try:
        result = state.step(byte)
    except ProtocolViolation as exc:
        return f"PV:{exc}"
    return f"{result.kind.value}:{result.sw1}:{result.sw2}"


def procedure_table_digest() -> str:
    """Every (ins, byte) from a fresh state, then every byte after a status
    octet, then after a completed status pair."""
    digest = hashlib.sha256()
    for ins in range(256):
        for byte in range(256):
            digest.update(f"{ins:02X}{byte:02X}={_step_line(ProcedureState(ins), byte)}\n"
                          .encode())
        for byte in range(256):
            state = ProcedureState(ins)
            state.step(0x90 if ins != 0x90 and ins != 0x6F else 0x61)
            digest.update(f"s{ins:02X}{byte:02X}={_step_line(state, byte)}\n".encode())
        state = ProcedureState(ins)
        for byte in (0x60, ins, 0x6F if ins != 0x6F and ins != 0x90 else 0x61, 0x00):
            digest.update(f"d{ins:02X}{byte:02X}={_step_line(state, byte)}\n".encode())
    return digest.hexdigest()


def test_procedure_step_for_every_ins_and_byte():
    assert procedure_table_digest() == GOLDEN_STEP_SHA256


@pytest.mark.parametrize("byte", [-1, 256, 1000])
def test_procedure_step_rejects_non_octets(byte):
    state = ProcedureState(0xA4)
    with pytest.raises(ValueError, match="procedure byte out of octet range"):
        state.step(byte)
    assert state.status_sw1 is None and not state.done


def uncached_classify_status(sw1: int, sw2: int) -> StatusClass:
    """The classification rules, one fresh object per call."""
    for value, name in ((sw1, "sw1"), (sw2, "sw2")):
        if not 0 <= value <= 0xFF:
            raise ValueError(f"{name} out of octet range: {value}")
    if sw1 == 0x90 and sw2 == 0x00:
        return StatusClass(StatusKind.OK, sw1, sw2)
    if sw1 == 0x61:
        return StatusClass(StatusKind.MORE_DATA, sw1, sw2, value=sw2)
    if sw1 == 0x6C:
        return StatusClass(StatusKind.WRONG_LE, sw1, sw2, value=sw2)
    if sw1 == 0x91:
        return StatusClass(StatusKind.PROACTIVE_PENDING, sw1, sw2, value=sw2)
    return StatusClass(StatusKind.ERROR, sw1, sw2, family=sw1)


def test_classify_status_matches_uncached_rules_on_every_pair():
    for sw1 in range(256):
        for sw2 in range(256):
            got = classify_status(sw1, sw2)
            want = uncached_classify_status(sw1, sw2)
            assert (got.kind, got.sw1, got.sw2, got.value, got.family) == \
                (want.kind, want.sw1, want.sw2, want.value, want.family), (sw1, sw2)
            assert classify_status(sw1, sw2) is got


@pytest.mark.parametrize("sw1,sw2,name", [(-1, 0, "sw1"), (256, 0, "sw1"),
                                          (0x90, -1, "sw2"), (0x90, 256, "sw2")])
def test_classify_status_rejects_non_octets(sw1, sw2, name):
    for _ in range(2):  # a rejected pair is never remembered
        with pytest.raises(ValueError, match=f"{name} out of octet range"):
            classify_status(sw1, sw2)

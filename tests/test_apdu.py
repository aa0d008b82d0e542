"""Codec tests: command APDUs, status classification, ATR, procedure bytes."""

import random

import pytest

from simlink import apdu
from simlink.apdu import (
    Atr,
    CommandApdu,
    Convention,
    ProcedureState,
    ResponseApdu,
    StatusKind,
    StepKind,
    StepResult,
    classify_status,
    decode_command,
    encode_command,
    parse_atr,
)
from simlink.errors import (
    BadChecksum,
    Oversize,
    ProtocolViolation,
    TrailingGarbage,
    Truncated,
    UnknownConvention,
)


def case_table_encode(cla, ins, p1, p2, data, le):
    """Independent oracle: literal per-case byte layout, no shared code."""
    head = bytes([cla, ins, p1, p2])
    if not data and le is None:
        return head + b"\x00"
    if not data:
        return head + bytes([le & 0xFF])
    if le is None:
        return head + bytes([len(data)]) + bytes(data)
    return head + bytes([len(data)]) + bytes(data) + bytes([le & 0xFF])


def random_command(rng, case=None):
    case = case or rng.randint(1, 4)
    cla, ins, p1, p2 = (rng.randint(0, 255) for _ in range(4))
    data = b""
    le = None
    if case in (3, 4):
        data = bytes(rng.randint(0, 255) for _ in range(rng.randint(1, 255)))
    if case == 2:
        # le=256 with no data collides with the case-1 wire form by the
        # zero-P3 convention; that single pair is pinned separately below.
        le = rng.randint(1, 255)
    elif case == 4:
        le = rng.randint(1, 256)
    return CommandApdu(cla, ins, p1, p2, data=data, le=le)


class TestCommandCodec:
    def test_case1_forces_p3_zero(self):
        cmd = CommandApdu(0x00, 0xF2, 0x00, 0x00)
        assert encode_command(cmd) == bytes.fromhex("00F2000000")

    def test_case3_select(self):
        cmd = CommandApdu(0xA0, 0xA4, 0x00, 0x00, data=bytes([0x3F, 0x00]))
        assert encode_command(cmd) == bytes.fromhex("A0A40000023F00")

    def test_le_256_encodes_as_zero(self):
        cmd = CommandApdu(0x00, 0xB0, 0x00, 0x00, le=256)
        assert encode_command(cmd) == bytes.fromhex("00B0000000")

    def test_decode_zero_p3_is_case1(self):
        cmd = decode_command(bytes.fromhex("00F2000000"))
        assert cmd.le is None and cmd.data == b""
        assert cmd.case == 1

    def test_decode_case3(self):
        cmd = decode_command(bytes.fromhex("A0A40000023F00"))
        assert (cmd.cla, cmd.ins) == (0xA0, 0xA4)
        assert cmd.data == bytes([0x3F, 0x00]) and cmd.le is None

    def test_decode_bare_header_is_case1(self):
        assert decode_command(bytes.fromhex("00F20000")).case == 1

    def test_decode_truncated_body(self):
        with pytest.raises(Truncated):
            decode_command(bytes.fromhex("A0A40000053F00"))

    def test_decode_trailing_garbage(self):
        with pytest.raises(TrailingGarbage):
            decode_command(bytes.fromhex("A0A40000023F00AA55"))
        with pytest.raises(TrailingGarbage):
            decode_command(bytes.fromhex("00F200000042"))

    def test_decode_short_input(self):
        with pytest.raises(Truncated):
            decode_command(b"\x00\xA4")

    def test_case4_le_roundtrip(self):
        cmd = CommandApdu(0x00, 0x88, 0x00, 0x81, data=b"\x11" * 16, le=256)
        raw = encode_command(cmd)
        assert raw[-1] == 0x00
        assert decode_command(raw) == cmd

    def test_encode_matches_case_table_oracle(self):
        rng = random.Random(0x5EED)
        for _ in range(2000):
            cmd = random_command(rng)
            assert encode_command(cmd) == case_table_encode(
                cmd.cla, cmd.ins, cmd.p1, cmd.p2, cmd.data, cmd.le
            )

    def test_roundtrip_fuzz_all_cases(self):
        rng = random.Random(0xF0CC)
        for i in range(12000):
            cmd = random_command(rng, case=1 + i % 4)
            assert decode_command(encode_command(cmd)) == cmd

    def test_invariants_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CommandApdu(0, 0, 0, 0, data=b"\x00" * 256)
        with pytest.raises(ValueError):
            CommandApdu(0, 0, 0, 0, le=0)
        with pytest.raises(ValueError):
            CommandApdu(0, 0, 0, 0, le=257)
        with pytest.raises(ValueError):
            CommandApdu(0x100, 0, 0, 0)

    def test_iso_case_function(self):
        assert CommandApdu(0, 0, 0, 0).case == 1
        assert CommandApdu(0, 0, 0, 0, le=1).case == 2
        assert CommandApdu(0, 0, 0, 0, data=b"x").case == 3
        assert CommandApdu(0, 0, 0, 0, data=b"x", le=1).case == 4


class TestResponseApdu:
    def test_roundtrip(self):
        resp = ResponseApdu(b"\x01\x02", 0x90, 0x00)
        assert ResponseApdu.from_bytes(resp.to_bytes()) == resp

    def test_too_short(self):
        with pytest.raises(Truncated):
            ResponseApdu.from_bytes(b"\x90")

    def test_data_cap(self):
        ResponseApdu(b"\x00" * 256, 0x90, 0x00)
        with pytest.raises(ValueError):
            ResponseApdu(b"\x00" * 257, 0x90, 0x00)


class TestClassifyStatus:
    def test_pinned_examples(self):
        assert classify_status(0x90, 0x00).kind is StatusKind.OK
        got = classify_status(0x91, 0x0C)
        assert got.kind is StatusKind.PROACTIVE_PENDING and got.value == 12
        got = classify_status(0x6C, 0x10)
        assert got.kind is StatusKind.WRONG_LE and got.value == 16
        got = classify_status(0x61, 0x20)
        assert got.kind is StatusKind.MORE_DATA and got.value == 32
        got = classify_status(0x6A, 0x82)
        assert got.kind is StatusKind.ERROR and got.family == 0x6A

    def test_total_and_pure_over_all_pairs(self):
        for sw1 in range(256):
            for sw2 in range(256):
                first = classify_status(sw1, sw2)
                assert classify_status(sw1, sw2) == first
                if (sw1, sw2) == (0x90, 0x00):
                    expect = StatusKind.OK
                elif sw1 == 0x61:
                    expect = StatusKind.MORE_DATA
                elif sw1 == 0x6C:
                    expect = StatusKind.WRONG_LE
                elif sw1 == 0x91:
                    expect = StatusKind.PROACTIVE_PENDING
                else:
                    expect = StatusKind.ERROR
                assert first.kind is expect, f"({sw1:02X},{sw2:02X})"


def xor_fold(octets):
    """Independent checksum oracle."""
    out = 0
    for b in octets:
        out ^= b
    return out


# (raw hex, expected outcome) - outcome is "ok" or an exception class.
ATR_CORPUS = [
    ("3B00", "ok"),                    # minimal direct, nothing else
    ("3F00", "ok"),                    # minimal inverse
    ("3B800181", "ok"),                # TD1 says T=1, TCK present and correct
    ("3B", Truncated),                 # lone TS
    ("3B800180", BadChecksum),         # TCK wrong
    ("3B8001", Truncated),             # TCK required but missing
    ("3D00", UnknownConvention),       # TS neither 3B nor 3F
    ("3B02AABB", "ok"),                # two historical bytes
    ("3B02AA", Truncated),             # historical announced but short
    ("3B1094", "ok"),                  # TA1 only
    ("3B10", Truncated),               # TA1 announced but missing
    ("3B9794008031E073FE211B", "ok"),  # TA1+TD1(T=0), 7 historical, no TCK
    ("3B0000", TrailingGarbage),       # octet past minimal structure
    ("3B8001815A", TrailingGarbage),   # octet past TCK
    ("3BF011223300", "ok"),            # TA1 TB1 TC1 TD1(T=0), no TCK needed
    ("3B801141D0", "ok"),              # TD1(T=1) -> TA2, TCK closes XOR fold
    ("3B7000000A", "ok"),              # TA1 TB1 TC1, no TD
    ("3B7000", Truncated),             # TB1/TC1 missing
    ("3B0F" + "00" * 15, "ok"),        # 15 historical bytes
    ("3B0F" + "00" * 14, Truncated),   # 14 of 15 historical
    ("3B80" + "8101" * 16, Oversize),  # 34 octets, over the 33-octet cap
    ("3B01AABB", TrailingGarbage),     # octet past one-byte historical
]


class TestAtr:
    def test_minimal_direct(self):
        atr = parse_atr(bytes.fromhex("3B00"))
        assert atr.convention is Convention.DIRECT
        assert atr.interface_bytes == () and atr.historical == b"" and atr.tck is None

    def test_t1_requires_tck(self):
        atr = parse_atr(bytes.fromhex("3B800181"))
        assert atr.tck == 0x81
        assert atr.interface_bytes == (
            apdu.InterfaceByte(apdu.InterfaceKind.TD, 1, 0x01),)  # T=1
        assert xor_fold(bytes.fromhex("800181")) == 0

    def test_corpus(self):
        assert len(ATR_CORPUS) >= 20
        for raw_hex, outcome in ATR_CORPUS:
            raw = bytes.fromhex(raw_hex)
            if outcome == "ok":
                atr = parse_atr(raw)
                assert atr.to_bytes() == raw, raw_hex
            else:
                with pytest.raises(outcome):
                    parse_atr(raw)

    def test_roundtrip_random_accepted(self):
        rng = random.Random(0xA7B)
        accepted = 0
        for _ in range(4000):
            raw = bytes([rng.choice([0x3B, 0x3F])]) + bytes(
                rng.randint(0, 255) for _ in range(rng.randint(1, 32))
            )
            try:
                atr = parse_atr(raw)
            except (Truncated, TrailingGarbage, BadChecksum, Oversize,
                    UnknownConvention):
                continue
            accepted += 1
            assert atr.to_bytes() == raw
        assert accepted > 50  # sanity: the fuzz actually hit accepting inputs

    def test_tck_checked_with_xor_oracle(self):
        # Sweep the TCK octet: exactly the XOR-fold closing value is accepted.
        body = bytes.fromhex("3B8001")
        good = xor_fold(body[1:])
        for tck in range(256):
            raw = body + bytes([tck])
            if tck == good:
                assert parse_atr(raw).tck == tck
            else:
                with pytest.raises(BadChecksum):
                    parse_atr(raw)


class TestProcedureBytes:
    def test_ack_echo_transfers_all(self):
        st = ProcedureState(0xA4)
        assert st.step(0xA4).kind is StepKind.TRANSFER_ALL

    def test_complement_transfers_one(self):
        st = ProcedureState(0xA4)
        assert st.step(0xA4 ^ 0xFF).kind is StepKind.TRANSFER_ONE

    def test_null_waits(self):
        st = ProcedureState(0xA4)
        assert st.step(0x60).kind is StepKind.WAITED
        assert st.step(0x60).kind is StepKind.WAITED

    def test_unmatched_byte_is_violation(self):
        # 0x42: not the echo, not the complement, high nibble not 6 or 9.
        st = ProcedureState(0xA4)
        with pytest.raises(ProtocolViolation):
            st.step(0x42)

    def test_status_sequence(self):
        st = ProcedureState(0xA4)
        started = st.step(0x90)
        assert started.kind is StepKind.STATUS_STARTED and started.sw1 == 0x90
        done = st.step(0x00)
        assert done.kind is StepKind.STATUS_DONE
        assert (done.sw1, done.sw2) == (0x90, 0x00)

    def test_null_after_status_started_is_violation(self):
        st = ProcedureState(0xA4)
        st.step(0x6A)
        with pytest.raises(ProtocolViolation):
            st.step(0x60)

    def test_no_transfer_after_status(self):
        # Property: once a status octet is seen, no transfer is ever signalled.
        rng = random.Random(77)
        for _ in range(500):
            ins = rng.randint(0, 255)
            if ins >> 4 in (0x6, 0x9):
                continue
            for probe in (ins, ins ^ 0xFF):
                st = ProcedureState(ins)
                st.step(0x91)
                with pytest.raises(ProtocolViolation):
                    st.step(probe)

    def test_first_step_of_every_ins_and_byte(self):
        # The rules in precedence order, with every result built afresh:
        # the shared results a step hands out must equal these.
        for ins in range(0x100):
            for byte in range(0x100):
                st = ProcedureState(ins)
                if byte == ins:
                    want = StepResult(StepKind.TRANSFER_ALL)
                elif byte == ins ^ 0xFF:
                    want = StepResult(StepKind.TRANSFER_ONE)
                elif byte == 0x60:
                    want = StepResult(StepKind.WAITED)
                elif byte >> 4 in (0x6, 0x9):
                    assert st.step(byte) == StepResult(
                        StepKind.STATUS_STARTED, sw1=byte), (ins, byte)
                    sw2 = 0x00 if ins not in (0x00, 0xFF) else 0x01
                    assert st.step(sw2) == StepResult(
                        StepKind.STATUS_DONE, sw1=byte, sw2=sw2), (ins, byte)
                    continue
                else:
                    with pytest.raises(ProtocolViolation,
                                       match="matches no procedure rule"):
                        st.step(byte)
                    continue
                assert st.step(byte) == want, (ins, byte)

    def test_waiting_after_ack_is_fresh_state_business(self):
        st = ProcedureState(0xB0)
        assert st.step(0x60).kind is StepKind.WAITED
        assert st.step(0xB0).kind is StepKind.TRANSFER_ALL
        assert st.step(0x90).kind is StepKind.STATUS_STARTED
        assert st.step(0x37).kind is StepKind.STATUS_DONE

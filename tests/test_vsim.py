"""Virtual SIM tests: encodings, toy challenge/response, card behavior."""

import hashlib
import random

import pytest

from simlink import tlv
from simlink.apdu import (
    CommandApdu,
    INS_AUTHENTICATE,
    INS_FETCH,
    INS_READ_BINARY,
    INS_READ_RECORD,
    INS_SELECT,
    INS_STATUS,
    INS_TERMINAL_RESPONSE,
    StatusKind,
    classify_status,
)
from simlink.errors import (
    AuthFailed,
    BadChecksum,
    CodecError,
    PayloadTooLong,
    TrailingGarbage,
    Truncated,
    UnknownConvention,
)
from simlink.tlv import ProactiveKind
from simlink.vsim import (
    Card,
    ProactiveQueue,
    ProfileProactive,
    SimProfile,
    USIM_AID,
    decode_iccid,
    decode_imsi,
    demo_profile,
    encode_iccid,
    encode_imsi,
    luhn_valid,
    swap_nibbles_bcd,
    unswap_nibbles_bcd,
    toy_aka,
    verify_aka_response,
)

SELECT_ICCID = CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x2F\xE2")
SELECT_MF = CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x3F\x00")
STATUS = CommandApdu(0x00, INS_STATUS, 0x00, 0x00)


def oracle_swap_bcd(digits, octets):
    """Independent nibble-swap oracle built on string slicing only."""
    padded = (digits + "F" * 32)[: octets * 2]
    swapped = ""
    for i in range(0, len(padded), 2):
        swapped += padded[i + 1] + padded[i]
    return bytes.fromhex(swapped)


def old_luhn_valid(digits):
    """The per-digit loop luhn_valid replaced, for ASCII strings."""
    if not digits.isdigit():
        return False
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = int(ch)
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def oracle_aka(k, op_salt, rand, sqn):
    """Reference implementation of the derivation, as ints where possible."""
    m = bytes(k[i] ^ rand[i] ^ op_salt[i] for i in range(16))
    res = m[0:8]
    ck = m[1:16] + m[0:1]
    ik = m[2:16] + m[0:2]
    mac = bytes(m[i] ^ m[i + 8] for i in range(8))
    sqn_bytes = sqn.to_bytes(6, "big")
    autn = bytes(sqn_bytes[i] ^ m[i] for i in range(6)) + b"\x80\x00" + mac
    return res, ck, ik, autn


def fresh_card(**kwargs):
    card = Card(demo_profile(), **kwargs)
    card.reset()
    return card


class TestEncodings:
    def test_luhn_demo_iccid(self):
        assert luhn_valid("8901234567890123455")

    def test_luhn_single_digit_mutations_break(self):
        iccid = demo_profile().iccid
        for pos in range(len(iccid)):
            for repl in "0123456789":
                if repl == iccid[pos]:
                    continue
                mutated = iccid[:pos] + repl + iccid[pos + 1:]
                assert not luhn_valid(mutated), f"pos {pos} -> {repl}"

    def test_luhn_matches_the_per_digit_loop(self):
        rng = random.Random(2718)
        for _ in range(200_000):
            digits = "".join(rng.choice("0123456789")
                             for _ in range(rng.randint(1, 20)))
            assert luhn_valid(digits) is old_luhn_valid(digits), digits
        for text in ("", "abc", "89O1", "8901234567890123455x", " 18", "18 ",
                     "+18", "-18", "1.8", "0x18", "\t18"):
            assert luhn_valid(text) is old_luhn_valid(text) is False, repr(text)

    @pytest.mark.parametrize("text", ["\u0661\u0662\u0663", "\u0661\u0668",
                                      "\u0660", "\u00b2", "1\u00b9",
                                      "\uff11\uff18", "\u0967\u096e"])
    def test_luhn_rejects_non_ascii_digits(self, text):
        assert text.isdigit()
        assert luhn_valid(text) is False

    def test_iccid_bcd_pinned(self):
        body = encode_iccid("8901234567890123455")
        assert body.hex().upper() == "981032547698103254F5"
        assert body[0] == 0x98 and body[1] == 0x10

    def test_bcd_against_oracle(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(1, 20)
            digits = "".join(rng.choice("0123456789") for _ in range(n))
            assert swap_nibbles_bcd(digits, 10) == oracle_swap_bcd(digits, 10)

    def test_iccid_roundtrip(self):
        for iccid in ("8901234567890123455", "89012345678901234552"):
            if luhn_valid(iccid):
                assert decode_iccid(encode_iccid(iccid)) == iccid

    def test_imsi_layout(self):
        body = encode_imsi("232019876543210")
        assert len(body) == 9
        assert body[0] == 8  # 1 parity nibble + 15 digits -> 8 octets
        assert body[1] & 0x0F == 0x9  # parity marker in the first data nibble
        assert decode_imsi(body) == "232019876543210"

    def test_imsi_short_padded(self):
        body = encode_imsi("123456")
        assert len(body) == 9
        assert body[0] == 4
        assert body[-2:] == b"\xFF\xFF"
        assert decode_imsi(body) == "123456"

    @pytest.mark.parametrize("body, error", [
        (b"", Truncated),  # no count octet
        (b"\x08\x29", Truncated),  # 8 octets announced, 1 follows
        (b"\x01\x18", CodecError),  # no parity marker
    ], ids=["empty", "short", "no-parity-marker"])
    def test_imsi_malformed_body_is_a_codec_error(self, body, error):
        with pytest.raises(error):
            decode_imsi(body)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SimProfile("8901234567890123454", "123456", bytes(16), bytes(16))
        with pytest.raises(ValueError):
            SimProfile("8901234567890123455", "12345", bytes(16), bytes(16))
        with pytest.raises(ValueError):
            SimProfile("8901234567890123455", "123456", bytes(15), bytes(16))
        with pytest.raises(ValueError, match="IMSI must be 6..15 digits"):
            SimProfile("8901234567890123455", "\u0661\u0662\u0663\u0664\u0665\u0666",
                       bytes(16), bytes(16))

    @pytest.mark.parametrize("atr_hex, error", [
        ("3B", Truncated),
        ("3C00", UnknownConvention),
        ("3B0000", TrailingGarbage),
        ("3B800180", BadChecksum),  # T=1 announced, TCK folds to 01
    ])
    def test_profile_refuses_a_malformed_atr(self, atr_hex, error):
        with pytest.raises(error):
            SimProfile("8901234567890123455", "123456", bytes(16), bytes(16),
                       atr_hex=atr_hex)
        SimProfile("8901234567890123455", "123456", bytes(16), bytes(16),
                   atr_hex="3B800181")

    def test_profile_refuses_a_proactive_payload_over_the_cap(self):
        def profile(length):
            return SimProfile("8901234567890123455", "123456", bytes(16), bytes(16),
                              proactive=[ProfileProactive(
                                  ProactiveKind.SEND_SHORT_MESSAGE, bytes(length))])
        assert len(profile(240).proactive[0].payload) == 240
        with pytest.raises(PayloadTooLong, match="241 octets, limit 240"):
            profile(241)
        with pytest.raises(ValueError):
            profile(300)

    def test_unswap_matches_the_per_nibble_loop(self):
        def old_unswap(raw):
            out = []
            for octet in raw:
                for nibble in (octet & 0x0F, octet >> 4):
                    if nibble == 0xF:
                        return "".join(out)
                    out.append(f"{nibble:X}")
            return "".join(out)

        rng = random.Random(5)
        for _ in range(2000):
            raw = bytes(rng.choice([rng.randrange(256), 0x98, 0xF1, 0x1F, 0xFF])
                        for _ in range(rng.randint(0, 12)))
            assert unswap_nibbles_bcd(raw) == old_unswap(raw), raw.hex()

    def test_swap_rejects_non_hex_digits(self):
        for digits in ("12 4", "12  ", "1\n34", "12G4", "\u0661\u0662"):
            with pytest.raises(ValueError):
                swap_nibbles_bcd(digits, 2)

    def test_profile_json_roundtrip(self):
        profile = demo_profile()
        again = SimProfile.from_json(profile.to_json())
        assert again == profile


class TestToyAka:
    def test_all_zero_identity(self):
        v = toy_aka(bytes(16), bytes(16), bytes(16), 0)
        assert v.res == bytes(8) and v.ck == bytes(16) and v.ik == bytes(16)

    def test_self_inverse(self):
        k = bytes.fromhex("00112233445566778899AABBCCDDEEFF")
        v = toy_aka(k, bytes(16), k, 0)
        assert v.res == bytes(8)

    def test_pinned_vector(self):
        # Computed with the reference derivation before the build.
        v = toy_aka(bytes([1] * 16), bytes(16), bytes([2] * 16), 1)
        assert v.res.hex() == "0303030303030303"
        assert v.ck.hex() == "03" * 16
        assert v.ik.hex() == "03" * 16
        assert v.autn.hex() == "03030303030280000000000000000000"

    def test_matches_reference_oracle(self):
        rng = random.Random(0xAEA)
        for _ in range(200):
            k = bytes(rng.randint(0, 255) for _ in range(16))
            op = bytes(rng.randint(0, 255) for _ in range(16))
            rand = bytes(rng.randint(0, 255) for _ in range(16))
            sqn = rng.randint(0, (1 << 48) - 1)
            v = toy_aka(k, op, rand, sqn)
            assert (v.res, v.ck, v.ik, v.autn) == oracle_aka(k, op, rand, sqn)

    def test_verify_recovers_sqn(self):
        k, op = demo_profile().k, demo_profile().op_salt
        rand = bytes(range(16))
        v = toy_aka(k, op, rand, 777)
        assert verify_aka_response(k, op, rand, v.to_bytes()) == 777

    def test_verify_rejects_wrong_key(self):
        k, op = demo_profile().k, demo_profile().op_salt
        rand = bytes(range(16))
        body = toy_aka(k, op, rand, 1).to_bytes()
        bad_k = bytes([k[0] ^ 1]) + k[1:]
        with pytest.raises(AuthFailed):
            verify_aka_response(bad_k, op, rand, body)

    def test_verify_rejects_wrong_salt(self):
        k, op = demo_profile().k, demo_profile().op_salt
        rand = bytes(range(16))
        body = toy_aka(k, op, rand, 1).to_bytes()
        with pytest.raises(AuthFailed):
            verify_aka_response(k, bytes(16), rand, body)


class TestCardFileSystem:
    def test_reset_returns_profile_atr(self):
        card = Card(demo_profile())
        atr1 = card.reset()
        atr2 = card.reset()
        assert atr1 == atr2
        assert atr1 == bytes.fromhex(demo_profile().atr_hex)

    def test_read_before_select_fails(self):
        card = fresh_card()
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x86)

    def test_select_and_read_iccid(self):
        card = fresh_card()
        assert card.process(SELECT_ICCID).sw == 0x9000
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10))
        assert resp.sw == 0x9000
        assert resp.data[:2] == b"\x98\x10"
        assert decode_iccid(resp.data) == demo_profile().iccid

    def test_reset_clears_selection(self):
        card = fresh_card()
        card.process(SELECT_ICCID)
        card.reset()
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x86)

    def test_select_unknown_keeps_pointer(self):
        card = fresh_card()
        card.process(SELECT_ICCID)
        resp = card.process(CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\xAB\xCD"))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x82)
        # Pointer unchanged: the ICCID EF still reads.
        assert card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10)).sw == 0x9000

    def test_select_usim_and_read_imsi(self):
        card = fresh_card()
        assert card.process(
            CommandApdu(0x00, INS_SELECT, 0x04, 0x04, data=USIM_AID)
        ).sw == 0x9000
        assert card.process(
            CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x6F\x07")
        ).sw == 0x9000
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=9))
        assert decode_imsi(resp.data) == demo_profile().imsi

    def test_imsi_not_reachable_from_mf(self):
        card = fresh_card()
        resp = card.process(CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x6F\x07"))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x82)

    def test_read_never_past_body(self):
        card = fresh_card()
        card.process(SELECT_ICCID)
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x08, le=10))
        assert (resp.sw1, resp.sw2) == (0x6C, 2)
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x08, le=2))
        assert resp.sw == 0x9000 and len(resp.data) == 2

    def test_wildcard_read_returns_remainder(self):
        card = fresh_card()
        card.process(SELECT_ICCID)
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=256))
        assert resp.sw == 0x9000 and len(resp.data) == 10

    def test_offset_past_end(self):
        card = fresh_card()
        card.process(SELECT_ICCID)
        resp = card.process(CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x0A, le=1))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x86)

    def test_read_record_demo_file(self):
        card = fresh_card()
        assert card.process(
            CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x7F\x10")
        ).sw == 0x9000
        assert card.process(
            CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x6F\x3A")
        ).sw == 0x9000
        resp = card.process(CommandApdu(0x00, INS_READ_RECORD, 0x01, 0x04, le=14))
        assert resp.sw == 0x9000 and resp.data.startswith(b"demo-entry-1")
        resp = card.process(CommandApdu(0x00, INS_READ_RECORD, 0x03, 0x04, le=14))
        assert (resp.sw1, resp.sw2) == (0x6A, 0x83)

    def test_unsupported_ins(self):
        card = fresh_card()
        resp = card.process(CommandApdu(0x00, 0xD6, 0x00, 0x00, data=b"\x00"))
        assert (resp.sw1, resp.sw2) == (0x6D, 0x00)


class TestProactive:
    def test_queue_status_word(self):
        card = fresh_card(proactive_trigger_polls=99)  # keep scripted out of the way
        card.queue.enqueue(ProactiveKind.SEND_SHORT_MESSAGE, b"\x01\x02")
        resp = card.process(STATUS)
        assert resp.sw1 == 0x91
        assert resp.sw2 == card.queue.head_length()

    def test_sw2_tracks_head_length(self):
        # The 91 xx count always equals the head envelope's octet length.
        for payload in (b"", b"\x01", bytes(40), bytes(200)):
            card = fresh_card(proactive_trigger_polls=99)
            raw = card.queue.enqueue(ProactiveKind.SEND_SHORT_MESSAGE, payload)
            resp = card.process(STATUS)
            assert (resp.sw1, resp.sw2) == (0x91, len(raw))

    def test_tlv_reparse_oracle(self):
        queue = ProactiveQueue()
        raw = queue.enqueue(ProactiveKind.SEND_SHORT_MESSAGE, b"\xAA\xBB\xCC")
        assert raw[0] == 0xD0
        assert raw[2:7] == bytes([0x81, 0x03, 0x01, 0x13, 0x00])
        info = tlv.parse_proactive(raw)
        assert info is not None
        assert info.command_number == 1
        assert info.type_octet == 0x13
        assert raw[7:] == bytes.fromhex("820281838B03AABBCC")

    def test_provide_local_info_type_octet(self):
        queue = ProactiveQueue()
        raw = queue.enqueue(ProactiveKind.PROVIDE_LOCAL_INFO)
        assert tlv.parse_proactive(raw).type_octet == 0x26
        assert raw[7:] == bytes.fromhex("82028182")

    def test_long_payload_uses_long_form_length(self):
        queue = ProactiveQueue()
        raw = queue.enqueue(ProactiveKind.SEND_SHORT_MESSAGE, bytes(200))
        assert tlv.parse_proactive(raw) is not None
        assert raw[:3] == bytes.fromhex("D081D4")
        assert raw[-203:] == bytes.fromhex("8B81C8") + bytes(200)
        assert len(raw) == queue.head_length() or True  # fetched already

    def test_payload_cap(self):
        queue = ProactiveQueue()
        with pytest.raises(PayloadTooLong):
            queue.enqueue(ProactiveKind.SEND_SHORT_MESSAGE, bytes(300))

    def test_scripted_trigger_on_third_poll(self):
        card = fresh_card()
        assert card.process(STATUS).sw == 0x9000
        assert card.process(STATUS).sw == 0x9000
        resp = card.process(STATUS)
        assert resp.sw1 == 0x91

    def test_fetch_terminal_response_cycle(self):
        card = fresh_card(proactive_trigger_polls=1)
        resp = card.process(STATUS)
        assert resp.sw1 == 0x91
        pending = resp.sw2
        fetched = card.process(CommandApdu(0x80, INS_FETCH, 0x00, 0x00, le=pending))
        assert fetched.sw == 0x9000
        assert len(fetched.data) == pending
        info = tlv.parse_proactive(fetched.data)
        assert info.type_name == "SEND_SHORT_MESSAGE"
        tr_body = (
            tlv.encode_tlv(tlv.TAG_COMMAND_DETAILS, bytes([info.command_number, 0x13, 0x00]))
            + tlv.encode_tlv(tlv.TAG_DEVICE_IDENTITIES, bytes([tlv.DEV_TERMINAL, tlv.DEV_UICC]))
            + tlv.encode_tlv(tlv.TAG_RESULT, b"\x00")
        )
        acked = card.process(
            CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0x00, 0x00, data=tr_body)
        )
        assert acked.sw == 0x9000
        assert card.acked_numbers == [info.command_number]
        assert card.process(STATUS).sw == 0x9000  # queue drained

    def test_status_ok_iff_queue_empty(self):
        card = fresh_card(proactive_trigger_polls=1)
        card.queue.enqueue(ProactiveKind.PROVIDE_LOCAL_INFO)
        resp = card.process(STATUS)
        assert resp.sw1 == 0x91
        # Two pending now (scripted fired too); drain both.
        while resp.sw1 == 0x91:
            fetched = card.process(CommandApdu(0x80, INS_FETCH, 0, 0, le=resp.sw2))
            info = tlv.parse_proactive(fetched.data)
            tr = tlv.encode_tlv(
                tlv.TAG_COMMAND_DETAILS,
                bytes([info.command_number, info.type_octet, 0x00]),
            ) + tlv.encode_tlv(tlv.TAG_RESULT, b"\x00")
            resp = card.process(CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0, 0, data=tr))
        assert card.process(STATUS).sw == 0x9000



class TestCardToolkitEncoding:
    """Digests recorded from the envelope and TERMINAL RESPONSE encoders
    that the card and the modem used before ``tlv`` owned both."""

    def test_envelopes_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for kind in ProactiveKind:
            for length in (0, 1, 127, 128, 240):
                for number in (1, 255):
                    digest.update(tlv.encode_proactive(number, kind,
                                                       bytes(range(length))))
        assert digest.hexdigest() == (
            "6b065f11bf4dfdc00e725b7243cb0a63fd425426194cc83fcc2b13464299e141")
        assert tlv.encode_proactive(
            7, ProactiveKind.SEND_SHORT_MESSAGE, b"\x01\x02"
        ) == bytes.fromhex("d00d8103071300820281838b020102")

    def test_terminal_responses_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for number in (1, 128, 255):
            for type_octet in (0x13, 0x26, 0x00):
                for qualifier in (0, 1):
                    info = tlv.ProactiveInfo(number, type_octet, qualifier)
                    digest.update(tlv.encode_terminal_response(info))
        assert digest.hexdigest() == (
            "7122383f7ed304c6ac0e6200a86c5324b308697589ec4defbc9b3dabbea706b0")
        assert tlv.encode_terminal_response(tlv.ProactiveInfo(255, 0, 1)) == \
            bytes.fromhex("8103ff000182028281830100")

    def test_type_names_are_the_kind_names(self):
        assert [tlv.ProactiveInfo(1, t, 0).type_name for t in (0x13, 0x26, 0x99)] \
            == ["SEND_SHORT_MESSAGE", "PROVIDE_LOCAL_INFO", "TYPE_99"]


# A reference proactive codec, written from encode_tlv and the
# card-toolkit layout: the device identities of each kind's envelope.
REFERENCE_DEVICES = {0x13: (0x81, 0x83), 0x26: (0x81, 0x82)}


def reference_envelope(number: int, kind: int, payload: bytes) -> bytes:
    inner = (tlv.encode_tlv(0x81, bytes([number, kind, 0x00]))
             + tlv.encode_tlv(0x82, bytes(REFERENCE_DEVICES[kind])))
    if payload:
        inner += tlv.encode_tlv(0x8B, payload)
    return tlv.encode_tlv(0xD0, inner)


def reference_terminal_response(number: int, type_octet: int,
                                qualifier: int) -> bytes:
    return (tlv.encode_tlv(0x81, bytes([number, type_octet, qualifier]))
            + tlv.encode_tlv(0x82, b"\x82\x81") + tlv.encode_tlv(0x83, b"\x00"))


def reference_length(raw: bytes, pos: int):
    """(length, position after it) of the length field at ``pos``; None
    when it is cut short or not of the short, 0x81 or 0x82 form."""
    if pos >= len(raw):
        return None
    first = raw[pos]
    if first < 0x80:
        return first, pos + 1
    count = first - 0x80
    if count not in (1, 2) or pos + 1 + count > len(raw):
        return None
    return int.from_bytes(raw[pos + 1:pos + 1 + count], "big"), pos + 1 + count


def reference_body(raw: bytes):
    """The last 3-octet command details of a TLV body that walks to its
    end; None otherwise."""
    found, pos = None, 0
    while pos < len(raw):
        field = reference_length(raw, pos + 1)
        if field is None or sum(field) > len(raw):
            return None
        length, start = field
        if raw[pos] == 0x81 and length == 3:
            found = tlv.ProactiveInfo(*raw[start:start + 3])
        pos = start + length
    return found


def reference_envelope_body(raw: bytes):
    """``reference_body`` of a 0xD0 envelope's exact body; None for
    anything else."""
    if not raw or raw[0] != 0xD0:
        return None
    field = reference_length(raw, 1)
    if field is None or sum(field) != len(raw):
        return None
    return reference_body(raw[field[1]:])


class TestCodecCache:
    """The proactive codec answers as the reference codec does, for bytes,
    bytearray and memoryview inputs alike; it keeps two caches, each behind
    one entry point that keys it on bytes and ints only."""

    SMS = ProactiveKind.SEND_SHORT_MESSAGE

    @staticmethod
    def caches() -> list:
        return [value for value in vars(tlv).values()
                if hasattr(value, "cache_info")]

    @staticmethod
    def variants(raw: bytes) -> list:
        """``raw`` whole, cut short, with one octet changed, and garbage."""
        return [raw, raw[:len(raw) // 2], raw[:-1],
                bytes([raw[0] ^ 0x01]) + raw[1:], raw[:1] + b"\xFF" + raw[2:]]

    def test_answers_equal_the_reference_codec(self):
        rng = random.Random(23)
        decoded = 0
        for kind in ProactiveKind:
            for number in range(256):
                payload = rng.randbytes(rng.randint(0, 240))
                envelope = reference_envelope(number, kind, payload)
                for typed in (payload, bytearray(payload), memoryview(payload)):
                    assert tlv.encode_proactive(number, kind, typed) == envelope
                assert tlv.encode_proactive(number, int(kind), payload) == envelope
                details = (number, rng.randrange(256), rng.randrange(256))
                body = reference_terminal_response(*details)
                assert tlv.encode_terminal_response(
                    tlv.ProactiveInfo(*details)) == body
                garbage = rng.randbytes(rng.randint(0, 40))
                for raw in self.variants(envelope) + self.variants(body) + [garbage]:
                    want = reference_envelope_body(raw), reference_body(raw)
                    decoded += want != (None, None)
                    for typed in (raw, bytearray(raw), memoryview(raw)):
                        assert (tlv.parse_proactive(typed),
                                tlv.parse_terminal_response(typed)) == want
        assert decoded >= 4 * 256  # every whole envelope and body
        for cache in self.caches():
            info = cache.cache_info()
            assert info.maxsize == tlv.CODEC_CACHE_SIZE == 256
            assert 0 < info.currsize <= info.maxsize

    def test_two_caches_keyed_on_bytes_and_ints_only(self, monkeypatch):
        caches = self.caches()
        assert sorted(cache.__name__ for cache in caches) == [
            "_encode_proactive", "_parse_terminal_response"]
        keys = []
        for cache in caches:
            def spy(*key, cache=cache):
                keys.append(key)
                return cache(*key)
            monkeypatch.setattr(tlv, cache.__name__, spy)
        envelope = reference_envelope(1, self.SMS, b"\x01")
        for typed in (envelope, bytearray(envelope), memoryview(envelope)):
            assert tlv.parse_proactive(typed) == tlv.ProactiveInfo(1, 0x13, 0)
            tlv.parse_terminal_response(typed)
        for typed in (b"\x01", bytearray(b"\x01"), memoryview(b"\x01")):
            for number, kind in ((1, self.SMS), (True, int(self.SMS))):
                assert tlv.encode_proactive(number, kind, typed) == envelope
        assert len(keys) == 12
        assert {type(part) for key in keys for part in key} == {bytes, int}

    def test_a_bytearray_changed_after_a_call_changes_no_later_answer(self):
        body = bytearray(reference_terminal_response(5, 0x13, 0))
        assert tlv.parse_terminal_response(body) == tlv.ProactiveInfo(5, 0x13, 0)
        envelope = bytearray(reference_envelope(5, self.SMS, b""))
        assert tlv.parse_proactive(envelope) == tlv.ProactiveInfo(5, 0x13, 0)
        payload = bytearray(b"\x01\x02")
        assert tlv.encode_proactive(7, self.SMS, payload) == \
            reference_envelope(7, self.SMS, b"\x01\x02")
        body[2] = envelope[4] = payload[0] = 9
        assert tlv.parse_terminal_response(body) == tlv.ProactiveInfo(9, 0x13, 0)
        assert tlv.parse_proactive(envelope) == tlv.ProactiveInfo(9, 0x13, 0)
        assert tlv.encode_proactive(7, self.SMS, payload) == \
            reference_envelope(7, self.SMS, b"\x09\x02")
        assert tlv.parse_terminal_response(
            reference_terminal_response(5, 0x13, 0)) == tlv.ProactiveInfo(5, 0x13, 0)
        assert tlv.encode_proactive(7, self.SMS, b"\x01\x02") == \
            reference_envelope(7, self.SMS, b"\x01\x02")

    def test_a_call_that_raises_is_never_cached(self):
        for cache in self.caches():
            cache.cache_clear()
        tlv.encode_proactive(1, self.SMS)  # 1.0 equals this key, but must raise
        for _ in range(2):
            for number in (1.0, 256, -1):
                with pytest.raises((TypeError, ValueError)):
                    tlv.encode_proactive(number, self.SMS)
            with pytest.raises(TypeError):  # not three zero octets
                tlv.encode_proactive(1, self.SMS, 3)
            for parse in (tlv.parse_proactive, tlv.parse_terminal_response):
                with pytest.raises(TypeError):
                    parse(3)
            with pytest.raises(ValueError):
                tlv.encode_terminal_response(tlv.ProactiveInfo(1, 0x13, 300))
        assert [cache.cache_info().currsize for cache in self.caches()] == [1, 0]


class TestCardDeterminism:
    def script(self):
        rng = random.Random(5)
        cmds = [SELECT_ICCID, CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10)]
        for _ in range(5):
            cmds.append(STATUS)
        for _ in range(3):
            rand = bytes(rng.randint(0, 255) for _ in range(16))
            cmds.append(CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81, data=rand, le=56))
        return cmds

    def test_identical_sequences_identical_octets(self):
        outs = []
        for _ in range(2):
            card = fresh_card()
            outs.append([card.process(c).to_bytes() for c in self.script()])
        assert outs[0] == outs[1]

    def test_authenticate_res_matches_recomputation(self):
        card = fresh_card()
        profile = demo_profile()
        rand = bytes(range(16))
        sqn_before = card.sqn
        resp = card.process(CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81, data=rand, le=56))
        expected = toy_aka(profile.k, profile.op_salt, rand, sqn_before)
        assert resp.data == expected.to_bytes()
        assert verify_aka_response(profile.k, profile.op_salt, rand, resp.data) == sqn_before

    def test_sqn_strictly_increases(self):
        card = fresh_card()
        profile = demo_profile()
        rand = bytes(16)
        seen = []
        for _ in range(4):
            resp = card.process(CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81, data=rand, le=56))
            seen.append(verify_aka_response(profile.k, profile.op_salt, rand, resp.data))
        assert seen == sorted(seen) and len(set(seen)) == 4

    def test_wrong_challenge_length(self):
        card = fresh_card()
        resp = card.process(CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81, data=b"\x01"))
        assert (resp.sw1, resp.sw2) == (0x67, 0x00)

    def test_classify_pairs_with_card_statuses(self):
        card = fresh_card(proactive_trigger_polls=1)
        resp = card.process(STATUS)
        assert classify_status(resp.sw1, resp.sw2).kind is StatusKind.PROACTIVE_PENDING

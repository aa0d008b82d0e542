"""A deterministic virtual SIM/USIM.

Minimal file system (MF, EF_ICCID, DF_TELECOM with one demo record file,
ADF_USIM with EF_IMSI), a toy challenge/response in place of real
MILENAGE, and a proactive-command queue able to emit a silent SMS. Every
response is a pure function of the profile and the command history, so
identical command sequences yield octet-identical response sequences.

One card instance handles exactly one command at a time, mirroring the
physical card's half-duplex link; distinct instances share no mutable
state (cards of one identity share its read-only file tree).
"""

from __future__ import annotations

import enum
import functools
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import tlv
from .apdu import (
    Atr,
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
    ResponseApdu,
    parse_atr,
)
from .errors import AuthFailed, CodecError, PayloadTooLong, Truncated
from .tlv import ProactiveKind

logger = logging.getLogger(__name__)

MF_ID = 0x3F00
EF_ICCID_ID = 0x2FE2
DF_TELECOM_ID = 0x7F10
EF_ADN_ID = 0x6F3A
EF_IMSI_ID = 0x6F07

USIM_AID = bytes.fromhex("A0000000871002")

# Default answer-to-reset: direct convention, TA1+TD1(T=0), 7 historical.
DEFAULT_ATR_HEX = "3B9794008031E073FE211B"

PROACTIVE_PAYLOAD_MAX = 240
DEFAULT_PROACTIVE_TRIGGER_POLLS = 3

# The bodiless answers; ResponseApdu is frozen, so every card shares them.
RESP_OK = ResponseApdu(b"", 0x90, 0x00)
RESP_FILE_NOT_FOUND = ResponseApdu(b"", 0x6A, 0x82)
RESP_RECORD_NOT_FOUND = ResponseApdu(b"", 0x6A, 0x83)
RESP_WRONG_PARAMS = ResponseApdu(b"", 0x6A, 0x86)
RESP_WRONG_LENGTH = ResponseApdu(b"", 0x67, 0x00)
RESP_INS_NOT_SUPPORTED = ResponseApdu(b"", 0x6D, 0x00)


# ---------------------------------------------------------------------------
# Digit-string encodings
# ---------------------------------------------------------------------------


# ASCII digit octet -> its value, and -> the digit sum of twice its value.
_LUHN_PLAIN = bytes.maketrans(b"0123456789", bytes(range(10)))
_LUHN_DOUBLED = bytes.maketrans(b"0123456789", bytes((0, 2, 4, 6, 8, 1, 3, 5, 7, 9)))


def luhn_valid(digits: str) -> bool:
    """Luhn check over an ASCII decimal string (trailing check digit
    included); any other string, the empty one included, is invalid."""
    if not (digits.isascii() and digits.isdigit()):
        return False
    octets = digits.encode("ascii")[::-1]
    total = (sum(octets[0::2].translate(_LUHN_PLAIN))
             + sum(octets[1::2].translate(_LUHN_DOUBLED)))
    return total % 10 == 0


def luhn_check_digit(base: str) -> str:
    """Check digit that makes ``base + digit`` Luhn-valid."""
    for candidate in "0123456789":
        if luhn_valid(base + candidate):
            return candidate
    raise AssertionError("unreachable")


# Octet -> the same octet with its two nibbles swapped.
_SWAP_NIBBLES = bytes(((octet & 0x0F) << 4) | (octet >> 4) for octet in range(256))


def swap_nibbles_bcd(digits: str, octets: int) -> bytes:
    """Pack a digit string as nibble-swapped BCD, padded with 0xF nibbles."""
    padded = (digits + "F" * (octets * 2 - len(digits)))[:octets * 2]
    packed = bytes.fromhex(padded)
    if len(packed) != octets:  # fromhex skips whitespace
        raise ValueError(f"not a hex digit string: {digits!r}")
    return packed.translate(_SWAP_NIBBLES)


def unswap_nibbles_bcd(raw: bytes) -> str:
    """Inverse of :func:`swap_nibbles_bcd`, dropping 0xF filler nibbles."""
    digits = bytes(raw).translate(_SWAP_NIBBLES).hex().upper()
    end = digits.find("F")
    return digits if end < 0 else digits[:end]


def encode_iccid(iccid: str) -> bytes:
    """EF_ICCID body: 10 octets of nibble-swapped BCD."""
    return swap_nibbles_bcd(iccid, 10)


def decode_iccid(raw: bytes) -> str:
    return unswap_nibbles_bcd(raw)


def encode_imsi(imsi: str) -> bytes:
    """EF_IMSI body, 9 octets.

    First octet counts the following significant octets; the first data
    nibble is the fixed parity marker 0x9, then the digits follow
    nibble-swapped, padded with 0xF, and the file is padded to 9 octets
    with 0xFF.
    """
    packed = swap_nibbles_bcd("9" + imsi, (len(imsi) + 2) // 2)
    body = bytes([len(packed)]) + packed
    return body + b"\xFF" * (9 - len(body))


def decode_imsi(raw: bytes) -> str:
    if not raw or len(raw) <= raw[0]:
        raise Truncated(f"EF_IMSI body of {len(raw)} octets, shorter than announced")
    digits = unswap_nibbles_bcd(raw[1:1 + raw[0]])
    if not digits.startswith("9"):
        raise CodecError("IMSI parity marker missing")
    return digits[1:]


# ---------------------------------------------------------------------------
# Toy challenge/response
# ---------------------------------------------------------------------------

# NOT cryptography. A deliberately transparent XOR/rotate stand-in whose
# only job is to make the challenge/response round-trip verifiable at both
# ends while latency behavior is under test.


@dataclass(frozen=True)
class AkaVectors:
    res: bytes
    ck: bytes
    ik: bytes
    autn: bytes

    def to_bytes(self) -> bytes:
        return self.res + self.ck + self.ik + self.autn


def _mix(k: bytes, op_salt: bytes, rand: bytes) -> int:
    """m = k xor rand xor op_salt, as a 128-bit big-endian integer."""
    return (int.from_bytes(k, "big") ^ int.from_bytes(rand, "big")
            ^ int.from_bytes(op_salt, "big"))


def _fold(m: int) -> bytes:
    """The 8-octet XOR fold of m: m[0:8] xor m[8:16]."""
    return ((m >> 64) ^ (m & 0xFFFF_FFFF_FFFF_FFFF)).to_bytes(8, "big")


def toy_aka(k: bytes, op_salt: bytes, rand: bytes, sqn: int) -> AkaVectors:
    """Derive (res, ck, ik, autn) from key, salt, challenge, and counter.

    m = k xor rand xor op_salt; res = m[0:8]; ck/ik = m rotated left by
    one/two octets; autn = (sqn as 6 octets xor m[0:6]) || 80 00 || mac
    with mac the 8-octet XOR fold of m.
    """
    if len(k) != 16 or len(op_salt) != 16 or len(rand) != 16:
        raise ValueError("k, op_salt, and rand must be 16 octets")
    if not 0 <= sqn < 1 << 48:
        raise ValueError("sqn must fit in 48 bits")
    mixed = _mix(k, op_salt, rand)
    m = mixed.to_bytes(16, "big")
    res = m[:8]
    ck = m[1:] + m[:1]
    ik = m[2:] + m[:2]
    autn = (sqn ^ (mixed >> 80)).to_bytes(6, "big") + b"\x80\x00" + _fold(mixed)
    return AkaVectors(res, ck, ik, autn)


def verify_aka_response(k: bytes, op_salt: bytes, rand: bytes,
                        response_data: bytes) -> int:
    """Modem-side check of an AUTHENTICATE response body.

    Returns the sequence counter recovered from AUTN. Raises AuthFailed
    when RES, the AUTN structure marker, or the MAC fold do not match the
    local recomputation.
    """
    if len(response_data) != 56:
        raise AuthFailed(f"response body is {len(response_data)} octets, want 56")
    res, autn = response_data[:8], response_data[40:56]
    mixed = _mix(k, op_salt, rand)
    if int.from_bytes(res, "big") != mixed >> 64:
        raise AuthFailed("RES mismatch")
    if autn[6:8] != b"\x80\x00":
        raise AuthFailed("AUTN structure marker mismatch")
    if autn[8:16] != _fold(mixed):
        raise AuthFailed("AUTN mac mismatch")
    return int.from_bytes(autn[:6], "big") ^ (mixed >> 80)


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _parse_atr_hex(atr_hex: str) -> Atr:
    """Parse each distinct ATR once; Atr is frozen, so sharing is safe."""
    return parse_atr(bytes.fromhex(atr_hex))


@dataclass
class ProfileProactive:
    """A proactive command scripted in the profile, injected by trigger."""

    kind: ProactiveKind
    payload: bytes = b""


@dataclass
class SimProfile:
    """The hosted identity a virtual card presents."""

    iccid: str
    imsi: str
    k: bytes
    op_salt: bytes
    sqn: int = 1
    atr_hex: str = DEFAULT_ATR_HEX
    proactive: List[ProfileProactive] = field(default_factory=list)

    def __post_init__(self):
        if not (19 <= len(self.iccid) <= 20 and luhn_valid(self.iccid)):
            raise ValueError(f"ICCID fails the Luhn check: {self.iccid!r}")
        if not (self.imsi.isascii() and self.imsi.isdigit()
                and 6 <= len(self.imsi) <= 15):
            raise ValueError(f"IMSI must be 6..15 digits: {self.imsi!r}")
        if len(self.k) != 16 or len(self.op_salt) != 16:
            raise ValueError("k and op_salt must be 16 octets")
        if not 0 <= self.sqn < 1 << 48:
            raise ValueError("sqn must fit in 48 bits")
        _parse_atr_hex(self.atr_hex)  # fail fast on a bad ATR
        for entry in self.proactive:  # else it fails mid-session, at injection
            if len(entry.payload) > PROACTIVE_PAYLOAD_MAX:
                raise PayloadTooLong(f"proactive payload of {len(entry.payload)} "
                                     f"octets, limit {PROACTIVE_PAYLOAD_MAX}")

    @property
    def atr(self) -> Atr:
        return _parse_atr_hex(self.atr_hex)

    @classmethod
    def from_json(cls, text: str) -> "SimProfile":
        doc = json.loads(text)
        proactive = [
            ProfileProactive(
                kind=ProactiveKind[entry["kind"].upper()],
                payload=bytes.fromhex(entry.get("payload_hex", "")),
            )
            for entry in doc.get("proactive", [])
        ]
        return cls(
            iccid=doc["iccid"],
            imsi=doc["imsi"],
            k=bytes.fromhex(doc["k_hex"]),
            op_salt=bytes.fromhex(doc["op_salt_hex"]),
            sqn=int(doc.get("sqn", 1)),
            atr_hex=doc.get("atr_hex", DEFAULT_ATR_HEX),
            proactive=proactive,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "iccid": self.iccid,
                "imsi": self.imsi,
                "k_hex": self.k.hex(),
                "op_salt_hex": self.op_salt.hex(),
                "sqn": self.sqn,
                "atr_hex": self.atr_hex,
                "proactive": [
                    {"kind": p.kind.name.lower(), "payload_hex": p.payload.hex()}
                    for p in self.proactive
                ],
            },
            indent=2,
        )


# A classic demo SMS-SUBMIT TPDU; content is irrelevant, only its transit.
DEMO_SMS_TPDU_HEX = "0011000B916407281553F80000AA0CC8F71D14969741F977FD07"


def demo_profile() -> SimProfile:
    """The profile used by tests, docs, and the packaged demo."""
    return SimProfile(
        iccid="8901234567890123455",
        imsi="232019876543210",
        k=bytes.fromhex("000102030405060708090A0B0C0D0E0F"),
        op_salt=bytes.fromhex("A0A1A2A3A4A5A6A7A8A9AAABACADAEAF"),
        sqn=1,
        proactive=[
            ProfileProactive(
                kind=ProactiveKind.SEND_SHORT_MESSAGE,
                payload=bytes.fromhex(DEMO_SMS_TPDU_HEX),
            )
        ],
    )


# ---------------------------------------------------------------------------
# File system
# ---------------------------------------------------------------------------


class FileKind(enum.Enum):
    DIRECTORY = "directory"
    TRANSPARENT = "transparent"
    LINEAR_FIXED = "linear_fixed"


# The kinds the select and read handlers check, bound once (see the enum
# note in tunnel.py).
_DIRECTORY = FileKind.DIRECTORY
_TRANSPARENT = FileKind.TRANSPARENT
_LINEAR_FIXED = FileKind.LINEAR_FIXED


@dataclass(frozen=True)
class FileNode:
    file_id: Optional[int]  # None for the AID-only ADF
    kind: FileKind
    body: bytes = b""
    records: Tuple[bytes, ...] = ()
    children: Dict[int, "FileNode"] = field(default_factory=dict)
    aid: Optional[bytes] = None


@functools.lru_cache(maxsize=64)
def build_filesystem(iccid: str, imsi: str) -> Tuple[FileNode, FileNode]:
    """Materialize the selectable tree for one identity, once.

    Returns (MF, ADF_USIM); the ADF is reachable only by AID selection.
    A card only selects and reads its tree, never writes it, so every
    card of an identity shares one.
    """
    ef_iccid = FileNode(EF_ICCID_ID, FileKind.TRANSPARENT, body=encode_iccid(iccid))
    ef_adn = FileNode(
        EF_ADN_ID,
        FileKind.LINEAR_FIXED,
        records=(b"demo-entry-1".ljust(14, b"\xFF"), b"demo-entry-2".ljust(14, b"\xFF")),
    )
    df_telecom = FileNode(DF_TELECOM_ID, FileKind.DIRECTORY, children={EF_ADN_ID: ef_adn})
    ef_imsi = FileNode(EF_IMSI_ID, FileKind.TRANSPARENT, body=encode_imsi(imsi))
    adf_usim = FileNode(None, FileKind.DIRECTORY, children={EF_IMSI_ID: ef_imsi}, aid=USIM_AID)
    mf = FileNode(
        MF_ID,
        FileKind.DIRECTORY,
        children={EF_ICCID_ID: ef_iccid, DF_TELECOM_ID: df_telecom},
    )
    return mf, adf_usim


# ---------------------------------------------------------------------------
# Proactive queue
# ---------------------------------------------------------------------------


class ProactiveQueue:
    """Pending proactive-command envelopes, FIFO, numbered per card."""

    def __init__(self):
        self._items: List[bytes] = []
        self._next_number = 1

    def __len__(self) -> int:
        return len(self._items)

    def enqueue(self, kind: ProactiveKind, payload: bytes = b"") -> bytes:
        if len(payload) > PROACTIVE_PAYLOAD_MAX:
            raise PayloadTooLong(
                f"{len(payload)} octets, limit {PROACTIVE_PAYLOAD_MAX}"
            )
        envelope = tlv.encode_proactive(self._next_number, kind, bytes(payload))
        self._next_number = self._next_number % 255 + 1
        self._items.append(envelope)
        return envelope

    def head_length(self) -> int:
        """Octet length of the head command's envelope (the 0x91 sw2)."""
        return len(self._items[0])

    def fetch(self) -> bytes:
        return self._items.pop(0)

    def clear(self):
        self._items.clear()
        self._next_number = 1


# ---------------------------------------------------------------------------
# The card
# ---------------------------------------------------------------------------


class Card:
    """One virtual SIM: reset it, then feed it commands one at a time."""

    def __init__(self, profile: SimProfile,
                 proactive_trigger_polls: int = DEFAULT_PROACTIVE_TRIGGER_POLLS):
        self.profile = profile
        self.trigger_polls = proactive_trigger_polls
        self._sqn = profile.sqn
        self._root, self._adf = build_filesystem(profile.iccid, profile.imsi)
        self.queue = ProactiveQueue()
        self._current_dir = self._root
        self._current_ef: Optional[FileNode] = None
        self._status_polls = 0
        self._scripted_pending: List[ProfileProactive] = []
        self.acked_numbers: List[int] = []
        self._was_reset = False

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> Atr:
        """Warm reset: selection back to MF, trigger counter zeroed."""
        self._current_dir = self._root
        self._current_ef = None
        self._status_polls = 0
        self.queue.clear()
        self._scripted_pending = list(self.profile.proactive)
        self.acked_numbers.clear()
        self._was_reset = True
        return self.profile.atr

    @property
    def sqn(self) -> int:
        return self._sqn

    # -- command dispatch ---------------------------------------------------

    def process(self, cmd: CommandApdu) -> ResponseApdu:
        if not self._was_reset:
            raise RuntimeError("card used before reset")
        handler = self._HANDLERS.get(cmd.ins)
        if handler is None:
            logger.debug("unsupported INS %02X", cmd.ins)
            return RESP_INS_NOT_SUPPORTED
        resp = handler(self, cmd)
        # While the queue holds commands, success is signalled as 91 xx.
        if resp.sw1 == 0x90 and resp.sw2 == 0x00 and len(self.queue):
            return ResponseApdu(resp.data, 0x91, self.queue.head_length())
        return resp

    @staticmethod
    def _le_or_wildcard(cmd: CommandApdu) -> int:
        # A zero P3 decodes as case 1; for read-style commands it means 256.
        return cmd.le if cmd.le is not None else 256

    # -- handlers -----------------------------------------------------------

    def _on_select(self, cmd: CommandApdu) -> ResponseApdu:
        if cmd.p1 == 0x04:
            if cmd.data == self._adf.aid:
                self._current_dir = self._adf
                self._current_ef = None
                return RESP_OK
            return RESP_FILE_NOT_FOUND
        if len(cmd.data) != 2:
            return RESP_WRONG_PARAMS
        fid = int.from_bytes(cmd.data, "big")
        node = self._lookup(fid)
        if node is None:
            return RESP_FILE_NOT_FOUND
        if node.kind is _DIRECTORY:
            self._current_dir = node
            self._current_ef = None
        else:
            self._current_ef = node
        # No FCP template in the response: the virtual modem never reads it.
        return RESP_OK

    def _lookup(self, fid: int) -> Optional[FileNode]:
        if fid == MF_ID:
            return self._root
        if fid == self._current_dir.file_id:
            return self._current_dir
        child = self._current_dir.children.get(fid)
        if child is not None:
            return child
        return None

    def _on_read_binary(self, cmd: CommandApdu) -> ResponseApdu:
        if cmd.p1 & 0x80:  # short-file-id addressing unsupported
            return RESP_WRONG_PARAMS
        ef = self._current_ef
        if ef is None or ef.kind is not _TRANSPARENT:
            return RESP_WRONG_PARAMS
        offset = (cmd.p1 << 8) | cmd.p2
        if offset >= len(ef.body):
            return RESP_WRONG_PARAMS
        remaining = len(ef.body) - offset
        le = self._le_or_wildcard(cmd)
        if le != 256 and le > remaining:
            return ResponseApdu(b"", 0x6C, remaining)
        count = min(le, remaining)
        return ResponseApdu(ef.body[offset:offset + count], 0x90, 0x00)

    def _on_read_record(self, cmd: CommandApdu) -> ResponseApdu:
        ef = self._current_ef
        if ef is None or ef.kind is not _LINEAR_FIXED:
            return RESP_WRONG_PARAMS
        if cmd.p2 & 0x07 != 0x04 or cmd.p1 == 0:  # absolute addressing only
            return RESP_WRONG_PARAMS
        if cmd.p1 > len(ef.records):
            return RESP_RECORD_NOT_FOUND
        record = ef.records[cmd.p1 - 1]
        if cmd.le is not None and cmd.le != len(record) and cmd.le != 256:
            return ResponseApdu(b"", 0x6C, len(record))
        return ResponseApdu(record, 0x90, 0x00)

    def _on_get_response(self, cmd: CommandApdu) -> ResponseApdu:
        # SELECT responses carry no FCP, so there is never anything queued.
        return RESP_OK

    def _on_status(self, cmd: CommandApdu) -> ResponseApdu:
        self._status_polls += 1
        if self._scripted_pending and self._status_polls >= self.trigger_polls:
            for scripted in self._scripted_pending:
                self.queue.enqueue(scripted.kind, scripted.payload)
            self._scripted_pending = []
        return RESP_OK

    def _on_authenticate(self, cmd: CommandApdu) -> ResponseApdu:
        if len(cmd.data) != 16:
            return RESP_WRONG_LENGTH
        vectors = toy_aka(self.profile.k, self.profile.op_salt, cmd.data, self._sqn)
        self._sqn += 1
        return ResponseApdu(vectors.to_bytes(), 0x90, 0x00)

    def _on_fetch(self, cmd: CommandApdu) -> ResponseApdu:
        if not len(self.queue):
            return RESP_WRONG_PARAMS
        return ResponseApdu(self.queue.fetch(), 0x90, 0x00)

    def _on_terminal_response(self, cmd: CommandApdu) -> ResponseApdu:
        info = tlv.parse_terminal_response(cmd.data)
        if info is not None:
            self.acked_numbers.append(info.command_number)
        return RESP_OK

    def _on_envelope(self, cmd: CommandApdu) -> ResponseApdu:
        return RESP_OK

    # INS -> handler, built once with the class.
    _HANDLERS = {
        INS_SELECT: _on_select,
        INS_READ_BINARY: _on_read_binary,
        INS_READ_RECORD: _on_read_record,
        INS_GET_RESPONSE: _on_get_response,
        INS_STATUS: _on_status,
        INS_AUTHENTICATE: _on_authenticate,
        INS_FETCH: _on_fetch,
        INS_TERMINAL_RESPONSE: _on_terminal_response,
        INS_ENVELOPE: _on_envelope,
    }

"""Smart-card link codec: command/response APDUs, ATR, and T=0 procedure bytes.

Everything here is an immutable value plus pure functions, so instances can
be shared freely between sessions and threads. Short APDUs only: extended
length (3-octet Lc/Le) is rejected at construction, which keeps the T=0
mapping of the four command cases unambiguous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import (
    BadChecksum,
    Oversize,
    ProtocolViolation,
    TrailingGarbage,
    Truncated,
    UnknownConvention,
)

ATR_MAX_LEN = 33

# Instruction octets handled by the virtual card; other code decodes them too.
INS_SELECT = 0xA4
INS_READ_BINARY = 0xB0
INS_READ_RECORD = 0xB2
INS_GET_RESPONSE = 0xC0
INS_STATUS = 0xF2
INS_AUTHENTICATE = 0x88
INS_FETCH = 0x12
INS_TERMINAL_RESPONSE = 0x14
INS_ENVELOPE = 0xC2

INS_NAMES = {
    INS_SELECT: "SELECT",
    INS_READ_BINARY: "READ BINARY",
    INS_READ_RECORD: "READ RECORD",
    INS_GET_RESPONSE: "GET RESPONSE",
    INS_STATUS: "STATUS",
    INS_AUTHENTICATE: "AUTHENTICATE",
    INS_FETCH: "FETCH",
    INS_TERMINAL_RESPONSE: "TERMINAL RESPONSE",
    INS_ENVELOPE: "ENVELOPE",
}


def _check_octet(value: int, name: str) -> int:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"{name} out of octet range: {value}")
    return value


@dataclass(frozen=True)
class CommandApdu:
    """A short command APDU.

    ``le`` is the expected response length, 1..256; the value 256 is
    wire-encoded as 0x00. The ISO case is fully determined by whether
    ``data`` is empty and whether ``le`` is present.
    """

    cla: int
    ins: int
    p1: int
    p2: int
    data: bytes = b""
    le: Optional[int] = None

    def __post_init__(self):
        le = self.le
        if (type(self.data) is bytes and len(self.data) <= 255
                and 0 <= self.cla <= 0xFF and 0 <= self.ins <= 0xFF
                and 0 <= self.p1 <= 0xFF and 0 <= self.p2 <= 0xFF
                and (le is None or 1 <= le <= 256)):
            return
        # Not plain valid bytes: copy, or raise the first error in order.
        _check_octet(self.cla, "cla")
        _check_octet(self.ins, "ins")
        _check_octet(self.p1, "p1")
        _check_octet(self.p2, "p2")
        object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) > 255:
            raise ValueError(f"command data too long for a short APDU: {len(self.data)}")
        if self.le is not None and not 1 <= self.le <= 256:
            raise ValueError(f"le out of range 1..256: {self.le}")

    @property
    def case(self) -> int:
        """ISO case 1-4 derived from data/le presence."""
        if not self.data:
            return 1 if self.le is None else 2
        return 3 if self.le is None else 4


@dataclass(frozen=True)
class ResponseApdu:
    """A response APDU: up to 256 data octets plus the status pair."""

    data: bytes
    sw1: int
    sw2: int

    def __post_init__(self):
        if (type(self.data) is bytes and len(self.data) <= 256
                and 0 <= self.sw1 <= 0xFF and 0 <= self.sw2 <= 0xFF):
            return
        # Not plain valid bytes: copy, or raise the first error in order.
        object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) > 256:
            raise ValueError(f"response data too long: {len(self.data)}")
        _check_octet(self.sw1, "sw1")
        _check_octet(self.sw2, "sw2")

    @property
    def sw(self) -> int:
        return (self.sw1 << 8) | self.sw2

    def to_bytes(self) -> bytes:
        return self.data + bytes([self.sw1, self.sw2])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ResponseApdu":
        if len(raw) < 2:
            raise Truncated("response shorter than a status pair")
        return cls(raw[:-2], raw[-2], raw[-1])


def encode_command(cmd: CommandApdu) -> bytes:
    """Serialize a command to the 5-octet header plus body.

    P3 is 0 for case 1, le mod 256 for case 2, and the data length for
    cases 3 and 4; case 4 appends the le octet after the body.
    """
    case = cmd.case
    head = [cmd.cla, cmd.ins, cmd.p1, cmd.p2]
    if case == 1:
        head.append(0)
        return bytes(head)
    if case == 2:
        head.append(cmd.le % 256)
        return bytes(head)
    head.append(len(cmd.data))
    raw = bytes(head) + cmd.data
    if case == 4:
        raw += bytes([cmd.le % 256])
    return raw


def decode_command(raw: bytes) -> CommandApdu:
    """Inverse of :func:`encode_command`.

    The case-2/case-3 ambiguity at the TPDU level is resolved by total
    length: exactly 5 octets is case 1/2 (P3 zero means no le), 5+P3 is
    case 3, 5+P3+1 is case 4. A bare 4-octet header is accepted as case 1.
    """
    raw = bytes(raw)
    if len(raw) < 4:
        raise Truncated(f"command shorter than a header: {len(raw)} octets")
    cla, ins, p1, p2 = raw[0], raw[1], raw[2], raw[3]
    if len(raw) == 4:
        return CommandApdu(cla, ins, p1, p2)
    p3 = raw[4]
    if len(raw) == 5:
        if p3 == 0:
            # Zero-P3 convention: decoded as case 1, never as le=256.
            return CommandApdu(cla, ins, p1, p2)
        return CommandApdu(cla, ins, p1, p2, le=p3)
    if p3 == 0:
        raise TrailingGarbage("octets after a zero-P3 header")
    body_end = 5 + p3
    if len(raw) < body_end:
        raise Truncated(f"body holds {len(raw) - 5} of {p3} announced octets")
    if len(raw) == body_end:
        return CommandApdu(cla, ins, p1, p2, data=raw[5:body_end])
    if len(raw) == body_end + 1:
        le_octet = raw[body_end]
        return CommandApdu(cla, ins, p1, p2, data=raw[5:body_end],
                           le=256 if le_octet == 0 else le_octet)
    raise TrailingGarbage(f"{len(raw) - body_end - 1} octets past the case-4 form")


class StatusKind(enum.Enum):
    OK = "ok"
    MORE_DATA = "more_data"
    WRONG_LE = "wrong_le"
    PROACTIVE_PENDING = "proactive_pending"
    ERROR = "error"


@dataclass(frozen=True)
class StatusClass:
    """Classification of a status pair; total over all 65536 pairs.

    ``value`` carries the sw2-derived quantity for the counted kinds
    (available octets, correct le, pending command length). For ERROR,
    ``family`` is sw1.
    """

    kind: StatusKind
    sw1: int
    sw2: int
    value: Optional[int] = None
    family: Optional[int] = None


# One shared StatusClass per integer pair, filled on first use (at most
# 65,536 entries); StatusClass is frozen, so sharing is safe.
_STATUS_CLASSES: Dict[Tuple[int, int], StatusClass] = {}


def classify_status(sw1: int, sw2: int) -> StatusClass:
    """Classify a status pair. Pure and total."""
    status = _STATUS_CLASSES.get((sw1, sw2))
    if status is None:
        status = _classify_status(sw1, sw2)  # raises before caching
        if type(sw1) is int and type(sw2) is int:
            _STATUS_CLASSES[(sw1, sw2)] = status
    return status


def _classify_status(sw1: int, sw2: int) -> StatusClass:
    _check_octet(sw1, "sw1")
    _check_octet(sw2, "sw2")
    if sw1 == 0x90 and sw2 == 0x00:
        return StatusClass(StatusKind.OK, sw1, sw2)
    if sw1 == 0x61:
        return StatusClass(StatusKind.MORE_DATA, sw1, sw2, value=sw2)
    if sw1 == 0x6C:
        return StatusClass(StatusKind.WRONG_LE, sw1, sw2, value=sw2)
    if sw1 == 0x91:
        return StatusClass(StatusKind.PROACTIVE_PENDING, sw1, sw2, value=sw2)
    return StatusClass(StatusKind.ERROR, sw1, sw2, family=sw1)


class Convention(enum.Enum):
    DIRECT = 0x3B
    INVERSE = 0x3F


class InterfaceKind(enum.Enum):
    TA = "TA"
    TB = "TB"
    TC = "TC"
    TD = "TD"


@dataclass(frozen=True)
class InterfaceByte:
    kind: InterfaceKind
    index: int  # 1-based set number
    value: int


@dataclass(frozen=True)
class Atr:
    """Parsed answer-to-reset.

    ``tck`` is present iff any TD byte indicates a protocol other than
    T=0; when present, XOR of every octet from t0 through tck is zero.
    """

    convention: Convention
    t0: int
    interface_bytes: tuple = ()
    historical: bytes = b""
    tck: Optional[int] = None

    def to_bytes(self) -> bytes:
        out = [self.convention.value, self.t0]
        out.extend(ib.value for ib in self.interface_bytes)
        out.extend(self.historical)
        if self.tck is not None:
            out.append(self.tck)
        return bytes(out)


def parse_atr(raw: bytes) -> Atr:
    """Parse a complete ATR byte string.

    Rejects anything that is not exactly one well-formed ATR: truncation,
    unknown TS, octets past the structure, length over 33, and a TCK that
    fails the XOR rule each raise their own error.
    """
    raw = bytes(raw)
    if len(raw) < 2:
        raise Truncated("ATR needs at least TS and T0")
    if len(raw) > ATR_MAX_LEN:
        raise Oversize(f"ATR longer than {ATR_MAX_LEN} octets: {len(raw)}")
    try:
        convention = Convention(raw[0])
    except ValueError:
        raise UnknownConvention(f"TS octet {raw[0]:02X}") from None

    t0 = raw[1]
    pos = 2
    interface = []
    presence = t0 >> 4
    index = 1
    tck_required = False
    while presence:
        for bit, kind in ((0x1, InterfaceKind.TA), (0x2, InterfaceKind.TB),
                          (0x4, InterfaceKind.TC), (0x8, InterfaceKind.TD)):
            if not presence & bit:
                continue
            if pos >= len(raw):
                raise Truncated(f"ATR ends inside {kind.value}{index}")
            interface.append(InterfaceByte(kind, index, raw[pos]))
            pos += 1
        if presence & 0x8:
            td = interface[-1].value
            if td & 0x0F != 0:
                tck_required = True
            presence = td >> 4
            index += 1
        else:
            break

    hist_len = t0 & 0x0F
    if pos + hist_len > len(raw):
        raise Truncated(f"ATR ends inside historical bytes ({hist_len} announced)")
    historical = raw[pos:pos + hist_len]
    pos += hist_len

    tck = None
    if tck_required:
        if pos >= len(raw):
            raise Truncated("TCK required but missing")
        tck = raw[pos]
        pos += 1
        fold = 0
        for octet in raw[1:pos]:
            fold ^= octet
        if fold != 0:
            raise BadChecksum(f"TCK XOR fold is {fold:02X}, expected 00")
    if pos != len(raw):
        raise TrailingGarbage(f"{len(raw) - pos} octets past the ATR structure")
    return Atr(convention, t0, tuple(interface), historical, tck)


class StepKind(enum.Enum):
    TRANSFER_ALL = "transfer_all"
    TRANSFER_ONE = "transfer_one"
    WAITED = "waited"
    STATUS_STARTED = "status_started"
    STATUS_DONE = "status_done"


@dataclass(frozen=True)
class StepResult:
    kind: StepKind
    sw1: Optional[int] = None
    sw2: Optional[int] = None


# The body-transfer and NULL results carry no octets, so one of each serves
# every step. A status start carries only SW1, so one per possible SW1
# (high nibble 6 or 9) serves every step too; a frozen StepResult costs
# more to build than the rest of a step.
TRANSFER_ALL = StepResult(StepKind.TRANSFER_ALL)
TRANSFER_ONE = StepResult(StepKind.TRANSFER_ONE)
WAITED = StepResult(StepKind.WAITED)
STATUS_STARTED = {
    sw1: StepResult(StepKind.STATUS_STARTED, sw1=sw1)
    for sw1 in range(0x100) if sw1 >> 4 in (0x6, 0x9)
}


@dataclass(slots=True)
class ProcedureState:
    """T=0 procedure-byte tracker for one command exchange.

    Initialized with the command's INS octet. Rules, in precedence order:
    the INS echo transfers all remaining body octets, INS xor 0xFF
    transfers exactly one, 0x60 is NULL (waiting-timer reset), and any
    other octet with high nibble 6 or 9 starts the status pair. Once a
    status octet has been seen no body transfer is ever signalled again;
    the next octet completes the pair.
    """

    ins_echo: int
    status_sw1: Optional[int] = field(default=None, init=False)
    done: bool = field(default=False, init=False)

    def step(self, byte: int) -> StepResult:
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"procedure byte out of octet range: {byte}")
        if self.done:
            raise ProtocolViolation("ProcedureByte", f"byte {byte:02X} after status completed")
        if self.status_sw1 is not None:
            if byte == 0x60:
                raise ProtocolViolation("ProcedureByte", "NULL after status started")
            if byte in (self.ins_echo, self.ins_echo ^ 0xFF):
                raise ProtocolViolation("ProcedureByte", "transfer ACK after status started")
            self.done = True
            return StepResult(StepKind.STATUS_DONE, sw1=self.status_sw1, sw2=byte)
        if byte == self.ins_echo:
            return TRANSFER_ALL
        if byte == self.ins_echo ^ 0xFF:
            return TRANSFER_ONE
        if byte == 0x60:
            return WAITED
        if byte >> 4 in (0x6, 0x9):
            self.status_sw1 = byte
            return STATUS_STARTED[byte]
        raise ProtocolViolation("ProcedureByte", f"byte {byte:02X} matches no procedure rule")


def ins_name(ins: int) -> str:
    return INS_NAMES.get(ins, "UNKNOWN")

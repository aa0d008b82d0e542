"""The relay wire protocol between a probe (modem side) and a SIM provider.

Frames are fixed-layout, big-endian, with a 14-octet header:

    magic 4D 41 | version 01 | msg_type | session_id u32 | seq u32 |
    payload_len u16 | payload

Sequence numbers increase by exactly one per frame per direction per
session. One command is in flight at a time, mirroring the card's
half-duplex link; keepalives may interleave freely once established.

Each :class:`Session` is a single sequential state machine that both
tunnel ends drive the same way: feed it the bytes read from the stream
and execute the actions it returns for each completed frame. A process
may run many sessions concurrently as independent machines. The frames
before octets that cannot start a frame are answered, then Error
``BadFrame`` closes the session, however TCP segmented the stream.
"""

from __future__ import annotations

import enum
import hmac
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Union

from .apdu import CommandApdu, ResponseApdu, decode_command, encode_command
from .errors import (
    BadMagic,
    BadVersion,
    CodecError,
    Oversize,
    ProtocolViolation,
)

MAGIC = b"\x4D\x41"
VERSION = 0x01
# magic, version, msg_type, session_id, seq, payload_len
_HEADER = struct.Struct(">2sBBIIH")
HEADER_LEN = _HEADER.size  # 14
PAYLOAD_MAX = 4096


class MessageType(enum.IntEnum):
    HELLO = 0x01
    HELLO_ACK = 0x02
    RESET = 0x03
    ATR_IND = 0x04
    APDU_REQ = 0x05
    APDU_RESP = 0x06
    KEEPALIVE = 0x07
    KEEPALIVE_ACK = 0x08
    ERROR = 0x0E
    CLOSE = 0x0F


_MESSAGE_TYPES = {member.value: member for member in MessageType}


class TunnelFrame(NamedTuple):
    msg_type: int
    session_id: int
    seq: int
    payload: bytes = b""


def frame_encode(msg_type: int, session_id: int, seq: int,
                 payload: bytes = b"") -> bytes:
    if len(payload) > PAYLOAD_MAX:
        raise Oversize(f"payload of {len(payload)} octets, limit {PAYLOAD_MAX}")
    if not 0 <= session_id < 1 << 32 or not 0 <= seq < 1 << 32:
        raise ValueError("session_id and seq must fit in 32 bits")
    try:
        header = _HEADER.pack(MAGIC, VERSION, msg_type, session_id, seq,
                              len(payload))
    except struct.error:
        raise ValueError("msg_type must fit in 8 bits") from None
    return header + payload


class FrameDecoder:
    """Frame reassembly holding only the octets after the last whole frame;
    at a header that cannot start a frame it stops and sets ``fault``."""

    def __init__(self):
        self._buf = b""
        self.fault: Optional[CodecError] = None

    def feed(self, data: bytes) -> List[TunnelFrame]:
        """Absorb a chunk; return every frame it completes before any fault."""
        buf = self._buf + data  # bytes, whatever buffer type ``data`` is
        frames = []
        pos = 0
        while len(buf) - pos >= HEADER_LEN:
            magic, version, msg_type, session_id, seq, payload_len = \
                _HEADER.unpack_from(buf, pos)
            if magic != MAGIC:
                self.fault = BadMagic(f"{magic[0]:02X} {magic[1]:02X}")
                break
            if version != VERSION:
                self.fault = BadVersion(f"{version:02X}")
                break
            if payload_len > PAYLOAD_MAX:
                self.fault = Oversize(f"announced payload of {payload_len} octets")
                break
            end = pos + HEADER_LEN + payload_len
            if end > len(buf):
                break
            frames.append(TunnelFrame(msg_type, session_id, seq,
                                      buf[pos + HEADER_LEN:end]))
            pos = end
        self._buf = buf[pos:]
        return frames

    @property
    def pending(self) -> int:
        """Octets buffered but not yet forming a complete frame."""
        return len(self._buf)


# ---------------------------------------------------------------------------
# Session state machine
# ---------------------------------------------------------------------------


class Role(enum.Enum):
    PROBE = "probe"
    PROVIDER = "provider"


class Phase(enum.Enum):
    AWAIT_HELLO = "await_hello"
    ESTABLISHED = "established"
    CLOSED = "closed"


ROLE_OCTET = {Role.PROBE: 0x01, Role.PROVIDER: 0x02}


# Actions returned by the machine for the I/O layer / application to run.

@dataclass(frozen=True)
class EmitFrame:
    frame: TunnelFrame


@dataclass(frozen=True)
class Established:
    pass


@dataclass(frozen=True)
class ResetIndication:
    """Provider side: the probe asked for a card reset; answer with send_atr."""


@dataclass(frozen=True)
class DeliverAtr:
    atr: bytes


@dataclass(frozen=True)
class DeliverCommand:
    command: CommandApdu


@dataclass(frozen=True)
class DeliverResponse:
    response: ResponseApdu


@dataclass(frozen=True)
class KeepaliveAcked:
    """The peer echoed a keepalive sent ``rtt_ms`` milliseconds ago."""

    rtt_ms: float


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class Closed:
    reason: Optional[str] = None


Action = Union[
    EmitFrame, Established, ResetIndication, DeliverAtr,
    DeliverCommand, DeliverResponse, KeepaliveAcked, Violation, Closed,
]

_IN_FLIGHT_APDU = "apdu"
_IN_FLIGHT_RESET = "reset"


@dataclass
class Session:
    """One end of a tunnel session.

    The machine never does I/O: it takes the bytes read from the stream
    and every transition returns the frames to emit and the payloads to
    deliver. The pre-shared token rides in the Hello payload; the
    provider end checks it before acknowledging.
    """

    role: Role
    token: str
    session_id: Optional[int] = None
    phase: Phase = Phase.AWAIT_HELLO
    in_flight: Optional[str] = None  # _IN_FLIGHT_APDU or _IN_FLIGHT_RESET
    _decoder: FrameDecoder = field(default_factory=FrameDecoder, repr=False)
    _send_seq: int = 0
    _recv_seq: int = 0
    _reset_seen: bool = False
    close_reason: Optional[str] = None

    # -- emission helpers ----------------------------------------------------

    def _emit(self, msg_type: MessageType, payload: bytes = b"") -> EmitFrame:
        # Before the peer's first frame the session id is unknown; an Error
        # sent then (undecodable stream, missed deadline) carries id 0.
        frame = TunnelFrame(msg_type, self.session_id or 0, self._send_seq, payload)
        self._send_seq += 1
        return EmitFrame(frame)

    def _require(self, phase: Phase):
        if self.phase is not phase:
            raise ProtocolViolation(
                "AlternationBroken", f"local call in phase {self.phase.value}"
            )

    # -- local requests (raise on local misuse) -------------------------------

    def start(self) -> List[Action]:
        """Probe side: open the handshake. Provider side: no-op."""
        if self.role is Role.PROBE:
            self._require(Phase.AWAIT_HELLO)
            if self.session_id is None:
                raise ValueError("probe session needs a session_id")
            payload = bytes([ROLE_OCTET[self.role]]) + self.token.encode()
            return [self._emit(MessageType.HELLO, payload)]
        return []

    def send_reset(self) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight is not None:
            raise ProtocolViolation("AlternationBroken", "reset while in flight")
        self.in_flight = _IN_FLIGHT_RESET
        return [self._emit(MessageType.RESET)]

    def send_command(self, cmd: CommandApdu) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight is not None:
            raise ProtocolViolation("AlternationBroken", "request while in flight")
        self.in_flight = _IN_FLIGHT_APDU
        return [self._emit(MessageType.APDU_REQ, encode_command(cmd))]

    def send_response(self, resp: ResponseApdu) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight != _IN_FLIGHT_APDU:
            raise ProtocolViolation("AlternationBroken", "response with no request")
        self.in_flight = None
        return [self._emit(MessageType.APDU_RESP, resp.to_bytes())]

    def send_atr(self, atr: bytes) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight != _IN_FLIGHT_RESET:
            raise ProtocolViolation("AlternationBroken", "ATR with no reset pending")
        self.in_flight = None
        return [self._emit(MessageType.ATR_IND, atr)]

    def send_keepalive(self, now_ms: float) -> List[Action]:
        """The payload is the send time in integer microseconds; the peer
        echoes it verbatim, so sub-millisecond round trips stay visible."""
        self._require(Phase.ESTABLISHED)
        payload = round(now_ms * 1000).to_bytes(8, "big")
        return [self._emit(MessageType.KEEPALIVE, payload)]

    def send_close(self) -> List[Action]:
        if self.phase is Phase.CLOSED:
            return []
        self.phase = Phase.CLOSED
        return [self._emit(MessageType.CLOSE)]

    # -- stream arrival --------------------------------------------------------

    def on_bytes(self, chunk: bytes, now_ms: float) -> Iterator[List[Action]]:
        """Absorb a chunk read from the stream; yield the actions of each
        frame it completes, in order. Frames enter the machine one at a
        time as the caller asks for them, so it runs a frame's actions
        (an ATR sent for a Reset, say) before the next frame arrives.
        Undecodable octets then close the session with Error ``BadFrame``;
        a closed session ignores its input."""
        if self.phase is Phase.CLOSED:
            return
        for frame in self._decoder.feed(chunk):
            yield self.on_frame(frame, now_ms)
        fault = self._decoder.fault
        if fault is not None and self.phase is not Phase.CLOSED:
            yield self.violate("BadFrame", f"{type(fault).__name__}: {fault}")

    def on_frame(self, frame: TunnelFrame, now_ms: float = 0.0) -> List[Action]:
        if self.phase is Phase.CLOSED:
            return []  # teardown race; the stream is already dead
        if self.session_id is None:
            self.session_id = frame.session_id
        elif frame.session_id != self.session_id:
            return self.violate(
                "SeqGap", f"session {frame.session_id}, expected {self.session_id}"
            )
        if frame.seq != self._recv_seq:
            return self.violate(
                "SeqGap", f"seq {frame.seq}, expected {self._recv_seq}"
            )
        self._recv_seq += 1
        msg_type = _MESSAGE_TYPES.get(frame.msg_type)
        if msg_type is None:
            return self.violate("UnknownType", f"msg_type {frame.msg_type:02X}")

        if msg_type is MessageType.ERROR:
            self.phase = Phase.CLOSED
            self.close_reason = frame.payload.decode(errors="replace")
            return [Closed(self.close_reason)]
        if msg_type is MessageType.CLOSE:
            self.phase = Phase.CLOSED
            return [Closed(None)]

        if self.phase is Phase.AWAIT_HELLO:
            return self._on_frame_handshake(msg_type, frame)
        return self._on_frame_established(msg_type, frame, now_ms)

    def _on_frame_handshake(self, msg_type: MessageType,
                            frame: TunnelFrame) -> List[Action]:
        if self.role is Role.PROVIDER and msg_type is MessageType.HELLO:
            if frame.payload[:1] != bytes([ROLE_OCTET[Role.PROBE]]):
                role = frame.payload[:1].hex().upper() or "missing"
                return self.violate("BadRole", f"Hello role octet {role}")
            if not hmac.compare_digest(frame.payload[1:], self.token.encode()):
                self.phase = Phase.CLOSED
                self.close_reason = "BadToken"
                return [self._emit(MessageType.ERROR, b"BadToken"),
                        Closed("BadToken")]
            self.phase = Phase.ESTABLISHED
            return [self._emit(MessageType.HELLO_ACK), Established()]
        if self.role is Role.PROBE and msg_type is MessageType.HELLO_ACK:
            self.phase = Phase.ESTABLISHED
            return [Established()]
        return self.violate(
            "AlternationBroken", f"{msg_type.name} during handshake"
        )

    def _on_frame_established(self, msg_type: MessageType, frame: TunnelFrame,
                              now_ms: float) -> List[Action]:
        if msg_type is MessageType.KEEPALIVE:
            return [self._emit(MessageType.KEEPALIVE_ACK, frame.payload)]
        if msg_type is MessageType.KEEPALIVE_ACK:
            if len(frame.payload) != 8:
                return self.violate(
                    "UnknownType",
                    f"KeepaliveAck of {len(frame.payload)} octets, not 8")
            sent_at = int.from_bytes(frame.payload, "big") / 1000
            return [KeepaliveAcked(float(now_ms) - sent_at)]
        if msg_type is MessageType.RESET:
            if self.role is not Role.PROVIDER:
                return self.violate("AlternationBroken", "Reset toward the probe")
            if self.in_flight is not None:
                return self.violate("AlternationBroken", "Reset while in flight")
            self.in_flight = _IN_FLIGHT_RESET
            self._reset_seen = True
            return [ResetIndication()]
        if msg_type is MessageType.ATR_IND:
            if self.role is not Role.PROBE:
                return self.violate("AlternationBroken", "AtrInd toward the provider")
            if self.in_flight != _IN_FLIGHT_RESET:
                return self.violate("AlternationBroken", "AtrInd with no reset in flight")
            self.in_flight = None
            return [DeliverAtr(frame.payload)]
        if msg_type is MessageType.APDU_REQ:
            if self.role is not Role.PROVIDER:
                return self.violate("AlternationBroken", "ApduReq toward the probe")
            if not self._reset_seen:  # the card has no ATR yet to answer from
                return self.violate("AlternationBroken", "ApduReq before Reset")
            if self.in_flight is not None:
                return self.violate("AlternationBroken", "ApduReq while in flight")
            try:
                cmd = decode_command(frame.payload)
            except Exception as exc:
                return self.violate("UnknownType", f"undecodable ApduReq: {exc}")
            self.in_flight = _IN_FLIGHT_APDU
            return [DeliverCommand(cmd)]
        if msg_type is MessageType.APDU_RESP:
            if self.role is not Role.PROBE:
                return self.violate("AlternationBroken", "ApduResp toward the provider")
            if self.in_flight != _IN_FLIGHT_APDU:
                return self.violate("AlternationBroken", "ApduResp with no request in flight")
            try:
                resp = ResponseApdu.from_bytes(frame.payload)
            except Exception as exc:
                return self.violate("UnknownType", f"undecodable ApduResp: {exc}")
            self.in_flight = None
            return [DeliverResponse(resp)]
        # HELLO / HELLO_ACK arriving again
        return self.violate("AlternationBroken", f"{msg_type.name} while established")

    def violate(self, kind: str, detail: str) -> List[Action]:
        """Close the session with an Error frame naming ``kind``; also
        for faults found outside the machine (bad stream, deadline)."""
        self.phase = Phase.CLOSED
        self.close_reason = f"{kind}: {detail}"
        return [
            self._emit(MessageType.ERROR, self.close_reason.encode()),
            Violation(kind, detail),
            Closed(self.close_reason),
        ]

"""The relay wire protocol between a probe (modem side) and a SIM provider.

Frames are fixed-layout, big-endian, with a 14-octet header:

    magic 4D 41 | version 01 | msg_type | session_id u32 | seq u32 |
    payload_len u16 | payload

Sequence numbers increase by exactly one per frame per direction per
session. One command is in flight at a time, mirroring the card's
half-duplex link; keepalives may interleave freely once established.

Each :class:`Session` is a single sequential state machine: feed it
frames in arrival order and execute the actions it returns. A process
may run many sessions concurrently as independent machines.
"""

from __future__ import annotations

import enum
import hmac
import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .apdu import CommandApdu, ResponseApdu, decode_command, encode_command
from .errors import (
    BadMagic,
    BadVersion,
    NoSamples,
    Oversize,
    ProtocolViolation,
    Truncated,
)

MAGIC = b"\x4D\x41"
VERSION = 0x01
HEADER_LEN = 14
PAYLOAD_MAX = 4096

RTT_WINDOW = 16


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


@dataclass(frozen=True)
class TunnelFrame:
    msg_type: int
    session_id: int
    seq: int
    payload: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "payload", bytes(self.payload))


def frame_encode(msg_type: int, session_id: int, seq: int,
                 payload: bytes = b"") -> bytes:
    if len(payload) > PAYLOAD_MAX:
        raise Oversize(f"payload of {len(payload)} octets, limit {PAYLOAD_MAX}")
    if not 0 <= session_id < 1 << 32 or not 0 <= seq < 1 << 32:
        raise ValueError("session_id and seq must fit in 32 bits")
    return (
        MAGIC
        + bytes([VERSION, msg_type])
        + session_id.to_bytes(4, "big")
        + seq.to_bytes(4, "big")
        + len(payload).to_bytes(2, "big")
        + payload
    )


def frame_decode(raw: bytes) -> Tuple[TunnelFrame, bytes]:
    """Decode one frame from the head of ``raw``.

    Returns the frame and the unconsumed remainder, so callers can run it
    directly over a byte stream. Truncated means "wait for more bytes".
    """
    if len(raw) < HEADER_LEN:
        raise Truncated(f"{len(raw)} octets, header needs {HEADER_LEN}")
    if raw[0:2] != MAGIC:
        raise BadMagic(f"{raw[0]:02X} {raw[1]:02X}")
    if raw[2] != VERSION:
        raise BadVersion(f"{raw[2]:02X}")
    payload_len = int.from_bytes(raw[12:14], "big")
    if payload_len > PAYLOAD_MAX:
        raise Oversize(f"announced payload of {payload_len} octets")
    total = HEADER_LEN + payload_len
    if len(raw) < total:
        raise Truncated(f"{len(raw)} of {total} octets")
    frame = TunnelFrame(
        msg_type=raw[3],
        session_id=int.from_bytes(raw[4:8], "big"),
        seq=int.from_bytes(raw[8:12], "big"),
        payload=raw[14:total],
    )
    return frame, bytes(raw[total:])


class FrameDecoder:
    """Incremental frame reassembly over arbitrary stream segmentation."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[TunnelFrame]:
        """Absorb a chunk; return every frame completed by it."""
        self._buf.extend(data)
        frames = []
        while True:
            try:
                frame, rest = frame_decode(bytes(self._buf))
            except Truncated:
                break
            frames.append(frame)
            self._buf = bytearray(rest)
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
    """The peer echoed a keepalive; its round trip is in ``rtt_samples``."""


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

    The machine never does I/O: every transition returns the frames to
    emit and the payloads to deliver. The pre-shared token rides in the
    Hello payload; the provider end checks it before acknowledging.
    """

    role: Role
    token: str
    session_id: Optional[int] = None
    phase: Phase = Phase.AWAIT_HELLO
    in_flight: Optional[Tuple[str, int]] = None
    rtt_samples: List[Tuple[float, float]] = field(default_factory=list)
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
        self.in_flight = (_IN_FLIGHT_RESET, self._send_seq)
        return [self._emit(MessageType.RESET)]

    def send_command(self, cmd: CommandApdu) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight is not None:
            raise ProtocolViolation("AlternationBroken", "request while in flight")
        self.in_flight = (_IN_FLIGHT_APDU, self._send_seq)
        return [self._emit(MessageType.APDU_REQ, encode_command(cmd))]

    def send_response(self, resp: ResponseApdu) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight is None or self.in_flight[0] != _IN_FLIGHT_APDU:
            raise ProtocolViolation("AlternationBroken", "response with no request")
        self.in_flight = None
        return [self._emit(MessageType.APDU_RESP, resp.to_bytes())]

    def send_atr(self, atr: bytes) -> List[Action]:
        self._require(Phase.ESTABLISHED)
        if self.in_flight is None or self.in_flight[0] != _IN_FLIGHT_RESET:
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

    # -- frame arrival ---------------------------------------------------------

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
        try:
            msg_type = MessageType(frame.msg_type)
        except ValueError:
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
            if len(frame.payload) < 1:
                return self.violate("UnknownType", "empty Hello payload")
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
            if len(frame.payload) == 8:
                sent_at = int.from_bytes(frame.payload, "big") / 1000
                self.rtt_samples.append((sent_at, float(now_ms)))
                del self.rtt_samples[:-RTT_WINDOW]
            return [KeepaliveAcked()]
        if msg_type is MessageType.RESET:
            if self.role is not Role.PROVIDER:
                return self.violate("AlternationBroken", "Reset toward the probe")
            if self.in_flight is not None:
                return self.violate("AlternationBroken", "Reset while in flight")
            self.in_flight = (_IN_FLIGHT_RESET, frame.seq)
            self._reset_seen = True
            return [ResetIndication()]
        if msg_type is MessageType.ATR_IND:
            if self.role is not Role.PROBE:
                return self.violate("AlternationBroken", "AtrInd toward the provider")
            if self.in_flight is None or self.in_flight[0] != _IN_FLIGHT_RESET:
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
            self.in_flight = (_IN_FLIGHT_APDU, frame.seq)
            return [DeliverCommand(cmd)]
        if msg_type is MessageType.APDU_RESP:
            if self.role is not Role.PROBE:
                return self.violate("AlternationBroken", "ApduResp toward the provider")
            if self.in_flight is None or self.in_flight[0] != _IN_FLIGHT_APDU:
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

    # -- observation -----------------------------------------------------------

    def rtt_estimate(self) -> float:
        """Median round-trip over the last up-to-16 keepalive samples."""
        if not self.rtt_samples:
            raise NoSamples("no completed keepalive round-trip yet")
        return statistics.median(acked - sent for sent, acked in self.rtt_samples)

"""Socket endpoints: the SIM-provider service and the probe-side link.

The provider serves one card session per connection. Its protocol is
``ProviderCore``, which does no socket I/O: bytes in, frame decoding,
session machine transitions, card + rewrite rules + tracer on every
relayed command, bytes out. ``ProviderServer`` is the shell around it,
one thread per connection from the shared ``Listener``. The probe side
exposes the same link protocol the virtual modem drives (reset /
exchange / idle), so a ModemSim runs unchanged over a real TCP tunnel.
"""

from __future__ import annotations

import logging
import os
import secrets
import socket
import time
from typing import List, Optional

from .apdu import CommandApdu
from .errors import CodecError, ProtocolViolation, SimlinkError
from .listener import Listener, parse_hostport
from .modem import Timing
# detect_silent_sms and write_trace stay bound: bench/spans.py wraps them here.
from .tracer import Rewriter, Tracer, detect_silent_sms, write_trace
from .tunnel import (
    Closed,
    DeliverAtr,
    DeliverCommand,
    DeliverResponse,
    EmitFrame,
    Established,
    FrameDecoder,
    KeepaliveAcked,
    Phase,
    ResetIndication,
    Role,
    Session,
    TunnelFrame,
    Violation,
    frame_encode,
)
from .vsim import Card, SimProfile

logger = logging.getLogger(__name__)

RECV_BYTES = 65536


def wall_ms() -> float:
    return time.monotonic() * 1000.0


class LinkClosed(SimlinkError):
    """The tunnel ended while a delivery was still awaited."""


class FrameChannel:
    """Blocking frame I/O over one connected socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._decoder = FrameDecoder()
        self._queued: List[TunnelFrame] = []

    def send(self, frame: TunnelFrame):
        self.sock.sendall(
            frame_encode(frame.msg_type, frame.session_id, frame.seq, frame.payload)
        )

    def emit(self, actions):
        """Send the frames among a session machine's actions, in order."""
        for action in actions:
            if isinstance(action, EmitFrame):
                self.send(action.frame)

    def recv(self) -> Optional[TunnelFrame]:
        """Next frame, or None at end of stream."""
        while not self._queued:
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                return None
            self._queued.extend(self._decoder.feed(chunk))
        return self._queued.pop(0)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


# ---------------------------------------------------------------------------
# Provider side
# ---------------------------------------------------------------------------

# A peer that sends no Hello this long after connecting is answered
# Error HandshakeTimeout and closed.
HANDSHAKE_TIMEOUT_MS = 10_000.0


class ProviderCore:
    """One tunnel session bound to one fresh card instance, with no socket
    I/O: ``on_bytes`` takes each chunk read, ``on_deadline`` runs once
    ``deadline_ms`` passes with nothing read, and both return the bytes
    to send. Every fault of the peer becomes one Error frame and
    ``closed``. An exchange's two trace events carry the ``now_ms`` of
    its command's chunk, relative to the first traced command."""

    def __init__(self, profile: SimProfile, token: str, now_ms: float,
                 rules: Optional[list] = None, trace_dir: Optional[str] = None):
        self.card = Card(profile)
        self.session = Session(Role.PROVIDER, token)
        self.rewriter = Rewriter(rules)
        self.trace_dir = trace_dir
        self.tracer: Optional[Tracer] = None
        # The handshake deadline until Hello; no deadline after it.
        self.deadline_ms: Optional[float] = now_ms + HANDSHAKE_TIMEOUT_MS
        self._decoder = FrameDecoder()
        self._trace_file = None
        self._t0: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.session.phase is Phase.CLOSED

    def on_bytes(self, chunk: bytes, now_ms: float) -> bytes:
        if self.closed:
            return b""
        if self.deadline_ms is not None and now_ms >= self.deadline_ms:
            return self.on_deadline(now_ms)  # a peer trickling bytes
        try:
            frames = self._decoder.feed(chunk)
        except CodecError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            return self._run(self.session.violate("BadFrame", detail), now_ms)
        return b"".join(self._run(self.session.on_frame(frame, now_ms), now_ms)
                        for frame in frames)

    def on_deadline(self, now_ms: float) -> bytes:
        if self.closed or self.deadline_ms is None or now_ms < self.deadline_ms:
            return b""
        detail = f"no Hello within {HANDSHAKE_TIMEOUT_MS:.0f} ms"
        return self._run(self.session.violate("HandshakeTimeout", detail), now_ms)

    def finish(self):
        """Write the trace events still held, then close the trace file."""
        if self._trace_file is not None:
            self.tracer.close()
            self._trace_file.close()
            self._trace_file = None

    def _run(self, actions, now_ms: float) -> bytes:
        """Carry out the machine's actions; return the frames they emit."""
        emitted = list(actions)
        for action in actions:
            if isinstance(action, Established):
                self.deadline_ms = None
                self._open_trace()
            elif isinstance(action, ResetIndication):
                emitted += self.session.send_atr(self.card.reset().to_bytes())
            elif isinstance(action, DeliverCommand):
                emitted += self._relay(action.command, now_ms)
            elif isinstance(action, Violation):
                logger.warning("session %s violated: %s: %s",
                               self.session.session_id, action.kind, action.detail)
            elif isinstance(action, Closed):
                logger.debug("session %s closed (%s)",
                             self.session.session_id, action.reason)
        return b"".join(
            frame_encode(a.frame.msg_type, a.frame.session_id, a.frame.seq,
                         a.frame.payload)
            for a in emitted if isinstance(a, EmitFrame)
        )

    def _open_trace(self):
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            path = os.path.join(
                self.trace_dir, f"session-{self.session.session_id:08x}.jsonl"
            )
            self._trace_file = open(path, "w", encoding="utf-8")
        self.tracer = Tracer(self.session.session_id, sink=self._trace_file)

    def _relay(self, cmd: CommandApdu, now_ms: float):
        if self._t0 is None:
            self._t0 = now_ms
        ts = now_ms - self._t0
        # Both events are traced before the response is sent.
        self.tracer.command(ts, cmd)
        outcome = self.rewriter.process(cmd, self.card.process)
        self.tracer.response(ts, outcome.response, command=cmd,
                             rule_id=outcome.rule_id, original=outcome.original)
        return self.session.send_response(outcome.response)


class ProviderServer(Listener):
    """Accepts tunnel connections and serves a card session on each."""

    def __init__(self, profile: SimProfile, token: str,
                 host: str = "127.0.0.1", port: int = 0,
                 rules: Optional[list] = None,
                 trace_dir: Optional[str] = None):
        super().__init__(host, port)
        self.profile = profile
        self.token = token
        self.rules = rules or []
        self.trace_dir = trace_dir

    def _serve_client(self, conn: socket.socket):
        """The I/O shell around one ProviderCore."""
        core = ProviderCore(self.profile, self.token, wall_ms(),
                            rules=self.rules, trace_dir=self.trace_dir)
        deadline_ms = None
        try:
            while not core.closed:
                if core.deadline_ms != deadline_ms:
                    deadline_ms = core.deadline_ms
                    # At least 1 ms: a zero timeout makes the socket
                    # non-blocking instead of timing out.
                    conn.settimeout(None if deadline_ms is None else
                                    max(deadline_ms - wall_ms(), 1.0) / 1000.0)
                try:
                    chunk = conn.recv(RECV_BYTES)
                except socket.timeout:
                    out = core.on_deadline(wall_ms())
                else:
                    if not chunk:
                        break
                    out = core.on_bytes(chunk, wall_ms())
                if out:
                    conn.sendall(out)
        finally:
            core.finish()


# ---------------------------------------------------------------------------
# Probe side
# ---------------------------------------------------------------------------


class ProbeLink:
    """Modem-facing link over a live tunnel connection.

    Implements the same reset/exchange/idle surface as the lab's virtual
    link, with wall-clock Timings, so a ModemSim needs no changes.
    """

    def __init__(self, endpoint: str, token: str,
                 session_id: Optional[int] = None, timeout_s: float = 10.0):
        sock = socket.create_connection(parse_hostport(endpoint),
                                        timeout=timeout_s)
        self.channel = FrameChannel(sock)
        self.session = Session(
            Role.PROBE, token,
            session_id=session_id if session_id is not None
            else secrets.randbelow(1 << 32),
        )

    # -- handshake / teardown ------------------------------------------------

    def connect(self):
        try:
            self.channel.emit(self.session.start())
            self._pump_until(Established)
        except BaseException:
            self.channel.close()
            raise
        return self

    def close(self):
        try:
            self.channel.emit(self.session.send_close())
        except OSError:
            pass
        self.channel.close()

    # -- link protocol ---------------------------------------------------------

    def reset(self):
        start = wall_ms()
        self.channel.emit(self.session.send_reset())
        delivered = self._pump_until(DeliverAtr)
        return delivered.atr, Timing(start, (), wall_ms())

    def exchange(self, cmd: CommandApdu):
        start = wall_ms()
        self.channel.emit(self.session.send_command(cmd))
        delivered = self._pump_until(DeliverResponse)
        return delivered.response, Timing(start, (), wall_ms())

    def idle(self, ms: float):
        time.sleep(ms / 1000.0)

    def keepalive_roundtrip(self) -> float:
        self.channel.emit(self.session.send_keepalive(wall_ms()))
        self._pump_until(KeepaliveAcked)
        return self.session.rtt_estimate()

    # -- pump -------------------------------------------------------------------

    def _dispatch(self) -> List:
        frame = self.channel.recv()
        if frame is None:
            raise LinkClosed("stream ended")
        actions = self.session.on_frame(frame, wall_ms())
        self.channel.emit(actions)
        for action in actions:
            if isinstance(action, Violation):
                raise ProtocolViolation(action.kind, action.detail)
            if isinstance(action, Closed):
                raise LinkClosed(action.reason or "closed by peer")
        return actions

    def _pump_until(self, action_type):
        while True:
            for action in self._dispatch():
                if isinstance(action, action_type):
                    return action

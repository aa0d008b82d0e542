"""Socket endpoints: the SIM-provider service and the probe-side link.

The provider serves one card session per connection: frames in, session
machine transitions, card + rewrite rules + tracer on every relayed
command. The probe side exposes the same link protocol the virtual
modem drives (reset / exchange / idle), so a ModemSim runs unchanged
over a real TCP tunnel.
"""

from __future__ import annotations

import logging
import os
import secrets
import socket
import threading
import time
from typing import List, Optional

from .apdu import CommandApdu
from .errors import ProtocolViolation, SimlinkError
from .modem import Timing
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
    ResetIndication,
    Role,
    Session,
    TunnelFrame,
    Violation,
    frame_encode,
)
from .vsim import Card, SimProfile

logger = logging.getLogger(__name__)


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
            chunk = self.sock.recv(65536)
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


class ProviderSession:
    """One tunnel session bound to one fresh card instance."""

    def __init__(self, channel: FrameChannel, profile: SimProfile, token: str,
                 rewriter: Optional[Rewriter] = None,
                 trace_dir: Optional[str] = None):
        self.channel = channel
        self.card = Card(profile)
        self.session = Session(Role.PROVIDER, token)
        self.rewriter = rewriter or Rewriter()
        self.trace_dir = trace_dir
        self.tracer: Optional[Tracer] = None
        self._trace_file = None
        self._trace_path: Optional[str] = None
        self._t0: Optional[float] = None

    def serve(self):
        try:
            while self.session.phase.value != "closed":
                frame = self.channel.recv()
                if frame is None:
                    break
                actions = self.session.on_frame(frame, wall_ms())
                self.channel.emit(actions)
                for action in actions:
                    self._run_action(action)
        finally:
            self._finalize_trace()
            self.channel.close()

    def _finalize_trace(self):
        if self._trace_file is None:
            return
        self._trace_file.close()
        self._trace_file = None
        # Annotate flags that need the whole session to pair up.
        detect_silent_sms(self.tracer.events)
        write_trace(self._trace_path, self.tracer.events)

    def _now(self) -> float:
        now = wall_ms()
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    def _run_action(self, action):
        if isinstance(action, Established):
            self._open_trace()
        elif isinstance(action, ResetIndication):
            atr = self.card.reset()
            self.channel.emit(self.session.send_atr(atr.to_bytes()))
        elif isinstance(action, DeliverCommand):
            self._relay(action.command)
        elif isinstance(action, Violation):
            logger.warning("session %s violated: %s: %s",
                           self.session.session_id, action.kind, action.detail)
        elif isinstance(action, Closed):
            logger.debug("session %s closed (%s)",
                         self.session.session_id, action.reason)

    def _open_trace(self):
        if self.trace_dir is None:
            self.tracer = Tracer(self.session.session_id)
            return
        os.makedirs(self.trace_dir, exist_ok=True)
        self._trace_path = os.path.join(
            self.trace_dir, f"session-{self.session.session_id:08x}.jsonl"
        )
        self._trace_file = open(self._trace_path, "w", encoding="utf-8")
        self.tracer = Tracer(self.session.session_id, sink=self._trace_file)

    def _relay(self, cmd: CommandApdu):
        ts = self._now()
        if self.tracer is not None:
            self.tracer.command(ts, cmd)
        outcome = self.rewriter.process(cmd, self.card.process)
        if self.tracer is not None:
            self.tracer.response(self._now(), outcome.response, command=cmd,
                                 rule_id=outcome.rule_id,
                                 original=outcome.original)
        self.channel.emit(self.session.send_response(outcome.response))


class ProviderServer:
    """Accepts tunnel connections and serves a card session on each."""

    def __init__(self, profile: SimProfile, token: str,
                 host: str = "127.0.0.1", port: int = 0,
                 rules: Optional[list] = None,
                 trace_dir: Optional[str] = None):
        self.profile = profile
        self.token = token
        self.rules = rules or []
        self.trace_dir = trace_dir
        self._sock = socket.create_server((host, port))
        self.address = self._sock.getsockname()
        self._stopping = threading.Event()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def start(self):
        threading.Thread(
            target=self._accept_loop, name="provider-accept", daemon=True
        ).start()

    def stop(self):
        self._stopping.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                break
            logger.debug("tunnel connection from %s", peer)
            session = ProviderSession(
                FrameChannel(conn), self.profile, self.token,
                rewriter=Rewriter(self.rules), trace_dir=self.trace_dir,
            )
            threading.Thread(target=session.serve, daemon=True).start()


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
        host, _, port = endpoint.rpartition(":")
        sock = socket.create_connection((host or "127.0.0.1", int(port)),
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

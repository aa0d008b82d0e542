"""Socket endpoints: the SIM-provider service and the probe-side link.

Both ends feed the bytes they read to the tunnel's ``Session`` and send
what its actions emit through one encoder, ``wire``. The provider serves
one card session per connection through ``ProviderCore``, which does no
socket I/O: bytes in, card + rewrite rules + tracer on every relayed
command, bytes out; ``ProviderServer`` only builds one per connection
for the shared ``Listener``, whose one loop thread serves them all. The
probe side exposes the link protocol the virtual modem drives (reset /
exchange / idle), with the lab's NULL stalling, so a ModemSim runs
unchanged over a real TCP tunnel.
"""

from __future__ import annotations

import logging
import os
import secrets
import socket
import time
from typing import Iterator, List, Optional

from .apdu import CommandApdu
from .errors import ConfigError, ProtocolViolation, SimlinkError
from .listener import RECV_BYTES, Listener, monotonic_ms, parse_hostport
from .modem import DEFAULT_NULL_INTERVAL_MS, Timing
# detect_silent_sms and write_trace stay bound: bench/spans.py wraps them here.
from .tracer import Rewriter, Tracer, detect_silent_sms, write_trace
from .tunnel import (
    Closed,
    DeliverAtr,
    DeliverCommand,
    DeliverResponse,
    EmitFrame,
    Established,
    KeepaliveAcked,
    Phase,
    ResetIndication,
    Role,
    Session,
    Violation,
    frame_encode,
)
from .vsim import Card, SimProfile

logger = logging.getLogger(__name__)

_CLOSED = Phase.CLOSED  # bound once (see the enum note in tunnel.py)


class LinkClosed(SimlinkError):
    """The tunnel ended while a delivery was still awaited."""


def wire(actions) -> bytes:
    """The bytes of the frames among a session machine's actions, in order."""
    return b"".join(
        frame_encode(a.frame.msg_type, a.frame.session_id, a.frame.seq,
                     a.frame.payload)
        for a in actions if isinstance(a, EmitFrame)
    )


class FrameChannel:
    """Blocking byte I/O over the probe's connected socket; a send or read
    that fails (a timeout, a reset) raises ``LinkClosed``."""

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send(self, data: bytes):
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise LinkClosed(f"send failed: {exc}") from exc

    def recv(self) -> bytes:
        """One read; ``b""`` at end of stream."""
        try:
            return self.sock.recv(RECV_BYTES)
        except OSError as exc:
            raise LinkClosed(f"read failed: {exc}") from exc

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
    I/O: ``on_bytes`` takes each chunk read (``b""`` at the end of the
    stream), ``on_deadline`` does nothing until ``deadline_ms`` passes,
    and both return the bytes to send. Every fault of the peer becomes
    one Error frame and ``closed``. An exchange's two trace events carry
    the ``now_ms`` of its command's chunk, relative to the first traced
    command."""

    def __init__(self, profile: SimProfile, token: str, now_ms: float,
                 rules: Optional[list] = None, trace_dir: Optional[str] = None):
        self.card = Card(profile)
        self.session = Session(Role.PROVIDER, token)
        self.rewriter = Rewriter(rules)
        self.trace_dir = trace_dir
        self.tracer: Optional[Tracer] = None
        # The handshake deadline until Hello; no deadline after it.
        self.deadline_ms: Optional[float] = now_ms + HANDSHAKE_TIMEOUT_MS
        self._t0: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.session.phase is _CLOSED

    def on_bytes(self, chunk: bytes, now_ms: float) -> bytes:
        if self.deadline_ms is not None and now_ms >= self.deadline_ms:
            return self.on_deadline(now_ms)  # a peer trickling bytes
        return b"".join(self._run(actions, now_ms)
                        for actions in self.session.on_bytes(chunk, now_ms))

    def on_deadline(self, now_ms: float) -> bytes:
        if self.closed or self.deadline_ms is None or now_ms < self.deadline_ms:
            return b""
        detail = f"no Hello within {HANDSHAKE_TIMEOUT_MS:.0f} ms"
        return self._run(self.session.violate("HandshakeTimeout", detail), now_ms)

    def finish(self):
        """Write the trace events still held, then close the trace file."""
        if self.tracer is not None:
            self.tracer.close()

    def _run(self, actions, now_ms: float) -> bytes:
        """Carry out the machine's actions; return the frames they emit."""
        emitted = list(actions)
        for action in actions:
            if isinstance(action, Established):
                self.deadline_ms = None
                self._open_trace()
            elif isinstance(action, ResetIndication):
                emitted += self.session.send_atr(self.card.reset())
            elif isinstance(action, DeliverCommand):
                emitted += self._relay(action, now_ms)
            elif isinstance(action, Violation):
                logger.warning("session %s violated: %s: %s",
                               self.session.session_id, action.kind, action.detail)
            elif isinstance(action, Closed):
                logger.debug("session %s closed (%s)",
                             self.session.session_id, action.reason)
        return wire(emitted)

    def _open_trace(self):
        if self.trace_dir is None:  # nothing would read a tracer's events
            return
        session_id = self.session.session_id
        path = os.path.join(self.trace_dir, f"session-{session_id:08x}.jsonl")
        try:
            self.tracer = Tracer(session_id, path=path)
        except FileNotFoundError:  # a core built alone makes it at first need
            os.makedirs(self.trace_dir, exist_ok=True)
            self.tracer = Tracer(session_id, path=path)

    def _relay(self, delivered: DeliverCommand, now_ms: float):
        cmd = delivered.command
        outcome = self.rewriter.process(cmd, self.card.process)
        octets = outcome.response.to_bytes()  # for the frame and the trace
        if self.tracer is not None:
            if self._t0 is None:
                self._t0 = now_ms
            ts = now_ms - self._t0
            # Both events are traced before the response is sent.
            self.tracer.command(ts, cmd, delivered.octets)
            self.tracer.response(ts, outcome.response, command=cmd,
                                 rule_id=outcome.rule_id,
                                 original=outcome.original, octets=octets)
        return self.session.send_response(octets)


class ProviderServer(Listener):
    """Accepts tunnel connections and serves a card session on each.

    A ``trace_dir`` is made before the socket is bound; one that cannot
    be (a regular file, or under one) is a ``ConfigError`` there, not a
    failure at every Hello."""

    def __init__(self, profile: SimProfile, token: str,
                 host: str = "127.0.0.1", port: int = 0,
                 rules: Optional[list] = None,
                 trace_dir: Optional[str] = None):
        if trace_dir is not None:
            try:
                os.makedirs(trace_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot use trace directory {trace_dir}: "
                                  f"{exc.strerror or exc}") from None
        super().__init__(host, port)
        self.profile = profile
        self.token = token
        self.rules = rules or []
        self.trace_dir = trace_dir

    def _open(self, now_ms: float) -> ProviderCore:
        return ProviderCore(self.profile, self.token, now_ms,
                            rules=self.rules, trace_dir=self.trace_dir)


# ---------------------------------------------------------------------------
# Probe side
# ---------------------------------------------------------------------------

# The probe front-end's NULL cadence while a reset or exchange is awaited;
# 0 turns stalling off.
NULL_INTERVAL_MS = DEFAULT_NULL_INTERVAL_MS


class ProbeLink:
    """Modem-facing link over a live tunnel connection.

    Implements the same reset/exchange/idle surface as the lab's virtual
    link, with wall-clock Timings, so a ModemSim needs no changes. Each
    Timing carries the measured wait and the front-end's NULL cadence,
    ``NULL_INTERVAL_MS``.
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
        # The frames of the last chunk read that no wait has taken yet.
        self._arrivals: Iterator[List] = iter(())

    # -- handshake / teardown ------------------------------------------------

    def connect(self):
        try:
            self.channel.send(wire(self.session.start()))
            self._pump_until(Established)
        except BaseException:
            self.channel.close()
            raise
        return self

    def close(self):
        try:
            self.channel.send(wire(self.session.send_close()))
        except LinkClosed:
            pass
        self.channel.close()

    # -- link protocol ---------------------------------------------------------

    def reset(self):
        start = monotonic_ms()
        self.channel.send(wire(self.session.send_reset()))
        delivered = self._pump_until(DeliverAtr)
        return delivered.atr, self._timing(start)

    def exchange(self, cmd: CommandApdu):
        start = monotonic_ms()
        self.channel.send(wire(self.session.send_command(cmd)))
        delivered = self._pump_until(DeliverResponse)
        return delivered.response, self._timing(start)

    def idle(self, ms: float):
        time.sleep(ms / 1000.0)

    def keepalive_roundtrip(self) -> float:
        self.channel.send(wire(self.session.send_keepalive(monotonic_ms())))
        return self._pump_until(KeepaliveAcked).rtt_ms

    # -- pump -------------------------------------------------------------------

    @staticmethod
    def _timing(start: float) -> Timing:
        return Timing(start, monotonic_ms() - start, NULL_INTERVAL_MS)

    def _pump_until(self, action_type):
        """Run arriving frames through the session, sending what they emit,
        until one delivers ``action_type``; frames read after it wait for
        the next call."""
        while True:
            for actions in self._arrivals:
                for action in actions:
                    if isinstance(action, action_type):
                        return action
                    if isinstance(action, EmitFrame):  # a keepalive ack, an Error
                        self.channel.send(wire((action,)))
                    elif isinstance(action, Violation):
                        raise ProtocolViolation(action.kind, action.detail)
                    elif isinstance(action, Closed):
                        raise LinkClosed(action.reason or "closed by peer")
            chunk = self.channel.recv()
            if not chunk:
                raise LinkClosed("stream ended")
            self._arrivals = self.session.on_bytes(chunk, monotonic_ms())

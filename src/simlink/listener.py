"""The socket shell both daemons share: one ``selectors`` loop per daemon,
on one thread, that owns the listening socket, every accepted connection,
their deadlines and the daemon's own; and the one parser of the
``host:port`` endpoints that name them."""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import threading
import time
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError

logger = logging.getLogger(__name__)

RECV_BYTES = 65536
# After an accept fails for want of descriptors or memory, the loop stops
# accepting for one wait of at most this long: the pending connection
# keeps the listening socket readable, so retrying at once would spin.
ACCEPT_PAUSE_S = 0.1
OUT_OF_RESOURCES = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)
# The longest wait: epoll raises OverflowError above 2**31 - 1 ms, and a
# deadline further off only wakes the loop once more on its way.
MAX_WAIT_S = 86400.0


def monotonic_ms() -> float:
    return time.monotonic() * 1000.0


def parse_hostport(value: str) -> Tuple[str, int]:
    """``"host:port"`` as an address; an empty host is 127.0.0.1."""
    host, _, port = value.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigError(f"bad host:port {value!r}")
    return host or "127.0.0.1", int(port)


class _Conn:
    """One accepted connection: its socket and core, the output a send
    left behind, and the deadline the index holds for it."""

    __slots__ = ("sock", "fd", "core", "out", "deadline", "eof")

    def __init__(self, sock: socket.socket, core):
        self.sock = sock
        self.fd = sock.fileno()
        self.core = core
        self.out = b""  # unsent output; the socket is not read while it waits
        self.deadline: Optional[float] = None
        self.eof = False


class Listener:
    """Serves every connection of one daemon from one loop thread.

    A subclass defines ``_open(now_ms)``, which builds the core of one
    accepted connection. A core does no I/O:

    - ``on_bytes(chunk, now_ms)`` takes each chunk read, ``b""`` at the
      end of the stream;
    - ``on_deadline(now_ms)`` does what is due by ``now_ms`` and nothing
      else;
    - both return the bytes to send;
    - ``deadline_ms`` (or None) is when it next needs ``on_deadline``,
      ``closed`` ends the connection, and ``finish()`` runs once, when the
      connection ends.

    Output leaves one step at a time. Each time a core's output has all
    been sent, the loop calls ``on_deadline`` again, so a core holding
    more requests answers the next one. While a send would block, the
    connection is not read. A deadline that passes without its core
    moving it ends the connection.

    The daemon's own work has one deadline too: once per wake-up the loop
    calls ``_on_wake(now_ms)``, which does what is due by ``now_ms`` and
    returns when the daemon next has something due, or None. Work made
    due sooner off the loop thread calls ``wake()``.
    """

    def __init__(self, host: str, port: int):
        self._sock = socket.create_server((host, port))
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()  # wake() and stop()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)  # octets already waiting wake it anyway
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._conns: Dict[int, _Conn] = {}  # live connections by descriptor
        # (deadline_ms, fd) of exactly the live connections that have one.
        self._deadlines: List[Tuple[float, int]] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._accept_paused = False
        self._loop: Optional[threading.Thread] = None
        self._shut = False
        self._done = threading.Event()  # set once the loop has shut down

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def start(self):
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name=f"{type(self).__name__}-loop")
        with self._lock:
            self._loop = thread
        thread.start()

    def serve_forever(self):
        with self._lock:
            if self._loop is None:
                self._loop = threading.current_thread()
        try:
            self._run()
        finally:
            self._shutdown()
            self._done.set()

    def stop(self):
        """Stop accepting and end every live connection, so no request is
        served after this returns (one already being handled finishes
        first)."""
        with self._lock:
            self._stopping = True
            loop = self._loop
        if loop is None:  # never served: nothing else will shut it down
            self._shutdown()
        elif loop is not threading.current_thread():
            self.wake()
            self._done.wait()

    def wake(self):
        """Make the loop call ``_on_wake`` again before it next waits. The
        loop's own thread does so anyway, so there this does nothing; from
        any other thread it writes one octet to the loop's wake-up socket."""
        if threading.current_thread() is not self._loop:
            try:
                self._wake_w.send(b"\0")
            except OSError:  # the loop has shut down, or octets already wait
                pass

    # -- the loop ---------------------------------------------------------------

    def _run(self):
        select = self._selector.select
        deadlines = self._deadlines
        while not self._stopping:
            now = monotonic_ms()
            if deadlines and deadlines[0][0] <= now:
                self._expire(now)
            due = self._on_wake(now)
            if deadlines and (due is None or deadlines[0][0] < due):
                due = deadlines[0][0]
            cap = ACCEPT_PAUSE_S if self._accept_paused else MAX_WAIT_S
            timeout = cap if due is None else min(max(due - now, 0.0) / 1e3, cap)
            ready = select(timeout)
            if self._accept_paused:
                self._accept_paused = False
                self._selector.register(self._sock, selectors.EVENT_READ)
            for key, _ in ready:
                conn = key.data
                if conn is None:
                    if key.fileobj is self._sock:
                        self._accept()
                    else:
                        self._wake_r.recv(RECV_BYTES)
                    continue
                try:
                    if conn.out:  # registered for writing only while it waits
                        self._write(conn)
                    else:
                        self._read(conn)
                except Exception:  # a broken core must not end the loop
                    logger.exception("connection failed")
                    self._drop(conn)

    def _on_wake(self, now_ms: float) -> Optional[float]:
        return None

    def _accept(self):
        try:
            sock, _ = self._sock.accept()
        except BlockingIOError:
            return
        except OSError as exc:  # out of descriptors, or the peer left
            logger.warning("accept failed: %s", exc)
            if exc.errno in OUT_OF_RESOURCES:
                self._accept_paused = True
                self._selector.unregister(self._sock)
            return
        sock.setblocking(False)
        try:
            conn = _Conn(sock, self._open(monotonic_ms()))
        except Exception:
            logger.exception("connection setup failed")
            sock.close()
            return
        self._conns[conn.fd] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        try:
            # A client sends its first request as soon as it connects.
            self._read(conn)
            if (self._conns.get(conn.fd) is conn
                    and conn.deadline != conn.core.deadline_ms):
                self._reindex(conn)
        except Exception:
            logger.exception("connection failed")
            self._drop(conn)

    def _read(self, conn: _Conn):
        try:
            chunk = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError as exc:  # the peer reset
            logger.debug("connection ended: %s", exc)
            self._drop(conn)
            return
        if not chunk:
            conn.eof = True
        now = monotonic_ms()
        self._emit(conn, conn.core.on_bytes(chunk, now), now)

    def _write(self, conn: _Conn):
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError as exc:
            logger.debug("connection ended: %s", exc)
            self._drop(conn)
            return
        conn.out = conn.out[sent:]
        if conn.out:
            return
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        now = monotonic_ms()
        self._emit(conn, conn.core.on_deadline(now), now)

    def _emit(self, conn: _Conn, out: bytes, now: float):
        """Send a core's output and, while each send completes, what the
        core has due next; then end the connection or refile its
        deadline."""
        core = conn.core
        if out and conn.out:  # a send is blocked: this output waits behind it
            conn.out = bytes(conn.out) + out
        while out and not conn.out:
            try:
                sent = conn.sock.send(out)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                logger.debug("connection ended: %s", exc)
                self._drop(conn)
                return
            if sent < len(out):
                conn.out = memoryview(out)[sent:]
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            else:
                out = core.on_deadline(now)
        if (core.closed or conn.eof) and not conn.out:
            self._drop(conn)
        elif core.deadline_ms != conn.deadline:
            self._reindex(conn)

    def _expire(self, now: float):
        deadlines = self._deadlines
        for deadline, fd in deadlines[:bisect_right(deadlines, (now, float("inf")))]:
            conn = self._conns[fd]
            try:
                self._emit(conn, conn.core.on_deadline(now), now)
                if conn.deadline == deadline and self._conns.get(fd) is conn:
                    self._drop(conn)  # its core did not move the deadline
            except Exception:
                logger.exception("connection failed")
                self._drop(conn)

    # -- bookkeeping --------------------------------------------------------------

    def _reindex(self, conn: _Conn):
        deadlines = self._deadlines
        if conn.deadline is not None:
            del deadlines[bisect_left(deadlines, (conn.deadline, conn.fd))]
        conn.deadline = conn.core.deadline_ms
        if conn.deadline is not None:
            insort(deadlines, (conn.deadline, conn.fd))

    def _drop(self, conn: _Conn):
        if self._conns.pop(conn.fd, None) is None:
            return
        if conn.deadline is not None:
            deadlines = self._deadlines
            del deadlines[bisect_left(deadlines, (conn.deadline, conn.fd))]
        self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.core.finish()

    def _shutdown(self):
        """Close every socket and finish every core; the loop has ended."""
        with self._lock:
            if self._shut:
                return
            self._shut = True
        for conn in self._conns.values():
            conn.sock.close()
            try:
                conn.core.finish()
            except Exception:
                logger.exception("finishing a connection failed")
        self._conns.clear()
        self._deadlines.clear()
        self._selector.close()
        for sock in (self._sock, self._wake_r, self._wake_w):
            sock.close()

"""The socket shell both daemons share: one listening socket, one accept
loop and one thread per accepted connection."""

from __future__ import annotations

import logging
import socket
import threading
from typing import Set

logger = logging.getLogger(__name__)


class Listener:
    """Accepts connections and serves each on its own daemon thread by
    calling ``self._serve_client(conn)``, which a subclass defines; the
    connection is closed when it returns."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_server((host, port))
        self.address = self._sock.getsockname()
        self._stopping = False
        self._conns: Set[socket.socket] = set()  # live connections
        self._conns_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def start(self):
        threading.Thread(target=self.serve_forever, daemon=True).start()

    def serve_forever(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # stop() closed the listening socket
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def stop(self):
        """Stop accepting and end every live connection, so no request is
        served after this returns (one already being handled finishes
        first)."""
        with self._conns_lock:
            self._stopping = True
            conns = list(self._conns)
        for sock in (self._sock, *conns):
            try:
                # Wakes a thread blocked in accept() or recv() on it;
                # close() alone does not.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._sock.close()

    def _serve(self, conn: socket.socket):
        with self._conns_lock:
            if self._stopping:
                conn.close()
                return
            self._conns.add(conn)
        try:
            with conn:
                self._serve_client(conn)
        except OSError as exc:  # the peer reset, or stop() shut the socket
            logger.debug("connection ended: %s", exc)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

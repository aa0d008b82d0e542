"""Directory and lease service matching probes to hosted SIMs.

The registry is one logical state machine: every public call serializes
through a single lock, so concurrent requests observe atomic grant /
release / expiry transitions and at most one active lease exists per
ICCID at any instant. Handlers never touch the network while holding the
lock. Free SIMs are indexed by one sorted list per tag and active leases
by one sorted list of expiry times, each holding exactly the live entries:
a grant or a release bisects, then shifts the tail of one list per tag of
the SIM, and a sweep with nothing due reads one list head.

Every state change is one event: ``Registry._commit`` runs it through
``Registry._apply``, then appends it as a JSON line to an optional log
file, flushed per event. Opening a registry on a log folds every complete
event through the same ``_apply``, so a restart after a crash rebuilds the
state exactly, with already-expired leases recovered as Free by the first
sweep; a torn last line, left by a crash mid-write, is cut off.

The control API is newline-delimited UTF-8 JSON over TCP:

    {"op": "register_sim", "token": "...", "body": {...}}\n

answered by ``{"ok": true, ...}`` or ``{"ok": false, "error": "NoMatch"}``.
One connection carries any number of requests, answered in order, one
reply at a time: a request is read only once the reply before it has been
sent. A request line may be at most ``REQUEST_MAX`` bytes long, and a
connection that sends nothing for the registry's heartbeat window is
closed. ``ControlCore`` runs this protocol with no I/O; the listener's one
loop thread serves every control connection through one core each.
"""

from __future__ import annotations

import hmac
import json
import logging
import secrets
import socket
import threading
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import (
    AlreadyLeased,
    BadRequest,
    BrokerError,
    ConfigError,
    InvalidIccid,
    NoMatch,
    ProbeStale,
    RegistryClosed,
    UnknownLease,
)
from .listener import RECV_BYTES, Listener, parse_hostport
from .vsim import luhn_valid

logger = logging.getLogger(__name__)

DEFAULT_LEASE_MS = 15 * 60 * 1000
HEARTBEAT_WINDOW_MS = 60 * 1000

STATUS_FREE = "Free"
STATUS_LEASED = "Leased"

REQUEST_MAX = 64 * 1024  # bytes in one control request line, newline included

# The event log's compact encoding, built once: ``json.dumps`` with
# ``separators`` builds a new encoder on every call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(slots=True)
class SimRecord:
    iccid: str
    tags: Set[str]
    provider_endpoint: str
    registered_at: int
    lease_id: Optional[str] = None
    last_leased_at: Optional[int] = None

    @property
    def status(self) -> str:
        return STATUS_LEASED if self.lease_id else STATUS_FREE

    def to_dict(self) -> dict:
        return {
            "iccid": self.iccid,
            "tags": sorted(self.tags),
            "provider_endpoint": self.provider_endpoint,
            "status": self.status,
            "registered_at": self.registered_at,
            "last_leased_at": self.last_leased_at,
        }


@dataclass(slots=True)
class ProbeRecord:
    probe_id: str
    location_tag: str
    last_heartbeat: int

    def to_dict(self) -> dict:
        return {
            "probe_id": self.probe_id,
            "location_tag": self.location_tag,
            "last_heartbeat": self.last_heartbeat,
        }


@dataclass(slots=True)
class Lease:
    lease_id: str
    iccid: str
    probe_id: str
    granted_at: int
    expires_at: int
    token: str

    def to_dict(self) -> dict:
        return {
            "lease_id": self.lease_id,
            "iccid": self.iccid,
            "probe_id": self.probe_id,
            "granted_at": self.granted_at,
            "expires_at": self.expires_at,
            "token": self.token,
        }


# A free-index entry in grant order: last lease time (or -1), then ICCID.
FreeEntry = Tuple[int, str]


class Registry:
    """In-memory registry with an append-only event log.

    State changes only in ``_apply``: a live call checks its input under
    the lock and ``_commit``s one event; opening a log folds its events.

    Free SIMs are indexed by tag: each tag's sorted list holds the entry
    of every free SIM carrying it, untagged SIMs under None, and a tag with
    no free SIM has no list. Active leases are indexed by one sorted list
    of ``(expires_at, lease_id)``. Both hold exactly the live entries. The
    indexes are derived state; the fold rebuilds them.
    """

    def __init__(self, log_path: Optional[str] = None,
                 clock: Callable[[], int] = now_ms,
                 lease_ms: int = DEFAULT_LEASE_MS,
                 heartbeat_window_ms: int = HEARTBEAT_WINDOW_MS):
        self._lock = threading.Lock()
        self._clock = clock
        self.lease_ms = lease_ms
        self.heartbeat_window_ms = heartbeat_window_ms
        self.sims: Dict[str, SimRecord] = {}
        self.probes: Dict[str, ProbeRecord] = {}
        self.leases: Dict[str, Lease] = {}  # active only
        self._issued_lease_ids: Set[str] = set()
        self._free_index: Dict[Optional[str], List[FreeEntry]] = {}
        self._expiries: List[Tuple[int, str]] = []
        if log_path:
            self._fold(log_path)
        self._log_file = open(log_path, "a", encoding="utf-8") if log_path else None
        self._closed = False  # set once a log is closed; refuses mutations

    # -- persistence ---------------------------------------------------------

    @classmethod
    def replay(cls, log_path: str, **kwargs) -> "Registry":
        """Alias of ``Registry(log_path=log_path, **kwargs)``."""
        return cls(log_path=log_path, **kwargs)

    def _fold(self, log_path: str):
        """Apply every complete event of the log. A crash in the middle of
        a write leaves one final line with no newline: it is cut off, so
        the next event starts its own line. Any other bad line raises."""
        with open(log_path, "ab+") as fh:
            fh.seek(0)
            complete = 0  # bytes up to the end of the last complete line
            for line in fh:
                if not line.endswith(b"\n"):
                    fh.truncate(complete)
                    break
                if line.strip():
                    self._apply(json.loads(line))
                complete += len(line)

    def _commit(self, event: str, ts: int, body: dict):
        """Apply one event, then log it: a fold of the log then rebuilds the
        state live calls built. ``ts`` must be the time the change used."""
        doc = {"event": event, "ts": ts, "body": body}
        self._apply(doc)
        if self._log_file is not None:
            self._log_file.write(_COMPACT.encode(doc) + "\n")
            self._log_file.flush()

    def close(self):
        """Close the event log. Every later state change raises
        RegistryClosed, as the log could not record it; a registry
        without a log has nothing to close and keeps working."""
        with self._lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None
                self._closed = True

    def _check_open(self):
        if self._closed:
            raise RegistryClosed("the event log is closed")

    # -- internals (call with the lock held, or during the fold) ---------------

    def _apply(self, doc: dict):
        """The one place registry state changes."""
        event, ts, body = doc["event"], doc["ts"], doc["body"]
        if event == "register_sim":
            tags = set(body["tags"])
            sim = self.sims.get(body["iccid"])
            if sim is None:
                sim = SimRecord(body["iccid"], tags, body["provider_endpoint"], ts)
                self.sims[sim.iccid] = sim
                self._index(sim)
            else:
                if sim.tags != tags:
                    free = sim.lease_id is None
                    if free:
                        self._unindex(sim)
                    sim.tags = tags
                    if free:
                        self._index(sim)
                sim.provider_endpoint = body["provider_endpoint"]
                sim.registered_at = ts
        elif event == "register_probe":
            probe_id = body["probe_id"]
            self.probes[probe_id] = ProbeRecord(probe_id, body["location_tag"], ts)
        elif event == "lease":
            lease = Lease(**body)
            self.leases[lease.lease_id] = lease
            self._issued_lease_ids.add(lease.lease_id)
            insort(self._expiries, (lease.expires_at, lease.lease_id))
            sim = self.sims.get(lease.iccid)
            if sim is not None:
                if sim.lease_id is None:
                    self._unindex(sim)
                sim.lease_id = lease.lease_id
                sim.last_leased_at = lease.granted_at
        elif event == "release":
            self._free(body["lease_id"])
        elif event == "expire":
            for lease_id in body["lease_ids"]:
                self._free(lease_id)

    def _free(self, lease_id: str):
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return
        expiries = self._expiries
        del expiries[bisect_left(expiries, (lease.expires_at, lease_id))]
        sim = self.sims.get(lease.iccid)
        if sim is not None and sim.lease_id == lease_id:
            sim.lease_id = None
            self._index(sim)

    def _sweep(self, now: int) -> List[str]:
        expiries = self._expiries
        if not expiries or expiries[0][0] > now:
            return []
        due = bisect_right(expiries, now, key=lambda entry: entry[0])
        expired = [lease_id for _, lease_id in expiries[:due]]
        freed = [self.leases[lease_id].iccid for lease_id in expired]
        self._commit("expire", now, {"lease_ids": expired})
        return freed

    def _index(self, sim: SimRecord):
        """Insert a free SIM into the list of each of its tags."""
        entry = (sim.last_leased_at or -1, sim.iccid)
        for key in sim.tags or (None,):
            insort(self._free_index.setdefault(key, []), entry)

    def _unindex(self, sim: SimRecord):
        """Delete a free SIM about to be leased or retagged from its lists."""
        entry = (sim.last_leased_at or -1, sim.iccid)
        for key in sim.tags or (None,):
            entries = self._free_index[key]
            del entries[bisect_left(entries, entry)]
            if not entries:
                del self._free_index[key]

    def _pick_free(self, wanted: Set[str]) -> Optional[SimRecord]:
        """The least recently leased free SIM carrying every wanted tag,
        lowest ICCID first; None when no free SIM matches.

        With tags wanted, walks the list of the rarest one; with none,
        takes the least of every list's head.
        """
        index = self._free_index
        if not wanted:
            head = min((entries[0] for entries in index.values()), default=None)
            return None if head is None else self.sims[head[1]]
        rarest = min(wanted, key=lambda tag: len(index.get(tag, ())))
        for _, iccid in index.get(rarest, ()):
            sim = self.sims[iccid]
            if wanted <= sim.tags:
                return sim
        return None

    # -- public operations -----------------------------------------------------

    def register_sim(self, iccid: str, tags=(), provider_endpoint: str = "") -> SimRecord:
        if not (iccid.isdigit() and 19 <= len(iccid) <= 20 and luhn_valid(iccid)):
            raise InvalidIccid(iccid)
        with self._lock:
            self._check_open()
            self._commit("register_sim", self._clock(), {
                "iccid": iccid, "tags": sorted(tags),
                "provider_endpoint": provider_endpoint,
            })
            return self.sims[iccid]

    def register_probe(self, probe_id: str, location_tag: str = "") -> ProbeRecord:
        if not probe_id:
            raise BadRequest("empty probe_id")
        with self._lock:
            self._check_open()
            self._commit("register_probe", self._clock(), {
                "probe_id": probe_id, "location_tag": location_tag,
            })
            return self.probes[probe_id]

    def request_lease(self, probe_id: str, iccid: Optional[str] = None,
                      tags=None, duration_ms: Optional[int] = None) -> Lease:
        """Grant an exclusive time-bounded lease on one matching SIM.

        Among multiple free matches the least-recently-leased SIM wins,
        ties broken by the lexicographically lowest ICCID.
        """
        if duration_ms is not None and duration_ms <= 0:
            raise BadRequest(f"duration_ms must be positive, got {duration_ms}")
        with self._lock:
            self._check_open()
            now = self._clock()
            self._sweep(now)  # expiry frees atomically w.r.t. this request
            probe = self.probes.get(probe_id)
            if probe is None:
                raise ProbeStale(f"unknown probe {probe_id!r}")
            if now - probe.last_heartbeat > self.heartbeat_window_ms:
                raise ProbeStale(f"last heartbeat {now - probe.last_heartbeat} ms ago")
            if iccid is not None:
                sim = self.sims.get(iccid)
                if sim is None:
                    raise NoMatch(f"no SIM {iccid}")
                if sim.lease_id is not None:
                    raise AlreadyLeased(iccid)
            else:
                wanted = set(tags or ())
                sim = self._pick_free(wanted)
                if sim is None:
                    raise NoMatch(f"no free SIM with tags {sorted(wanted)}")
            lease_id = secrets.token_hex(8)
            self._commit("lease", now, {
                "lease_id": lease_id,
                "iccid": sim.iccid,
                "probe_id": probe_id,
                "granted_at": now,
                "expires_at": now + (self.lease_ms if duration_ms is None
                                     else duration_ms),
                "token": secrets.token_hex(16),
            })
            return self.leases[lease_id]

    def release(self, lease_id: str) -> bool:
        """Idempotent; returns False when the lease was already gone."""
        with self._lock:
            self._check_open()
            if lease_id not in self._issued_lease_ids:
                raise UnknownLease(lease_id)
            if lease_id not in self.leases:
                return False
            self._commit("release", self._clock(), {"lease_id": lease_id})
            return True

    def expire_sweep(self, now: Optional[int] = None) -> List[str]:
        """Free every lease with expires_at <= now; returns freed ICCIDs."""
        with self._lock:
            self._check_open()
            return self._sweep(self._clock() if now is None else now)

    def next_expiry_in(self) -> Optional[int]:
        """Milliseconds on the registry clock until the first active lease
        expires; None with no lease active."""
        with self._lock:
            return self._expiries[0][0] - self._clock() if self._expiries else None

    def provider_endpoint(self, iccid: str) -> str:
        with self._lock:
            return self.sims[iccid].provider_endpoint

    def list_state(self) -> dict:
        with self._lock:
            return {
                "sims": [s.to_dict() for s in sorted(self.sims.values(),
                                                     key=lambda s: s.iccid)],
                "probes": [p.to_dict() for p in sorted(self.probes.values(),
                                                       key=lambda p: p.probe_id)],
                "leases": [l.to_dict() for l in sorted(self.leases.values(),
                                                       key=lambda l: l.lease_id)],
            }

    def snapshot(self) -> dict:
        """Full comparable state, for crash-recovery equivalence checks."""
        state = self.list_state()
        state["issued"] = sorted(self._issued_lease_ids)
        return state


# ---------------------------------------------------------------------------
# Control API server / client
# ---------------------------------------------------------------------------


class BrokerServer(Listener):
    """Line-oriented JSON control API in front of one Registry, whose
    loop frees each lease when it expires."""

    def __init__(self, registry: Registry, token: str,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.registry = registry
        self.token = token

    def _on_wake(self, now_ms: float) -> Optional[float]:
        """Sweep when the registry's first lease is due; return when the
        next one is, on the loop clock."""
        left = self.registry.next_expiry_in()
        if left is not None and left <= 0:
            try:
                if freed := self.registry.expire_sweep():
                    logger.info("expired leases freed: %s", freed)
            except RegistryClosed:  # the broker is shutting down
                return None
            left = self.registry.next_expiry_in()
        return None if left is None else now_ms + left

    def _open(self, now_ms: float) -> "ControlCore":
        return ControlCore(self._handle_line,
                           self.registry.heartbeat_window_ms, now_ms)

    def _handle_line(self, raw: bytes) -> dict:
        try:
            doc = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            return {"ok": False, "error": BadRequest.code, "detail": str(exc)}
        if not isinstance(doc, dict):
            return {"ok": False, "error": BadRequest.code,
                    "detail": "request is not a JSON object"}
        token = doc.get("token")
        if not (isinstance(token, str) and hmac.compare_digest(
                token.encode("utf-8", "surrogatepass"), self.token.encode("utf-8"))):
            return {"ok": False, "error": "BadToken"}
        op = doc.get("op")
        body = doc.get("body", {})
        try:
            if not isinstance(body, dict):
                raise BadRequest("body is not a JSON object")
            return {"ok": True, **self._dispatch(op, body)}
        except BrokerError as exc:
            return {"ok": False, "error": exc.code, "detail": exc.detail}

    def _dispatch(self, op: str, body: dict) -> dict:
        reg = self.registry
        if op == "register_sim":
            endpoint = _field(body, "provider_endpoint", str, required=True)
            try:
                parse_hostport(endpoint)  # a probe that leases the SIM must reach it
            except ConfigError as exc:
                raise BadRequest(f"provider_endpoint: {exc}") from None
            sim = reg.register_sim(_field(body, "iccid", str, required=True),
                                   _field(body, "tags", list) or [], endpoint)
            return {"sim": sim.to_dict()}
        if op == "register_probe":
            probe = reg.register_probe(_field(body, "probe_id", str, required=True),
                                       _field(body, "location_tag", str) or "")
            return {"probe": probe.to_dict()}
        if op == "request_lease":
            lease = reg.request_lease(
                _field(body, "probe_id", str, required=True),
                iccid=_field(body, "iccid", str),
                tags=_field(body, "tags", list),
                duration_ms=_field(body, "duration_ms", int),
            )
            return {"lease": lease.to_dict(),
                    "provider_endpoint": reg.provider_endpoint(lease.iccid)}
        if op == "release":
            released = reg.release(_field(body, "lease_id", str, required=True))
            return {"released": released}
        if op == "list":
            return reg.list_state()
        raise BadRequest(f"unknown op {op!r}")


class ControlCore:
    """One control connection's line protocol, with no socket I/O.

    ``on_bytes`` and ``on_deadline`` answer at most one request line each,
    so the next line is answered only once the listener has sent the last
    reply. A line longer than ``REQUEST_MAX`` bytes is answered
    ``BadRequest`` and closes the connection; so does a heartbeat window
    with nothing read. An unterminated last line before the end of the
    stream is answered too.
    """

    def __init__(self, handle_line: Callable[[bytes], dict], window_ms: int,
                 now_ms: float):
        self._handle_line = handle_line
        self._window_ms = window_ms
        self._buf = b""
        self._pos = 0  # the first byte of _buf not yet answered
        self._eof = False
        self.closed = False
        self.deadline_ms = now_ms + window_ms

    def on_bytes(self, chunk: bytes, now_ms: float) -> bytes:
        if chunk:
            self._buf = self._buf[self._pos:] + chunk
            self._pos = 0
            self.deadline_ms = now_ms + self._window_ms
        else:
            self._eof = True
        return self._answer()

    def on_deadline(self, now_ms: float) -> bytes:
        if now_ms >= self.deadline_ms:  # a peer silent for a heartbeat window
            self.closed = True
        return self._answer()

    def finish(self):
        pass

    def _answer(self) -> bytes:
        """The reply to the next request line; ``b""`` until one is whole."""
        if self.closed:
            return b""
        buf, pos = self._buf, self._pos
        end = buf.find(b"\n", pos, pos + REQUEST_MAX)
        if end >= 0:
            self._pos = end + 1
            return self._reply(buf[pos:end + 1])
        if len(buf) - pos > REQUEST_MAX:  # the rest of the line is never read
            self.closed = True
            return _encode({"ok": False, "error": BadRequest.code,
                            "detail": f"request longer than {REQUEST_MAX} bytes"})
        if not self._eof:
            return b""
        self.closed = True
        return self._reply(buf[pos:]) if pos < len(buf) else b""

    def _reply(self, raw: bytes) -> bytes:
        try:
            reply = self._handle_line(raw)
        except Exception:  # a broken client must not kill the broker
            logger.exception("control request failed")
            reply = {"ok": False, "error": "Internal"}
        return _encode(reply)


def _encode(reply: dict) -> bytes:
    return (json.dumps(reply) + "\n").encode()


def _field(body: dict, name: str, kind: type, required: bool = False):
    """``body[name]`` checked against its JSON type (a list holds strings);
    an optional field that is absent or null reads as None."""
    value = body.get(name)
    if value is None and not required:
        return None
    if (not isinstance(value, kind) or isinstance(value, bool)
            or kind is list and not all(isinstance(v, str) for v in value)):
        raise BadRequest(f"field {name!r} is missing or not a {kind.__name__}")
    return value


class BrokerRequestError(BrokerError):
    """Raised by the client when the broker answers ok=false."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(detail)


class BrokerClient:
    """Control-API client that carries all its requests on one connection.

    The connection opens with the first request and stays open until
    ``close()`` or the end of a ``with`` block. When a reused connection
    fails before any byte of the reply arrives (the broker restarted, or
    closed the idle connection), the request is sent once more on a fresh
    connection. ``request_lease`` is the exception and raises
    ``BrokerError``: the broker may have granted the lease before the
    connection died. A failure on a fresh connection is never retried.
    One client serves one thread at a time.
    """

    def __init__(self, endpoint: str, token: str, timeout: float = 5.0):
        self.address = parse_hostport(endpoint)
        self.token = token
        self.timeout = timeout
        self._conn: Optional[socket.socket] = None

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, op: str, body: Optional[dict] = None) -> dict:
        message = (json.dumps(
            {"op": op, "token": self.token, "body": body or {}}
        ) + "\n").encode()
        reused = self._conn is not None
        line = self._roundtrip(message)
        if line is None and reused and op != "request_lease":
            line = self._roundtrip(message)
        if line is None:
            raise BrokerError("connection closed without a reply")
        try:
            reply = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            reply = None
        if not isinstance(reply, dict):  # not a broker: drop the connection
            self.close()
            raise BrokerError(f"reply is not a JSON object: {line[:64]!r}")
        if not reply.get("ok"):
            raise BrokerRequestError(reply.get("error", "Unknown"),
                                     reply.get("detail", ""))
        return reply

    def _roundtrip(self, message: bytes) -> Optional[bytes]:
        """Send one request line and return the reply line, or None when
        the connection closed or reset before any byte of the reply
        arrived. Any failure closes the connection."""
        if self._conn is None:
            self._conn = socket.create_connection(self.address,
                                                  timeout=self.timeout)
        try:
            try:
                self._conn.sendall(message)
                chunk = self._conn.recv(RECV_BYTES)
            except ConnectionError:
                chunk = b""
            if not chunk:
                self.close()
                return None
            chunks = [chunk]
            # A reply is one JSON line and nothing follows it, so its only
            # newline is the last byte of the last chunk.
            while not chunk.endswith(b"\n"):
                chunk = self._conn.recv(RECV_BYTES)
                if not chunk:
                    raise BrokerError("connection closed in the middle of a reply")
                chunks.append(chunk)
            return b"".join(chunks)
        except BaseException:
            self.close()
            raise

"""Directory and lease service matching probes to hosted SIMs.

The registry is one logical state machine: every public call serializes
through a single lock, so concurrent requests observe atomic grant /
release / expiry transitions and at most one active lease exists per
ICCID at any instant. Handlers never touch the network while holding the
lock. Free SIMs and lease expiries are indexed by heaps, so a grant, a
release and an expiry sweep cost O(log n) amortized in the fleet size.

State changes append JSON lines to an optional log file, flushed per
event; replaying the log reconstructs the registry after a crash, with
already-expired leases recovered as Free by the first sweep.

The control API is newline-delimited JSON over TCP:

    {"op": "register_sim", "token": "...", "body": {...}}\n

answered by ``{"ok": true, ...}`` or ``{"ok": false, "error": "NoMatch"}``.
One connection carries any number of requests, answered in order.
"""

from __future__ import annotations

import heapq
import hmac
import json
import logging
import secrets
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import (
    AlreadyLeased,
    BadRequest,
    BrokerError,
    InvalidIccid,
    NoMatch,
    ProbeStale,
    RegistryClosed,
    UnknownLease,
)
from .vsim import luhn_valid

logger = logging.getLogger(__name__)

DEFAULT_LEASE_MS = 15 * 60 * 1000
HEARTBEAT_WINDOW_MS = 60 * 1000

STATUS_FREE = "Free"
STATUS_LEASED = "Leased"

# A heap is re-heapified from its live entries once it holds more than
# twice as many entries as are live, plus this slack.
HEAP_SLACK = 64

RECV_BYTES = 65536


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
    # Bumped whenever the SIM leaves the free set or changes tags, so the
    # free-index entries pushed before then can never come back to life.
    index_gen: int = field(default=0, repr=False, compare=False)

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


# A free-index entry: the grant order key (last lease time or -1, then
# ICCID) and the SIM's index_gen when the entry was pushed.
FreeEntry = Tuple[int, str, int]


class Registry:
    """In-memory registry with an append-only event log.

    Free SIMs are indexed by one heap per tag plus one heap (key None)
    over every free SIM, active leases by a heap of expiry times. Both use
    lazy deletion: a free entry is live while its SIM's ``index_gen`` still
    equals the one it was pushed with (the SIM is still free and has kept
    its tags, hence its key), an expiry entry while its lease is active.
    The indexes are derived state; replay rebuilds them.
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
        self._free_heaps: Dict[Optional[str], List[FreeEntry]] = {}
        self._free_live: Dict[Optional[str], int] = {}  # live entries per heap
        self._expiries: List[Tuple[int, str]] = []
        self._log_file = open(log_path, "a", encoding="utf-8") if log_path else None
        self._closed = False  # set once a log is closed; refuses mutations

    # -- persistence ---------------------------------------------------------

    def _append(self, event: str, body: dict, ts: Optional[int] = None):
        if self._log_file is None:
            return
        # The logged ts must be the one the mutation used, or replay skews.
        stamp = self._clock() if ts is None else ts
        line = json.dumps({"event": event, "ts": stamp, "body": body},
                          separators=(",", ":"))
        self._log_file.write(line + "\n")
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

    @classmethod
    def replay(cls, log_path: str, clock: Callable[[], int] = now_ms,
               **kwargs) -> "Registry":
        """Rebuild a registry from its event log, then keep appending to it."""
        registry = cls(log_path=None, clock=clock, **kwargs)
        try:
            with open(log_path, encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        registry._apply(json.loads(line))
        except FileNotFoundError:
            pass
        registry._log_file = open(log_path, "a", encoding="utf-8")
        return registry

    def _apply(self, doc: dict):
        event, ts, body = doc["event"], doc["ts"], doc["body"]
        if event == "register_sim":
            self._upsert_sim(ts, body["iccid"], set(body["tags"]),
                             body["provider_endpoint"])
        elif event == "register_probe":
            self._upsert_probe(ts, body["probe_id"], body["location_tag"])
        elif event == "lease":
            self._grant(Lease(**body))
        elif event == "release":
            self._free(body["lease_id"])
        elif event == "expire":
            for lease_id in body["lease_ids"]:
                self._free(lease_id)

    # -- internals (call with the lock held, or during replay) ----------------

    def _upsert_sim(self, ts: int, iccid: str, tags: Set[str],
                    provider_endpoint: str) -> SimRecord:
        sim = self.sims.get(iccid)
        if sim is None:
            sim = SimRecord(iccid, set(tags), provider_endpoint, ts)
            self.sims[iccid] = sim
            self._index(sim)
        else:
            if sim.tags != tags:
                free = sim.lease_id is None
                if free:
                    self._unindex(sim)
                sim.tags = set(tags)
                if free:
                    self._index(sim)
            sim.provider_endpoint = provider_endpoint
            sim.registered_at = ts
        return sim

    def _upsert_probe(self, ts: int, probe_id: str, location_tag: str) -> ProbeRecord:
        probe = self.probes.get(probe_id)
        if probe is None:
            probe = ProbeRecord(probe_id, location_tag, ts)
            self.probes[probe_id] = probe
        else:
            probe.location_tag = location_tag
            probe.last_heartbeat = ts
        return probe

    def _grant(self, lease: Lease):
        self.leases[lease.lease_id] = lease
        self._issued_lease_ids.add(lease.lease_id)
        heapq.heappush(self._expiries, (lease.expires_at, lease.lease_id))
        self._compact_expiries()
        sim = self.sims.get(lease.iccid)
        if sim is not None:
            if sim.lease_id is None:
                self._unindex(sim)
            sim.lease_id = lease.lease_id
            sim.last_leased_at = lease.granted_at

    def _free(self, lease_id: str):
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return
        self._compact_expiries()
        sim = self.sims.get(lease.iccid)
        if sim is not None and sim.lease_id == lease_id:
            sim.lease_id = None
            self._index(sim)

    def _sweep(self, now: int) -> List[str]:
        expired = []
        while self._expiries and self._expiries[0][0] <= now:
            lease_id = heapq.heappop(self._expiries)[1]
            if lease_id in self.leases:
                expired.append(lease_id)
        freed = []
        for lease_id in expired:
            freed.append(self.leases[lease_id].iccid)
            self._free(lease_id)
        if expired:
            self._append("expire", {"lease_ids": expired})
        return freed

    def _index(self, sim: SimRecord):
        """Push a free SIM into the heaps of its tags and the all-free heap."""
        entry = (sim.last_leased_at or -1, sim.iccid, sim.index_gen)
        for key in (None, *sim.tags):
            heapq.heappush(self._free_heaps.setdefault(key, []), entry)
            self._free_live[key] = self._free_live.get(key, 0) + 1
            self._compact_free(key)

    def _unindex(self, sim: SimRecord):
        """Kill every index entry of a free SIM about to be leased or retagged."""
        sim.index_gen += 1
        for key in (None, *sim.tags):
            self._free_live[key] -= 1
            self._compact_free(key)

    def _compact_free(self, key: Optional[str]):
        heap = self._free_heaps[key]
        if len(heap) > 2 * self._free_live[key] + HEAP_SLACK:
            sims = self.sims
            heap[:] = [e for e in heap if sims[e[1]].index_gen == e[2]]
            heapq.heapify(heap)

    def _compact_expiries(self):
        if len(self._expiries) > 2 * len(self.leases) + HEAP_SLACK:
            self._expiries[:] = [(l.expires_at, l.lease_id)
                                 for l in self.leases.values()]
            heapq.heapify(self._expiries)

    def _pick_free(self, wanted: Set[str]) -> Optional[SimRecord]:
        """The least recently leased free SIM carrying every wanted tag,
        lowest ICCID first; None when no free SIM matches.

        Walks the heap of the rarest wanted tag, dropping dead entries and
        setting aside live ones that lack another wanted tag.
        """
        key = min(wanted, key=lambda t: self._free_live.get(t, 0)) if wanted else None
        heap = self._free_heaps.get(key)
        if not heap:
            return None
        sims = self.sims
        skipped = []
        found = None
        while heap:
            entry = heapq.heappop(heap)
            sim = sims[entry[1]]
            if sim.index_gen != entry[2]:
                continue
            if wanted <= sim.tags:
                found = sim
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        return found

    # -- public operations -----------------------------------------------------

    def register_sim(self, iccid: str, tags=(), provider_endpoint: str = "") -> SimRecord:
        if not (iccid.isdigit() and 19 <= len(iccid) <= 20 and luhn_valid(iccid)):
            raise InvalidIccid(iccid)
        with self._lock:
            self._check_open()
            ts = self._clock()
            sim = self._upsert_sim(ts, iccid, set(tags), provider_endpoint)
            self._append("register_sim", {
                "iccid": iccid, "tags": sorted(tags),
                "provider_endpoint": provider_endpoint,
            }, ts=ts)
            return sim

    def register_probe(self, probe_id: str, location_tag: str = "") -> ProbeRecord:
        if not probe_id:
            raise BadRequest("empty probe_id")
        with self._lock:
            self._check_open()
            ts = self._clock()
            probe = self._upsert_probe(ts, probe_id, location_tag)
            self._append("register_probe", {
                "probe_id": probe_id, "location_tag": location_tag,
            }, ts=ts)
            return probe

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
            lease = Lease(
                lease_id=secrets.token_hex(8),
                iccid=sim.iccid,
                probe_id=probe_id,
                granted_at=now,
                expires_at=now + (self.lease_ms if duration_ms is None
                                  else duration_ms),
                token=secrets.token_hex(16),
            )
            self._grant(lease)
            self._append("lease", lease.to_dict())
            return lease

    def release(self, lease_id: str) -> bool:
        """Idempotent; returns False when the lease was already gone."""
        with self._lock:
            self._check_open()
            if lease_id not in self._issued_lease_ids:
                raise UnknownLease(lease_id)
            if lease_id not in self.leases:
                return False
            self._free(lease_id)
            self._append("release", {"lease_id": lease_id})
            return True

    def expire_sweep(self, now: Optional[int] = None) -> List[str]:
        """Free every lease with expires_at <= now; returns freed ICCIDs."""
        with self._lock:
            self._check_open()
            return self._sweep(self._clock() if now is None else now)

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


class BrokerServer:
    """Line-oriented JSON control API in front of one Registry."""

    def __init__(self, registry: Registry, token: str,
                 host: str = "127.0.0.1", port: int = 0):
        self.registry = registry
        self.token = token
        self._sock = socket.create_server((host, port))
        self.address = self._sock.getsockname()
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._conns: Set[socket.socket] = set()  # live control connections
        self._conns_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def start(self):
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self):
        self.start()
        self._accept_thread.join()

    def stop(self):
        """Stop accepting and end every live control connection, so no
        request is served after this returns (one already being handled
        finishes first)."""
        with self._conns_lock:
            self._stopping.set()
            conns = list(self._conns)
        try:
            self._sock.close()
        except OSError:
            pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                break
            threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            ).start()

    def _serve_client(self, conn: socket.socket):
        with self._conns_lock:
            if self._stopping.is_set():
                conn.close()
                return
            self._conns.add(conn)
        try:
            with conn, conn.makefile("rwb") as stream:
                for raw in stream:
                    try:
                        reply = self._handle_line(raw.decode())
                    except Exception:  # a broken client must not kill the broker
                        logger.exception("control request failed")
                        reply = {"ok": False, "error": "Internal"}
                    stream.write((json.dumps(reply) + "\n").encode())
                    stream.flush()
        except OSError as exc:  # the peer reset, or stop() shut the socket
            logger.debug("control connection ended: %s", exc)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def _handle_line(self, line: str) -> dict:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
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
            sim = reg.register_sim(_field(body, "iccid", str, required=True),
                                   _field(body, "tags", list) or [],
                                   _field(body, "provider_endpoint", str) or "")
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
        if op == "expire_sweep":
            return {"freed": reg.expire_sweep(_field(body, "now", int))}
        if op == "list":
            return reg.list_state()
        raise BadRequest(f"unknown op {op!r}")


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
    dropped the idle connection), the request is sent once more on a fresh
    connection. ``request_lease`` is the exception and raises
    ``BrokerError``: the broker may have granted the lease before the
    connection died. A failure on a fresh connection is never retried.
    One client serves one thread at a time.
    """

    def __init__(self, endpoint: str, token: str, timeout: float = 5.0):
        host, _, port = endpoint.rpartition(":")
        self.address = (host or "127.0.0.1", int(port))
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
        reply = json.loads(line)
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

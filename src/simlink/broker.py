"""Directory and lease service matching probes to hosted SIMs.

The registry is one logical state machine: every public call serializes
through a single lock, so concurrent requests observe atomic grant /
release / expiry transitions and at most one active lease exists per
ICCID at any instant. Handlers never touch the network while holding the
lock.

State changes append JSON lines to an optional log file, flushed per
event; replaying the log reconstructs the registry after a crash, with
already-expired leases recovered as Free by the first sweep.

The control API is newline-delimited JSON over TCP:

    {"op": "register_sim", "token": "...", "body": {...}}\n

answered by ``{"ok": true, ...}`` or ``{"ok": false, "error": "NoMatch"}``.
"""

from __future__ import annotations

import json
import logging
import secrets
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from .errors import (
    AlreadyLeased,
    BadRequest,
    BrokerError,
    InvalidIccid,
    NoMatch,
    ProbeStale,
    UnknownLease,
)
from .vsim import luhn_valid

logger = logging.getLogger(__name__)

DEFAULT_LEASE_MS = 15 * 60 * 1000
HEARTBEAT_WINDOW_MS = 60 * 1000

STATUS_FREE = "Free"
STATUS_LEASED = "Leased"


def now_ms() -> int:
    return int(time.time() * 1000)


@dataclass
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


@dataclass
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


@dataclass
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


class Registry:
    """In-memory registry with an append-only event log."""

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
        self._log_file = open(log_path, "a", encoding="utf-8") if log_path else None

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
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

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
            lease = Lease(**body)
            self.leases[lease.lease_id] = lease
            self._issued_lease_ids.add(lease.lease_id)
            sim = self.sims.get(lease.iccid)
            if sim is not None:
                sim.lease_id = lease.lease_id
                sim.last_leased_at = lease.granted_at
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
        else:
            sim.tags = set(tags)
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

    def _free(self, lease_id: str):
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return
        sim = self.sims.get(lease.iccid)
        if sim is not None and sim.lease_id == lease_id:
            sim.lease_id = None

    def _sweep(self, now: int) -> List[str]:
        expired = [l.lease_id for l in self.leases.values() if l.expires_at <= now]
        freed = []
        for lease_id in expired:
            freed.append(self.leases[lease_id].iccid)
            self._free(lease_id)
        if expired:
            self._append("expire", {"lease_ids": expired})
        return freed

    # -- public operations -----------------------------------------------------

    def register_sim(self, iccid: str, tags=(), provider_endpoint: str = "") -> SimRecord:
        if not (iccid.isdigit() and 19 <= len(iccid) <= 20 and luhn_valid(iccid)):
            raise InvalidIccid(iccid)
        with self._lock:
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
                candidates = [
                    s for s in self.sims.values()
                    if s.status == STATUS_FREE and wanted <= s.tags
                ]
                if not candidates:
                    raise NoMatch(f"no free SIM with tags {sorted(wanted)}")
                candidates.sort(key=lambda s: (s.last_leased_at or -1, s.iccid))
                sim = candidates[0]
            lease = Lease(
                lease_id=secrets.token_hex(8),
                iccid=sim.iccid,
                probe_id=probe_id,
                granted_at=now,
                expires_at=now + (self.lease_ms if duration_ms is None
                                  else duration_ms),
                token=secrets.token_hex(16),
            )
            sim.lease_id = lease.lease_id
            sim.last_leased_at = now
            self.leases[lease.lease_id] = lease
            self._issued_lease_ids.add(lease.lease_id)
            self._append("lease", lease.to_dict())
            return lease

    def release(self, lease_id: str) -> bool:
        """Idempotent; returns False when the lease was already gone."""
        with self._lock:
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
            return self._sweep(self._clock() if now is None else now)

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
            threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            ).start()

    def _serve_client(self, conn: socket.socket):
        with conn, conn.makefile("rwb") as stream:
            for raw in stream:
                try:
                    reply = self._handle_line(raw.decode())
                except Exception:  # a broken client must not kill the broker
                    logger.exception("control request failed")
                    reply = {"ok": False, "error": "Internal"}
                stream.write((json.dumps(reply) + "\n").encode())
                stream.flush()

    def _handle_line(self, line: str) -> dict:
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": BadRequest.code, "detail": str(exc)}
        if not isinstance(doc, dict):
            return {"ok": False, "error": BadRequest.code,
                    "detail": "request is not a JSON object"}
        if doc.get("token") != self.token:
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
            endpoint = reg.sims[lease.iccid].provider_endpoint
            return {"lease": lease.to_dict(), "provider_endpoint": endpoint}
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
    """One-shot request client for the control API."""

    def __init__(self, endpoint: str, token: str, timeout: float = 5.0):
        host, _, port = endpoint.rpartition(":")
        self.address = (host or "127.0.0.1", int(port))
        self.token = token
        self.timeout = timeout

    def request(self, op: str, body: Optional[dict] = None) -> dict:
        message = json.dumps(
            {"op": op, "token": self.token, "body": body or {}}
        ) + "\n"
        with socket.create_connection(self.address, timeout=self.timeout) as conn:
            conn.sendall(message.encode())
            with conn.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise BrokerError("connection closed without a reply")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BrokerRequestError(reply.get("error", "Unknown"),
                                     reply.get("detail", ""))
        return reply

"""Registry, lease policy, persistence, and control-API tests."""

import json
import logging
import os
import pathlib
import random
import socket
import threading
import time

import pytest

from simlink import broker
from simlink.broker import (
    DEFAULT_LEASE_MS,
    HEARTBEAT_WINDOW_MS,
    REQUEST_MAX,
    BrokerClient,
    BrokerRequestError,
    BrokerServer,
    Lease,
    ProbeRecord,
    Registry,
    SimRecord,
)
from simlink.errors import (
    AlreadyLeased,
    BadRequest,
    BrokerError,
    InvalidIccid,
    NoMatch,
    ProbeStale,
    RegistryClosed,
    UnknownLease,
)
from simlink.vsim import luhn_check_digit, luhn_valid

TOKEN = "broker-token"
DATA = pathlib.Path(__file__).parent / "data"


def make_iccid(n: int) -> str:
    base = f"89430199{n:010d}"
    return base + luhn_check_digit(base)


class FakeClock:
    def __init__(self, start=1_000_000):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, ms=1):
        self.now += ms
        return self.now


def fresh_registry(tmp_path=None, **kwargs):
    clock = FakeClock()
    log = str(tmp_path / "state.log") if tmp_path else None
    return Registry(log_path=log, clock=clock, **kwargs), clock


class TestRegistration:
    def test_register_sim_visible_and_free(self):
        reg, clock = fresh_registry()
        reg.register_sim(make_iccid(1), tags={"AT"}, provider_endpoint="h:1")
        state = reg.list_state()
        assert state["sims"][0]["status"] == "Free"
        assert state["sims"][0]["tags"] == ["AT"]

    def test_register_is_idempotent_upsert(self):
        reg, clock = fresh_registry()
        iccid = make_iccid(2)
        reg.register_sim(iccid, tags={"AT"}, provider_endpoint="h:1")
        first_ts = reg.sims[iccid].registered_at
        clock.tick(50)
        reg.register_sim(iccid, tags={"AT", "5G"}, provider_endpoint="h:2")
        assert len(reg.sims) == 1
        assert reg.sims[iccid].registered_at == first_ts + 50
        assert reg.sims[iccid].provider_endpoint == "h:2"

    def test_broken_luhn_rejected(self):
        reg, _ = fresh_registry()
        good = make_iccid(3)
        bad = good[:-1] + str((int(good[-1]) + 1) % 10)
        with pytest.raises(InvalidIccid):
            reg.register_sim(bad)

    def test_register_probe_acts_as_heartbeat(self):
        reg, clock = fresh_registry()
        reg.register_probe("p1", "vie")
        t0 = reg.probes["p1"].last_heartbeat
        clock.tick(10)
        reg.register_probe("p1", "vie")
        assert reg.probes["p1"].last_heartbeat == t0 + 10


class TestLeasePolicy:
    def test_tag_match_grants(self):
        reg, _ = fresh_registry()
        reg.register_sim(make_iccid(1), tags={"AT"})
        reg.register_probe("p1", "vie")
        lease = reg.request_lease("p1", tags={"AT"})
        assert reg.sims[lease.iccid].status == "Leased"

    def test_no_match(self):
        reg, _ = fresh_registry()
        reg.register_probe("p1", "vie")
        with pytest.raises(NoMatch):
            reg.request_lease("p1", tags={"AT"})

    def test_exact_iccid_already_leased(self):
        reg, _ = fresh_registry()
        iccid = make_iccid(1)
        reg.register_sim(iccid)
        reg.register_probe("p1", "vie")
        reg.register_probe("p2", "ber")
        reg.request_lease("p1", iccid=iccid)
        with pytest.raises(AlreadyLeased):
            reg.request_lease("p2", iccid=iccid)

    def test_stale_probe_refused(self):
        reg, clock = fresh_registry()
        reg.register_sim(make_iccid(1))
        reg.register_probe("p1", "vie")
        clock.tick(61_000)
        with pytest.raises(ProbeStale):
            reg.request_lease("p1")
        with pytest.raises(ProbeStale):
            reg.request_lease("ghost")

    def test_release_idempotent_and_unknown(self):
        reg, _ = fresh_registry()
        reg.register_sim(make_iccid(1))
        reg.register_probe("p1", "vie")
        lease = reg.request_lease("p1")
        assert reg.release(lease.lease_id) is True
        assert reg.release(lease.lease_id) is False  # second is a no-op ack
        with pytest.raises(UnknownLease):
            reg.release("never-issued")

    def test_liveness_after_release(self):
        reg, _ = fresh_registry()
        reg.register_sim(make_iccid(1))
        reg.register_probe("p1", "vie")
        lease = reg.request_lease("p1")
        with pytest.raises(NoMatch):
            reg.request_lease("p1")
        reg.release(lease.lease_id)
        assert reg.request_lease("p1").iccid == lease.iccid

    def test_round_robin_emerges_against_scheduler_oracle(self):
        reg, clock = fresh_registry()
        iccids = sorted(make_iccid(i) for i in (7, 8, 9))
        for iccid in iccids:
            reg.register_sim(iccid, tags={"AT"})
        reg.register_probe("p1", "vie")

        # Brute-force model of least-recently-leased with lexicographic ties.
        model_last = {iccid: -1 for iccid in iccids}
        expected = []
        granted = []
        for step in range(12):
            choice = min(model_last, key=lambda i: (model_last[i], i))
            model_last[choice] = step
            expected.append(choice)

            clock.tick(10)
            reg.register_probe("p1", "vie")  # keep the heartbeat fresh
            lease = reg.request_lease("p1", tags={"AT"})
            granted.append(lease.iccid)
            reg.release(lease.lease_id)

        assert granted == expected
        assert granted[:3] == iccids  # first pass is lowest-ICCID order
        assert granted[:3] == granted[3:6] == granted[6:9]


class TestExpiry:
    def test_sweep_before_expiry_is_empty(self):
        reg, clock = fresh_registry()
        reg.register_sim(make_iccid(1))
        reg.register_probe("p1", "vie")
        reg.request_lease("p1", duration_ms=1000)
        assert reg.expire_sweep(clock() + 999) == []

    def test_sweep_frees_exactly_due_leases_vs_linear_scan(self):
        reg, clock = fresh_registry()
        rng = random.Random(99)
        reg.register_probe("p1", "vie")
        expiries = {}
        for i in range(100):
            iccid = make_iccid(i)
            reg.register_sim(iccid)
            duration = rng.randint(1, 10_000)
            lease = reg.request_lease("p1", iccid=iccid, duration_ms=duration)
            expiries[iccid] = lease.expires_at
        cutoff = sorted(expiries.values())[50]
        oracle = {i for i, t in expiries.items() if t <= cutoff}  # linear scan
        freed = set(reg.expire_sweep(cutoff))
        assert freed == oracle
        assert all(reg.sims[i].status == "Free" for i in oracle)
        assert all(reg.sims[i].status == "Leased"
                   for i in expiries if i not in oracle)

    def test_expired_lease_reusable_atomically(self):
        reg, clock = fresh_registry()
        iccid = make_iccid(1)
        reg.register_sim(iccid)
        reg.register_probe("p1", "vie")
        reg.request_lease("p1", iccid=iccid, duration_ms=100)
        clock.tick(101)
        reg.register_probe("p1", "vie")
        # No explicit sweep: request_lease sweeps inside the same lock.
        lease = reg.request_lease("p1", iccid=iccid)
        assert lease.expires_at > clock()


class TestExclusivity:
    def test_hundred_concurrent_requestors_one_sim(self):
        reg, clock = fresh_registry()
        iccid = make_iccid(1)
        reg.register_sim(iccid, tags={"X"})
        for i in range(100):
            reg.register_probe(f"p{i}", "loc")
        results = []
        barrier = threading.Barrier(100)

        def requestor(i):
            barrier.wait()
            try:
                results.append(reg.request_lease(f"p{i}", tags={"X"}))
            except NoMatch:
                pass

        threads = [threading.Thread(target=requestor, args=(i,)) for i in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 1
        assert len(reg.leases) == 1

    def test_interleaved_exact_requests_exactly_one_grant(self):
        reg, clock = fresh_registry()
        iccid = make_iccid(2)
        reg.register_sim(iccid)
        reg.register_probe("a", "x")
        reg.register_probe("b", "x")
        grants, errors = [], []
        for probe in ("a", "b"):
            try:
                grants.append(reg.request_lease(probe, iccid=iccid))
            except AlreadyLeased as exc:
                errors.append(exc)
        assert len(grants) == 1 and len(errors) == 1


class TestPersistence:
    def drive(self, reg, clock):
        iccids = [make_iccid(i) for i in range(5)]
        for i, iccid in enumerate(iccids):
            reg.register_sim(iccid, tags={"AT"} if i % 2 else {"DE"},
                             provider_endpoint=f"host:{i}")
        reg.register_probe("p1", "vie")
        reg.register_probe("p2", "ber")
        leases = [reg.request_lease("p1", iccid=iccids[0], duration_ms=50_000),
                  reg.request_lease("p2", tags={"AT"})]
        reg.release(leases[1].lease_id)
        clock.tick(10)
        reg.request_lease("p1", tags={"AT"})
        return iccids

    def test_replay_reconstructs_exactly(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        self.drive(reg, clock)
        before = reg.snapshot()
        # No clean shutdown: the log file is flushed per event, so a kill
        # at this point loses nothing.
        replayed = Registry.replay(str(tmp_path / "state.log"), clock=clock)
        assert replayed.snapshot() == before
        replayed.close()
        reg.close()

    def test_expired_leases_recovered_free(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        iccid = make_iccid(1)
        reg.register_sim(iccid)
        reg.register_probe("p1", "vie")
        reg.request_lease("p1", iccid=iccid, duration_ms=100)
        clock.tick(5000)
        replayed = Registry.replay(str(tmp_path / "state.log"), clock=clock)
        assert replayed.sims[iccid].status == "Leased"  # verbatim reconstruction
        replayed.expire_sweep()
        assert replayed.sims[iccid].status == "Free"
        replayed.close()
        reg.close()

    def test_log_lines_are_json(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        self.drive(reg, clock)
        reg.close()
        lines = (tmp_path / "state.log").read_text().splitlines()
        assert len(lines) >= 10
        events = [json.loads(line)["event"] for line in lines]
        assert set(events) <= {"register_sim", "register_probe", "lease",
                               "release", "expire"}

    def test_reopening_a_log_folds_it_like_replay(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        self.drive(reg, clock)
        before = reg.snapshot()
        reg.close()
        log = str(tmp_path / "state.log")
        reopened = Registry(log_path=log, clock=clock)
        try:
            assert reopened.snapshot() == before
            clock.tick(5)
            assert reopened.release(reopened.sims[make_iccid(0)].lease_id) is True
            after = reopened.snapshot()
        finally:
            reopened.close()
        replayed = Registry.replay(log, clock=clock)
        try:
            assert replayed.snapshot() == after != before
        finally:
            replayed.close()

    def test_logged_ts_is_the_time_the_change_used(self, tmp_path):
        clock = FakeClock()
        ticking = lambda: clock.tick(1)  # every read differs
        reg = Registry(log_path=str(tmp_path / "state.log"), clock=ticking)
        iccid = make_iccid(1)
        reg.register_sim(iccid)
        reg.register_probe("p1")
        lease = reg.request_lease("p1", iccid=iccid, duration_ms=10)
        assert reg.expire_sweep(now=lease.expires_at + 500) == [iccid]
        reg.close()
        docs = [json.loads(line)
                for line in (tmp_path / "state.log").read_text().splitlines()]
        assert [(d["event"], d["ts"]) for d in docs] == [
            ("register_sim", reg.sims[iccid].registered_at),
            ("register_probe", reg.probes["p1"].last_heartbeat),
            ("lease", lease.granted_at),
            ("expire", lease.expires_at + 500),
        ]

    def test_a_malformed_complete_line_still_raises(self, tmp_path):
        lines = (DATA / "state.log").read_bytes().splitlines(keepends=True)
        log = tmp_path / "state.log"
        for bad in (lines[:3] + [b'{"event":"register_pro\n'] + lines[3:],
                    lines + [b"not json\n"],
                    lines[:3] + [lines[3][:40] + lines[4]] + lines[5:]):
            log.write_bytes(b"".join(bad))
            with pytest.raises(ValueError):
                Registry(log_path=str(log))
            assert log.read_bytes() == b"".join(bad)  # left as it was


def recorded_sequence(reg, clock):
    """The calls that wrote ``tests/data/state.log``, with the lease ids and
    tokens it holds; the registry had lease_ms 20,000, heartbeat window
    30,000 and a clock starting at 1,000,000 that moved only as here."""
    iccids = [make_iccid(i) for i in range(6)]
    for i, iccid in enumerate(iccids):
        clock.tick(3)
        reg.register_sim(iccid, tags={"AT"} if i % 2 else {"DE", "5G"},
                         provider_endpoint=f"host:{i}")
    reg.register_probe("p1", "vie")
    clock.tick(1)
    reg.register_probe("p2", "ber")
    clock.tick(1)
    reg.request_lease("p1", iccid=iccids[0], duration_ms=500)
    clock.tick(7)
    held = reg.request_lease("p2", tags={"AT"})
    clock.tick(7)
    reg.request_lease("p1", tags={"5G"}, duration_ms=100)
    clock.tick(7)
    reg.register_sim(iccids[1], tags={"DE"}, provider_endpoint="host:11")  # leased
    reg.register_sim(iccids[3], tags={"iot"}, provider_endpoint="host:13")  # free
    reg.release(held.lease_id)
    clock.tick(200)
    reg.register_probe("p2", "ams")
    last = reg.request_lease("p2", tags=set())  # sweeps the 100-ms lease first
    clock.tick(1000)
    reg.expire_sweep(clock())
    reg.register_probe("p1", "vie")
    clock.tick(5)
    reg.request_lease("p1", iccid=iccids[0], duration_ms=60_000)
    reg.release(last.lease_id)


class TestLogFormat:
    """``tests/data/state.log`` was written by ``recorded_sequence`` before
    every change went through one commit path, and
    ``state.snapshot.json`` is the ``snapshot()`` it left."""

    def test_recorded_log_folds_to_its_recorded_snapshot(self, tmp_path):
        log = tmp_path / "state.log"
        log.write_bytes((DATA / "state.log").read_bytes())
        reg = Registry(log_path=str(log), clock=FakeClock())
        try:
            recorded = json.loads((DATA / "state.snapshot.json").read_text())
            assert reg.snapshot() == recorded
        finally:
            reg.close()

    def test_the_same_calls_write_the_same_bytes(self, tmp_path, monkeypatch):
        recorded = (DATA / "state.log").read_bytes()
        ids = iter([value for line in recorded.splitlines()
                    for doc in [json.loads(line)] if doc["event"] == "lease"
                    for value in (doc["body"]["lease_id"], doc["body"]["token"])])
        monkeypatch.setattr(broker.secrets, "token_hex", lambda n: next(ids))
        reg, clock = fresh_registry(tmp_path, lease_ms=20_000,
                                    heartbeat_window_ms=30_000)
        recorded_sequence(reg, clock)
        reg.close()
        assert (tmp_path / "state.log").read_bytes() == recorded


class RecordingRegistry(Registry):
    """Records the log size and the state after every committed event."""

    def __init__(self, log_path, **kwargs):
        super().__init__(log_path, **kwargs)
        self._lock = threading.RLock()  # snapshot() runs inside _commit
        self.log_path = log_path
        self.marks = [(0, self.snapshot())]

    def _commit(self, event, ts, body):
        super()._commit(event, ts, body)
        self.marks.append((os.path.getsize(self.log_path), self.snapshot()))


def record_crash_points(seed, log_path, steps=40):
    """Run a seeded operation sequence; returns the (log size, snapshot)
    pair after every event it logged."""
    rng = random.Random(seed)
    clock = FakeClock()
    reg = RecordingRegistry(log_path, clock=clock, lease_ms=2_000,
                            heartbeat_window_ms=30_000)
    pool = [make_iccid(i) for i in range(4)]
    issued = []
    for _ in range(steps):
        clock.tick(rng.choice((0, 1, 500, 1500)))
        roll = rng.random()
        if roll < 0.25:
            reg.register_sim(rng.choice(pool), rng.sample(ORACLE_TAGS, rng.randint(0, 2)),
                             f"h:{rng.randrange(3)}")
        elif roll < 0.4:
            reg.register_probe(rng.choice(("p0", "p1")), "loc")
        elif roll < 0.75:
            lease = outcome(lambda: reg.request_lease(
                rng.choice(("p0", "p1")), tags=rng.sample(ORACLE_TAGS, rng.randint(0, 1))))
            if isinstance(lease, Lease):
                issued.append(lease.lease_id)
        elif roll < 0.9 and issued:
            reg.release(rng.choice(issued))
        else:
            reg.expire_sweep()
    reg.close()
    return reg.marks


class TestCrashPoints:
    def test_every_cut_folds_to_the_last_complete_event(self, tmp_path):
        full = tmp_path / "full.log"
        marks = record_crash_points(2, str(full))
        data = full.read_bytes()
        events = {json.loads(line)["event"] for line in data.splitlines()}
        assert len(marks) > 30 and marks[-1][0] == len(data)
        assert events == {"register_sim", "register_probe", "lease", "release",
                          "expire"}
        log = tmp_path / "cut.log"
        for cut in range(len(data) + 1):
            log.write_bytes(data[:cut])
            size, state = [mark for mark in marks if mark[0] <= cut][-1]
            reg = Registry(log_path=str(log), clock=FakeClock())
            try:
                assert reg.snapshot() == state, cut
                reg.register_probe("after-crash", "loc")
            finally:
                reg.close()
            written = log.read_bytes()
            assert written[:size] == data[:size], cut
            # The next commit starts its own line after the last complete one.
            assert json.loads(written[size:])["body"]["probe_id"] == "after-crash"
            assert written[size:].count(b"\n") == 1 and written.endswith(b"\n")


def raw_request(server, doc) -> dict:
    """Send one control line as given, bypassing the client's framing."""
    with socket.create_connection(server.address, timeout=5) as conn:
        conn.sendall((json.dumps(doc) + "\n").encode())
        with conn.makefile("rb") as stream:
            return json.loads(stream.readline())


class TestControlApi:
    @pytest.fixture()
    def server(self):
        registry = Registry()
        server = BrokerServer(registry, TOKEN)
        server.start()
        yield server
        server.stop()

    def test_register_lease_release_cycle(self, server):
        with BrokerClient(server.endpoint, TOKEN) as client:
            iccid = make_iccid(1)
            client.request("register_sim", {
                "iccid": iccid, "tags": ["AT"], "provider_endpoint": "host:9",
            })
            client.request("register_probe", {"probe_id": "p1", "location_tag": "vie"})
            reply = client.request("request_lease", {"probe_id": "p1", "tags": ["AT"]})
            assert reply["lease"]["iccid"] == iccid
            assert reply["provider_endpoint"] == "host:9"
            listed = client.request("list")
            assert listed["sims"][0]["status"] == "Leased"
            client.request("release", {"lease_id": reply["lease"]["lease_id"]})
            assert client.request("list")["sims"][0]["status"] == "Free"

    def test_error_mapping(self, server):
        with BrokerClient(server.endpoint, TOKEN) as client:
            client.request("register_probe", {"probe_id": "p1"})
            with pytest.raises(BrokerRequestError) as err:
                client.request("request_lease", {"probe_id": "p1", "tags": ["XX"]})
            assert err.value.code == "NoMatch"
        # A missing, mistyped or out-of-range field is the client's fault.
        for op, body in [
            ("release", {}),
            ("request_lease", []),
            ("request_lease", {"probe_id": "p1", "duration_ms": "10"}),
            ("request_lease", {"probe_id": "p1", "duration_ms": 0}),
            ("request_lease", {"probe_id": "p1", "duration_ms": -5}),
            ("request_lease", {"probe_id": "p1", "tags": [["AT"]]}),
            ("register_sim", {"iccid": 8943019900000000018}),
            ("register_probe", {"probe_id": None}),
            ("register_probe", {"probe_id": ""}),
            ("no_such_op", {}),
        ]:
            line = {"op": op, "token": TOKEN, "body": body}
            assert raw_request(server, line)["error"] == "BadRequest", (op, body)
        assert raw_request(server, [TOKEN])["error"] == "BadRequest"

    @pytest.mark.parametrize("endpoint", [None, "", "no-port-here", "h:99999",
                                          "h:\u00b2", 9])
    def test_register_sim_needs_a_reachable_endpoint(self, server, endpoint):
        body = {"iccid": make_iccid(1), "tags": ["AT"]}
        if endpoint is not None:
            body["provider_endpoint"] = endpoint
        reply = raw_request(server, {"op": "register_sim", "token": TOKEN,
                                     "body": body})
        assert (reply["ok"], reply["error"]) == (False, "BadRequest")
        assert server.registry.sims == {}

    def test_bad_token_refused(self, server):
        with BrokerClient(server.endpoint, "wrong") as client:
            with pytest.raises(BrokerRequestError) as err:
                client.request("list")
        assert err.value.code == "BadToken"

    @pytest.mark.parametrize("token", [None, 123, 1.5, True, ["broker-token"],
                                       {"token": "broker-token"}])
    def test_non_string_token_is_bad_token(self, server, token):
        reply = raw_request(server, {"op": "list", "token": token, "body": {}})
        assert reply == {"ok": False, "error": "BadToken"}

    @pytest.mark.parametrize("token", ["bröker-token", "broker-tokén", "\ud800",
                                       "broker-token\u0000", "\u4e2d"])
    def test_non_ascii_token_is_bad_token(self, server, token):
        reply = raw_request(server, {"op": "list", "token": token, "body": {}})
        assert reply == {"ok": False, "error": "BadToken"}

    def test_non_ascii_token_accepted_when_it_matches(self):
        token = "bröker-tökén-\u4e2d"
        server = BrokerServer(Registry(), token)
        server.start()
        try:
            with BrokerClient(server.endpoint, token) as client:
                assert client.request("list")["ok"] is True
            with BrokerClient(server.endpoint, "broker-token") as client:
                with pytest.raises(BrokerRequestError) as err:
                    client.request("list")
            assert err.value.code == "BadToken"
        finally:
            server.stop()


class TestHostileRequests:
    """A request the broker cannot read is answered BadRequest, never
    Internal, and the connection keeps serving."""

    @pytest.fixture()
    def server(self):
        registry = Registry()
        server = BrokerServer(registry, TOKEN)
        server.start()
        yield server
        server.stop()

    # Each line fits in REQUEST_MAX; the nested ones go deeper than the
    # JSON decoder recurses.
    @pytest.mark.parametrize("line", [
        b'{"op": "list", "token": "t\xff"}\n',
        b'\xfe\xff\n',
        b"[" * 60_000 + b"\n",
        b'{"a": ' * 10_000 + b"\n",
    ], ids=["token-not-utf8", "not-utf8", "deep-array", "deep-object"])
    def test_unreadable_line_gets_bad_request(self, server, line, caplog):
        with socket.create_connection(server.address, timeout=5) as conn, \
                conn.makefile("rwb") as stream:
            stream.write(line)
            stream.write((json.dumps({"op": "list", "token": TOKEN}) + "\n").encode())
            stream.flush()
            reply = json.loads(stream.readline())
            assert (reply["ok"], reply["error"]) == (False, "BadRequest")
            assert json.loads(stream.readline())["ok"] is True
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_expire_sweep_is_not_a_control_op(self, server):
        # Its client-chosen "now" would let any token holder end every lease.
        iccid = make_iccid(1)
        with BrokerClient(server.endpoint, TOKEN) as client:
            client.request("register_sim", {"iccid": iccid, "tags": ["AT"],
                                            "provider_endpoint": "host:9"})
            client.request("register_probe", {"probe_id": "p1"})
            client.request("register_probe", {"probe_id": "p2"})
            lease = client.request("request_lease", {"probe_id": "p1"})["lease"]
            reply = raw_request(server, {"op": "expire_sweep", "token": TOKEN,
                                         "body": {"now": 10**13}})
            assert (reply["ok"], reply["error"]) == (False, "BadRequest")
            with pytest.raises(BrokerRequestError) as err:
                client.request("request_lease", {"probe_id": "p2", "iccid": iccid})
            assert err.value.code == "AlreadyLeased"
        assert list(server.registry.leases) == [lease["lease_id"]]


CONTROL_FUZZ_REQUESTS = 60_000  # about 2 s
# Every code a control reply may carry besides ok; "Internal" is not one.
TYPED_CODES = {"BadRequest", "BadToken", "InvalidIccid", "NoMatch",
               "ProbeStale", "AlreadyLeased", "UnknownLease"}
FUZZ_OPS = {  # each op's fields
    "register_sim": ("iccid", "tags", "provider_endpoint"),
    "register_probe": ("probe_id", "location_tag"),
    "request_lease": ("probe_id", "iccid", "tags", "duration_ms"),
    "release": ("lease_id",),
    "list": (),
}
FUZZ_FIELDS = ("iccid", "tags", "provider_endpoint", "probe_id",
               "location_tag", "duration_ms", "lease_id")
FUZZ_STRINGS = ("", "AT", "p1", "host:1", "\ud800", "x\udfff", "\u4e2d",
                "8943019900000000019", "0" * 300)


def fuzz_value(rng, depth=0):
    """Any JSON value: scalars of every type, lone surrogates, nesting."""
    kind = rng.randrange(7 if depth < 4 else 5)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((0, -1, 1, 2 ** 64, -(2 ** 70), rng.randint(-10 ** 9, 10 ** 9)))
    if kind == 2:
        return rng.choice((0.5, -0.0, 1e300, float("inf"), float("nan")))
    if kind in (3, 4):
        return rng.choice(FUZZ_STRINGS)
    if kind == 5:
        return [fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(FUZZ_FIELDS + FUZZ_STRINGS): fuzz_value(rng, depth + 1)
            for _ in range(rng.randint(0, 3))}


def fuzz_request(rng, iccids, lease_ids) -> bytes:
    """One control line: mostly a real op with most of its fields, a few
    others, and values that mostly fit; otherwise any JSON value or raw
    bytes."""
    roll = rng.random()
    if roll < 0.03:
        return rng.randbytes(rng.randint(0, 40)) + b"\n"
    if roll < 0.06:
        return (json.dumps(fuzz_value(rng)) + "\n").encode()
    plausible = {
        "iccid": lambda: rng.choice(iccids),
        "tags": lambda: rng.sample(["AT", "DE", "FR"], rng.randint(0, 2)),
        "provider_endpoint": lambda: f"host:{rng.randint(1, 9)}",
        "probe_id": lambda: rng.choice(("p1", "p2", "p3")),
        "location_tag": lambda: "vie",
        "duration_ms": lambda: rng.choice((1, 500, 10 ** 6)),
        "lease_id": lambda: rng.choice(lease_ids[-4:] or ["nope"]),
    }
    op = rng.choice(list(FUZZ_OPS))
    names = [name for name in FUZZ_OPS[op] if rng.random() < 0.7]
    body = {name: plausible[name]() if rng.random() < 0.85 else fuzz_value(rng)
            for name in names + rng.sample(FUZZ_FIELDS, rng.randint(0, 2))}
    doc = {"op": op if rng.random() < 0.9 else fuzz_value(rng),
           "token": TOKEN if rng.random() < 0.9 else fuzz_value(rng),
           "body": body if rng.random() < 0.95 else fuzz_value(rng)}
    return (json.dumps(doc) + "\n").encode()


ENCODER_STRINGS = ("", "AT", "caf\u00e9", "\u4e2d\u6587", "\U0001f600",
                   "\x00\x1f\t\n\"\\/", "\x7f", "\ud800", "x\udfff")
ENCODER_SCALARS = (None, True, False, 0, -1, 2 ** 63, 2 ** 64 + 1,
                   -(2 ** 100), 0.5, -0.0, 1e-7, 1e300, float("nan"),
                   float("inf"), float("-inf"))


def encoder_value(rng, depth=0):
    """Any JSON value the stdlib encodes, keys of every kind it accepts
    included."""
    kind = rng.randrange(4 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(ENCODER_SCALARS)
    if kind == 1:
        return rng.choice(ENCODER_STRINGS)
    if kind == 2:
        return [encoder_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = ENCODER_STRINGS + (0, -3, 2 ** 70, 1.5, None)
    return {rng.choice(keys): encoder_value(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


class TestReusedEncoders:
    """The control API and the state log each encode through one C encoder
    built at import, which must write exactly what ``json.dumps`` does."""

    def test_seeded_values_encode_as_json_dumps(self):
        rng = random.Random(0x25E)
        for n in range(3000):
            value = encoder_value(rng)
            assert "".join(broker._ENCODE_API(value, 0)) == json.dumps(value), n
            assert "".join(broker._ENCODE_LOG(value, 0)) == json.dumps(
                value, separators=(",", ":")), n
            assert broker._encode(value) == (json.dumps(value) + "\n").encode()

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [b"octets"], {"k": object()}, {(1, 2): "tuple key"},
    ], ids=["set", "bytes", "object", "tuple-key"])
    def test_an_unserializable_value_raises_as_json_dumps_does(self, value):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(value)
        doc = {"event": "release", "ts": 1, "body": {"lease_id": "ab", "n": [1.5]}}
        for encode, separators in ((broker._ENCODE_API, None),
                                   (broker._ENCODE_LOG, (",", ":"))):
            with pytest.raises(TypeError) as ours:
                encode(value, 0)
            assert str(ours.value) == str(stdlib.value)
            assert "".join(encode(doc, 0)) == json.dumps(doc, separators=separators)

    def test_a_body_that_contains_itself_is_never_sent(self):
        server = BrokerServer(Registry(), TOKEN)
        server.start()
        body = {"probe_id": "p2"}
        body["again"] = body
        try:
            with BrokerClient(server.endpoint, TOKEN) as client:
                client.request("register_probe", {"probe_id": "p1"})
                conn = client._conn
                with pytest.raises(RecursionError):
                    client.request("register_probe", body)
                # A byte of it on the wire would be answered before the list.
                assert client._conn is conn
                listed = client.request("list")
        finally:
            server.stop()
        assert [p["probe_id"] for p in listed["probes"]] == ["p1"]

    def test_every_line_of_a_served_run_is_what_json_dumps_writes(self):
        server = BrokerServer(Registry(), TOKEN)
        requests, replies = [], []
        handle_line = server._handle_line

        def recording(raw):
            requests.append(raw)
            return handle_line(raw)

        server._handle_line = recording
        server.start()
        iccid = make_iccid(1)
        script = [
            ("register_sim", {"iccid": iccid, "tags": ["AT", "caf\u00e9"],
                              "provider_endpoint": "host:9"}),
            ("register_sim", {"iccid": "123", "provider_endpoint": "host:9"}),
            ("register_sim", {"iccid": iccid, "provider_endpoint": "no-port"}),
            ("register_probe", {"probe_id": "p1", "location_tag": "Wien \u00d6"}),
            ("register_probe", {"probe_id": ""}),
            ("request_lease", {"probe_id": "p1", "tags": ["XX"]}),
            ("request_lease", {"probe_id": "ghost"}),
            ("request_lease", {"probe_id": "p1", "tags": ["AT"], "duration_ms": 0}),
            ("request_lease", {"probe_id": "p1", "tags": ["AT"]}),
            ("request_lease", {"probe_id": "p1", "iccid": iccid}),
            ("list", None),
            ("release", "granted"),
            ("release", "granted"),
            ("release", {"lease_id": "\ud800"}),
            ("bogus", {}),
        ]
        try:
            with BrokerClient(server.endpoint, TOKEN) as client:
                roundtrip = client._roundtrip

                def recording_roundtrip(message):
                    line = roundtrip(message)
                    replies.append(line)
                    return line

                client._roundtrip = recording_roundtrip
                lease_id = None
                for op, body in script:
                    if body == "granted":
                        body = {"lease_id": lease_id}
                    try:
                        reply = client.request(op, body)
                    except BrokerRequestError:
                        continue
                    if "lease" in reply:
                        lease_id = reply["lease"]["lease_id"]
            with socket.create_connection(server.address, timeout=5) as conn:
                with conn.makefile("rwb") as stream:
                    for line in (b'{"op": "list", "token": "wrong"}\n',
                                 b"not json\n", b"[1, 2]\n", b"\xff\n"):
                        stream.write(line)
                        stream.flush()
                        replies.append(stream.readline())
        finally:
            server.stop()
        assert len(requests) == len(script) + 4
        assert len(replies) == len(script) + 4
        oks = [json.loads(line)["ok"] for line in replies]
        assert oks.count(True) == 6  # the other nine ops and every raw line fail
        for line in requests[:len(script)] + replies:
            assert line == (json.dumps(json.loads(line)) + "\n").encode(), line


class TestControlRequestFuzz:
    def test_seeded_requests_get_ok_or_a_typed_code(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        server = BrokerServer(reg, TOKEN)  # never started: lines go to _handle_line
        rng = random.Random(0xF0CC)
        iccids = [make_iccid(i) for i in range(6)] + ["123", "8943019900000000011"]
        lease_ids, answered = [], set()
        try:
            for n in range(CONTROL_FUZZ_REQUESTS):
                clock.tick(rng.choice((0, 1, 100, 20_000)))
                reply = server._handle_line(fuzz_request(rng, iccids, lease_ids))
                if reply["ok"]:
                    answered.update(reply)
                    if "lease" in reply:
                        lease_ids.append(reply["lease"]["lease_id"])
                else:
                    assert reply["error"] in TYPED_CODES, (n, reply)
        finally:
            server.stop()
        # Every op changed or read the registry at least once.
        assert answered >= {"sim", "probe", "lease", "released", "sims"}
        replayed = Registry.replay(str(tmp_path / "state.log"), clock=clock)
        assert replayed.snapshot() == reg.snapshot()
        replayed.close()
        reg.close()


class TestShutdown:
    """stop() ends live connections; a closed registry refuses changes, so
    its log never falls behind its state."""

    def test_kept_open_client_is_refused_after_stop_and_close(self, tmp_path):
        log = str(tmp_path / "state.log")
        registry = Registry(log_path=log)
        server = BrokerServer(registry, TOKEN)
        server.start()
        client = BrokerClient(server.endpoint, TOKEN, timeout=2.0)
        try:
            client.request("register_probe", {"probe_id": "p1"})
            server.stop()
            registry.close()
            with pytest.raises((BrokerError, OSError)):
                client.request("register_probe", {"probe_id": "p2"})
        finally:
            client.close()
        assert set(registry.probes) == {"p1"}
        replayed = Registry.replay(log)
        try:
            assert replayed.snapshot() == registry.snapshot()
        finally:
            replayed.close()

    def test_stop_ends_an_idle_connection(self):
        server = BrokerServer(Registry(), TOKEN)
        server.start()
        with socket.create_connection(server.address, timeout=5) as conn:
            conn.sendall((json.dumps({"op": "list", "token": TOKEN}) + "\n").encode())
            with conn.makefile("rb") as stream:
                assert json.loads(stream.readline())["ok"] is True
                server.stop()
                assert stream.readline() == b""  # closed, not left hanging

    def test_closed_registry_refuses_every_change_and_keeps_its_state(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        iccid = make_iccid(1)
        reg.register_sim(iccid, tags={"AT"})
        reg.register_probe("p1", "vie")
        lease = reg.request_lease("p1", iccid=iccid, duration_ms=10)
        reg.close()
        before = reg.snapshot()
        clock.tick(1000)  # the lease is due: a sweep would change state
        for call in (lambda: reg.register_sim(make_iccid(2)),
                     lambda: reg.register_sim(iccid, tags={"DE"}),
                     lambda: reg.register_probe("p2"),
                     lambda: reg.register_probe("p1", "ber"),
                     lambda: reg.request_lease("p1", tags={"AT"}),
                     lambda: reg.release(lease.lease_id),
                     lambda: reg.expire_sweep()):
            with pytest.raises(RegistryClosed):
                call()
            assert reg.snapshot() == before
        lines = (tmp_path / "state.log").read_text().splitlines()
        assert len(lines) == 3

    def test_registry_without_log_keeps_working_after_close(self):
        reg, clock = fresh_registry()
        reg.close()
        iccid = make_iccid(1)
        reg.register_sim(iccid)
        reg.register_probe("p1")
        lease = reg.request_lease("p1", iccid=iccid)
        assert reg.release(lease.lease_id) is True
        assert reg.expire_sweep() == []

    def test_closed_registry_answers_a_typed_error(self, tmp_path):
        registry = Registry(log_path=str(tmp_path / "state.log"))
        server = BrokerServer(registry, TOKEN)
        server.start()
        try:
            registry.close()
            with BrokerClient(server.endpoint, TOKEN) as client:
                with pytest.raises(BrokerRequestError) as err:
                    client.request("register_probe", {"probe_id": "p1"})
                assert err.value.code == "RegistryClosed"
                assert client.request("list")["probes"] == []
        finally:
            server.stop()


class TestLoopExpiry:
    """A served registry's leases expire on the listener's loop when they
    fall due, with no client traffic and no thread of their own."""

    @pytest.fixture()
    def served(self, tmp_path):
        log = tmp_path / "state.log"
        registry = Registry(log_path=str(log))
        server = BrokerServer(registry, TOKEN)
        server.start()
        client = BrokerClient(server.endpoint, TOKEN)
        client.request("register_probe", {"probe_id": "p1"})
        for n in (1, 2):
            client.request("register_sim", {"iccid": make_iccid(n),
                                            "provider_endpoint": "host:9"})
        yield registry, server, client, log
        client.close()
        server.stop()
        registry.close()

    @staticmethod
    def lease(client, n, duration_ms) -> dict:
        return client.request("request_lease", {
            "probe_id": "p1", "iccid": make_iccid(n),
            "duration_ms": duration_ms})["lease"]

    @staticmethod
    def expire_event(log, timeout_s=5.0) -> dict:
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            for line in log.read_text().splitlines():
                doc = json.loads(line)
                if doc["event"] == "expire":
                    return doc
            time.sleep(0.005)
        raise AssertionError("no expire event logged")

    def test_lease_expires_on_time_with_no_traffic(self, served):
        registry, server, client, log = served
        lease = self.lease(client, 1, 200)
        client.close()  # nothing more reaches the broker
        event = self.expire_event(log)
        assert event["body"] == {"lease_ids": [lease["lease_id"]]}
        assert 0 <= event["ts"] - lease["expires_at"] <= 20
        with BrokerClient(server.endpoint, TOKEN) as fresh:
            [sim] = [s for s in fresh.request("list")["sims"]
                     if s["iccid"] == make_iccid(1)]
        assert sim["status"] == "Free"

    def test_a_sooner_grant_moves_the_due_time(self, served):
        registry, server, client, log = served
        long = self.lease(client, 1, 5000)
        short = self.lease(client, 2, 200)
        event = self.expire_event(log)
        assert event["body"] == {"lease_ids": [short["lease_id"]]}
        assert 0 <= event["ts"] - short["expires_at"] <= 20
        assert list(registry.leases) == [long["lease_id"]]

    def test_a_grant_made_on_the_registry_directly_expires_on_time(self, served):
        registry, server, client, log = served
        lease = registry.request_lease("p1", iccid=make_iccid(1), duration_ms=200)
        client.request("list")  # the loop wakes once after the grant
        client.close()
        event = self.expire_event(log)
        assert event["body"] == {"lease_ids": [lease.lease_id]}
        assert 0 <= event["ts"] - lease.expires_at <= 20

    def test_a_direct_grant_with_no_request_after_it_expires(self, served):
        """The loop sleeps with no lease due; a grant made on the registry
        directly, off the loop thread, wakes it to learn the due time."""
        registry, server, client, log = served
        client.close()
        time.sleep(0.05)  # the loop waits with nothing due
        lease = registry.request_lease("p1", iccid=make_iccid(1), duration_ms=100)
        end = time.monotonic() + 1.0
        while lease.lease_id in registry.leases and time.monotonic() < end:
            time.sleep(0.005)
        assert lease.lease_id not in registry.leases

    def test_only_a_grant_off_the_loop_thread_writes_a_wake_up(self, served):
        registry, server, client, log = served
        writes = []

        class CountingSocket:
            def __init__(self, sock):
                self.sock = sock

            def send(self, data):
                writes.append(threading.current_thread().name)
                return self.sock.send(data)

            def close(self):
                self.sock.close()

        server._wake_w = CountingSocket(server._wake_w)
        self.lease(client, 1, 5000)
        short = self.lease(client, 2, 2000)  # sooner: the first lease due
        assert writes == []  # the control API grants on the loop thread
        client.request("release", {"lease_id": short["lease_id"]})
        direct = registry.request_lease("p1", iccid=make_iccid(2), duration_ms=3000)
        assert writes == [threading.current_thread().name]
        registry.release(direct.lease_id)
        registry.request_lease("p1", iccid=make_iccid(2), duration_ms=6000)
        assert len(writes) == 1  # not the first lease due: no wake-up

    def test_a_stopped_server_unhooks_its_registry(self):
        """No server-registry cycle outlives the server: a stopped fleet's
        registry is freed by its last reference, not by the collector."""
        registry = Registry()
        server = BrokerServer(registry, TOKEN)
        server.start()
        assert registry.on_sooner_expiry == server.wake
        server.stop()
        assert registry.on_sooner_expiry is None

    def test_a_far_expiry_leaves_the_loop_serving(self, served):
        registry, server, client, log = served
        far = self.lease(client, 1, 10**12)
        time.sleep(0.05)  # a wake-up or two with the far due time held
        near = self.lease(client, 2, 100)
        assert self.expire_event(log)["body"] == {"lease_ids": [near["lease_id"]]}
        assert list(registry.leases) == [far["lease_id"]]

    def test_a_closed_registry_leaves_the_loop_idle_and_serving(self, served):
        registry, server, client, log = served
        self.lease(client, 1, 50)
        registry.close()
        time.sleep(0.1)  # the lease fell due: the loop's sweep is refused
        cpu = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - cpu < 0.03  # under 10 %: no busy wait
        assert len(client.request("list")["leases"]) == 1
        stopping = threading.Thread(target=server.stop)
        stopping.start()
        stopping.join(5)
        assert not stopping.is_alive()

    def test_next_expiry_in_reads_the_first_lease(self):
        reg, clock = fresh_registry()
        assert reg.next_expiry_in() is None
        reg.register_probe("p1")
        for n, duration in ((1, 500), (2, 200)):
            reg.register_sim(make_iccid(n))
            reg.request_lease("p1", iccid=make_iccid(n), duration_ms=duration)
        clock.tick(50)
        assert reg.next_expiry_in() == 150
        clock.tick(150)
        reg.expire_sweep()
        assert reg.next_expiry_in() == 300


def recording_connection_ends(monkeypatch):
    """One event per control connection the broker accepts from now on,
    set when the broker has ended that connection."""
    ended = []
    open_core = BrokerServer._open

    def recording_open(self, now_ms):
        core = open_core(self, now_ms)
        done = threading.Event()
        finish = core.finish

        def finishing():
            finish()
            done.set()

        core.finish = finishing
        ended.append(done)
        return core

    monkeypatch.setattr(BrokerServer, "_open", recording_open)
    return ended


class TestConnectionBounds:
    """A control connection is closed after a heartbeat window of silence
    or at its first request line longer than REQUEST_MAX bytes, and is
    answered one request at a time."""

    @pytest.fixture()
    def server(self):
        registry = Registry(heartbeat_window_ms=300)
        server = BrokerServer(registry, TOKEN)
        server.start()
        yield server
        server.stop()

    @staticmethod
    def wait_for_threads(count, timeout=2.0):
        deadline = time.monotonic() + timeout
        while threading.active_count() > count and time.monotonic() < deadline:
            time.sleep(0.01)
        return threading.active_count() <= count

    def test_silent_connections_close_after_the_heartbeat_window(self, server):
        baseline = threading.active_count()
        start = time.monotonic()
        socks = [socket.create_connection(server.address, timeout=5)
                 for _ in range(5)]
        try:
            for sock in socks:
                assert sock.recv(1) == b""
            assert time.monotonic() - start < 0.3 + 1.0
        finally:
            for sock in socks:
                sock.close()
        assert self.wait_for_threads(baseline)

    def test_an_over_long_line_gets_bad_request_then_eof(self, server):
        request = json.dumps({"op": "list", "token": TOKEN}).encode()
        longest = request + b" " * (REQUEST_MAX - len(request) - 1) + b"\n"
        with socket.create_connection(server.address, timeout=5) as conn, \
                conn.makefile("rwb") as stream:
            stream.write(longest)
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True
            stream.write(b"x" * (REQUEST_MAX + 1))
            stream.flush()
            reply = json.loads(stream.readline())
            assert (reply["ok"], reply["error"]) == (False, "BadRequest")
            assert stream.readline() == b""

    def test_a_half_closed_peer_gets_the_reply_to_its_unterminated_line(
            self, server):
        with socket.create_connection(server.address, timeout=5) as conn, \
                conn.makefile("rb") as stream:
            conn.sendall(json.dumps({"op": "list", "token": TOKEN}).encode())
            conn.shutdown(socket.SHUT_WR)
            assert json.loads(stream.readline())["ok"] is True
            assert stream.readline() == b""

    def test_a_peer_that_pipelines_and_reads_nothing_holds_one_reply(
            self, server, monkeypatch):
        for n in range(100):
            server.registry.register_sim(make_iccid(n), tags={"AT", f"T{n}"},
                                         provider_endpoint="127.0.0.1:1")
        request = (json.dumps({"op": "list", "token": TOKEN}) + "\n").encode()
        ended = recording_connection_ends(monkeypatch)
        with socket.create_connection(server.address, timeout=5) as flooder, \
                BrokerClient(server.endpoint, TOKEN) as other:
            start = time.monotonic()
            flooder.sendall(request * (64 * 1024 // len(request)))
            reply_bytes = len(json.dumps(other.request("list")) + "\n")
            held = []  # the unsent output the broker holds, while it holds any
            while not ended[0].is_set() and time.monotonic() - start < 2.0:
                held += [len(c.out) for c in dict(server._conns).values() if c.out]
                time.sleep(0.005)
            assert ended[0].is_set()  # closed at the heartbeat window
            assert time.monotonic() - start < 0.3 + 1.0
            assert held and max(held) <= reply_bytes
            assert other.request("list")["ok"] is True

    def test_client_releases_on_a_fresh_connection_after_an_idle_close(
            self, server, monkeypatch):
        ended = recording_connection_ends(monkeypatch)
        server.registry.register_sim(make_iccid(1), tags={"AT"})
        with BrokerClient(server.endpoint, TOKEN) as client:
            client.request("register_probe", {"probe_id": "p1"})
            lease = client.request("request_lease",
                                   {"probe_id": "p1", "tags": ["AT"]})["lease"]
            # The broker closed the idle connection.
            assert ended[0].wait(timeout=2.0)
            reply = client.request("release", {"lease_id": lease["lease_id"]})
        assert reply["released"] is True
        assert server.registry.leases == {}
        assert len(ended) == 2


# -- oracle: the indexed registry against the linear-scan one -----------------


class LinearRegistry:
    """The registry's lease logic as a plain scan over every SIM and lease,
    kept as the reference the indexed ``Registry`` must match."""

    def __init__(self, clock, lease_ms=DEFAULT_LEASE_MS,
                 heartbeat_window_ms=HEARTBEAT_WINDOW_MS):
        self.clock = clock
        self.lease_ms = lease_ms
        self.heartbeat_window_ms = heartbeat_window_ms
        self.sims = {}
        self.probes = {}
        self.leases = {}
        self.issued = set()
        self.next_id = 0

    def register_sim(self, iccid, tags=(), provider_endpoint=""):
        if not (iccid.isdigit() and 19 <= len(iccid) <= 20 and luhn_valid(iccid)):
            raise InvalidIccid(iccid)
        now = self.clock()
        sim = self.sims.get(iccid)
        if sim is None:
            sim = SimRecord(iccid, set(tags), provider_endpoint, now)
            self.sims[iccid] = sim
        else:
            sim.tags = set(tags)
            sim.provider_endpoint = provider_endpoint
            sim.registered_at = now
        return sim

    def register_probe(self, probe_id, location_tag=""):
        self.probes[probe_id] = ProbeRecord(probe_id, location_tag, self.clock())
        return self.probes[probe_id]

    def _free(self, lease_id):
        lease = self.leases.pop(lease_id, None)
        if lease is not None and self.sims[lease.iccid].lease_id == lease_id:
            self.sims[lease.iccid].lease_id = None

    def expire_sweep(self, now=None):
        now = self.clock() if now is None else now
        expired = [l for l in self.leases.values() if l.expires_at <= now]
        for lease in expired:
            self._free(lease.lease_id)
        return [lease.iccid for lease in expired]

    def request_lease(self, probe_id, iccid=None, tags=None, duration_ms=None):
        if duration_ms is not None and duration_ms <= 0:
            raise BadRequest(str(duration_ms))
        now = self.clock()
        self.expire_sweep(now)
        probe = self.probes.get(probe_id)
        if probe is None or now - probe.last_heartbeat > self.heartbeat_window_ms:
            raise ProbeStale(probe_id)
        if iccid is not None:
            sim = self.sims.get(iccid)
            if sim is None:
                raise NoMatch(iccid)
            if sim.lease_id is not None:
                raise AlreadyLeased(iccid)
        else:
            wanted = set(tags or ())
            candidates = [s for s in self.sims.values()
                          if s.lease_id is None and wanted <= s.tags]
            if not candidates:
                raise NoMatch(sorted(wanted))
            candidates.sort(key=lambda s: (s.last_leased_at or -1, s.iccid))
            sim = candidates[0]
        lease_id = f"L{self.next_id:05d}"
        self.next_id += 1
        lease = Lease(lease_id, sim.iccid, probe_id, now,
                      now + (self.lease_ms if duration_ms is None else duration_ms),
                      "")
        sim.lease_id = lease_id
        sim.last_leased_at = now
        self.leases[lease_id] = lease
        self.issued.add(lease_id)
        return lease

    def release(self, lease_id):
        if lease_id not in self.issued:
            raise UnknownLease(lease_id)
        if lease_id not in self.leases:
            return False
        self._free(lease_id)
        return True

    def snapshot(self):
        return {
            "sims": [s.to_dict() for s in sorted(self.sims.values(),
                                                 key=lambda s: s.iccid)],
            "probes": [p.to_dict() for p in sorted(self.probes.values(),
                                                   key=lambda p: p.probe_id)],
            "leases": sorted((l.to_dict() for l in self.leases.values()),
                             key=lambda l: l["lease_id"]),
            "issued": sorted(self.issued),
        }


def comparable(snapshot, ids):
    """A snapshot with lease ids mapped through ``ids`` and tokens dropped."""
    leases = [dict(l, lease_id=ids.get(l["lease_id"], l["lease_id"]), token="")
              for l in snapshot["leases"]]
    return dict(snapshot,
                leases=sorted(leases, key=lambda l: l["lease_id"]),
                issued=sorted(ids.get(i, i) for i in snapshot["issued"]))


def check_index(reg):
    """The indexes hold exactly the live entries, in grant order: a list per
    tag (None for untagged SIMs) of the free SIMs carrying it, and the
    active leases by expiry."""
    free = {}
    for sim in reg.sims.values():
        if sim.lease_id is None:
            for key in sim.tags or (None,):
                free.setdefault(key, []).append((sim.last_leased_at or -1, sim.iccid))
    assert reg._free_index == {key: sorted(entries) for key, entries in free.items()}
    assert reg._expiries == sorted((lease.expires_at, lease.lease_id)
                                   for lease in reg.leases.values())


def outcome(call):
    try:
        return call()
    except BrokerError as exc:
        return type(exc)


ORACLE_TAGS = ("AT", "DE", "5G", "iot")


def run_oracle_sequence(seed, steps, tmp_path):
    rng = random.Random(seed)
    clock = FakeClock()
    log = str(tmp_path / f"oracle-{seed}.log")
    kwargs = {"lease_ms": 20_000, "heartbeat_window_ms": 30_000}
    reg = Registry(log_path=log, clock=clock, **kwargs)
    ref = LinearRegistry(clock, **kwargs)
    pool = [make_iccid(i) for i in range(rng.randint(3, 16))]
    probes = ["p0", "p1", "p2", "ghost"]
    ids = {}  # registry lease id -> reference lease id

    def some_tags(most):
        return set(rng.sample(ORACLE_TAGS, rng.randint(0, most)))

    for step in range(steps):
        clock.tick(rng.choice((0, 0, 1, 7, 500, 4000, 31_000)))
        roll = rng.random()
        if roll < 0.2:
            iccid = rng.choice(pool)
            tags = some_tags(3)
            endpoint = f"h:{rng.randrange(3)}"
            got = outcome(lambda: reg.register_sim(iccid, tags, endpoint).to_dict())
            want = outcome(lambda: ref.register_sim(iccid, tags, endpoint).to_dict())
        elif roll < 0.35:
            probe = rng.choice(probes[:3])
            got = outcome(lambda: reg.register_probe(probe, "loc").to_dict())
            want = outcome(lambda: ref.register_probe(probe, "loc").to_dict())
        elif roll < 0.7:
            criteria = rng.choice(("tags", "tags", "iccid", "none"))
            args = {"probe_id": rng.choice(probes)}
            if criteria == "tags":
                args["tags"] = some_tags(2)
            elif criteria == "iccid":
                args["iccid"] = rng.choice(pool + [make_iccid(99)])
            if rng.random() < 0.5:
                args["duration_ms"] = rng.choice((1, 100, 5000, 60_000))
            got = outcome(lambda: reg.request_lease(**args))
            want = outcome(lambda: ref.request_lease(**args))
            if isinstance(got, Lease):
                ids[got.lease_id] = want.lease_id
                got = dict(got.to_dict(), lease_id=want.lease_id, token="")
                want = want.to_dict()
        elif roll < 0.85:
            issued = sorted(ids)
            lease_id = rng.choice(issued) if issued and rng.random() < 0.9 else "nope"
            got = outcome(lambda: reg.release(lease_id))
            want = outcome(lambda: ref.release(ids.get(lease_id, lease_id)))
        elif roll < 0.95:
            now = clock() + rng.choice((0, 0, 3000, 30_000)) if rng.random() < 0.5 else None
            got = outcome(lambda: sorted(reg.expire_sweep(now)))
            want = outcome(lambda: sorted(ref.expire_sweep(now)))
        else:
            reg.close()
            reg = Registry.replay(log, clock=clock, **kwargs)
            got = want = None
        assert got == want, (seed, step)
        assert comparable(reg.snapshot(), ids) == ref.snapshot(), (seed, step)
        check_index(reg)
    reg.close()


class TestIndexedRegistryOracle:
    def test_matches_linear_scan_on_random_sequences(self, tmp_path):
        for seed in (*range(200), *range(1000, 1200)):
            run_oracle_sequence(seed, 200, tmp_path)

    def test_indexes_hold_exactly_the_live_entries_over_many_cycles(self):
        # Leases by ICCID and by tag, each released at once, so every SIM
        # leaves its tag list and comes back at its tail, and every expiry
        # entry is deleted before it falls due.
        reg, clock = fresh_registry()
        iccids = [make_iccid(i) for i in range(50)]
        for i, iccid in enumerate(iccids):
            reg.register_sim(iccid, tags={ORACLE_TAGS[i % 4]})
        reg.register_probe("p1", "vie")
        rng = random.Random(7)
        for cycle in range(5000):
            clock.tick(1)
            if cycle % 1000 == 0:
                reg.register_probe("p1", "vie")
            if rng.random() < 0.5:
                lease = reg.request_lease("p1", iccid=rng.choice(iccids))
            else:
                lease = reg.request_lease("p1", tags={rng.choice(ORACLE_TAGS)})
            reg.release(lease.lease_id)
            check_index(reg)
        assert sum(map(len, reg._free_index.values())) == 50
        assert reg._expiries == []


# -- client reconnect rule ------------------------------------------------------


class OneReplyServer:
    """A line server that answers the first line of each connection with
    ``reply``, then reads the next line and closes without answering it."""

    def __init__(self, answer=True, reply=b'{"ok": true}\n'):
        self.answer = answer
        self.reply = reply
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = "127.0.0.1:%d" % self.sock.getsockname()[1]
        self.connections = 0
        self.ops = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rwb") as stream:
                if not self.answer:
                    continue
                for reply in (True, False):
                    line = stream.readline()
                    if not line:
                        break
                    self.ops.append(json.loads(line)["op"])
                    if reply:
                        stream.write(self.reply)
                        stream.flush()

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.sock.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class TestClientReconnect:
    def test_reused_connection_is_retried_once_on_a_fresh_one(self):
        server = OneReplyServer()
        with BrokerClient(server.endpoint, TOKEN) as client:
            client.request("register_probe", {"probe_id": "p1"})
            client.request("register_probe", {"probe_id": "p1"})
        server.close()
        # The second line reached the dead connection, then a fresh one.
        assert server.ops == ["register_probe"] * 3
        assert server.connections == 2

    def test_request_lease_is_not_resent(self):
        server = OneReplyServer()
        with BrokerClient(server.endpoint, TOKEN) as client:
            client.request("register_probe", {"probe_id": "p1"})
            with pytest.raises(BrokerError):
                client.request("request_lease", {"probe_id": "p1"})
        server.close()
        assert server.ops == ["register_probe", "request_lease"]
        assert server.connections == 1

    @pytest.mark.parametrize("reply", [b"hello\n", b"[1]\n", b"\xff\n"])
    def test_a_reply_not_a_json_object_is_a_broker_error(self, reply):
        server = OneReplyServer(reply=reply)
        with BrokerClient(server.endpoint, TOKEN) as client:
            with pytest.raises(BrokerError, match="not a JSON object"):
                client.request("list")
            assert client._conn is None
        server.close()
        assert server.ops == ["list"]

    def test_fresh_connection_is_never_retried(self):
        server = OneReplyServer(answer=False)
        with BrokerClient(server.endpoint, TOKEN) as client:
            with pytest.raises(BrokerError):
                client.request("list")
        server.close()
        assert server.connections == 1
        with BrokerClient(server.endpoint, TOKEN) as client:
            with pytest.raises(ConnectionRefusedError):
                client.request("list")

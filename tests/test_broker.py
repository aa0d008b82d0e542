"""Registry, lease policy, persistence, and control-API tests."""

import json
import random
import socket
import threading

import pytest

from simlink.broker import (
    BrokerClient,
    BrokerRequestError,
    BrokerServer,
    Lease,
    Registry,
)
from simlink.errors import (
    AlreadyLeased,
    InvalidIccid,
    NoMatch,
    ProbeStale,
    UnknownLease,
)
from simlink.vsim import luhn_check_digit

TOKEN = "broker-token"


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

    def test_log_lines_are_json(self, tmp_path):
        reg, clock = fresh_registry(tmp_path)
        self.drive(reg, clock)
        lines = (tmp_path / "state.log").read_text().splitlines()
        assert len(lines) >= 10
        events = [json.loads(line)["event"] for line in lines]
        assert set(events) <= {"register_sim", "register_probe", "lease",
                               "release", "expire"}


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
        client = BrokerClient(server.endpoint, TOKEN)
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
        client = BrokerClient(server.endpoint, TOKEN)
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

    def test_bad_token_refused(self, server):
        client = BrokerClient(server.endpoint, "wrong")
        with pytest.raises(BrokerRequestError) as err:
            client.request("list")
        assert err.value.code == "BadToken"

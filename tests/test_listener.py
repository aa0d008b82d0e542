"""The selectors loop both daemons share: one thread per daemon, however
many connections it holds."""

import errno
import json
import resource
import socket
import threading
import time

import pytest

from simlink.broker import BrokerClient, BrokerServer, Registry
from simlink.relay import ProbeLink, ProviderServer
from simlink.vsim import demo_profile

TOKEN = "listener-token"
IDLE_CONNECTIONS = 200
BATCH = 50


def broker_round_trip(server):
    with BrokerClient(server.endpoint, TOKEN) as client:
        client.request("list")


def provider_round_trip(server):
    ProbeLink(server.endpoint, TOKEN).connect().close()


DAEMONS = {
    "broker": (lambda: BrokerServer(Registry(), TOKEN), broker_round_trip),
    "provider": (lambda: ProviderServer(demo_profile(), TOKEN),
                 provider_round_trip),
}


@pytest.fixture()
def descriptors():
    """Room for both ends of every idle connection in this process: the
    soft limit is raised for the test when it is lower and the hard limit
    allows."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = 2 * IDLE_CONNECTIONS + 256
    if soft != resource.RLIM_INFINITY and soft < needed:
        if hard != resource.RLIM_INFINITY and hard < needed:
            pytest.skip(f"the descriptor limit {hard} is below {needed}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (needed, hard))
    yield
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_idle_connections_start_no_thread(descriptors, daemon):
    make, round_trip = DAEMONS[daemon]
    server = make()
    server.start()
    baseline = threading.active_count()
    idle = []
    try:
        while len(idle) < IDLE_CONNECTIONS:
            idle += [socket.create_connection(server.address, timeout=5)
                     for _ in range(BATCH)]
            # Served only once every connection opened before it was accepted.
            round_trip(server)
            assert threading.active_count() == baseline, len(idle)
    finally:
        for sock in idle:
            sock.close()
        server.stop()


def test_running_out_of_descriptors_pauses_accepting(monkeypatch):
    failed = []

    def out_of_descriptors(sock):
        failed.append(sock)
        raise OSError(errno.EMFILE, "Too many open files")

    request = (json.dumps({"op": "list", "token": TOKEN}) + "\n").encode()
    server = BrokerServer(Registry(), TOKEN)
    server.start()
    try:
        monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
        with socket.create_connection(server.address, timeout=2) as waiting:
            time.sleep(0.5)
            monkeypatch.undo()
            # About one try per pause, where a level-triggered loop would
            # retry at once, thousands of times.
            assert 1 <= len(failed) <= 10
            for conn in (waiting, socket.create_connection(server.address,
                                                           timeout=2)):
                with conn, conn.makefile("rb") as stream:
                    conn.sendall(request)
                    assert json.loads(stream.readline())["ok"] is True
    finally:
        server.stop()

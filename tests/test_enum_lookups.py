"""The per-exchange paths look up no enum member on its class.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so every
``Phase.CLOSED`` or ``StatusKind.OK`` written in a function goes through
a Python-level slot hook: about 110 ns on 3.11, against 3 ns for a
module global.
The tunnel, the provider core, the modem and the card bind the members
they compare against once, at module level. These tests count the class
attribute lookups on every enum class while exchanges run, through a
temporary ``__getattribute__`` on the enum metaclass (``EnumMeta``, which
3.11 renamed ``EnumType`` and kept as an alias).
"""

import contextlib
import dataclasses
import enum
import socket
import threading

from simlink.apdu import INS_STATUS, CommandApdu
from simlink.lab import StallPolicy, VirtualLink
from simlink.modem import DEFAULT_SCRIPT, PHASE_STATUS_POLL, ModemSim
from simlink.relay import ProbeLink, ProviderCore, wire
from simlink.tunnel import DeliverResponse, Role, Session
from simlink.vsim import Card, demo_profile

TOKEN = "t0ken"
STATUS = CommandApdu(0x00, INS_STATUS, 0x00, 0x00)


@contextlib.contextmanager
def counting_enum_lookups():
    """Count every attribute lookup on an enum class inside the block."""
    assert "__getattribute__" not in vars(enum.EnumMeta)
    count = [0]

    def counted(cls, name):
        count[0] += 1
        return type.__getattribute__(cls, name)

    enum.EnumMeta.__getattribute__ = counted
    try:
        yield count
    finally:  # later code gets the metaclass's own lookup back
        del enum.EnumMeta.__getattribute__


def test_the_counter_sees_a_lookup_and_leaves_no_hook():
    with counting_enum_lookups() as count:
        assert Role.PROBE.value == "probe"
    assert count[0] == 1
    assert "__getattribute__" not in vars(enum.EnumMeta)


def test_a_relayed_exchange_looks_up_no_enum_member():
    """Ten STATUS exchanges between a probe ``Session`` and a
    ``ProviderCore``, both ends, as the listener and ``ProbeLink`` drive
    them: 27 lookups per exchange before the members were bound."""
    core = ProviderCore(demo_profile(), TOKEN, 0.0)
    probe = Session(Role.PROBE, TOKEN, session_id=7)
    for send in (probe.start, probe.send_reset):
        for _ in probe.on_bytes(core.on_bytes(wire(send()), 1.0), 1.0):
            pass
    delivered = []
    with counting_enum_lookups() as count:
        for _ in range(10):
            replies = core.on_bytes(wire(probe.send_command(STATUS)), 2.0)
            for actions in probe.on_bytes(replies, 2.0):
                delivered += actions
            assert not core.closed
    assert count[0] == 0
    assert [type(a) for a in delivered] == [DeliverResponse] * 10
    assert all(a.response.sw1 in (0x90, 0x91) for a in delivered)


def serve(sock, core):
    """Answer every chunk the probe sends through ``core`` until it closes."""
    while chunk := sock.recv(4096):
        if reply := core.on_bytes(chunk, 1.0):
            sock.sendall(reply)


def test_a_handshake_and_a_reset_look_up_no_enum_member(monkeypatch):
    """A ``ProbeLink`` opens a session with a ``ProviderCore`` over a
    socket pair, resets the card and closes: 11 lookups before the
    handshake paths bound their members."""
    profile = demo_profile()
    Card(profile).reset()  # warm-up: the first card of a profile builds its files
    probe_end, provider_end = socket.socketpair()
    monkeypatch.setattr(socket, "create_connection",
                        lambda address, timeout: probe_end)
    try:
        with counting_enum_lookups() as count:
            core = ProviderCore(profile, TOKEN, 0.0)
            server = threading.Thread(target=serve, args=(provider_end, core),
                                      daemon=True)
            server.start()
            link = ProbeLink("127.0.0.1:7401", TOKEN, session_id=7).connect()
            atr, _ = link.reset()
            link.close()
            server.join(5)
    finally:
        probe_end.close()
        provider_end.close()
    assert not server.is_alive()
    assert count[0] == 0
    assert atr == bytes.fromhex(profile.atr_hex) and core.closed


def lab_session(profile, polls: int):
    """One stalled lab session (every exchange walks a NULL) polling
    STATUS ``polls`` times; its report."""
    script = [dataclasses.replace(p, count=polls)
              if p.name == PHASE_STATUS_POLL else p for p in DEFAULT_SCRIPT]
    link = VirtualLink(Card(profile), 150.0,
                       stall=StallPolicy(enabled=True, null_interval_ms=100.0))
    modem = ModemSim(script, verify_aka=True, k=profile.k, op_salt=profile.op_salt)
    return modem.run(link)


def test_a_lab_exchange_looks_up_no_enum_member():
    """Lookups per extra STATUS exchange, between sessions of 4 and 14
    polls after a warm-up that classifies every status pair once: 7 per
    exchange before the members were bound."""
    profile = demo_profile()
    assert lab_session(profile, 4).completed  # warm-up
    counts, exchanges = [], []
    for polls in (4, 14):
        with counting_enum_lookups() as count:
            report = lab_session(profile, polls)
        assert report.completed, report.failure
        counts.append(count[0])
        exchanges.append(report.exchanges)
    assert exchanges[1] - exchanges[0] == 10
    assert (counts[1] - counts[0]) / (exchanges[1] - exchanges[0]) == 0
    # Nor does the rest of the session: selects, reads, AUTHENTICATE, FETCH.
    assert counts == [0, 0]

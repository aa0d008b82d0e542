"""Provider core tests with no socket, and loopback tunnel tests: provider
server + probe link over real sockets, directly or through a delay proxy."""

import dataclasses
import hashlib
import json
import pathlib
import random
import re
import socket
import threading
import time

import pytest

from simlink import relay
from simlink import tracer as tracer_mod
from simlink.apdu import CommandApdu, INS_SELECT, encode_command
from simlink.errors import ProtocolViolation
from simlink.lab import StallPolicy, lab_sweep
from simlink.modem import DEFAULT_SCRIPT, ModemSim, Timing
from simlink.relay import (
    HANDSHAKE_TIMEOUT_MS,
    LinkClosed,
    ProbeLink,
    ProviderCore,
    ProviderServer,
    wire,
)
from simlink.tracer import (
    FLAG_REWRITTEN,
    FLAG_SILENT_SMS,
    Tracer,
    detect_silent_sms,
    read_trace,
    rules_from_json,
)
from simlink.tunnel import (
    DeliverAtr,
    DeliverResponse,
    Established,
    FrameDecoder,
    MessageType,
    Role,
    Session,
    frame_encode,
)
from simlink.vsim import demo_profile, encode_iccid

TOKEN = "relay-token"


@pytest.fixture()
def provider(tmp_path):
    server = ProviderServer(
        demo_profile(), TOKEN, trace_dir=str(tmp_path / "traces")
    )
    server.start()
    yield server
    server.stop()


def connect(server, token=TOKEN, session_id=None):
    return ProbeLink(server.endpoint, token, session_id=session_id).connect()


def read_provider_trace(directory, session_id):
    path = directory / f"session-{session_id:08x}.jsonl"
    return read_trace(path.read_text().splitlines())


class TestLoopback:
    def test_handshake_and_reset(self, provider):
        link = connect(provider)
        atr, timing = link.reset()
        assert atr == bytes.fromhex(demo_profile().atr_hex)
        assert timing.done_ms >= timing.start_ms
        link.close()

    def test_single_exchange(self, provider):
        link = connect(provider)
        link.reset()
        resp, _ = link.exchange(
            CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x2F\xE2")
        )
        assert resp.sw == 0x9000
        link.close()

    def test_bad_token_rejected(self, provider):
        link = ProbeLink(provider.endpoint, "nope")
        with pytest.raises(LinkClosed):
            link.connect()
        assert link.channel.sock.fileno() == -1  # a failed handshake closes it

    def test_keepalive_rtt_under_5ms_on_loopback(self, provider):
        link = connect(provider)
        rtt = link.keepalive_roundtrip()
        assert 0 <= rtt < 5.0
        link.close()

    def test_keepalive_roundtrips_past_the_sample_window(self, provider):
        # Every round trip must see its own ack, however many came before.
        link = ProbeLink(provider.endpoint, TOKEN, timeout_s=1.0).connect()
        for _ in range(70):
            assert link.keepalive_roundtrip() >= 0
        link.close()

    def test_full_modem_script_over_tcp(self, provider, tmp_path):
        profile = demo_profile()
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        tracer = Tracer(session_id=1)
        link = connect(provider)
        report = modem.run(link, tracer=tracer)
        link.close()
        assert report.failure is None
        assert report.aka_ok is True
        assert report.iccid == profile.iccid
        assert report.imsi == profile.imsi
        assert report.completed_phases == [p.name for p in DEFAULT_SCRIPT]
        # Probe-side conservation and silent-SMS visibility.
        m2s = [e for e in tracer.events if e.direction == "m2s"]
        s2m = [e for e in tracer.events if e.direction == "s2m"]
        assert len(m2s) == len(s2m)
        assert len(detect_silent_sms(tracer.events)) == 1

    def test_provider_writes_trace_file(self, provider, tmp_path):
        profile = demo_profile()
        session_id = 0xABCD
        link = connect(provider, session_id=session_id)
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(link)
        # Complete and flagged once the last response is in, before close.
        events = read_provider_trace(tmp_path / "traces", session_id)
        link.close()
        assert report.failure is None
        assert len(events) == 2 * report.exchanges
        assert sum("silent_sms" in e.flags for e in events) == 1
        assert len(detect_silent_sms(events)) == 1

    def test_sequential_sessions_get_fresh_cards(self, provider):
        profile = demo_profile()
        for _ in range(2):
            link = connect(provider)
            modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
            report = modem.run(link)
            link.close()
            # A fresh card re-arms the scripted silent SMS every session.
            assert report.failure is None


REWRITE_ICCID = "8944999999999999999"  # not Luhn-checked: pure payload swap


def iccid_rule_json():
    original_prefix = encode_iccid(demo_profile().iccid)[:4].hex()
    return json.dumps([
        {
            "rule_id": "iccid-swap",
            "on": "response",
            "match": {"data_prefix": original_prefix},
            "action": {
                "kind": "replace_response_data",
                "data_hex": encode_iccid(REWRITE_ICCID).hex(),
            },
        }
    ])


class TestRewriteThroughTunnel:
    def run_session(self, tmp_path, rules):
        server = ProviderServer(
            demo_profile(), TOKEN, rules=rules,
            trace_dir=str(tmp_path / "traces"),
        )
        server.start()
        try:
            profile = demo_profile()
            session_id = 0x51
            link = connect(server, session_id=session_id)
            modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
            probe_tracer = Tracer(session_id=session_id)
            report = modem.run(link, tracer=probe_tracer)
            link.close()
            trace_path = tmp_path / "traces" / f"session-{session_id:08x}.jsonl"
            provider_events = read_trace(trace_path.read_text().splitlines())
            return report, probe_tracer.events, provider_events
        finally:
            server.stop()

    def test_probe_sees_rewritten_provider_preserves_original(self, tmp_path):
        rules = rules_from_json(iccid_rule_json())
        report, probe_events, provider_events = self.run_session(tmp_path, rules)
        assert report.failure is None
        assert report.iccid == REWRITE_ICCID  # modem decoded the swapped value

        rewritten = [e for e in provider_events if "rewritten" in e.flags]
        assert len(rewritten) == 1
        event = rewritten[0]
        assert event.decoded["rule_id"] == "iccid-swap"
        original = bytes.fromhex(event.decoded["original_hex"])[:-2]
        assert original == encode_iccid(demo_profile().iccid)
        assert event.raw_hex[:-4] == encode_iccid(REWRITE_ICCID).hex().upper()

    def test_removing_rule_restores_byte_identical_passthrough(self, tmp_path):
        _, _, with_rule = self.run_session(tmp_path, rules_from_json(iccid_rule_json()))
        report, _, without_rule = self.run_session(tmp_path, [])
        assert report.iccid == demo_profile().iccid
        assert not any("rewritten" in e.flags for e in without_rule)
        # The no-rule stream equals the with-rule stream with the single
        # rewritten event's original bytes restored.
        assert len(with_rule) == len(without_rule)
        for with_ev, without_ev in zip(with_rule, without_rule):
            if "rewritten" in with_ev.flags:
                assert without_ev.raw_hex == with_ev.decoded["original_hex"]
            else:
                assert without_ev.raw_hex == with_ev.raw_hex


# -- the provider core, with no socket -------------------------------------------

STATUS = CommandApdu(0x80, 0xF2, 0x00, 0x00)


def hello(token=TOKEN, session_id=7) -> bytes:
    return wire(Session(Role.PROBE, token, session_id=session_id).start())


class CoreLink:
    """The probe's link protocol fed straight into a ProviderCore: the
    bytes a socket would carry, on a clock that ticks 1 ms per feed."""

    def __init__(self, core: ProviderCore, session_id: int):
        self.core = core
        self.session = Session(Role.PROBE, TOKEN, session_id=session_id)
        self.now = 0.0
        self._feed(self.session.start(), Established)

    def _feed(self, actions, wanted):
        self.now += 1.0
        replies = self.core.on_bytes(wire(actions), self.now)
        delivered = [action
                     for frame_actions in self.session.on_bytes(replies, self.now)
                     for action in frame_actions if isinstance(action, wanted)]
        assert len(delivered) == 1, replies
        return delivered[0]

    def reset(self):
        atr = self._feed(self.session.send_reset(), DeliverAtr).atr
        return atr, Timing(self.now)

    def exchange(self, cmd):
        resp = self._feed(self.session.send_command(cmd), DeliverResponse).response
        return resp, Timing(self.now)

    def idle(self, ms):
        self.now += ms


def established(core: ProviderCore) -> Session:
    probe = Session(Role.PROBE, TOKEN, session_id=7)
    list(probe.on_bytes(core.on_bytes(wire(probe.start()), 1.0), 1.0))
    return probe


def patched(raw: bytes, index: int, value: bytes) -> bytes:
    return raw[:index] + value + raw[index + len(value):]


FAULTS = {
    "non-frame bytes": (
        lambda core: core.on_bytes(b"GET / HTTP/1.1\r\n\r\n", 1.0),
        b"BadFrame: BadMagic", 0),
    "bad version": (
        lambda core: core.on_bytes(patched(hello(), 2, b"\x02"), 1.0),
        b"BadFrame: BadVersion", 0),
    "oversize length": (
        lambda core: core.on_bytes(patched(hello(), 12, b"\x10\x01"), 1.0),
        b"BadFrame: Oversize", 0),
    "ApduReq before Reset": (
        lambda core: core.on_bytes(
            wire(established(core).send_command(STATUS)), 2.0),
        b"AlternationBroken: ApduReq before Reset", 7),
    "bad token": (
        lambda core: core.on_bytes(hello(token="wrong"), 1.0),
        b"BadToken", 7),
    "provider role octet": (
        lambda core: core.on_bytes(patched(hello(), 14, b"\x02"), 1.0),
        b"BadRole: Hello role octet 02", 7),
    "unknown role octet": (
        lambda core: core.on_bytes(patched(hello(), 14, b"\xff"), 1.0),
        b"BadRole: Hello role octet FF", 7),
    "no Hello by deadline_ms": (
        lambda core: core.on_deadline(core.deadline_ms),
        b"HandshakeTimeout", 0),
}


class TestProviderCore:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_is_one_error_frame_then_closed(self, fault):
        feed, payload, session_id = FAULTS[fault]
        core = ProviderCore(demo_profile(), TOKEN, now_ms=0.0)
        (frame,) = FrameDecoder().feed(feed(core))
        assert frame.msg_type == MessageType.ERROR
        assert frame.payload.startswith(payload)
        assert frame.session_id == session_id
        assert core.closed
        assert core.on_bytes(hello(), 3.0) == b""
        assert core.on_deadline(float("inf")) == b""

    def test_handshake_deadline_holds_until_hello(self):
        core = ProviderCore(demo_profile(), TOKEN, now_ms=500.0)
        assert core.deadline_ms == 500.0 + HANDSHAKE_TIMEOUT_MS
        assert core.on_deadline(core.deadline_ms - 1) == b""
        assert not core.closed
        (ack,) = FrameDecoder().feed(core.on_bytes(hello(), 600.0))
        assert ack.msg_type == MessageType.HELLO_ACK
        assert core.deadline_ms is None
        assert core.on_deadline(float("inf")) == b""
        assert not core.closed

    def test_bytes_after_the_deadline_do_not_extend_it(self):
        core = ProviderCore(demo_profile(), TOKEN, now_ms=0.0)
        assert core.on_bytes(hello()[:5], 1.0) == b""  # a partial Hello
        (frame,) = FrameDecoder().feed(
            core.on_bytes(hello()[5:], HANDSHAKE_TIMEOUT_MS))
        assert frame.payload.startswith(b"HandshakeTimeout")
        assert core.closed

    def test_demo_session_matches_the_socket_path(self, tmp_path):
        profile = demo_profile()
        rules = rules_from_json(iccid_rule_json())
        session_id = 0x5E55

        def modem():
            return ModemSim(verify_aka=True, k=profile.k,
                            op_salt=profile.op_salt, seed=11)

        core = ProviderCore(profile, TOKEN, now_ms=0.0, rules=rules,
                            trace_dir=str(tmp_path / "core"))
        core_seen = Tracer(session_id)
        core_report = modem().run(CoreLink(core, session_id), tracer=core_seen)
        core.finish()
        core_trace = read_provider_trace(tmp_path / "core", session_id)

        server = ProviderServer(profile, TOKEN, rules=rules,
                                trace_dir=str(tmp_path / "socket"))
        server.start()
        try:
            link = connect(server, session_id=session_id)
            socket_seen = Tracer(session_id)
            socket_report = modem().run(link, tracer=socket_seen)
            socket_trace = read_provider_trace(tmp_path / "socket", session_id)
            link.close()
        finally:
            server.stop()

        def untimed(events):
            return [dataclasses.replace(e, ts_ms=0) for e in events]

        assert core_report.failure is socket_report.failure is None
        assert untimed(core_seen.events) == untimed(socket_seen.events)
        assert len(core_trace) == 2 * core_report.exchanges
        assert untimed(core_trace) == untimed(socket_trace)

    def test_trace_dir_is_made_when_missing_and_reused(self, tmp_path):
        profile = demo_profile()
        trace_dir = tmp_path / "missing" / "traces"
        for session_id in (0x71, 0x72):  # the second finds the directory
            core = ProviderCore(profile, TOKEN, now_ms=0.0,
                                trace_dir=str(trace_dir))
            report = ModemSim(verify_aka=True, k=profile.k,
                              op_salt=profile.op_salt).run(
                                  CoreLink(core, session_id))
            core.finish()
            assert report.failure is None
            assert len(read_provider_trace(trace_dir, session_id)) == \
                2 * report.exchanges

    def test_no_trace_dir_builds_no_tracer(self):
        profile = demo_profile()
        core = ProviderCore(profile, TOKEN, now_ms=0.0)
        report = ModemSim(verify_aka=True, k=profile.k,
                          op_salt=profile.op_salt).run(CoreLink(core, 0x7E))
        core.finish()
        assert report.failure is None and report.exchanges == 13
        assert core.tracer is None


FUZZ_COMMANDS = [
    STATUS,
    CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x3F\x00"),
    CommandApdu(0x00, 0xB0, 0x00, 0x00, le=10),
    CommandApdu(0x80, 0x12, 0x00, 0x00, le=16),
]


def fuzz_wire(rng, session_id) -> bytes:
    """A Hello, then Resets, ApduReqs, keepalives and unknown types, with
    a few seq and session-id faults; one byte corrupted in 10 % of them."""
    token = TOKEN if rng.random() < 0.95 else "wrong"
    frames = [frame_encode(MessageType.HELLO, session_id, 0,
                           b"\x01" + token.encode())]
    for seq in range(1, rng.randint(1, 30)):
        kind = "reset" if seq == 1 and rng.random() < 0.7 else rng.choice(
            ("reset",) + ("apdu",) * 12 + ("keepalive",) * 3 + ("other",))
        if kind == "reset":
            msg_type, payload = MessageType.RESET, b""
        elif kind == "apdu":
            msg_type = MessageType.APDU_REQ
            payload = (rng.randbytes(rng.randint(0, 6)) if rng.random() < 0.05
                       else encode_command(rng.choice(FUZZ_COMMANDS)))
        elif kind == "keepalive":
            msg_type, payload = MessageType.KEEPALIVE, rng.randbytes(8)
        else:  # an unknown type, or one the provider must not receive
            msg_type = rng.choice((0x00, 0x09, 0x33, 0xFF, MessageType.HELLO,
                                   MessageType.ATR_IND, MessageType.APDU_RESP,
                                   MessageType.CLOSE))
            payload = rng.randbytes(rng.randint(0, 4))
        fault = rng.random()
        frames.append(frame_encode(
            msg_type,
            session_id ^ 1 if 0.01 <= fault < 0.02 else session_id,
            seq + rng.choice((-1, 1, 5)) if fault < 0.01 else seq,
            payload))
    wire = b"".join(frames)
    if rng.random() < 0.1:
        i = rng.randrange(len(wire))
        wire = patched(wire, i, bytes([wire[i] ^ rng.randint(1, 255)]))
    return wire


DEMO_RULES = pathlib.Path(__file__).resolve().parents[1] / "demo" / "rules.json"


class TestRenderCacheOverSockets:
    """Provider traces of seeded loopback sessions are the same files,
    ``ts_ms`` aside, with the render cache cleared before every event."""

    SESSIONS = 60

    def trace_digests(self, trace_dir):
        profile = demo_profile()
        server = ProviderServer(profile, TOKEN,
                                rules=rules_from_json(DEMO_RULES.read_text()),
                                trace_dir=str(trace_dir))
        server.start()
        try:
            for n in range(self.SESSIONS):
                link = connect(server, session_id=0x600 + n)
                try:
                    report = ModemSim(verify_aka=True, k=profile.k,
                                      op_salt=profile.op_salt, seed=n).run(
                                          link, tracer=Tracer(0x600 + n))
                finally:
                    link.close()
                assert report.failure is None, n
        finally:
            server.stop()  # finishes every session: each file is complete
        digests = {}
        for path in trace_dir.glob("*.jsonl"):
            lines = path.read_text().splitlines()
            assert len(lines) == 2 * report.exchanges, path.name
            for line in lines:
                assert json.dumps(json.loads(line), separators=(",", ":")) == line
            masked = re.sub(r'^\{"ts_ms":\d+,', '{"ts_ms":0,', path.read_text(),
                            flags=re.M)
            digests[path.name] = hashlib.sha256(masked.encode()).hexdigest()
        assert len(digests) == self.SESSIONS
        return digests

    def test_sixty_sessions(self, tmp_path, monkeypatch):
        cached = self.trace_digests(tmp_path / "cached")
        texts = [p.read_text() for p in (tmp_path / "cached").glob("*.jsonl")]
        assert all(FLAG_REWRITTEN in t and FLAG_SILENT_SMS in t for t in texts)
        assert tracer_mod._render.cache_info().hits > 20 * self.SESSIONS

        render = tracer_mod._render

        def uncached(*key):
            render.cache_clear()
            return render(*key)

        monkeypatch.setattr(tracer_mod, "_render", uncached)
        assert self.trace_digests(tmp_path / "cleared") == cached
        assert render.cache_info().hits == 0


class TestProviderCoreFuzz:
    def test_seeded_frame_streams(self, tmp_path):
        rng = random.Random(0xF422)
        answered_in_all = 0
        for n in range(2500):
            core = ProviderCore(demo_profile(), TOKEN, now_ms=0.0,
                                trace_dir=str(tmp_path))
            wire, out, pos = fuzz_wire(rng, n + 2), b"", 0
            while pos < len(wire):
                size = rng.randint(1, 39)
                out += core.on_bytes(wire[pos:pos + size], float(pos))
                pos += size
            core.finish()

            decoder = FrameDecoder()
            frames = decoder.feed(out)
            assert decoder.pending == 0, n
            assert [f.seq for f in frames] == list(range(len(frames))), n
            types = [f.msg_type for f in frames]
            assert types.count(MessageType.ERROR) <= 1, n
            answered = types.count(MessageType.APDU_RESP)
            if answered:  # the card answers nothing before a Reset
                first = types.index(MessageType.APDU_RESP)
                assert MessageType.ATR_IND in types[:first], n
            for path in tmp_path.iterdir():
                assert len(read_trace(path.read_text().splitlines())) == \
                    2 * answered, n
                path.unlink()
            answered_in_all += answered
        assert answered_in_all > 2500  # most streams reach the card

    def test_output_does_not_depend_on_segmentation(self, tmp_path):
        # The whole stream in one read and in random reads of 1-39 bytes,
        # at one fixed time, give the same bytes out and the same traces.
        rng = random.Random(0x5E6)
        for n in range(1000):
            wire = fuzz_wire(rng, n + 2)
            seen = []
            for split in (False, True):
                trace_dir = tmp_path / f"split-{split}"
                core = ProviderCore(demo_profile(), TOKEN, now_ms=0.0,
                                    trace_dir=str(trace_dir))
                out, pos = b"", 0
                while pos < len(wire):
                    size = rng.randint(1, 39) if split else len(wire)
                    out += core.on_bytes(wire[pos:pos + size], 5.0)
                    pos += size
                core.finish()
                traces = {}
                for path in trace_dir.glob("*.jsonl"):
                    traces[path.name] = path.read_bytes()
                    path.unlink()
                seen.append((out, traces))
            assert seen[0] == seen[1], n


# -- provider faults over real sockets ------------------------------------------


def read_until_closed(sock):
    """Every frame the provider sends before it closes the connection."""
    decoder = FrameDecoder()
    frames = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return frames
        frames.extend(decoder.feed(chunk))


class TestProviderFaultsOverSockets:
    def test_non_frame_stream_gets_error_frame_and_close(self, provider):
        with socket.create_connection(provider.address, timeout=5) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: simlink\r\n\r\n")
            (frame,) = read_until_closed(sock)
        assert frame.msg_type == MessageType.ERROR
        assert frame.payload.startswith(b"BadFrame: BadMagic")

    def test_apdu_before_reset_names_the_violation(self, provider):
        link = connect(provider)
        with pytest.raises(LinkClosed, match="AlternationBroken: ApduReq before Reset"):
            link.exchange(STATUS)
        link.close()

    def test_silent_connections_close_at_the_handshake_deadline(self, provider,
                                                                monkeypatch):
        monkeypatch.setattr(relay, "HANDSHAKE_TIMEOUT_MS", 200.0)
        baseline = threading.active_count()
        start = time.monotonic()
        socks = [socket.create_connection(provider.address, timeout=5)
                 for _ in range(5)]
        try:
            for sock in socks:
                (frame,) = read_until_closed(sock)
                assert frame.payload.startswith(b"HandshakeTimeout")
            assert time.monotonic() - start < 0.2 + 1.0
        finally:
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 2.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline

    def test_stop_ends_a_live_session(self):
        server = ProviderServer(demo_profile(), TOKEN)
        server.start()
        link = connect(server)
        try:
            link.reset()
            server.stop()
            with pytest.raises(LinkClosed):
                link.exchange(STATUS)
        finally:
            link.close()


# -- the probe over real sockets: NULL stalling and a hostile provider ----------


class DelayProxy:
    """A loopback proxy for one connection to ``upstream``: it forwards
    each chunk half a round trip after reading it, in each direction."""

    def __init__(self, upstream, rtt_ms: float):
        self.upstream = upstream
        self.delay_s = rtt_ms / 2000.0
        self._server = socket.create_server(("127.0.0.1", 0))
        self.endpoint = "127.0.0.1:%d" % self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._accept_one, daemon=True)
        self._thread.start()

    def _accept_one(self):
        client, _ = self._server.accept()
        client.settimeout(5)
        server = socket.create_connection(self.upstream, timeout=5)
        pumps = [threading.Thread(target=self._pump, args=pair, daemon=True)
                 for pair in ((client, server), (server, client))]
        for pump in pumps:
            pump.start()
        for pump in pumps:
            pump.join()
        client.close()
        server.close()

    def _pump(self, src, dst):
        try:
            while chunk := src.recv(65536):
                time.sleep(self.delay_s)
                dst.sendall(chunk)
            dst.shutdown(socket.SHUT_WR)
        except OSError:  # the other direction closed first
            pass

    def close(self):
        self._thread.join(timeout=5)
        self._server.close()
        assert not self._thread.is_alive()


AGREEMENT_RTTS = [0.0, 5.0, 40.0, 80.0]
# A socket wait only ever exceeds its RTT (the proxy sleeps at least half
# of it each way), so the budget sits just under the 40 ms cell, and the
# 5 ms cell has 33 ms of room. It was a 20 ms cell, with 18 ms of room,
# whose session timed out about once in a dozen runs. Why that session
# waited so long is not confirmed: waits of up to 13 ms over the RTT were
# seen in sessions that passed, never the one that failed. A cell that
# fails prints every wait of its session.
AGREEMENT_BUDGET_MS = 38.0
AGREEMENT_CADENCE_MS = 10.0


class WaitLoggingLink(ProbeLink):
    """A ProbeLink that keeps the wait, in ms, of every exchange it times."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waits = []

    def _timing(self, start):
        timing = ProbeLink._timing(start)
        self.waits.append(round(timing.wait_ms, 1))
        return timing


class TestStallingOverSockets:
    """The real probe stalls as the lab's front-end does: over a delayed
    tunnel, which sessions survive matches ``lab_sweep`` cell for cell.
    Only success is compared: a socket reset costs a round trip, while a
    lab reset costs none."""

    def socket_session(self, server, rtt_ms):
        """(1.0 if the session completed, else 0.0; its waits in ms)."""
        profile = demo_profile()
        proxy = DelayProxy(server.address, rtt_ms)
        try:
            link = WaitLoggingLink(proxy.endpoint, TOKEN).connect()
            modem = ModemSim(waiting_time_ms=AGREEMENT_BUDGET_MS, verify_aka=True,
                             k=profile.k, op_salt=profile.op_salt)
            report = modem.run(link)
            link.close()
        finally:
            proxy.close()
        return (1.0 if report.completed else 0.0), link.waits

    @pytest.mark.parametrize("cadence_ms", [0.0, AGREEMENT_CADENCE_MS],
                             ids=["stall-off", "stall-on"])
    def test_socket_success_matches_the_lab(self, cadence_ms, monkeypatch):
        monkeypatch.setattr(relay, "NULL_INTERVAL_MS", cadence_ms)
        lab = lab_sweep(AGREEMENT_RTTS,
                        StallPolicy(enabled=cadence_ms > 0,
                                    null_interval_ms=cadence_ms),
                        repetitions=1, waiting_time_ms=AGREEMENT_BUDGET_MS)
        server = ProviderServer(demo_profile(), TOKEN)
        server.start()
        try:
            sessions = [self.socket_session(server, rtt) for rtt in AGREEMENT_RTTS]
        finally:
            server.stop()
        real = [success for success, _ in sessions]
        waits = "waits (ms) by RTT: %r" % {
            rtt: session_waits
            for rtt, (_, session_waits) in zip(AGREEMENT_RTTS, sessions)}
        assert real == [row.success_rate for row in lab], waits
        # The grid straddles the budget, so both outcomes are exercised.
        assert real == ([1.0, 1.0, 0.0, 0.0] if cadence_ms == 0
                        else [1.0] * 4), waits


class TestHostileProvider:
    def test_non_frame_answer_gets_bad_frame_error(self):
        received = []

        def fake_provider(listener):
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                decoder = FrameDecoder()
                while not decoder.feed(conn.recv(65536)):  # the Hello
                    assert decoder.pending, "closed before Hello"
                conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")
                while chunk := conn.recv(65536):
                    received.append(chunk)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=fake_provider, args=(listener,),
                                      daemon=True)
            thread.start()
            link = ProbeLink("127.0.0.1:%d" % listener.getsockname()[1], TOKEN,
                             timeout_s=5)
            with pytest.raises(ProtocolViolation) as err:
                link.connect()
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert err.value.kind == "BadFrame"
        (frame,) = FrameDecoder().feed(b"".join(received))
        assert frame.msg_type == MessageType.ERROR
        assert frame.payload.startswith(b"BadFrame: BadMagic")

    def test_a_provider_that_never_answers_is_link_closed(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            link = ProbeLink("127.0.0.1:%d" % listener.getsockname()[1], TOKEN,
                             timeout_s=0.05)
            conn, _ = listener.accept()
            with conn, pytest.raises(LinkClosed, match="read failed: timed out"):
                link.connect()
        assert link.channel.sock.fileno() == -1

    def test_a_provider_gone_silent_mid_session_ends_it_link_closed(self):
        def answers_twice(listener):  # the Hello and the Reset
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                core = ProviderCore(demo_profile(), TOKEN, now_ms=0.0)
                for _ in range(2):
                    conn.sendall(core.on_bytes(conn.recv(65536), 0.0))
                while conn.recv(65536):
                    pass

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=answers_twice, args=(listener,),
                                      daemon=True)
            thread.start()
            link = ProbeLink("127.0.0.1:%d" % listener.getsockname()[1], TOKEN,
                             timeout_s=0.5).connect()
            report = ModemSim().run(link)
            assert report.failure == "LinkClosed(read failed: timed out)"
            assert report.completed_phases == ["reset"]
            link.channel.sock.close()  # the last send fails: close() swallows it
            link.close()
            thread.join(timeout=5)
            assert not thread.is_alive()

"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live;
without -s pytest still shows them for failing criteria.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from simlink.apdu import (
    CommandApdu,
    INS_SELECT,
    decode_command,
    encode_command,
    parse_atr,
)
from simlink.broker import BrokerClient, BrokerServer, Registry
from simlink.errors import NoMatch
from simlink.lab import StallPolicy, lab_sweep
from simlink.modem import ModemSim, default_script
from simlink.relay import ProbeLink, ProviderServer
from simlink.tracer import detect_silent_sms, read_trace, rules_from_json
from simlink.tunnel import MessageType, TunnelFrame, frame_decode, frame_encode
from simlink.vsim import (
    Card,
    demo_profile,
    encode_iccid,
    luhn_check_digit,
    toy_aka,
)

TOKEN = "acceptance-token"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL")
        raise
    print(f"acceptance {number} ({name}): PASS")


def make_iccid(n):
    base = f"89430177{n:010d}"
    return base + luhn_check_digit(base)


# -- 1: codec soundness -------------------------------------------------------

ATR_CORPUS = [
    ("3B00", True), ("3F00", True), ("3B800181", True), ("3B", False),
    ("3B800180", False), ("3B8001", False), ("3D00", False),
    ("3B02AABB", True), ("3B02AA", False), ("3B1094", True), ("3B10", False),
    ("3B9794008031E073FE211B", True), ("3B0000", False), ("3B8001815A", False),
    ("3BF011223300", True), ("3B801141D0", True), ("3B7000000A", True),
    ("3B7000", False), ("3B0F" + "00" * 15, True), ("3B0F" + "00" * 14, False),
    ("3B80" + "8101" * 16, False), ("3B01AABB", False),
]


def test_criterion_1_codec_soundness():
    with criterion(1, "codec soundness"):
        started = time.monotonic()
        rng = random.Random(0xACCE97)

        for i in range(10_000):
            case = 1 + i % 4
            data = b""
            le = None
            if case in (3, 4):
                data = bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 255)))
            if case == 2:
                le = rng.randint(1, 255)
            elif case == 4:
                le = rng.randint(1, 256)
            cmd = CommandApdu(rng.randrange(256), rng.randrange(256),
                              rng.randrange(256), rng.randrange(256),
                              data=data, le=le)
            assert decode_command(encode_command(cmd)) == cmd

        for _ in range(1_000):
            frame = TunnelFrame(
                rng.choice(list(MessageType)),
                rng.randrange(1 << 32), rng.randrange(1 << 32),
                bytes(rng.randrange(256) for _ in range(rng.randint(0, 4096))),
            )
            decoded, rest = frame_decode(
                frame_encode(frame.msg_type, frame.session_id,
                             frame.seq, frame.payload)
            )
            assert decoded == frame and rest == b""

        assert len(ATR_CORPUS) >= 20
        for raw_hex, ok in ATR_CORPUS:
            raw = bytes.fromhex(raw_hex)
            if ok:
                assert parse_atr(raw).to_bytes() == raw
            else:
                with pytest.raises(Exception):
                    parse_atr(raw)

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"codec fuzz took {elapsed:.1f}s"


# -- 2 & 3: loopback stack ----------------------------------------------------


@pytest.fixture()
def stack(tmp_path):
    registry = Registry()
    broker = BrokerServer(registry, TOKEN)
    broker.start()
    provider = ProviderServer(demo_profile(), TOKEN,
                              trace_dir=str(tmp_path / "traces"))
    provider.start()
    client = BrokerClient(broker.endpoint, TOKEN)
    client.request("register_sim", {
        "iccid": demo_profile().iccid,
        "tags": ["demo"],
        "provider_endpoint": provider.endpoint,
    })
    yield broker, provider, client, tmp_path
    client.close()
    provider.stop()
    broker.stop()


def test_criterion_2_end_to_end_loopback(stack):
    with criterion(2, "end-to-end loopback"):
        broker, provider, client, tmp_path = stack
        started = time.monotonic()
        profile = demo_profile()
        client.request("register_probe", {"probe_id": "p-acc2",
                                          "location_tag": "desk"})
        reply = client.request("request_lease",
                               {"probe_id": "p-acc2", "tags": ["demo"]})
        session_id = 0xACC2
        link = ProbeLink(reply["provider_endpoint"], TOKEN,
                         session_id=session_id).connect()
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(link)
        link.close()
        client.request("release", {"lease_id": reply["lease"]["lease_id"]})

        assert report.failure is None
        assert report.completed_phases == [p.name for p in default_script()]
        assert report.aka_ok is True
        assert report.iccid == profile.iccid

        # The provider writes each event once, flags included, as it goes.
        trace_path = tmp_path / "traces" / f"session-{session_id:08x}.jsonl"
        events = read_trace(trace_path.read_text().splitlines())
        requests = [e for e in events if e.direction == "m2s"]
        responses = [e for e in events if e.direction == "s2m"]
        assert len(requests) == len(responses)
        persisted = [e for e in events if "silent_sms" in e.flags]
        assert len(persisted) == 1  # the trace itself carries exactly one flag
        assert detect_silent_sms(events) == persisted

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"loopback session took {elapsed:.1f}s"


def test_criterion_3_attach_within_a_second(stack):
    with criterion(3, "attach within seconds"):
        broker, provider, client, _ = stack
        iccid = demo_profile().iccid
        client.request("register_probe", {"probe_id": "p-acc3",
                                          "location_tag": "desk"})
        for rep in range(20):
            started = time.monotonic()
            reply = client.request("request_lease",
                                   {"probe_id": "p-acc3", "iccid": iccid})
            link = ProbeLink(reply["provider_endpoint"], TOKEN).connect()
            link.reset()
            resp, _ = link.exchange(
                CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x3F\x00")
            )
            elapsed = time.monotonic() - started
            link.close()
            client.request("release", {"lease_id": reply["lease"]["lease_id"]})
            assert resp.sw == 0x9000
            assert elapsed < 1.0, f"rep {rep}: {elapsed:.3f}s"


# -- 4: latency robustness ----------------------------------------------------


def test_criterion_4_latency_robustness():
    with criterion(4, "latency robustness"):
        started = time.monotonic()
        grid = [0.0, 150.0, 300.0, 600.0, 900.0]
        stalled = lab_sweep(grid, StallPolicy(True, 100.0), repetitions=3,
                            seed=4, jitter_ms=0.0, waiting_time_ms=300.0)
        assert all(row.success_rate == 1.0 for row in stalled)

        bare = lab_sweep(grid, StallPolicy(False), repetitions=3,
                         seed=4, jitter_ms=0.0, waiting_time_ms=300.0)
        for row in bare:
            if row.rtt_ms > 300.0:
                assert row.success_rate == 0.0, row
        successes = [row.success_rate == 1.0 for row in bare]
        assert successes == sorted(successes, reverse=True)  # monotone in rtt

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"sweep took {elapsed:.1f}s"


# -- 5: lease exclusivity and crash recovery -----------------------------------


def test_criterion_5_lease_exclusivity_and_recovery(tmp_path):
    with criterion(5, "lease exclusivity + crash recovery"):
        rng = random.Random(55)
        registry = Registry()
        iccid = make_iccid(1)
        registry.register_sim(iccid, tags={"X"})
        for i in range(100):
            registry.register_probe(f"p{i}", "loc")

        for trial in range(50):
            grants = []
            max_active = 0
            stop = threading.Event()

            def watcher():
                nonlocal max_active
                while not stop.is_set():
                    max_active = max(max_active, len(registry.leases))

            def requestor(i, delay):
                time.sleep(delay)
                try:
                    grants.append(registry.request_lease(f"p{i}", tags={"X"}))
                except NoMatch:
                    pass

            watch = threading.Thread(target=watcher, daemon=True)
            watch.start()
            threads = [
                threading.Thread(target=requestor,
                                 args=(i, rng.random() * 0.002))
                for i in range(100)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stop.set()
            watch.join()
            assert len(grants) == 1, f"trial {trial}: {len(grants)} grants"
            assert max_active <= 1
            registry.release(grants[0].lease_id)

        # Crash recovery: run a broker daemon, kill -9, replay its log.
        log_path = tmp_path / "broker-state.log"
        env = dict(os.environ, SIMLINK_TOKEN=TOKEN,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "simlink", "broker",
             "--listen", "127.0.0.1:0", "--state-log", str(log_path)],
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"listening on ([\d.]+:\d+)", banner)
            assert match, banner
            with BrokerClient(match.group(1), TOKEN) as client:
                for i in range(5):
                    client.request("register_sim", {"iccid": make_iccid(i),
                                                    "tags": ["AT"],
                                                    "provider_endpoint": f"h:{i}"})
                client.request("register_probe", {"probe_id": "pk",
                                                  "location_tag": "x"})
                lease = client.request("request_lease",
                                       {"probe_id": "pk", "tags": ["AT"]})["lease"]
                client.request("release", {"lease_id": lease["lease_id"]})
                client.request("request_lease", {"probe_id": "pk", "tags": ["AT"]})
                pre_crash = client.request("list")
            pre_crash.pop("ok")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stderr.close()

        replayed = Registry.replay(str(log_path))
        assert replayed.list_state() == pre_crash
        replayed.close()


# -- 6: rewrite correctness ----------------------------------------------------

SWAPPED_ICCID = "8944999999999999999"


def run_probe_session(tmp_path, rules, tag):
    provider = ProviderServer(demo_profile(), TOKEN, rules=rules,
                              trace_dir=str(tmp_path / f"traces-{tag}"))
    provider.start()
    try:
        profile = demo_profile()
        session_id = 0xACC6
        link = ProbeLink(provider.endpoint, TOKEN, session_id=session_id).connect()
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(link)
        link.close()
        path = tmp_path / f"traces-{tag}" / f"session-{session_id:08x}.jsonl"
        deadline = time.monotonic() + 2.0
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return report, read_trace(path.read_text().splitlines())
    finally:
        provider.stop()


def test_criterion_6_rewrite_correctness(tmp_path):
    with criterion(6, "rewrite correctness"):
        original_body = encode_iccid(demo_profile().iccid)
        rules = rules_from_json(json.dumps([{
            "rule_id": "iccid-swap",
            "on": "response",
            "match": {"data_prefix": original_body[:4].hex()},
            "action": {"kind": "replace_response_data",
                       "data_hex": encode_iccid(SWAPPED_ICCID).hex()},
        }]))

        report, provider_events = run_probe_session(tmp_path, rules, "with")
        assert report.failure is None
        assert report.iccid == SWAPPED_ICCID  # probe side sees the rule's value
        rewritten = [e for e in provider_events if "rewritten" in e.flags]
        assert len(rewritten) == 1
        preserved = bytes.fromhex(rewritten[0].decoded["original_hex"])[:-2]
        assert preserved == original_body  # provider trace holds the original

        report2, bare_events = run_probe_session(tmp_path, [], "without")
        assert report2.iccid == demo_profile().iccid
        assert not any("rewritten" in e.flags for e in bare_events)
        assert len(bare_events) == len(provider_events)
        for bare, ruled in zip(bare_events, provider_events):
            if "rewritten" in ruled.flags:
                assert bare.raw_hex == ruled.decoded["original_hex"]
            else:
                assert bare.raw_hex == ruled.raw_hex  # byte-identical pass-through


# -- 7: AKA oracle equivalence ---------------------------------------------------


def reference_aka(k, op_salt, rand, sqn):
    """Independent brute-force reference, written against the derivation
    rules only (no shared code with the implementation)."""
    m = bytearray(16)
    for i in range(16):
        m[i] = k[i] ^ rand[i] ^ op_salt[i]
    res = bytes(m[0:8])
    ck = bytes(m[1:]) + bytes(m[:1])
    ik = bytes(m[2:]) + bytes(m[:2])
    mac = bytearray(8)
    for i in range(8):
        mac[i] = m[i] ^ m[i + 8]
    sqn_bytes = [(sqn >> (8 * (5 - i))) & 0xFF for i in range(6)]
    autn = bytes(sqn_bytes[i] ^ m[i] for i in range(6)) + b"\x80\x00" + bytes(mac)
    return res, ck, ik, autn


def test_criterion_7_aka_oracle_equivalence():
    with criterion(7, "challenge/response oracle equivalence"):
        rng = random.Random(0x77)
        for _ in range(100):
            k = bytes(rng.randrange(256) for _ in range(16))
            op_salt = bytes(rng.randrange(256) for _ in range(16))
            rand = bytes(rng.randrange(256) for _ in range(16))
            sqn = rng.randrange(1 << 48)
            got = toy_aka(k, op_salt, rand, sqn)
            assert (got.res, got.ck, got.ik, got.autn) == \
                reference_aka(k, op_salt, rand, sqn)
        # The card's AUTHENTICATE answer equals the oracle too.
        profile = demo_profile()
        card = Card(profile)
        card.reset()
        rand = bytes(range(16))
        resp = card.process(CommandApdu(0x00, 0x88, 0x00, 0x81,
                                        data=rand, le=56))
        res, ck, ik, autn = reference_aka(profile.k, profile.op_salt,
                                          rand, profile.sqn)
        assert resp.data == res + ck + ik + autn

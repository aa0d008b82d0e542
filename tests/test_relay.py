"""Loopback tunnel tests: provider server + probe link over real sockets."""

import json

import pytest

from simlink.apdu import CommandApdu, INS_SELECT
from simlink.modem import ModemSim, default_script
from simlink.relay import LinkClosed, ProbeLink, ProviderServer
from simlink.tracer import Tracer, detect_silent_sms, read_trace, rules_from_json
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
        # rtt_samples is bounded; every round trip must still see its ack.
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
        assert report.completed_phases == [p.name for p in default_script()]
        # Probe-side conservation and silent-SMS visibility.
        m2s = [e for e in tracer.events if e.direction == "m2s"]
        s2m = [e for e in tracer.events if e.direction == "s2m"]
        assert len(m2s) == len(s2m)
        assert len(detect_silent_sms(tracer.events)) == 1

    def test_provider_writes_trace_file(self, provider, tmp_path):
        import time

        profile = demo_profile()
        session_id = 0xABCD
        link = connect(provider, session_id=session_id)
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(link)
        link.close()
        assert report.failure is None
        path = tmp_path / "traces" / f"session-{session_id:08x}.jsonl"
        events = []
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:  # close-time annotation is async
            if path.exists():
                events = read_trace(path.read_text().splitlines())
                if any("silent_sms" in e.flags for e in events):
                    break
            time.sleep(0.01)
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

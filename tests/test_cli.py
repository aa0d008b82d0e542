"""CLI behavior: flags, exit codes, machine-parsable stderr, loopback probe."""

import json
import socket
import threading

import pytest

from simlink import cli
from simlink.broker import BrokerClient, BrokerServer, Registry
from simlink.errors import ConfigError
from simlink.listener import Listener, parse_hostport
from simlink.relay import ProviderServer
from simlink.vsim import demo_profile

TOKEN = "cli-token"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLab:
    def test_rtt_zero_stall_off_row(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["lab", "--rtt-grid", "0", "--stall", "off", "--repetitions", "2"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rtt_ms,stall,success_rate,median_elapsed_ms"
        assert lines[1].startswith("0,off,1.0,")
        assert "rtt_ms" in err  # aligned table on stderr

    def test_acceptance_grid_shape(self, capsys):
        code, out, _ = run_cli(
            ["lab", "--rtt-grid", "0,150,300,600,900", "--stall", "on",
             "--repetitions", "2", "--seed", "5"],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        assert all(row.split(",")[2] == "1.0" for row in rows)

    def test_deterministic_given_seed(self, capsys):
        argv = ["lab", "--rtt-grid", "0,300", "--stall", "off",
                "--repetitions", "3", "--seed", "11"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            ["lab", "--rtt-grid", "0", "--stall", "off",
             "--repetitions", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text().startswith("rtt_ms,stall,")
        assert "rtt_ms" in out  # table goes to stdout when CSV went to a file

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run_cli(["lab", "--rtt-grid", "abc"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("flags", [
        ["--repetitions", "0"], ["--repetitions", "-3"],
        ["--rtt-grid", ""], ["--rtt-grid", ","], ["--rtt-grid", "-5"],
        ["--rtt-grid", "nan"], ["--rtt-grid", "0,inf"],
        ["--jitter-ms", "-1"], ["--null-interval-ms", "nan"],
        ["--null-interval-ms", "-1"], ["--null-interval-ms", "inf"],
        ["--waiting-time-ms", "-300"], ["--waiting-time-ms", "inf"],
    ])
    def test_bad_numbers_are_config_errors_before_any_sweep(self, capsys,
                                                            monkeypatch, flags):
        swept = []
        monkeypatch.setattr(cli, "lab_sweep", lambda *a, **k: swept.append(a))
        code, out, err = run_cli(["lab", *flags], capsys)
        assert (code, out, swept) == (2, "", [])
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"

    @pytest.mark.parametrize("interval", ["0", "1", "0.5", "1e-6"])
    def test_any_non_negative_null_interval_is_swept(
            self, capsys, monkeypatch, interval):
        stalls = []
        monkeypatch.setattr(cli, "lab_sweep",
                            lambda grid, stall, **k: stalls.append(stall) or [])
        code, _, err = run_cli(["lab", "--null-interval-ms", interval], capsys)
        assert code == 0, err
        assert [s.null_interval_ms for s in stalls] == [float(interval)]

    def test_sub_microsecond_cadence_bridges_a_long_round_trip(self, capsys):
        code, out, err = run_cli(
            ["lab", "--stall", "on", "--null-interval-ms", "1e-6",
             "--rtt-grid", "900", "--repetitions", "1"],
            capsys,
        )
        assert code == 0, err
        [row] = out.splitlines()[1:]
        assert row.split(",")[:3] == ["900", "on", "1.0"]


class TestTraceTool:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        from simlink.lab import VirtualLink
        from simlink.modem import ModemSim
        from simlink.tracer import Tracer
        from simlink.vsim import Card

        profile = demo_profile()
        path = tmp_path / "session.jsonl"
        tracer = Tracer(session_id=3, path=str(path))
        try:
            modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
            report = modem.run(VirtualLink(Card(profile), 0.0),
                               tracer=tracer)
        finally:
            tracer.close()
        assert report.failure is None
        return path

    def test_decode_prints_every_event(self, capsys, trace_file):
        code, out, _ = run_cli(["trace", "decode", str(trace_file)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(trace_file.read_text().splitlines())
        assert any("SELECT" in line and "file_id=2FE2" in line for line in lines)

    def test_grep_silent_sms_prints_exactly_one(self, capsys, trace_file):
        code, out, _ = run_cli(["trace", "grep-silent-sms", str(trace_file)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert "silent_sms" in doc["flags"]
        assert doc["decoded"]["proactive_type"] == "SEND_SHORT_MESSAGE"

    def test_several_files_decode_in_the_order_given(self, capsys, trace_file, tmp_path):
        head = tmp_path / "head.jsonl"
        head.write_text("".join(trace_file.read_text().splitlines(True)[:4]))
        outs = {}
        for argv in ([trace_file], [head], [trace_file, head], [head, trace_file]):
            code, outs[tuple(argv)], _ = run_cli(["trace", "decode", *map(str, argv)],
                                                 capsys)
            assert code == 0
        assert outs[trace_file, head] == outs[trace_file,] + outs[head,]
        assert outs[head, trace_file] == outs[head,] + outs[trace_file,]
        assert outs[trace_file, head] != outs[head, trace_file]

    def test_grep_flags_one_event_per_file(self, capsys, trace_file):
        _, one, _ = run_cli(["trace", "grep-silent-sms", str(trace_file)], capsys)
        code, out, _ = run_cli(["trace", "grep-silent-sms", str(trace_file),
                                str(trace_file)], capsys)
        assert code == 0
        assert out == one * 2 and len(out.splitlines()) == 2

    def test_a_fetch_and_its_terminal_response_in_two_files_flag_nothing(
            self, capsys, trace_file, tmp_path):
        lines = trace_file.read_text().splitlines(True)
        [cut] = [n for n, line in enumerate(lines)
                 if json.loads(line)["decoded"]["ins_name"] == "TERMINAL RESPONSE"
                 and json.loads(line)["dir"] == "m2s"]
        fetched, answered = tmp_path / "fetched.jsonl", tmp_path / "answered.jsonl"
        fetched.write_text("".join(lines[:cut]))
        answered.write_text("".join(lines[cut:]))
        code, out, _ = run_cli(["trace", "grep-silent-sms", str(fetched),
                                str(answered)], capsys)
        assert (code, out) == (0, "")
        joined = tmp_path / "joined.jsonl"
        joined.write_text(fetched.read_text() + answered.read_text())
        _, out, _ = run_cli(["trace", "grep-silent-sms", str(joined)], capsys)
        assert len(out.splitlines()) == 1

    def test_one_unreadable_file_prints_nothing_but_its_error(
            self, capsys, trace_file):
        code, out, err = run_cli(["trace", "decode", str(trace_file),
                                  "/nope/missing.jsonl"], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert "/nope/missing.jsonl" in json.loads(line)["detail"]

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run_cli(["trace", "decode", "/nope/missing.jsonl"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_directory_is_one_config_error_line(self, capsys, tmp_path):
        code, out, err = run_cli(["trace", "decode", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert str(tmp_path) in doc["detail"]


@pytest.fixture()
def broker_server():
    registry = Registry()
    server = BrokerServer(registry, TOKEN)
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def provider_server(broker_server):
    server = ProviderServer(demo_profile(), TOKEN)
    server.start()
    register_demo_sim(broker_server, server)
    yield server
    server.stop()


@pytest.fixture()
def hello_peer():
    """The endpoint of a peer that answers every line with ``hello``."""
    sock = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rwb") as stream:
                for _ in stream:
                    stream.write(b"hello\n")
                    stream.flush()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield "127.0.0.1:%d" % sock.getsockname()[1]
    sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
    sock.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def register_demo_sim(broker_server, provider):
    with BrokerClient(broker_server.endpoint, TOKEN) as client:
        client.request("register_sim", {
            "iccid": demo_profile().iccid,
            "tags": ["AT", "demo"],
            "provider_endpoint": provider.endpoint,
        })


class TestProbe:
    def test_no_sims_registered_reports_nomatch(self, capsys, monkeypatch,
                                                broker_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT"],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "NoMatch"

    def test_token_required(self, capsys, monkeypatch, broker_server):
        monkeypatch.delenv("SIMLINK_TOKEN", raising=False)
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT"],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("duration", ["0", "-2"])
    def test_bad_duration_is_config_error_before_any_request(
            self, capsys, monkeypatch, broker_server, duration):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             "--duration-s", duration],
            capsys,
        )
        assert code == 2
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert broker_server.registry.probes == {}

    @pytest.mark.parametrize("flags, script", [
        (["--waiting-time-ms", "nan"], None),
        (["--waiting-time-ms", "-300"], None),
        ([], '{"waiting_time_ms": NaN}'),
        ([], '{"waiting_time_ms": -1}'),
    ])
    def test_bad_waiting_budget_is_config_error_before_any_request(
            self, capsys, monkeypatch, tmp_path, broker_server, flags, script):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        if script is not None:
            path = tmp_path / "script.json"
            path.write_text(script)
            flags = ["--script", str(path)]
        code, out, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             *flags],
            capsys,
        )
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert "waiting" in doc["detail"]
        assert broker_server.registry.probes == {}

    def test_unknown_script_phase_is_config_error_before_any_request(
            self, capsys, monkeypatch, tmp_path, broker_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        path = tmp_path / "script.json"
        path.write_text('{"phases": [{"name": "reset"}, {"name": "bogus"}]}')
        code, out, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             "--script", str(path)],
            capsys,
        )
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert "unknown phase 'bogus'" in doc["detail"]
        assert broker_server.registry.probes == {}

    @pytest.mark.parametrize("phase, detail", [
        ('"count": -3', "not -3 and 0.0"),
        ('"count": 2.7', "not 2.7 and 0.0"),
        ('"period_ms": -5', "not 1 and -5.0"),
        ('"period_ms": NaN', "not 1 and nan"),
        ('"period_ms": Infinity', "not 1 and inf"),
    ], ids=["count-3", "count2.7", "period-5", "period-nan", "period-inf"])
    def test_bad_script_phase_is_config_error_before_any_request(
            self, capsys, monkeypatch, tmp_path, broker_server, phase, detail):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        path = tmp_path / "script.json"
        path.write_text('{"phases": [{"name": "reset"}, '
                        f'{{"name": "status_poll", {phase}}}]}}')
        code, out, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             "--script", str(path)],
            capsys,
        )
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert detail in doc["detail"]
        assert broker_server.registry.probes == {}

    def test_bad_lease_spec(self, capsys, monkeypatch, broker_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "nope"],
            capsys,
        )
        assert code == 2

    def test_trace_out_in_a_missing_directory_fails_before_any_request(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        log_path = tmp_path / "broker.log"
        registry = Registry(log_path=str(log_path))
        broker = BrokerServer(registry, TOKEN)
        broker.start()
        provider = ProviderServer(demo_profile(), TOKEN)
        provider.start()
        try:
            register_demo_sim(broker, provider)
            path = tmp_path / "missing" / "t.jsonl"
            code, out, err = run_cli(
                ["probe", "--broker", broker.endpoint, "--lease", "tag:AT",
                 "--trace-out", str(path)],
                capsys,
            )
            assert (code, out) == (2, "")
            [line] = err.splitlines()
            doc = json.loads(line)
            assert doc["error"] == "ConfigError"
            assert str(path) in doc["detail"]
            assert registry.probes == {}
        finally:
            provider.stop()
            broker.stop()
            registry.close()
        events = [json.loads(line)["event"]
                  for line in log_path.read_text().splitlines()]
        assert events == ["register_sim"]

    def test_full_loopback_probe(self, capsys, monkeypatch, tmp_path,
                                 broker_server, provider_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        profile = demo_profile()
        script = {
            "phases": [
                {"name": "reset"},
                {"name": "read_iccid"},
                {"name": "select_usim"},
                {"name": "read_imsi"},
                {"name": "authenticate", "count": 2},
                {"name": "status_poll", "count": 4},
                {"name": "proactive_fetch"},
            ],
            "verify": {"k_hex": profile.k.hex(),
                       "op_salt_hex": profile.op_salt.hex()},
        }
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))
        trace_path = tmp_path / "probe-trace.jsonl"
        code, out, err = run_cli(
            ["probe",
             "--broker", broker_server.endpoint,
             "--lease", "tag:AT",
             "--script", str(script_path),
             "--trace-out", str(trace_path),
             "--probe-id", "p-test",
             "--location", "lab"],
            capsys,
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["failure"] is None
        assert doc["aka_ok"] is True
        assert doc["iccid"] == profile.iccid
        assert doc["silent_sms_flags"] == 1
        assert doc["lease"]["iccid"] == profile.iccid
        assert trace_path.exists()
        # The lease is released on the way out.
        with BrokerClient(broker_server.endpoint, TOKEN) as client:
            listing = client.request("list")
        assert listing["sims"][0]["status"] == "Free"

    def test_a_failed_session_reports_its_failure_kind(
            self, capsys, monkeypatch, tmp_path, broker_server, provider_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        profile = demo_profile()
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({
            "phases": [{"name": "reset"}, {"name": "select_usim"},
                       {"name": "authenticate"}],
            "verify": {"k_hex": "00" * 16,  # not the card's key
                       "op_salt_hex": profile.op_salt.hex()},
        }))
        code, out, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             "--script", str(script_path)],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["failure"].startswith("AuthFailed(")
        assert doc["failure_kind"] == "AuthFailed"
        assert json.loads(err) == {"error": "SessionFailed",
                                   "detail": doc["failure"]}

    def test_failed_handshake_releases_the_lease(self, capsys, monkeypatch,
                                                 broker_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        provider = ProviderServer(demo_profile(), "another-token")
        provider.start()
        try:
            register_demo_sim(broker_server, provider)
            code, _, err = run_cli(
                ["probe", "--broker", broker_server.endpoint,
                 "--lease", "tag:AT", "--probe-id", "p-badtoken"],
                capsys,
            )
        finally:
            provider.stop()
        assert code == 1
        assert json.loads(err) == {"error": "LinkClosed", "detail": "BadToken"}
        registry = broker_server.registry
        assert registry.sims[demo_profile().iccid].status == "Free"
        assert registry.leases == {}

    def test_bad_provider_endpoint_releases_the_lease(self, capsys, monkeypatch,
                                                      broker_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        iccid = demo_profile().iccid
        # The control API refuses such an endpoint, so register it directly.
        broker_server.registry.register_sim(iccid, ["AT"], "no-port-here")
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT"],
            capsys,
        )
        assert code == 1
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "BrokerError"
        assert "no-port-here" in json.loads(line)["detail"]
        assert broker_server.registry.leases == {}
        assert broker_server.registry.sims[iccid].status == "Free"

    @pytest.mark.parametrize("endpoint", ["no-port-here", "127.0.0.1:", "h:99999"])
    def test_bad_broker_endpoint_is_config_error(self, capsys, monkeypatch,
                                                 endpoint):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(["probe", "--broker", endpoint, "--lease", "tag:AT"],
                               capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_a_peer_that_is_not_a_broker_is_one_error_line(self, capsys,
                                                          monkeypatch,
                                                          hello_peer):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, out, err = run_cli(
            ["probe", "--broker", hello_peer, "--lease", "tag:AT"], capsys)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {
            "error": "BrokerError",
            "detail": "BrokerError: reply is not a JSON object: b'hello\\n'"}

    def test_one_control_connection_per_probe_run(self, capsys, monkeypatch,
                                                  broker_server, provider_server):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        accepted, handled = [], []
        open_core = BrokerServer._open
        handle_line = BrokerServer._handle_line

        def counting_open(self, now_ms):
            accepted.append(now_ms)
            return open_core(self, now_ms)

        def counting_handle(self, line):
            handled.append(json.loads(line)["op"])
            return handle_line(self, line)

        monkeypatch.setattr(BrokerServer, "_open", counting_open)
        monkeypatch.setattr(BrokerServer, "_handle_line", counting_handle)
        code, _, err = run_cli(
            ["probe", "--broker", broker_server.endpoint, "--lease", "tag:AT",
             "--probe-id", "p-conn"],
            capsys,
        )
        assert code == 0, err
        assert handled == ["register_probe", "request_lease", "release"]
        assert len(accepted) == 1


class TestBrokerCmdConfig:
    def test_broker_requires_token(self, capsys, monkeypatch):
        monkeypatch.delenv("SIMLINK_TOKEN", raising=False)
        code, _, err = run_cli(["broker", "--listen", "127.0.0.1:0"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("log", [
        b"{not json\n",
        b'{"event":"bogus","ts":1}\n',
        b"[1]\n",
    ], ids=["bad-json", "no-body", "not-an-object"])
    def test_malformed_state_log_fails_before_binding(self, capsys, monkeypatch,
                                                      tmp_path, log):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        built = []
        monkeypatch.setattr(cli, "BrokerServer",
                            lambda *a, **k: built.append(a))
        path = tmp_path / "state.log"
        path.write_bytes(log)
        code, out, err = run_cli(
            ["broker", "--listen", "127.0.0.1:0", "--state-log", str(path)],
            capsys,
        )
        assert (code, out, built) == (2, "", [])
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert path.read_bytes() == log

    def test_state_log_in_a_missing_directory_fails_before_binding(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        built = []
        monkeypatch.setattr(cli, "BrokerServer",
                            lambda *a, **k: built.append(a))
        path = tmp_path / "missing" / "x.log"
        code, out, err = run_cli(
            ["broker", "--listen", "127.0.0.1:0", "--state-log", str(path)],
            capsys,
        )
        assert (code, out, built) == (2, "", [])
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert str(path) in doc["detail"]
        assert not path.parent.exists()

    def test_broker_serves_from_the_calling_thread_alone(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        before, entered = threading.active_count(), []

        def serve_forever(self):
            entered.append(threading.active_count())
            raise KeyboardInterrupt

        monkeypatch.setattr(BrokerServer, "serve_forever", serve_forever)
        code, _, _ = run_cli(["broker", "--listen", "127.0.0.1:0"], capsys)
        assert code == 0
        assert entered == [before]

    def test_provide_to_a_peer_that_is_not_a_broker_is_one_error_line(
            self, capsys, monkeypatch, hello_peer):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(["provide", "--broker", hello_peer,
                                "--listen", "127.0.0.1:0"], capsys)
        assert code == 1
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "BrokerError"

    def test_provide_bad_broker_endpoint_fails_before_binding(self, capsys,
                                                              monkeypatch):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        bound = []
        monkeypatch.setattr(ProviderServer, "__init__",
                            lambda self, *a, **k: bound.append(self))
        code, _, err = run_cli(["provide", "--broker", "no-port-here"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"
        assert bound == []

    def test_provide_mistyped_rule_fails_before_binding(self, capsys,
                                                       monkeypatch, tmp_path):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        bound = []
        monkeypatch.setattr(ProviderServer, "__init__",
                            lambda self, *a, **k: bound.append(self))
        path = tmp_path / "rules.json"
        path.write_text('[{"rule_id": "r", "on": "command", '
                        '"match": {"insx": 164}, "action": {"kind": "drop"}}]')
        code, out, err = run_cli(
            ["provide", "--broker", "127.0.0.1:1", "--rules", str(path)], capsys)
        assert (code, out, bound) == (2, "", [])
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert "a command rule cannot match 'insx'" in doc["detail"]

    def test_provide_profile_with_a_long_proactive_payload_fails_before_binding(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        bound = []
        monkeypatch.setattr(ProviderServer, "__init__",
                            lambda self, *a, **k: bound.append(self))
        doc = json.loads(demo_profile().to_json())
        doc["proactive"] = [{"kind": "send_short_message",
                             "payload_hex": bytes(300).hex()}]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["provide", "--broker", "127.0.0.1:1", "--profile", str(path)],
            capsys)
        assert (code, out, bound) == (2, "", [])
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert "300 octets, limit 240" in doc["detail"]

    @pytest.mark.parametrize("under", [False, True],
                             ids=["a-file", "under-a-file"])
    def test_provide_trace_dir_that_cannot_be_a_directory_fails_before_binding(
            self, capsys, monkeypatch, tmp_path, under):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        bound = []
        monkeypatch.setattr(Listener, "__init__",
                            lambda self, *a, **k: bound.append(self))
        path = tmp_path / "traces"
        path.write_text("")
        trace_dir = path / "sub" if under else path
        code, out, err = run_cli(
            ["provide", "--broker", "127.0.0.1:1", "--trace-dir", str(trace_dir)],
            capsys)
        assert (code, out, bound) == (2, "", [])
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert str(trace_dir) in doc["detail"]

    def test_provide_missing_profile_fails_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        code, _, err = run_cli(
            ["provide", "--broker", "127.0.0.1:1", "--profile", "/nope.json"],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"


def profile_without_imsi() -> str:
    doc = json.loads(demo_profile().to_json())
    del doc["imsi"]
    return json.dumps(doc)


MALFORMED_FILES = {
    "lab --profile": (["lab", "--profile"], profile_without_imsi()),
    "probe --script": (["probe", "--broker", "127.0.0.1:1", "--lease", "tag:AT",
                        "--script"], '{"phases": [{"count": 2}]}'),
    "provide --rules": (["provide", "--broker", "127.0.0.1:1", "--rules"],
                        '[{"rule_id": "r1", "on": "command"}]'),
    "trace decode": (["trace", "decode"], '{"dir": "m2s", "raw_hex": ""}\n'),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("fault", ["not JSON", "a field missing"])
    @pytest.mark.parametrize("loader", sorted(MALFORMED_FILES))
    def test_is_one_config_error_line_naming_the_file(
            self, capsys, monkeypatch, tmp_path, loader, fault):
        monkeypatch.setenv("SIMLINK_TOKEN", TOKEN)
        argv, lacking_a_field = MALFORMED_FILES[loader]
        path = tmp_path / "input.json"
        path.write_text("{not json" if fault == "not JSON" else lacking_a_field)
        code, out, err = run_cli([*argv, str(path)], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "ConfigError"
        assert str(path) in doc["detail"]


class TestParseHostport:
    @pytest.mark.parametrize("value, address", [
        ("127.0.0.1:7400", ("127.0.0.1", 7400)),
        (":0", ("127.0.0.1", 0)),
        ("7400", ("127.0.0.1", 7400)),
        ("host.example:65535", ("host.example", 65535)),
    ])
    def test_accepted(self, value, address):
        assert parse_hostport(value) == address

    @pytest.mark.parametrize("value", ["", "no-port-here", "h:", "h:-1",
                                       "h:65536", "h:\u00b2", "h:1 "])
    def test_refused(self, value):
        with pytest.raises(ConfigError):
            parse_hostport(value)

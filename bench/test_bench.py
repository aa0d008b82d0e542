"""Self-tests of the benchmark.

A minimal run of each workload must pass its checks, and a deliberately
wrong expectation must fail each check. Run with::

    python3 -m pytest bench
"""

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from simlink import relay, tunnel  # noqa: E402


def _read_json(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def _run_ops(workload, n, recorder=None):
    results = [workload.run_op(recorder) for _ in range(n)]
    return [error for _, _, errors in results for error in errors], results


# -- probe-session -------------------------------------------------------------


def test_probe_session_minimal_run_passes(tmp_path):
    workload = wl.ProbeSession(ROOT, 3, str(tmp_path))
    workload.setup()
    try:
        errors, results = _run_ops(workload, 3)
    finally:
        workload.teardown()
    assert errors == []
    assert all(len(steps) == 13 for _, steps, _ in results)


def test_probe_session_expects_the_rewritten_iccid():
    expect = wl.expected_session(_read_json("demo", "profile.json"),
                                 _read_json("demo", "rules.json"))
    assert expect.iccid != _read_json("demo", "profile.json")["iccid"]


def test_probe_session_wrong_iccid_fails(tmp_path):
    real = wl.expected_session(_read_json("demo", "profile.json"),
                               _read_json("demo", "rules.json"))
    wrong = dataclasses.replace(
        real, iccid=_read_json("demo", "profile.json")["iccid"])
    workload = wl.ProbeSession(ROOT, 3, str(tmp_path), expect=wrong)
    workload.setup()
    try:
        errors, _ = _run_ops(workload, 1)
    finally:
        workload.teardown()
    assert any(error.startswith("iccid ") for error in errors)


# -- lab-sweep -------------------------------------------------------------------


def test_lab_sweep_minimal_run_passes(tmp_path):
    workload = wl.LabSweep(ROOT, 3, str(tmp_path))
    workload.setup()
    try:
        errors, results = _run_ops(workload, 2)
        errors += workload.finish()
    finally:
        workload.teardown()
    assert errors == []
    assert all(steps for _, steps, _ in results)


def test_lab_sweep_flipped_cell_fails(tmp_path):
    flipped = wl.expected_cells()
    flipped[(900.0, False)] = 1.0  # stall off at 900 ms must in fact fail
    workload = wl.LabSweep(ROOT, 3, str(tmp_path), expected=flipped)
    workload.setup()
    try:
        errors, _ = _run_ops(workload, 1)
    finally:
        workload.teardown()
    assert any("rtt 900 stall off" in error for error in errors)


def test_lab_sweep_repeat_check_catches_different_rows(tmp_path):
    workload = wl.LabSweep(ROOT, 3, str(tmp_path))
    workload.setup()
    try:
        _run_ops(workload, 1)
        seed, rows = workload.recorded[0]
        workload.recorded[0] = (seed + 1, rows)
        errors = workload.finish()
    finally:
        workload.teardown()
    assert errors == [f"sweep with seed {seed + 1} did not repeat"]


def test_lab_step_timer_is_removed_at_teardown(tmp_path):
    from simlink import lab

    original = lab.run_one
    workload = wl.LabSweep(ROOT, 3, str(tmp_path))
    assert lab.run_one is not original
    workload.teardown()
    assert lab.run_one is original


# -- broker-fleet ----------------------------------------------------------------


def _small_fleet(tmp_path, replay_at=5):
    workload = wl.BrokerFleet(ROOT, 3, str(tmp_path), fleet_size=200,
                              replay_at=replay_at)
    workload.setup()
    return workload


def test_broker_fleet_minimal_run_passes(tmp_path):
    workload = _small_fleet(tmp_path)
    try:
        errors, _ = _run_ops(workload, 10)
        errors += workload.finish()
    finally:
        workload.teardown()
    assert errors == []
    assert len(workload.held) == 40
    assert workload.replayed_lines > 200 + 40


def test_broker_fleet_duplicate_grant_fails(tmp_path):
    workload = wl.BrokerFleet(ROOT, 3, str(tmp_path), fleet_size=200)
    iccid = next(iter(workload.held))
    errors = wl.check_grant({"iccid": iccid}, workload.fleet[iccid],
                            workload.fleet, workload.held)
    assert errors == [f"grant {iccid} is already leased by {workload.held[iccid]}"]


def test_broker_fleet_wrong_tag_fails(tmp_path):
    workload = wl.BrokerFleet(ROOT, 3, str(tmp_path), fleet_size=200)
    iccid = next(i for i in workload.fleet if i not in workload.held)
    other = next(t for t in workload.tags if t != workload.fleet[iccid])
    assert wl.check_grant({"iccid": iccid}, other, workload.fleet, workload.held)


def test_broker_fleet_replay_check_catches_divergence(tmp_path):
    workload = _small_fleet(tmp_path)
    try:
        _run_ops(workload, 6)
        size, live = workload.checkpoint
        live["issued"] = live["issued"][1:]
        errors = workload.finish()
    finally:
        workload.teardown()
    assert errors and all("differs" in error for error in errors)


def test_fleet_iccids_are_distinct_and_luhn_valid():
    import random

    from simlink.vsim import luhn_valid

    fleet = wl.make_fleet(random.Random(5), 500, ["A", "B"])
    assert len(fleet) == 500
    assert all(len(i) == 19 and luhn_valid(i) for i in fleet)


# -- spans -------------------------------------------------------------------------


def _span(name, start, end, thread=1, parent=None, wait=False):
    span = spans.Span(name, thread, parent, wait)
    span.start, span.end = start, end
    return span


def test_hop_is_exchange_minus_both_threads_work():
    exchange = _span("relay.exchange", 0.0, 10.0)
    send = _span("relay.send", 1.0, 2.0, parent=exchange)
    recv = _span("relay.recv_wait", 2.0, 9.0, parent=exchange, wait=True)
    feed = _span("tunnel.decoder_feed", 8.0, 9.0, parent=recv)
    provider = _span("tracer.rewrite", 3.0, 5.0, thread=2)
    late = _span("tracer.write_trace", 9.5, 12.0, thread=2)
    registry = _span("broker.release", 4.0, 4.5, thread=3)
    all_spans = [exchange, send, recv, feed, provider, late, registry]
    spans.compute_self_times(all_spans, main_thread=1)
    assert exchange.self_time == pytest.approx(10.0 - 1.0 - 1.0 - 2.0)
    assert recv.self_time == pytest.approx(6.0)
    assert provider.work_parent is exchange
    assert late.work_parent is None  # not contained in the exchange
    assert registry.work_parent is None  # registry work only nests in broker.rpc


def test_recorded_spans_are_left_to_the_collector_untracked():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner())
    for _ in range(3):
        outer()
    with recorder.section("bench.op"):
        outer()
    gc.collect()
    assert not any(gc.is_tracked(record) for record in recorder._records)
    built = recorder.spans
    assert [s.name for s in built] == ["outer", "inner"] * 3 + [
        "bench.op", "outer", "inner"]
    assert all(built[i + 1].parent is built[i] for i in (0, 2, 4, 6, 7))
    assert built[0].parent is None and built[6].parent is None
    assert all(s.start <= s.end for s in built)


def test_traced_probe_session_reports_its_layers(tmp_path):
    workload = wl.ProbeSession(ROOT, 4, str(tmp_path))
    workload.setup()
    recorder = spans.SpanRecorder()
    spans.patch_layers(recorder)
    try:
        errors, _ = _run_ops(workload, 3, recorder)
    finally:
        recorder.unpatch()
        workload.teardown()
    assert errors == []
    assert relay.frame_encode is tunnel.frame_encode
    metrics = spans.layer_metrics(recorder, 3, workload.step_span)
    assert metrics["vsim.card_process.calls"] == 13
    assert metrics["apdu.procedure_step.calls"] == 26
    assert metrics["broker.lease_grant_ratio"] == 1.0
    for name in ("relay.hop.us", "relay.connect.us", "tracer.rewrite.us",
                 "broker.rpc.self.us", "modem.self.us"):
        assert metrics[name] > 0, name
    assert 0 < metrics["step.covered_share"] < 1


# -- the command -------------------------------------------------------------------


def _bench(cwd, workload, seconds="0.5", trace="0"):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    spec = _read_json("BENCHMARK.json")
    out = _bench(ROOT, "lab-sweep", seconds="2.5", trace=trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(str(tmp_path), "probe-session")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

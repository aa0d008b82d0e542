"""The three closed-loop workloads: their inputs, operations and checks.

Every workload takes its inputs from one seeded ``random.Random``; the
program receives only what that generator produced (modem seeds,
session ids, sweep seeds, ICCIDs, tag choices). One client runs at a
time and waits for every reply before it sends the next request.

A workload exposes ``setup()`` (run several times; the last one is kept;
it returns the seconds it took, not counting the teardown of the one before),
``run_op(recorder)`` returning ``(seconds, step_seconds, errors)`` for one
operation, ``finish()`` returning the errors of the end-of-run checks, and
``teardown()``. The check functions are module-level so the self-tests can
feed them a deliberately wrong expectation.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from simlink import lab as lab_mod
from simlink import tracer as tracer_mod
from simlink.broker import BrokerClient, BrokerServer, Registry
from simlink.lab import StallPolicy, lab_sweep
from simlink.modem import ModemSim
from simlink.relay import ProbeLink, ProviderServer
from simlink.tracer import (
    FLAG_REWRITTEN,
    FLAG_SILENT_SMS,
    Tracer,
    read_trace,
    rules_from_json,
)
from simlink.vsim import SimProfile, decode_iccid, encode_iccid, luhn_check_digit

perf = time.perf_counter

TOKEN = "bench-token"
PROBE_ID = "bench-probe"
DAY_MS = 24 * 3600 * 1000


def _span(recorder, name: str):
    return recorder.section(name) if recorder else contextlib.nullcontext()


def _unique_ids(rng: random.Random, bits: int):
    seen = set()
    while True:
        value = rng.getrandbits(bits)
        if value not in seen:
            seen.add(value)
            yield value


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Workload:
    """What the runner needs from a workload, with the common defaults."""

    name = ""
    step_span = ""  # the span whose covered share is step.covered_share
    # The probes whose geometric mean scales this workload's times (see
    # speed.py): in trials on a shared VM, the choice whose scaled metrics
    # spread least across runs (bench/README.md).
    scale_by: Tuple[str, ...] = ("rpc",)
    setup_reps = 1
    warmup_ops = 0
    rss_at_op = 1000  # operation count at which peak_rss_mb is read
    log_path: Optional[str] = None  # the broker state log, if any

    def __init__(self):
        self._running: List = []

    def finish(self) -> List[str]:
        return []

    def retained(self) -> Dict[str, int]:
        return {}

    def layer_extras(self) -> Dict[str, float]:
        return {}

    def teardown(self):
        for thing in self._running:
            if isinstance(thing, Registry):
                thing.close()
            else:
                thing.stop()
        self._running = []


# ---------------------------------------------------------------------------
# probe-session
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionExpectation:
    iccid: str
    imsi: str
    exchanges: int = 13
    silent_sms: int = 1
    rewritten: int = 1


def expected_session(profile_doc: dict, rules_doc: list) -> SessionExpectation:
    """What every probe session must report, read from the demo files.

    The ICCID the modem decodes is the one the rewrite rule substitutes
    for the card's EF_ICCID content, not the profile's own.
    """
    ef_iccid = encode_iccid(profile_doc["iccid"])
    iccid = profile_doc["iccid"]
    for rule in rules_doc:
        prefix = bytes.fromhex(rule.get("match", {}).get("data_prefix", ""))
        action = rule["action"]
        if (action["kind"] == "replace_response_data"
                and ef_iccid.startswith(prefix)):
            iccid = decode_iccid(bytes.fromhex(action["data_hex"]))
            break
    return SessionExpectation(iccid=iccid, imsi=profile_doc["imsi"])


def check_session(report, flagged, provider_events, released,
                  expect: SessionExpectation) -> List[str]:
    errors = []
    if report.failure is not None:
        errors.append(f"session failed: {report.failure}")
    if report.aka_ok is not True:
        errors.append(f"aka_ok is {report.aka_ok}")
    if report.iccid != expect.iccid:
        errors.append(f"iccid {report.iccid}, expected {expect.iccid}")
    if report.imsi != expect.imsi:
        errors.append(f"imsi {report.imsi}, expected {expect.imsi}")
    if report.exchanges != expect.exchanges:
        errors.append(f"{report.exchanges} exchanges, expected {expect.exchanges}")
    if len(flagged) != expect.silent_sms:
        errors.append(f"{len(flagged)} silent SMS flagged, expected {expect.silent_sms}")
    if len(provider_events) != 2 * report.exchanges:
        errors.append(f"provider trace holds {len(provider_events)} events "
                      f"for {report.exchanges} exchanges")
    rewritten = sum(FLAG_REWRITTEN in e.flags for e in provider_events)
    if rewritten != expect.rewritten:
        errors.append(f"{rewritten} rewritten events, expected {expect.rewritten}")
    provider_flagged = sum(FLAG_SILENT_SMS in e.flags for e in provider_events)
    if provider_flagged != expect.silent_sms:
        errors.append(f"provider trace flags {provider_flagged} silent SMS, "
                      f"expected {expect.silent_sms}")
    if released is not True:
        errors.append(f"release answered {released!r}")
    return errors


def wait_for_final_trace(path: str, timeout_s: float = 5.0) -> list:
    """The provider's trace once its session has closed.

    The provider annotates silent-SMS flags into the file when the session
    ends; until then the file holds the per-event stream. Waiting here also
    keeps the provider's close-time work out of the next session.
    """
    deadline = perf() + timeout_s
    while True:
        with open(path, encoding="utf-8") as fh:
            events = read_trace(fh)
        if any(FLAG_SILENT_SMS in e.flags for e in events) or perf() > deadline:
            return events
        time.sleep(0.0002)


class TimedLink:
    """Delegates the modem's link surface to a ProbeLink, timing exchanges."""

    def __init__(self, link: ProbeLink, steps: List[float]):
        self.link = link
        self.steps = steps

    def reset(self):
        return self.link.reset()

    def exchange(self, cmd):
        start = perf()
        result = self.link.exchange(cmd)
        self.steps.append(perf() - start)
        return result

    def idle(self, ms: float):
        self.link.idle(ms)


class ProbeSession(Workload):
    """One probe leasing the one demo SIM and running a full session."""

    name = "probe-session"
    step_span = "relay.exchange"
    setup_reps = 31
    warmup_ops = 30

    def __init__(self, root: str, seed: int, tmp: str,
                 expect: Optional[SessionExpectation] = None):
        super().__init__()
        self.tmp = tmp
        self.rng = random.Random(seed)
        self._session_ids = _unique_ids(self.rng, 32)
        self.profile_path = os.path.join(root, "demo", "profile.json")
        self.rules_path = os.path.join(root, "demo", "rules.json")
        self.expect = expect or expected_session(
            json.loads(_read(self.profile_path)), json.loads(_read(self.rules_path)))

    def setup(self) -> float:
        self.teardown()
        start = perf()
        home = tempfile.mkdtemp(prefix="probe-", dir=self.tmp)
        profile = SimProfile.from_json(_read(self.profile_path))
        rules = rules_from_json(_read(self.rules_path))
        self.log_path = os.path.join(home, "broker.log")
        registry = Registry(log_path=self.log_path)
        broker = BrokerServer(registry, TOKEN)
        broker.start()
        self.trace_dir = os.path.join(home, "traces")
        provider = ProviderServer(profile, TOKEN, rules=rules,
                                  trace_dir=self.trace_dir)
        provider.start()
        BrokerClient(broker.endpoint, TOKEN).request("register_sim", {
            "iccid": profile.iccid, "tags": ["AT"],
            "provider_endpoint": provider.endpoint,
        })
        self.profile = profile
        self.registry, self.broker, self.provider = registry, broker, provider
        self._running = [provider, broker, registry]
        return perf() - start

    def run_op(self, recorder=None) -> Tuple[float, List[float], List[str]]:
        session_id = next(self._session_ids)
        modem = ModemSim(verify_aka=True, k=self.profile.k,
                         op_salt=self.profile.op_salt,
                         seed=self.rng.getrandbits(31))
        steps: List[float] = []
        with _span(recorder, "bench.op"):
            start = perf()
            client = BrokerClient(self.broker.endpoint, TOKEN)
            client.request("register_probe",
                           {"probe_id": PROBE_ID, "location_tag": "bench"})
            reply = client.request("request_lease",
                                   {"probe_id": PROBE_ID, "tags": ["AT"]})
            lease = reply["lease"]
            with _span(recorder, "relay.connect"):
                link = ProbeLink(reply["provider_endpoint"], TOKEN,
                                 session_id=session_id).connect()
            released = None
            try:
                link.keepalive_roundtrip()
                tracer = Tracer(link.session.session_id)
                report = modem.run(TimedLink(link, steps), tracer=tracer)
            finally:
                link.close()
                released = client.request(
                    "release", {"lease_id": lease["lease_id"]})["released"]
            flagged = tracer_mod.detect_silent_sms(tracer.events)
            elapsed = perf() - start
        path = os.path.join(self.trace_dir, f"session-{session_id:08x}.jsonl")
        provider_events = wait_for_final_trace(path)
        errors = check_session(report, flagged, provider_events, released,
                               self.expect)
        return elapsed, steps, errors

    def retained(self) -> Dict[str, int]:
        """Bookkeeping the daemons keep per connection (if they still do)."""
        return {
            "broker_threads": len(getattr(self.broker, "_threads", ())),
            "provider_sessions": len(getattr(self.provider, "sessions", ())),
        }


# ---------------------------------------------------------------------------
# lab-sweep
# ---------------------------------------------------------------------------

RTT_GRID = (0.0, 150.0, 300.0, 600.0, 900.0)
JITTER_MS = 50.0
BUDGET_MS = 300.0
NULL_INTERVAL_MS = 100.0
LAB_REPETITIONS = 2


def expected_cells(grid=RTT_GRID, jitter_ms=JITTER_MS,
                   budget_ms=BUDGET_MS) -> Dict[Tuple[float, bool], Optional[float]]:
    """Success rate each cell must reach; None where the delay model
    leaves it to the jitter draw."""
    cells = {}
    for rtt in grid:
        cells[(rtt, True)] = 1.0
        if rtt + jitter_ms < budget_ms:
            cells[(rtt, False)] = 1.0
        elif rtt - jitter_ms > budget_ms:
            cells[(rtt, False)] = 0.0
        else:
            cells[(rtt, False)] = None
    return cells


def check_lab_rows(rows, expected) -> List[str]:
    errors = []
    seen = {(row.rtt_ms, row.stall_enabled) for row in rows}
    if seen != set(expected):
        errors.append(f"sweep produced cells {sorted(seen)}")
    for row in rows:
        want = expected.get((row.rtt_ms, row.stall_enabled))
        if want is not None and row.success_rate != want:
            errors.append(f"rtt {row.rtt_ms:g} stall "
                          f"{'on' if row.stall_enabled else 'off'}: success "
                          f"{row.success_rate}, expected {want}")
    return errors


class _StepTimer:
    """Times every lab session (``lab.run_one``), the sweep's step."""

    def __init__(self):
        self.steps: List[float] = []
        self.original = lab_mod.run_one

    def install(self):
        original, steps = self.original, self.steps

        def run_one(*args, **kwargs):
            start = perf()
            report = original(*args, **kwargs)
            steps.append(perf() - start)
            return report

        lab_mod.run_one = run_one

    def remove(self):
        lab_mod.run_one = self.original


class LabSweep(Workload):
    """Repeated off/on sweeps over the README grid in simulated time."""

    name = "lab-sweep"
    step_span = "lab.run_one"
    scale_by = ("cpu",)
    setup_reps = 301
    warmup_ops = 5
    recheck_ops = 3
    rss_at_op = 500

    def __init__(self, root: str, seed: int, tmp: str, expected=None):
        super().__init__()
        self.rng = random.Random(seed)
        self.profile_json = _read(os.path.join(root, "demo", "profile.json"))
        self.expected = expected or expected_cells()
        self.recorded: List[Tuple[int, list]] = []
        self.timer = _StepTimer()
        self.timer.install()

    def setup(self) -> float:
        start = perf()
        self.profile = SimProfile.from_json(self.profile_json)
        self.policies = (
            StallPolicy(enabled=False, null_interval_ms=NULL_INTERVAL_MS),
            StallPolicy(enabled=True, null_interval_ms=NULL_INTERVAL_MS),
        )
        return perf() - start

    def _sweep(self, seed: int) -> list:
        rows = []
        for stall in self.policies:
            rows.extend(lab_sweep(RTT_GRID, stall, repetitions=LAB_REPETITIONS,
                                  seed=seed, jitter_ms=JITTER_MS,
                                  waiting_time_ms=BUDGET_MS,
                                  profile=self.profile))
        return rows

    def run_op(self, recorder=None):
        seed = self.rng.getrandbits(31)
        steps = self.timer.steps
        del steps[:]
        with _span(recorder, "bench.op"):
            start = perf()
            rows = self._sweep(seed)
            elapsed = perf() - start
        if len(self.recorded) < self.recheck_ops:
            self.recorded.append((seed, rows))
        return elapsed, list(steps), check_lab_rows(rows, self.expected)

    def finish(self) -> List[str]:
        errors = []
        for seed, rows in self.recorded:
            if self._sweep(seed) != rows:
                errors.append(f"sweep with seed {seed} did not repeat")
        return errors

    def teardown(self):
        self.timer.remove()


# ---------------------------------------------------------------------------
# broker-fleet
# ---------------------------------------------------------------------------

FLEET_SIZE = 10_000
TAG_COUNT = 10
HELD_SHARE = 5  # one SIM in five is held by another probe
OTHER_PROBES = 20
REPLAY_AT_CYCLE = 1000
REPLAY_REPS = 5


def make_fleet(rng: random.Random, size: int, tags: List[str]):
    """Distinct Luhn-valid 19-digit ICCIDs, each with one seeded tag."""
    fleet = {}
    while len(fleet) < size:
        base = "89" + "".join(str(rng.randrange(10)) for _ in range(16))
        fleet.setdefault(base + luhn_check_digit(base), rng.choice(tags))
    return fleet


def check_grant(lease: dict, tag: str, fleet: Dict[str, str],
                held: Dict[str, str]) -> List[str]:
    iccid = lease["iccid"]
    errors = []
    if fleet.get(iccid) != tag:
        errors.append(f"grant {iccid} carries tag {fleet.get(iccid)}, asked {tag}")
    if iccid in held:
        errors.append(f"grant {iccid} is already leased by {held[iccid]}")
    return errors


class BrokerFleet(Workload):
    """Lease cycles against a 10,000-SIM registry over the control API."""

    name = "broker-fleet"
    step_span = "broker.rpc"
    setup_reps = 3
    warmup_ops = 30

    def __init__(self, root: str, seed: int, tmp: str,
                 fleet_size: int = FLEET_SIZE,
                 replay_at: int = REPLAY_AT_CYCLE):
        super().__init__()
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.tags = [f"T{i}" for i in range(TAG_COUNT)]
        self.fleet = make_fleet(self.rng, fleet_size, self.tags)
        probes = [f"other-{i:02d}" for i in range(OTHER_PROBES)]
        held = self.rng.sample(sorted(self.fleet), fleet_size // HELD_SHARE)
        self.held = {iccid: probes[i % len(probes)] for i, iccid in enumerate(held)}
        self.replay_at = replay_at
        self.cycles = 0
        self.checkpoint = None

    def setup(self) -> float:
        self.teardown()
        start = perf()
        home = tempfile.mkdtemp(prefix="fleet-", dir=self.tmp)
        self.log_path = os.path.join(home, "broker.log")
        registry = Registry(log_path=self.log_path)
        for i, (iccid, tag) in enumerate(self.fleet.items()):
            registry.register_sim(iccid, [tag], f"127.0.0.1:{17000 + i % 100}")
        for probe in sorted(set(self.held.values())):
            registry.register_probe(probe, "remote")
        for iccid, probe in self.held.items():
            registry.request_lease(probe, iccid=iccid, duration_ms=DAY_MS)
        server = BrokerServer(registry, TOKEN)
        server.start()
        self.registry, self.server = registry, server
        self._running = [server, registry]
        self.home = home
        return perf() - start

    def run_op(self, recorder=None):
        tag = self.rng.choice(self.tags)
        steps: List[float] = []
        with _span(recorder, "bench.op"):
            start = perf()
            client = BrokerClient(self.server.endpoint, TOKEN)
            t = perf()
            client.request("register_probe",
                           {"probe_id": PROBE_ID, "location_tag": "bench"})
            t1 = perf()
            lease = client.request("request_lease",
                                   {"probe_id": PROBE_ID, "tags": [tag]})["lease"]
            t2 = perf()
            released = client.request("release",
                                      {"lease_id": lease["lease_id"]})["released"]
            end = perf()
        steps.extend((t1 - t, t2 - t1, end - t2))
        errors = check_grant(lease, tag, self.fleet, self.held)
        if released is not True:
            errors.append(f"release answered {released!r}")
        self.cycles += 1
        if self.cycles == self.replay_at:
            self._take_checkpoint()
        return end - start, steps, errors

    def _take_checkpoint(self):
        self.checkpoint = (os.path.getsize(self.log_path),
                           self.registry.snapshot())

    def finish(self) -> List[str]:
        """Replay the log as it stood at the checkpoint cycle.

        A fixed cycle keeps the replayed log the same size whatever the
        lease-cycle throughput, so replay time measures replay alone.
        """
        if self.checkpoint is None:
            self._take_checkpoint()
        size, live = self.checkpoint
        copy = os.path.join(self.home, "replay.log")
        with open(self.log_path, "rb") as src, open(copy, "wb") as dst:
            dst.write(src.read(size))
        with open(copy, "rb") as fh:
            self.replayed_lines = sum(1 for _ in fh)
        self.replay_s = []
        errors = []
        for _ in range(REPLAY_REPS):
            start = perf()
            replayed = Registry.replay(copy)
            self.replay_s.append(perf() - start)
            same = replayed.snapshot() == live
            replayed.close()
            if not same:
                errors.append("replayed snapshot differs from the live one")
        return errors

    def retained(self) -> Dict[str, int]:
        return {"broker_threads": len(getattr(self.server, "_threads", ()))}

    def layer_extras(self) -> Dict[str, float]:
        return {"broker.replay.ms": statistics.median(self.replay_s) * 1e3}


WORKLOADS = {w.name: w for w in (ProbeSession, LabSweep, BrokerFleet)}

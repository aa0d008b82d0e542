"""Virtual modem and latency-lab tests."""

import math
import random
from fractions import Fraction

import pytest

from simlink.apdu import (
    INS_AUTHENTICATE,
    INS_FETCH,
    INS_READ_BINARY,
    CommandApdu,
    ResponseApdu,
)
from simlink.lab import (
    StallPolicy,
    SweepRow,
    VirtualLink,
    lab_sweep,
    render_csv,
    render_table,
    run_one,
)
from simlink.modem import (
    DEFAULT_SCRIPT,
    PROACTIVE_FETCH_ROUNDS,
    RESET,
    Idle,
    ModemSim,
    Phase,
    Timing,
    _SessionRun,
)
from simlink.relay import LinkClosed
from simlink.tracer import Tracer, detect_silent_sms
from simlink.vsim import Card, demo_profile

WAITING = 300.0
STALL_OFF = StallPolicy(enabled=False)
STALL_100 = StallPolicy(enabled=True, null_interval_ms=100.0)


def zero_delay_link(profile=None):
    card = Card(profile or demo_profile())
    return VirtualLink(card, 0.0)


def verified_modem(profile=None, **kwargs):
    profile = profile or demo_profile()
    return ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt, **kwargs)


class NullStatusLink:
    """Answers every command with SW1 60, a NULL, not a status byte."""

    def reset(self):
        return bytes.fromhex(demo_profile().atr_hex), Timing(0.0)

    def exchange(self, cmd):
        return ResponseApdu(b"", 0x60, 0x00), Timing(0.0)

    def idle(self, ms):
        pass


class TestRunSession:
    def test_zero_delay_all_phases_complete(self):
        report = verified_modem().run(zero_delay_link())
        assert report.failure is None
        assert report.completed_phases == [p.name for p in DEFAULT_SCRIPT]
        assert report.aka_ok is True

    def test_iccid_read_matches_profile_via_bcd_oracle(self):
        profile = demo_profile()
        report = verified_modem().run(zero_delay_link(profile))
        # Independent oracle: decode the expected EF body by string slicing.
        body = "981032547698103254F5"
        swapped = "".join(body[i + 1] + body[i] for i in range(0, len(body), 2))
        expected = swapped.rstrip("F")
        assert report.iccid == expected == profile.iccid
        assert report.imsi == profile.imsi

    def test_corrupt_key_on_modem_side_fails_auth(self):
        profile = demo_profile()
        bad_k = bytes([profile.k[0] ^ 0xFF]) + profile.k[1:]
        modem = ModemSim(verify_aka=True, k=bad_k, op_salt=profile.op_salt)
        report = modem.run(zero_delay_link(profile))
        assert report.failure is not None and "AuthFailed" in report.failure
        assert report.aka_ok is False

    def test_a_failed_round_after_a_verified_one_is_not_aka_ok(self):
        class FlipSecondResLink(VirtualLink):
            authenticates = 0

            def exchange(self, cmd):
                resp, timing = super().exchange(cmd)
                if cmd.ins == INS_AUTHENTICATE:
                    self.authenticates += 1
                    if self.authenticates == 2:  # flip one bit of RES
                        resp = ResponseApdu(bytes([resp.data[0] ^ 0x01])
                                            + resp.data[1:], resp.sw1, resp.sw2)
                return resp, timing

        report = verified_modem().run(FlipSecondResLink(Card(demo_profile()), 0.0))
        assert report.failure == "AuthFailed(RES mismatch)"
        assert report.aka_ok is False

    def test_non_status_sw1_is_a_protocol_violation(self):
        report = verified_modem().run(NullStatusLink())
        assert report.failure.startswith("ProtocolViolation")

    def test_error_status_is_a_bad_status_violation(self):
        class NotFoundLink(NullStatusLink):
            def exchange(self, cmd):
                return ResponseApdu(b"", 0x6A, 0x82), Timing(0.0)

        report = verified_modem().run(NotFoundLink())
        assert report.failure == \
            "ProtocolViolation(BadStatus: SELECT EF_ICCID answered 6A82)"

    def test_empty_atr_is_a_violation(self):
        class NoAtrLink(NullStatusLink):
            def reset(self):
                return b"", Timing(0.0)

        report = verified_modem().run(NoAtrLink())
        assert report.failure == \
            "ProtocolViolation(EmptyAtr: the reset answered no ATR)"
        assert report.exchanges == 0

    def test_trace_has_one_silent_sms_and_conservation(self):
        tracer = Tracer(session_id=1)
        report = verified_modem().run(zero_delay_link(), tracer=tracer)
        assert report.failure is None
        m2s = [e for e in tracer.events if e.direction == "m2s"]
        s2m = [e for e in tracer.events if e.direction == "s2m"]
        assert len(m2s) == len(s2m) == report.exchanges
        assert len(detect_silent_sms(tracer.events)) == 1

    def test_report_dict_shape(self):
        report = verified_modem().run(zero_delay_link())
        doc = report.to_dict()
        assert doc["failure"] is None and doc["aka_ok"] is True
        assert doc["exchanges"] > 5

    def test_deterministic_given_seed(self):
        reports = [
            verified_modem(seed=7).run(zero_delay_link()).to_dict()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_undecodable_proactive_is_a_bad_proactive_violation(self):
        class GarbledFetchLink(VirtualLink):
            def exchange(self, cmd):
                resp, timing = super().exchange(cmd)
                if cmd.ins == INS_FETCH:  # not a D0 envelope
                    resp = ResponseApdu(b"\x01\x02\x03", 0x90, 0x00)
                return resp, timing

        link = GarbledFetchLink(Card(demo_profile()), 0.0)
        report = verified_modem().run(link)
        assert report.failure == (
            "ProtocolViolation(BadProactive: FETCH answered 3 octets that are "
            "not a proactive command)")
        assert report.completed_phases == [p.name for p in DEFAULT_SCRIPT][:-1]

    @pytest.mark.parametrize("scripted", [PROACTIVE_FETCH_ROUNDS,
                                          PROACTIVE_FETCH_ROUNDS + 1])
    def test_a_card_still_announcing_after_the_last_round_fails(self, scripted):
        profile = demo_profile()
        profile.proactive = profile.proactive * scripted
        card = Card(profile)
        report = verified_modem().run(VirtualLink(card, 0.0))
        assert len(card.acked_numbers) == PROACTIVE_FETCH_ROUNDS == 16
        if scripted == PROACTIVE_FETCH_ROUNDS:
            assert report.failure is None
            return
        assert len(card.queue) == 1
        assert report.failure == (
            "ProtocolViolation(UndrainedProactive: the card still announces "
            "a proactive command after 16 FETCH rounds)")
        assert report.completed_phases == [p.name for p in DEFAULT_SCRIPT][:-1]
        assert report.exchanges == 43

    def test_rands_are_the_randrange_draws_of_the_seed(self):
        """Each RAND octet is what ``randrange(256)`` would have drawn, in
        the same order, from the modem's seeded generator."""
        sent = []

        class RecordingLink(VirtualLink):
            def exchange(self, cmd):
                if cmd.ins == INS_AUTHENTICATE:
                    sent.append(cmd.data)
                return super().exchange(cmd)

        profile = demo_profile()
        for seed in range(1000):
            del sent[:]
            link = RecordingLink(Card(profile), 0.0)
            assert verified_modem(profile, seed=seed).run(link).completed
            rng = random.Random(seed)
            assert sent == [bytes(rng.randrange(256) for _ in range(16))
                            for _ in range(2)], seed


class WrongLeLink(VirtualLink):
    """The demo card, but READ BINARY EF_ICCID is first answered 6C 0A
    (wrong Le, 10 octets available) and its retry ``retried``: passed on
    to the card when None."""

    def __init__(self, retried=None):
        super().__init__(Card(demo_profile()), 0.0)
        self.retried = retried
        self.iccid_reads = []

    def exchange(self, cmd):
        if cmd.ins == INS_READ_BINARY and cmd.le == 10:
            self.iccid_reads.append(cmd)
            if len(self.iccid_reads) == 1:
                return ResponseApdu(b"", 0x6C, 0x0A), Timing(self.now_ms)
            if self.retried is not None:
                return self.retried, Timing(self.now_ms)
        return super().exchange(cmd)


class TestWrongLeRetry:
    """A 6C xx answer is retried once with Le = xx, and the retry's status
    is the one the phase checks."""

    def test_a_retry_answered_90_00_completes_with_one_more_exchange(self):
        plain = verified_modem().run(zero_delay_link())
        link = WrongLeLink()
        report = verified_modem().run(link)
        assert report.failure is None
        assert report.exchanges == plain.exchanges + 1
        assert report.iccid == demo_profile().iccid
        assert [cmd.le for cmd in link.iccid_reads] == [10, 10]

    def test_a_retry_answered_6a_82_is_a_bad_status(self):
        link = WrongLeLink(retried=ResponseApdu(b"", 0x6A, 0x82))
        report = verified_modem().run(link)
        assert report.failure == \
            "ProtocolViolation(BadStatus: READ BINARY EF_ICCID answered 6A82)"
        assert report.completed_phases == ["reset"]
        assert report.exchanges == 3
        assert len(link.iccid_reads) == 2


class CorruptingLink(VirtualLink):
    """A demo card behind a link that corrupts about 30 % of its responses,
    seeded: a corruption flips one bit, replaces the response with 2-39
    random octets, or cuts the body short and keeps the status word.
    ``corrupted`` counts the responses whose octets it changed."""

    def __init__(self, card, seed):
        super().__init__(card, 0.0)
        self.rng = random.Random(seed)
        self.corrupted = 0

    def exchange(self, cmd):
        resp, timing = super().exchange(cmd)
        rng = self.rng
        if rng.random() >= 0.3:
            return resp, timing
        octets = resp.to_bytes()
        how = rng.randrange(3)
        if how == 0:
            flipped = bytearray(octets)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            new = bytes(flipped)
        elif how == 1:
            new = rng.randbytes(rng.randint(2, 39))
        else:
            new = resp.data[:rng.randrange(len(resp.data) or 1)] + octets[-2:]
        self.corrupted += new != octets
        return ResponseApdu.from_bytes(new), timing


class TestHostileCard:
    # The typed errors a session over a corrupting link may end with.
    FAILURES = {"ProtocolViolation", "AuthFailed", "Truncated", "CodecError"}

    def test_every_failure_is_typed_and_every_clean_session_completes(self):
        profile = demo_profile()
        failures, completed = {}, 0
        for seed in range(5000):
            link = CorruptingLink(Card(profile), seed)
            report = verified_modem(profile, seed=seed).run(link)
            if report.failure is None:
                completed += 1
                continue
            assert link.corrupted, (seed, report.failure)
            kind = report.failure.partition("(")[0]
            assert kind in self.FAILURES, (seed, report.failure)
            failures[kind] = failures.get(kind, 0) + 1
        assert failures.keys() == self.FAILURES, failures
        assert completed > 200

    def test_every_failure_kind_is_one_of_a_closed_set(self):
        """``failure_kind`` names the class that ``failure`` starts with and,
        for a ProtocolViolation, its kind; a completed session has none."""
        kinds = {"AuthFailed", "CodecError", "Truncated",
                 "ProtocolViolation:BadProactive", "ProtocolViolation:BadStatus",
                 "ProtocolViolation:ProcedureByte"}
        profile = demo_profile()
        seen = set()
        for seed in range(5000):
            report = verified_modem(profile, seed=seed).run(
                CorruptingLink(Card(profile), seed))
            if report.failure is None:
                assert report.failure_kind is None, seed
                continue
            kind = report.failure_kind
            assert kind in kinds, (seed, kind, report.failure)
            assert report.failure.startswith(kind.partition(":")[0] + "("), seed
            seen.add(kind)
        assert seen == kinds

    def test_a_programming_error_in_a_phase_propagates(self, monkeypatch):
        def broken(run, phase):
            raise KeyError("no such field")

        monkeypatch.setitem(_SessionRun.PHASES, "read_imsi", broken)
        with pytest.raises(KeyError, match="no such field"):
            verified_modem().run(zero_delay_link())


class TestScript:
    def test_unknown_phase_is_refused_before_any_exchange(self):
        with pytest.raises(ValueError, match="unknown phase 'bogus'"):
            ModemSim(script=[Phase("reset"), Phase("bogus")])

    @pytest.mark.parametrize("phase, detail", [
        (Phase("status_poll", count=-3), "not -3 and 0.0"),
        (Phase("status_poll", count=0), "not 0 and 0.0"),
        (Phase("status_poll", 2, -5.0), "not 2 and -5.0"),
        (Phase("status_poll", 2, math.nan), "not 2 and nan"),
        (Phase("status_poll", 2, math.inf), "not 2 and inf"),
        (Phase("status_poll", count=2.5), "not 2.5 and 0.0"),
        (Phase("status_poll", count=True), "not True and 0.0"),
    ], ids=["count-3", "count0", "period-5", "period-nan", "period-inf",
            "count2.5", "count-bool"])
    def test_bad_count_or_period_is_refused_before_any_exchange(
            self, phase, detail):
        with pytest.raises(ValueError, match="phase 'status_poll': count must "
                           "be at least 1 and period_ms a finite number >= 0, "
                           + detail):
            ModemSim(script=[Phase("reset"), phase])

    def test_default_script_is_the_shared_one(self):
        assert ModemSim().script is DEFAULT_SCRIPT


def oracle_wait_survives(wait, stall, waiting):
    """Independent walk of one exchange's NULL/transfer timeline in exact
    rationals: a NULL at every multiple of the cadence strictly before the
    reply, then the reply; every gap must fit in the budget. The NULLs are
    evenly spaced, so their gaps are walked as one run."""
    wait, waiting = Fraction(wait), Fraction(waiting)
    interval = Fraction(stall.null_interval_ms if stall.enabled else 0)
    nulls = max(0, math.ceil(wait / interval) - 1) if interval else 0
    gaps = [interval] * min(nulls, 1) + [wait - nulls * interval]
    return all(gap <= waiting for gap in gaps)


def oracle_session(rtt, stall, seed, jitter_ms, waiting):
    """(completed, elapsed_ms) of a lab session, from the waits its link
    samples: it ends at the first wait that does not survive, one budget
    after that wait began. The exchange count comes from the full
    simulation at zero delay, not from ``run_one``, which is under test."""
    rng = random.Random(seed)
    elapsed = 0.0
    for _ in range(verified_modem(seed=seed).run(zero_delay_link()).exchanges):
        wait = max(0.0, rtt + rng.uniform(-jitter_ms, jitter_ms)) \
            if jitter_ms else rtt
        if not oracle_wait_survives(wait, stall, waiting):
            return False, elapsed + waiting
        elapsed += wait
    return True, elapsed


class TestTimeouts:
    def test_timeout_forced_without_stall(self):
        report = run_one(600.0, STALL_OFF, waiting_time_ms=WAITING)
        assert report.failure == "TimeoutExpired(read_iccid)"

    def test_a_timeout_is_its_failure_kind(self):
        report = run_one(600.0, STALL_OFF, waiting_time_ms=WAITING)
        assert report.failure_kind == "TimeoutExpired"

    def test_stall_bridges_the_same_rtt(self):
        report = run_one(600.0, STALL_100, waiting_time_ms=WAITING)
        assert report.failure is None

    def test_budget_boundary_is_inclusive(self):
        assert run_one(WAITING, STALL_OFF, waiting_time_ms=WAITING).completed
        assert not run_one(WAITING + 1, STALL_OFF, waiting_time_ms=WAITING).completed

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_a_budget_that_is_not_finite_and_non_negative_is_refused(
            self, budget):
        with pytest.raises(ValueError, match="waiting_time_ms"):
            run_one(600.0, STALL_OFF, waiting_time_ms=budget)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -50.0])
    @pytest.mark.parametrize("name", ["rtt_ms", "jitter_ms"])
    def test_a_link_time_that_is_not_finite_and_non_negative_is_refused(
            self, name, value):
        times = {"rtt_ms": 600.0, "jitter_ms": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            VirtualLink(Card(demo_profile()), **times)
        with pytest.raises(ValueError, match=name):
            run_one(times["rtt_ms"], STALL_OFF, jitter_ms=times["jitter_ms"])
        with pytest.raises(ValueError, match=name):
            lab_sweep([times["rtt_ms"]], STALL_OFF, jitter_ms=times["jitter_ms"])

    @pytest.mark.parametrize("enabled", [False, True])
    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -100.0])
    def test_a_null_interval_that_is_not_finite_and_non_negative_is_refused(
            self, interval, enabled):
        with pytest.raises(ValueError,
                           match="null_interval_ms must be a finite number"):
            StallPolicy(enabled, interval)

    def test_matches_discrete_event_oracle(self):
        stalls = [STALL_OFF, STALL_100] + [
            StallPolicy(True, cadence)
            for cadence in (350.0, 300.0, 299.9, 0.5, 1e-6)
        ]
        cases = [(float(rtt), stall, 0, 0.0)
                 for rtt in (0, 50, 99, 100, 101, 250, 299, 300, 301, 450,
                             600, 900)
                 for stall in stalls]
        # A cadence equal to the budget bridges every jittered wait.
        cases += [(600.0, StallPolicy(True, WAITING), seed, 50.0)
                  for seed in range(30)]
        for rtt, stall, seed, jitter_ms in cases:
            report = run_one(rtt, stall, seed=seed, jitter_ms=jitter_ms,
                             waiting_time_ms=WAITING)
            expected = oracle_session(rtt, stall, seed, jitter_ms, WAITING)
            assert (report.completed, report.elapsed_ms) == expected, \
                (rtt, stall, seed)
            # Every session here that fails does so at its first exchange.
            assert report.completed or report.elapsed_ms == WAITING

    def test_jitter_is_seeded_and_bounded(self):
        rows1 = lab_sweep([100.0], STALL_100, repetitions=4, seed=3, jitter_ms=50.0)
        rows2 = lab_sweep([100.0], STALL_100, repetitions=4, seed=3, jitter_ms=50.0)
        assert rows1 == rows2
        rows3 = lab_sweep([100.0], STALL_100, repetitions=4, seed=4, jitter_ms=50.0)
        assert rows1 != rows3 or rows1[0].success_rate == rows3[0].success_rate


class TestSweep:
    GRID = [0.0, 150.0, 300.0, 600.0, 900.0]

    def test_stall_sufficiency(self):
        rows = lab_sweep(self.GRID, STALL_100, repetitions=3, seed=1,
                         waiting_time_ms=WAITING)
        assert all(row.success_rate == 1.0 for row in rows)

    def test_no_stall_fails_beyond_budget(self):
        rows = lab_sweep(self.GRID, STALL_OFF, repetitions=3, seed=1,
                         waiting_time_ms=WAITING)
        by_rtt = {row.rtt_ms: row.success_rate for row in rows}
        assert by_rtt[600.0] == 0.0 and by_rtt[900.0] == 0.0
        assert by_rtt[0.0] == 1.0 and by_rtt[150.0] == 1.0 and by_rtt[300.0] == 1.0

    def test_monotonic_without_stall(self):
        grid = [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 800.0]
        rows = lab_sweep(grid, STALL_OFF, repetitions=2, seed=9,
                         waiting_time_ms=WAITING)
        successes = [row.success_rate == 1.0 for row in rows]
        # Once a success stops, it never resumes at higher RTT.
        assert successes == sorted(successes, reverse=True)

    def test_virtual_time_soundness(self):
        rtt = 150.0
        report = run_one(rtt, STALL_100, waiting_time_ms=WAITING)
        assert report.completed
        analytic = report.exchanges * rtt  # reset is served locally
        assert abs(report.elapsed_ms - analytic) <= 1.0

    def test_rtt_zero_any_policy(self):
        for stall in (STALL_OFF, STALL_100):
            rows = lab_sweep([0.0], stall, repetitions=2, seed=0)
            assert rows[0].success_rate == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lab_sweep([], STALL_OFF)

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_below_one_rejected(self, repetitions):
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            lab_sweep([0.0], STALL_OFF, repetitions=repetitions)

    def test_csv_and_table_rendering(self):
        rows = [SweepRow(0.0, False, 1.0, 123.0),
                SweepRow(600.0, True, 0.5, 4000.5)]
        csv_text = render_csv(rows)
        lines = csv_text.splitlines()
        assert lines[0] == "rtt_ms,stall,success_rate,median_elapsed_ms"
        assert lines[1] == "0,off,1.0,123"
        assert lines[2] == "600,on,0.5,4000.5"
        table = render_table(rows)
        assert "rtt_ms" in table and "600" in table

    def test_sweep_reproducible(self):
        kwargs = dict(repetitions=3, seed=42, waiting_time_ms=WAITING)
        assert lab_sweep(self.GRID, STALL_100, **kwargs) == \
               lab_sweep(self.GRID, STALL_100, **kwargs)


class TestStatusPollPeriod:
    def test_period_advances_virtual_clock(self):
        script = [Phase("reset"), Phase("status_poll", count=3, period_ms=50.0)]
        card = Card(demo_profile(), proactive_trigger_polls=99)
        link = VirtualLink(card, 10.0, stall=STALL_OFF)
        report = ModemSim(script=script).run(link)
        assert report.failure is None
        # 3 exchanges of 10 ms plus 2 inter-poll idles of 50 ms.
        assert link.now_ms == pytest.approx(130.0)


class TestPhaseRepetition:
    """Every phase runs ``count`` times with ``period_ms`` between runs."""

    # Exchanges one run of each phase makes in the default script's place;
    # proactive_fetch drains the card's one command on its first run.
    EXCHANGES_PER_RUN = {"reset": 0, "read_iccid": 2, "select_usim": 1,
                         "read_imsi": 2, "authenticate": 1, "status_poll": 1,
                         "proactive_fetch": 0}

    @pytest.mark.parametrize("name", sorted(EXCHANGES_PER_RUN))
    def test_count_and_period_take_effect_on_every_phase(self, name):
        assert {phase.name for phase in DEFAULT_SCRIPT} == set(self.EXCHANGES_PER_RUN)
        count = next(p.count for p in DEFAULT_SCRIPT if p.name == name) + 2
        script = [Phase(name, count, 40.0) if phase.name == name else phase
                  for phase in DEFAULT_SCRIPT]
        base_link = VirtualLink(Card(demo_profile()), 10.0)
        base = verified_modem().run(base_link)
        link = VirtualLink(Card(demo_profile()), 10.0)
        report = verified_modem(script=script).run(link)
        assert report.failure is None and report.aka_ok is True
        assert report.completed_phases == base.completed_phases
        extra = 2 * self.EXCHANGES_PER_RUN[name]
        assert report.exchanges == base.exchanges + extra
        # 10 ms per extra exchange, and a 40 ms pause before every run
        # but the first.
        assert link.now_ms == pytest.approx(
            base_link.now_ms + 10.0 * extra + (count - 1) * 40.0)


def drive(session, card):
    """Answer a session generator's requests straight from ``card``, with
    no link; return the requests in order and the report."""
    requests, reply = [], None
    try:
        while True:
            request = session.send(reply)
            requests.append(request)
            if request is RESET:
                reply = card.reset(), Timing(0.0)
            elif isinstance(request, Idle):
                reply = None
            else:
                reply = card.process(request), Timing(0.0)
    except StopIteration as done:
        return requests, done.value


class TestSessionGenerator:
    """``ModemSim.steps`` driven by hand, with no link."""

    def test_the_demo_script_asks_for_a_reset_then_13_commands(self):
        profile = demo_profile()
        requests, report = drive(verified_modem(profile).steps(), Card(profile))
        assert requests[0] is RESET
        assert all(isinstance(cmd, CommandApdu) for cmd in requests[1:])
        assert [cmd.ins for cmd in requests[1:]] == [
            0xA4, 0xB0, 0xA4, 0xA4, 0xB0, 0x88, 0x88,
            0xF2, 0xF2, 0xF2, 0xF2, 0x12, 0x14]
        assert report == verified_modem(profile).run(zero_delay_link(profile))
        assert report.failure is None

    def test_a_period_is_one_idle_between_each_pair_of_runs(self):
        modem = ModemSim(script=[Phase("reset"),
                                 Phase("status_poll", count=3, period_ms=7)])
        requests, report = drive(modem.steps(), Card(demo_profile()))
        assert len(requests) == 6 and requests[0] is RESET
        assert [cmd.ins for cmd in requests[1::2]] == [0xF2, 0xF2, 0xF2]
        assert requests[2::2] == [Idle(7.0), Idle(7.0)]
        assert report.failure is None and report.exchanges == 3


class CutLink(VirtualLink):
    """Raises LinkClosed on its call number ``cut_at`` (from 0), counting
    resets and exchanges alike."""

    def __init__(self, card, cut_at):
        super().__init__(card, 0.0)
        self.cut_at = cut_at
        self.calls = 0

    def _call(self):
        if self.calls == self.cut_at:
            raise LinkClosed("cut")
        self.calls += 1

    def reset(self):
        self._call()
        return super().reset()

    def exchange(self, cmd):
        self._call()
        return super().exchange(cmd)


class TestLinkFailureAtEveryRequest:
    # The demo session's link calls, phase by phase, in order.
    CALLS_PER_PHASE = [("reset", 1), ("read_iccid", 2), ("select_usim", 1),
                       ("read_imsi", 2), ("authenticate", 2),
                       ("status_poll", 4), ("proactive_fetch", 2)]

    @pytest.mark.parametrize("cut_at", range(14))
    def test_the_session_ends_with_the_link_error(self, cut_at):
        profile = demo_profile()
        link = CutLink(Card(profile), cut_at)
        report = verified_modem(profile).run(link)
        assert report.failure == "LinkClosed(cut)"
        assert report.failure_kind == "LinkClosed"
        assert report.exchanges == max(cut_at - 1, 0)
        finished, calls = [], 0
        for name, count in self.CALLS_PER_PHASE:
            calls += count
            if calls <= cut_at:
                finished.append(name)
        assert report.completed_phases == finished

"""``lab.run_one`` replays a profile's recorded walk; the full simulation
is the oracle.

The full simulation is what ``run_one`` ran before it replayed walks:
``ModemSim`` over a ``VirtualLink`` over a fresh ``Card``, seeded alike.
Every replayed report must equal it field for field, and a session that
makes it raise must raise the same exception type.
"""

import dataclasses
import math
import random
import sys

import pytest

from simlink import lab
from simlink.lab import StallPolicy, VirtualLink, lab_sweep, run_one
from simlink.modem import ModemSim, silence_ms
from simlink.tlv import ProactiveKind
from simlink.vsim import Card, ProfileProactive, SimProfile, demo_profile

CASES_PER_PROFILE = 2000


def simulated(rtt, stall, seed, jitter, budget, profile):
    link = VirtualLink(Card(profile), rtt, jitter, seed, stall)
    modem = ModemSim(waiting_time_ms=budget, verify_aka=True, k=profile.k,
                     op_salt=profile.op_salt, seed=seed)
    return modem.run(link)


def outcome(run, *args):
    """The report as a dict, or the type of what the run raised."""
    try:
        return dataclasses.asdict(run(*args))
    except Exception as exc:
        return type(exc)


def with_proactive(count):
    payloads = [bytes([number]) * (number % 5) for number in range(count)]
    kinds = [ProactiveKind.SEND_SHORT_MESSAGE, ProactiveKind.PROVIDE_LOCAL_INFO]
    return dataclasses.replace(demo_profile(), proactive=[
        ProfileProactive(kinds[number % 2], payload)
        for number, payload in enumerate(payloads)])


PROFILES = {
    "demo": demo_profile,
    "no-proactive": lambda: with_proactive(0),
    "three-proactive": lambda: with_proactive(3),
    "undrained": lambda: with_proactive(17),  # UndrainedProactive
    "sqn-overflow": lambda: dataclasses.replace(demo_profile(), sqn=2**48 - 1),
}


def seeded_cases(rng, count):
    """Budgets of 0 and equal to the cadence, a cadence of 0, RTTs at and
    just past the budget, with and without jitter."""
    for _ in range(count):
        budget = rng.choice([0.0, 50.0, 300.0, rng.uniform(0.0, 500.0)])
        cadence = rng.choice([0.0, budget, 100.0, rng.uniform(0.0, 400.0)])
        stall = StallPolicy(rng.random() < 0.5, cadence)
        rtt = rng.choice([0.0, budget, math.nextafter(budget, math.inf),
                          cadence, rng.uniform(0.0, 2.0 * budget + 100.0)])
        jitter = rng.choice([0.0, 0.0, rng.uniform(0.0, 150.0)])
        yield rtt, stall, rng.getrandbits(32), jitter, budget


def other_seeds(seed):
    """The seed as each other type ``random.Random`` takes: none of them
    is an int, so each seeds through ``random.Random`` itself."""
    return bool(seed & 1), seed / 7, f"seed-{seed}"


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_replay_equals_the_full_simulation(name):
    profile = PROFILES[name]()
    rng = random.Random(sorted(PROFILES).index(name))
    seen, timeouts = set(), set()
    for number, (rtt, stall, seed, jitter, budget) in enumerate(
            seeded_cases(rng, CASES_PER_PROFILE)):
        for seed in (seed, *other_seeds(seed)) if number % 8 == 0 else (seed,):
            args = rtt, stall, seed, jitter, budget
            want = outcome(simulated, *args, profile)
            got = outcome(lambda *a: run_one(*a, profile=profile), *args)
            assert got == want, args
        if isinstance(want, type):
            seen.add(want.__name__)
        elif want["failure"] is None:
            seen.add("completed")
        elif want["failure_kind"] == "TimeoutExpired":
            timeouts.add(want["exchanges"])
        else:
            seen.add(want["failure_kind"])
    # The cases time out at the first exchange and at many later ones, and
    # reach what each profile's walk ends in.
    assert 0 in timeouts and len(timeouts) >= 5, timeouts
    ending = {"sqn-overflow": "ValueError",
              "undrained": "ProtocolViolation:UndrainedProactive"}
    assert ending.get(name, "completed") in seen, seen


def test_a_session_that_times_out_before_the_card_raises_reports_it():
    profile = PROFILES["sqn-overflow"]()
    report = run_one(400.0, StallPolicy(), profile=profile)
    assert report.failure == "TimeoutExpired(read_iccid)"
    with pytest.raises(ValueError, match="sqn must fit in 48 bits"):
        run_one(0.0, StallPolicy(), profile=profile)
    with pytest.raises(ValueError, match="sqn must fit in 48 bits"):
        run_one(0.0, StallPolicy(), profile=profile)


def test_a_report_is_a_fresh_copy():
    first = run_one(0.0, StallPolicy())
    first.completed_phases.append("tampered")
    first.iccid = None
    assert run_one(0.0, StallPolicy()) == simulated(
        0.0, StallPolicy(), 0, 0.0, 300.0, demo_profile())


def test_a_mutated_profile_is_replayed_with_its_new_values():
    profile = demo_profile()
    before = run_one(0.0, StallPolicy(), profile=profile)
    profile.proactive = []
    profile.imsi = "23201123456"
    after = run_one(0.0, StallPolicy(), profile=profile)
    assert after.exchanges == before.exchanges - 2  # no FETCH, no TERMINAL RESPONSE
    assert after.imsi == "23201123456"
    assert after == simulated(0.0, StallPolicy(), 0, 0.0, 300.0, profile)


# A second value for every SimProfile field.
OTHER_VALUES = {
    "iccid": "8901234567890123463",
    "imsi": "23201123456",
    "k": bytes(16),
    "op_salt": bytes(16),
    "sqn": 77,
    "atr_hex": "3B00",
    "proactive": [],
}


def test_every_profile_field_keys_the_walk():
    """A profile differing from the demo one in any one field, a field
    added later included, gets a walk of its own."""
    base = demo_profile()
    walk = lab._walk_of(base)
    names = [field.name for field in dataclasses.fields(SimProfile)]
    for name in names:
        assert name in OTHER_VALUES, f"no other value for SimProfile.{name}"
        other = dataclasses.replace(base, **{name: OTHER_VALUES[name]})
        assert getattr(other, name) != getattr(base, name), name
        assert lab._walk_of(other) is not walk, name
    assert sorted(OTHER_VALUES) == sorted(names)  # no value for a field gone
    payload = demo_profile()
    payload.proactive[0].payload += b"\x00"
    assert lab._walk_of(payload) is not walk
    assert lab._walk_of(demo_profile()) is walk


def test_the_walk_cache_is_bounded():
    for sqn in range(1000, 1000 + 2 * lab.WALK_CACHE_SIZE):
        run_one(0.0, StallPolicy(), profile=dataclasses.replace(demo_profile(), sqn=sqn))
    assert len(lab._walks) == lab.WALK_CACHE_SIZE


def test_a_sweep_walks_the_card_once_per_profile_and_timeout_index(monkeypatch):
    """Counts, not times: the first sweep over a fresh profile value runs
    one complete walk and one walk up to each exchange some session first
    times out at; a second identical sweep runs no walk at all."""
    processed = []
    process = Card.process

    def counting_process(card, cmd):
        processed.append(cmd.ins)
        return process(card, cmd)

    reports = []
    replay = lab.run_one

    def recording_run_one(*args, **kwargs):
        reports.append(replay(*args, **kwargs))
        return reports[-1]

    profile = dataclasses.replace(demo_profile(), sqn=424_242)  # a fresh value
    complete = simulated(0.0, StallPolicy(), 0, 0.0, 300.0, profile).exchanges
    monkeypatch.setattr(Card, "process", counting_process)
    monkeypatch.setattr(lab, "run_one", recording_run_one)
    grid = [0.0, 250.0, 300.0, 350.0]

    def sweep():
        return lab_sweep(grid, StallPolicy(), repetitions=10, seed=5,
                         jitter_ms=60.0, profile=profile)

    rows = sweep()
    assert len(reports) == len(grid) * 10  # one run_one per session
    indexes = {r.exchanges for r in reports if r.failure_kind == "TimeoutExpired"}
    assert len(indexes) >= 3 and any(r.completed for r in reports)
    assert 0 < len(processed) <= complete + sum(i + 1 for i in indexes)
    del processed[:], reports[:]
    assert sweep() == rows
    assert len(reports) == len(grid) * 10 and processed == []


def test_a_call_without_a_profile_replays_the_one_demo_profile(monkeypatch):
    built = []

    def counted_demo_profile():
        built.append(1)
        return demo_profile()

    default = lab._DEMO_PROFILE
    monkeypatch.setattr(lab, "demo_profile", counted_demo_profile)
    rng = random.Random(0xDEF0)
    for rtt, stall, seed, jitter, budget in seeded_cases(rng, 300):
        assert outcome(run_one, rtt, stall, seed, jitter, budget) == \
            outcome(run_one, rtt, stall, seed, jitter, budget, demo_profile())
    for stall in (StallPolicy(), StallPolicy(enabled=True)):
        assert lab_sweep([0.0, 150.0, 300.0, 600.0], stall, seed=7) == \
            lab_sweep([0.0, 150.0, 300.0, 600.0], stall, seed=7,
                      profile=demo_profile())
    assert built == []  # built once, at import, by no call
    assert lab._DEMO_PROFILE is default and default == demo_profile()


def reference_session(rtt, interval, seed, jitter, budget, exchanges):
    """(timeout index or None, elapsed_ms) of a session, from the stdlib
    draw ``Random.uniform`` itself, ``max`` and a running sum: the replay
    and the full simulation share ``jittered_ms``, so comparing the two
    would not see a drift in its formula."""
    uniform = random.Random(seed).uniform
    elapsed = 0.0
    for index in range(exchanges):
        wait = max(0.0, rtt + uniform(-jitter, jitter))
        silence = interval if 0 < interval < wait else wait
        if silence > budget:
            return index, elapsed + budget
        elapsed += wait
    return None, elapsed


def test_each_draw_and_sum_is_the_stdlib_uniform_to_the_bit():
    """``elapsed_ms`` compared with ``==``: the goldens compare it rounded
    to 3 decimals (``to_dict``) or printed with ``%g``."""
    budget = 300.0
    exchanges = simulated(0.0, StallPolicy(), 0, 0.0, budget,
                          demo_profile()).exchanges
    rtts = (0.0, 150.0, 300.0, 600.0, 900.0, math.nextafter(budget, math.inf))
    # Either side of budget + jitter, where the least first wait crosses
    # the budget and run_one stops drawing.
    edges = {jitter: [math.nextafter(budget + jitter, -math.inf), budget + jitter,
                      math.nextafter(budget + jitter, math.inf)]
             for jitter in (0.5, 50.0)}
    for jitter, edge in edges.items():
        assert [rtt - jitter > budget for rtt in edge] == [False, False, True]
    timeouts = set()
    for seed in range(2000):
        for jitter in (0.5, 50.0):
            for rtt in (*rtts, *edges[jitter]):
                for stall in (StallPolicy(), StallPolicy(enabled=True)):
                    interval = stall.null_interval_ms if stall.enabled else 0.0
                    index, elapsed = reference_session(
                        rtt, interval, seed, jitter, budget, exchanges)
                    report = run_one(rtt, stall, seed, jitter, budget)
                    assert report.elapsed_ms == elapsed, (seed, rtt, jitter, stall)
                    if index is None:
                        assert report.completed and report.exchanges == exchanges
                    else:
                        assert report.failure_kind == "TimeoutExpired"
                        assert report.exchanges == index, (seed, rtt, jitter, stall)
                        timeouts.add(index)
    assert set(range(10)) <= timeouts, timeouts


@pytest.mark.parametrize("rtt", [0.0, 150.0, 900.0])
@pytest.mark.parametrize("stall", [StallPolicy(), StallPolicy(enabled=True)])
@pytest.mark.parametrize("jitter", [0.0, 50.0])
def test_a_session_decided_before_any_draw_still_seeds_a_bad_seed(rtt, stall, jitter):
    """Only an int seed skips its generator; any other seed is still
    handed to random.Random, jittered or not, so a seed it refuses raises
    what the full simulation raises."""
    def raised(run, *args):
        with pytest.raises(Exception) as info:
            run(*args)
        return type(info.value), str(info.value)

    assert raised(run_one, rtt, stall, [7], jitter) == \
        raised(simulated, rtt, stall, [7], jitter, 300.0, demo_profile())


def test_a_draw_of_zero_where_the_jitter_span_overflows_decides_nothing(monkeypatch):
    """With 2 * jitter past the largest float, a draw of 0.0 makes the
    wait nan, so 0.0, and that exchange survives; rtt - jitter alone
    would have said it timed out."""
    monkeypatch.setattr(lab, "_draws", lambda seed: lambda: 0.0)
    rtt, jitter = 1.7e308, 1e308
    assert rtt - jitter > 300.0 and math.isinf(jitter + jitter)
    report = run_one(rtt, StallPolicy(), 7, jitter)
    assert report.completed and report.elapsed_ms == 0.0
    assert report == simulated(rtt, StallPolicy(), 7, jitter, 300.0, demo_profile())


def boundary_grid():
    """Each value and its neighbours one ulp away, none below 0."""
    values = set()
    for value in (0.0, 5e-324, 1.0, 100.0, 150.0, 300.0, 1e308):
        values.update((math.nextafter(value, -math.inf), value,
                       math.nextafter(value, math.inf)))
    return sorted(value for value in values if value >= 0.0)


def test_the_timeout_limit_is_the_silence_rule():
    """A wait past the per-call limit is exactly a wait whose silence
    exceeds the budget."""
    grid = boundary_grid()
    assert len(grid) == 18
    for interval in grid:
        for budget in grid:
            limit = lab._timeout_limit_ms(interval, budget)
            for wait in grid:
                assert (wait > limit) == (silence_ms(wait, interval) > budget), \
                    (wait, interval, budget)


def counted_calls(call):
    """The code objects of the Python-level calls that ``call()`` makes."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes[1:]  # the call itself


# A warm demo session's Python-level calls at the time of writing: run_one,
# three require_ms, _walk_of, _null_interval_ms, _timeout_limit_ms,
# silence_ms and the report copy; a jittered one adds _draws and one
# jittered_ms per exchange (13), but one whose first wait always times out
# (stall off, 900 ms past a 300 ms budget with 50 ms of jitter) builds no
# generator and draws nothing. The margin of 4 admits a helper or two per
# session, but not one more call per exchange.
CALL_MARGIN = 4
UNJITTERED_CALLS = 9
JITTERED_CALLS = 22


@pytest.mark.parametrize("rtt, stall, jitter, bound", [
    (150.0, StallPolicy(enabled=True), 0.0, UNJITTERED_CALLS),
    (150.0, StallPolicy(enabled=True), 50.0, JITTERED_CALLS),
    (900.0, StallPolicy(), 50.0, UNJITTERED_CALLS),
])
def test_a_session_makes_few_python_calls(rtt, stall, jitter, bound):
    session = lambda: run_one(rtt, stall, 7, jitter)  # noqa: E731
    session()  # records the walk
    codes = counted_calls(session)
    assert random.Random.uniform.__code__ not in codes
    assert random.Random.seed.__code__ not in codes
    assert dataclasses.replace.__code__ not in codes
    assert len(codes) <= bound + CALL_MARGIN, [code.co_name for code in codes]

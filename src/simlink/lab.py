"""Discrete-event latency lab.

Time here is simulated: a sweep over intercontinental round-trip times
runs in milliseconds of wall clock and is fully reproducible per seed.
The virtual link charges each relayed exchange one sampled RTT and,
when stalling is enabled, reports the fixed cadence at which the
front-end sends NULL procedure bytes toward the modem while the
tunneled response is outstanding; the modem's waiting budget then
decides survival.

The answer-to-reset is served locally by the front-end (it was learned
when the session attached), so reset costs no tunnel round-trip.

A session's walk (the commands, the card's answers and the modem's
checks of them) depends on neither time nor seed: the seed draws the
RANDs, and a RAND changes only the AUTHENTICATE data, never a status, an
exchange count or a check. So :func:`run_one` runs the real modem over a
fresh card once per distinct profile value, recording how many exchanges
the card answers and the report; and once more per exchange that some
session is the first to time out at, for that report. Each session then
only draws its waits (:func:`jittered_ms`), compares each with one limit
that :func:`~simlink.modem.silence_ms` sets per call (the silence rule),
and returns a copy of the matching report with its own elapsed time.
Where the card raised in the walk, a session that times out first gets
its timeout report, and one that reaches the raise walks again and so
raises what the card raises.

So a jittered session costs about what its draws must: seeding its
generator (the Mersenne Twister's set-up, in C; an int seed seeds the C
generator directly, with the stream ``random.Random(seed)`` gives) and
one ``random()`` per exchange. An unjittered session draws nothing, and
neither does a jittered one with an int seed whose RTT less its jitter
is past the timeout limit: every draw times out its first exchange, so
it seeds no generator at all. Any other seed is still handed to
``random.Random``, so a seed it refuses raises what it raises.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import random
import statistics
from _random import Random as _CRandom
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .apdu import CommandApdu
from .modem import (
    DEFAULT_NULL_INTERVAL_MS,
    DEFAULT_WAITING_TIME_MS,
    ModemSim,
    SessionReport,
    Timing,
    require_ms,
    silence_ms,
)
from .vsim import Card, SimProfile, demo_profile

CSV_HEADER = ["rtt_ms", "stall", "success_rate", "median_elapsed_ms"]

# Distinct profile values whose walks run_one keeps; the oldest goes first.
WALK_CACHE_SIZE = 32


@dataclass(frozen=True)
class StallPolicy:
    """NULL cadence the probe front-end uses to keep the modem waiting."""

    enabled: bool = False
    null_interval_ms: float = DEFAULT_NULL_INTERVAL_MS

    def __post_init__(self):
        require_ms("null_interval_ms", self.null_interval_ms)


def jittered_ms(rtt_ms: float, jitter_ms: float,
                rand: Callable[[], float]) -> float:
    """One exchange's round trip: ``rtt_ms`` plus a uniform draw from
    -``jitter_ms`` to ``jitter_ms``, never below 0. ``rand`` is a bound
    ``Random.random``; the draw is ``Random.uniform(-jitter_ms,
    jitter_ms)``'s own formula, ``a + (b - a) * random()``, written out so
    a draw costs no method call, and it gives the same bits."""
    wait = rtt_ms + (-jitter_ms + (jitter_ms - -jitter_ms) * rand())
    return wait if wait > 0.0 else 0.0


def _draws(seed) -> Callable[[], float]:
    """``random.Random(seed).random``. An int seed seeds the C generator
    that ``random.Random`` is built on directly: ``Random.seed`` hands it an
    int unchanged, so the stream is the same, without the two Python frames
    of ``Random.__init__`` and ``Random.seed``. Any other seed goes through
    ``random.Random``, which keeps its stream and its errors."""
    if type(seed) is int:
        return _CRandom(seed).random
    return random.Random(seed).random


def _null_interval_ms(stall: Optional[StallPolicy]) -> float:
    return stall.null_interval_ms if stall is not None and stall.enabled else 0.0


def _timeout_limit_ms(null_interval_ms: float, waiting_time_ms: float) -> float:
    """The wait above which an exchange times out: exactly where
    :func:`~simlink.modem.silence_ms` of the wait exceeds the budget. A
    silence never exceeds its wait and never falls as the wait grows, so
    either not even an endless wait's silence exceeds the budget (no wait
    times out: infinity), or every wait past the budget's does (the
    budget)."""
    if silence_ms(math.inf, null_interval_ms) > waiting_time_ms:
        return waiting_time_ms
    return math.inf


class VirtualLink:
    """In-process card link charging each exchange ``rtt_ms`` of simulated
    time on ``now_ms``, plus a uniform draw from +-``jitter_ms`` seeded by
    ``seed`` when ``jitter_ms`` is not zero (never below zero in all)."""

    def __init__(self, card: Card, rtt_ms: float, jitter_ms: float = 0.0,
                 seed: int = 0, stall: Optional[StallPolicy] = None):
        require_ms("rtt_ms", rtt_ms)
        require_ms("jitter_ms", jitter_ms)
        self.card = card
        self._rtt_ms = rtt_ms
        self._jitter_ms = jitter_ms
        self.now_ms = 0.0
        self._rand = _draws(seed) if jitter_ms else None
        self._null_interval_ms = _null_interval_ms(stall)
        self._atr = card.reset()  # learned at attach, replayed locally

    def reset(self):
        self.card.reset()
        return self._atr, Timing(self.now_ms)

    def exchange(self, cmd: CommandApdu):
        start = self.now_ms
        rtt = self._rtt_ms
        if self._rand is not None:
            rtt = jittered_ms(rtt, self._jitter_ms, self._rand)
        resp = self.card.process(cmd)
        self.now_ms = start + rtt
        return resp, Timing(start, rtt, self._null_interval_ms)

    def idle(self, ms: float):
        self.now_ms += ms


@dataclass(frozen=True)
class SweepRow:
    rtt_ms: float
    stall_enabled: bool
    success_rate: float
    median_elapsed_ms: float

    def as_csv(self) -> List[str]:
        return [
            f"{self.rtt_ms:g}",
            "on" if self.stall_enabled else "off",
            str(round(self.success_rate, 4)),
            f"{self.median_elapsed_ms:g}",
        ]


def _derive_seed(seed: int, rtt_index: int, repetition: int) -> int:
    return seed * 1_000_003 + rtt_index * 8191 + repetition


class _WalkLink:
    """A link over a fresh card that answers every call at once, counting
    the exchanges the card answers. Exchange ``overrun`` (from 0), if
    given, takes 1 ms, past the recording modem's budget of 0 ms.
    ``run_one``'s script has no pauses, so it has no ``idle``."""

    def __init__(self, profile: SimProfile, overrun: Optional[int] = None):
        self.card = Card(profile)
        self._overrun = overrun
        self.answered = 0

    def reset(self):
        return self.card.reset(), Timing(0.0)

    def exchange(self, cmd: CommandApdu):
        resp = self.card.process(cmd)
        wait = 1.0 if self.answered == self._overrun else 0.0
        self.answered += 1
        return resp, Timing(0.0, wait)


class _Walk:
    """One profile value's walk, recorded over a snapshot of the profile:
    how many exchanges the card answers, and the reports of the sessions
    it has been asked for."""

    def __init__(self, profile: SimProfile):
        self.profile = profile
        self._reports: Dict[Optional[int], SessionReport] = {}
        link = _WalkLink(profile)
        try:
            self._reports[None] = self._run(link)
        except Exception:  # not kept: a session that gets as far walks again
            pass
        self.exchanges = link.answered

    def _run(self, link: _WalkLink) -> SessionReport:
        modem = ModemSim(waiting_time_ms=0.0, verify_aka=True,
                         k=self.profile.k, op_salt=self.profile.op_salt)
        return modem.run(link)

    def report(self, overrun: Optional[int], elapsed_ms: float) -> SessionReport:
        """A fresh copy, ending at ``elapsed_ms``, of the report of a
        session whose exchange ``overrun`` is the first to time out (None:
        none does). A report is recorded by a real run the first time it
        is asked for; a run that raises is never kept, so a session that
        reaches the card's raise raises what the card raises."""
        report = self._reports.get(overrun)
        if report is None:
            report = self._reports[overrun] = self._run(
                _WalkLink(self.profile, overrun))
        fresh = object.__new__(SessionReport)  # every field, as replace() copies
        fresh.__dict__.update(report.__dict__)
        fresh.elapsed_ms = elapsed_ms
        fresh.completed_phases = list(report.completed_phases)
        return fresh


_walks: "OrderedDict[tuple, _Walk]" = OrderedDict()

# The profile of a call that names none, built once: nothing here changes
# it, and a walk is recorded over a deep copy.
_DEMO_PROFILE = demo_profile()


def _walk_of(profile: SimProfile) -> _Walk:
    """The walk of the profile's current field values (a ``SimProfile``
    is mutable, so it is keyed on them), recorded on first use."""
    key = [profile.iccid, profile.imsi, bytes(profile.k),
           bytes(profile.op_salt), profile.sqn, profile.atr_hex]
    for entry in profile.proactive:  # a loop: a generator costs a frame
        key += entry.kind, bytes(entry.payload)
    key = tuple(key)
    walk = _walks.get(key)
    if walk is None:
        walk = _Walk(copy.deepcopy(profile))
        if len(_walks) >= WALK_CACHE_SIZE:
            _walks.popitem(last=False)  # one call: safe beside other threads
        _walks[key] = walk
    return walk


def run_one(
    rtt_ms: float,
    stall: StallPolicy,
    seed: int = 0,
    jitter_ms: float = 0.0,
    waiting_time_ms: float = DEFAULT_WAITING_TIME_MS,
    profile: Optional[SimProfile] = None,
):
    """One scripted session against one virtual link; returns the report
    that ``ModemSim`` over a ``VirtualLink`` over a fresh ``Card`` returns
    for the same arguments (or raises what it raises), replayed from the
    profile's recorded walk."""
    require_ms("rtt_ms", rtt_ms)
    require_ms("jitter_ms", jitter_ms)
    require_ms("waiting_time_ms", waiting_time_ms)
    walk = _walk_of(profile or _DEMO_PROFILE)
    limit = _timeout_limit_ms(_null_interval_ms(stall), waiting_time_ms)
    rand = None
    if jitter_ms:
        # jittered_ms never falls as its draw grows, so the first wait is
        # least at a draw of 0.0. When even that wait times out, every draw
        # does: the session ends at exchange 0, and an int seed, whose
        # generator cannot raise, builds none. (The expression is
        # jittered_ms's at 0.0, not rtt_ms - jitter_ms: where the span
        # overflows to inf, a draw of 0.0 gives nan, a wait of 0.0.)
        if (type(seed) is int and walk.exchanges and rtt_ms + (
                -jitter_ms + (jitter_ms - -jitter_ms) * 0.0) > limit):
            return walk.report(0, 0.0 + waiting_time_ms)
        rand = _draws(seed)
    elif type(seed) is not int:
        # No draws, but the full simulation's modem seeds a generator with
        # it: a seed that random.Random refuses raises here as there.
        random.Random(seed)
    now = 0.0  # the reset, served locally, starts the clock at 0
    for index in range(walk.exchanges):
        wait = rtt_ms if rand is None else jittered_ms(rtt_ms, jitter_ms, rand)
        if wait > limit:
            return walk.report(index, now + waiting_time_ms)
        now += wait
    return walk.report(None, now)


def lab_sweep(
    rtt_grid: Sequence[float],
    stall: StallPolicy,
    repetitions: int = 5,
    seed: int = 0,
    jitter_ms: float = 0.0,
    waiting_time_ms: float = DEFAULT_WAITING_TIME_MS,
    profile: Optional[SimProfile] = None,
) -> List[SweepRow]:
    """Sweep the RTT grid; every cell is `repetitions` fresh sessions.

    Success means the whole script completed. Elapsed medians are taken
    over successful runs when any exist, otherwise over the aborted ones
    (time until the budget ran out).
    """
    if not rtt_grid:
        raise ValueError("empty RTT grid")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, not {repetitions}")
    profile = profile or _DEMO_PROFILE
    rows = []
    for rtt_index, rtt in enumerate(rtt_grid):
        reports = [
            run_one(
                rtt,
                stall,
                seed=_derive_seed(seed, rtt_index, rep),
                jitter_ms=jitter_ms,
                waiting_time_ms=waiting_time_ms,
                profile=profile,
            )
            for rep in range(repetitions)
        ]
        finished = [r.elapsed_ms for r in reports if r.completed]
        pool = finished or [r.elapsed_ms for r in reports]
        rows.append(
            SweepRow(
                rtt_ms=rtt,
                stall_enabled=stall.enabled,
                success_rate=len(finished) / len(reports),
                median_elapsed_ms=statistics.median(pool),
            )
        )
    return rows


def render_csv(rows: List[SweepRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv())
    return out.getvalue()


def render_table(rows: List[SweepRow]) -> str:
    cells = [CSV_HEADER] + [row.as_csv() for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(CSV_HEADER))]
    lines = [
        "  ".join(value.rjust(widths[i]) for i, value in enumerate(line))
        for line in cells
    ]
    return "\n".join(lines)

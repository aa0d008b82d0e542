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
"""

from __future__ import annotations

import csv
import io
import random
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .apdu import CommandApdu
from .modem import DEFAULT_NULL_INTERVAL_MS, ModemSim, Timing, require_ms
from .vsim import Card, SimProfile, demo_profile

CSV_HEADER = ["rtt_ms", "stall", "success_rate", "median_elapsed_ms"]


@dataclass(frozen=True)
class StallPolicy:
    """NULL cadence the probe front-end uses to keep the modem waiting."""

    enabled: bool = False
    null_interval_ms: float = DEFAULT_NULL_INTERVAL_MS

    def __post_init__(self):
        require_ms("null_interval_ms", self.null_interval_ms)


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
        self._rng = random.Random(seed) if jitter_ms else None
        self._null_interval_ms = (stall.null_interval_ms
                                  if stall is not None and stall.enabled else 0.0)
        self._atr = card.reset()  # learned at attach, replayed locally

    def reset(self):
        self.card.reset()
        return self._atr.to_bytes(), Timing(self.now_ms)

    def exchange(self, cmd: CommandApdu):
        start = self.now_ms
        rtt = self._rtt_ms
        if self._rng is not None:
            jitter = self._jitter_ms
            rtt = max(0.0, rtt + self._rng.uniform(-jitter, jitter))
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


def run_one(
    rtt_ms: float,
    stall: StallPolicy,
    seed: int = 0,
    jitter_ms: float = 0.0,
    waiting_time_ms: float = 300.0,
    profile: Optional[SimProfile] = None,
):
    """One scripted session against one virtual link; returns the report."""
    profile = profile or demo_profile()
    card = Card(profile)
    link = VirtualLink(card, rtt_ms, jitter_ms, seed, stall)
    modem = ModemSim(
        waiting_time_ms=waiting_time_ms,
        verify_aka=True,
        k=profile.k,
        op_salt=profile.op_salt,
        seed=seed,
    )
    return modem.run(link)


def lab_sweep(
    rtt_grid: Sequence[float],
    stall: StallPolicy,
    repetitions: int = 5,
    seed: int = 0,
    jitter_ms: float = 0.0,
    waiting_time_ms: float = 300.0,
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
    profile = profile or demo_profile()
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

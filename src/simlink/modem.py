"""A virtual modem that drives a full SIM session over any link.

The modem owns the T=0 work-waiting budget: if no procedure byte or
status arrives within ``waiting_time_ms`` of the previous NULL or
transfer, the session aborts with TimeoutExpired. Links report each
exchange as a :class:`Timing`: when it started, how long the reply took
and the NULL cadence the front-end kept meanwhile. The modem checks the
longest silence that implies and replays the exchange through the
procedure-byte machine, as the front-end would feed a hardware modem.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

from . import tlv
from .apdu import (
    CommandApdu,
    INS_AUTHENTICATE,
    INS_FETCH,
    INS_READ_BINARY,
    INS_SELECT,
    INS_STATUS,
    INS_TERMINAL_RESPONSE,
    STATUS_STARTED,
    TRANSFER_ALL,
    WAITED,
    ProcedureState,
    ResponseApdu,
    StatusKind,
    StepKind,
    StepResult,
    classify_status,
)
from .errors import AuthFailed, ProtocolViolation, SimlinkError, TimeoutExpired
from .tracer import Tracer
from .vsim import USIM_AID, decode_iccid, decode_imsi, verify_aka_response

DEFAULT_WAITING_TIME_MS = 300.0
DEFAULT_NULL_INTERVAL_MS = 100.0

PHASE_RESET = "reset"
PHASE_READ_ICCID = "read_iccid"
PHASE_SELECT_USIM = "select_usim"
PHASE_READ_IMSI = "read_imsi"
PHASE_AUTHENTICATE = "authenticate"
PHASE_STATUS_POLL = "status_poll"
PHASE_PROACTIVE_FETCH = "proactive_fetch"

# FETCH rounds in a proactive_fetch phase; a card still announcing fails.
PROACTIVE_FETCH_ROUNDS = 16

EF_ICCID = b"\x2F\xE2"
EF_IMSI = b"\x6F\x07"

# The script's fixed commands; CommandApdu is frozen, so sessions share them.
SELECT_EF_ICCID = CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=EF_ICCID)
READ_EF_ICCID = CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x00, le=10)
SELECT_ADF_USIM = CommandApdu(0x00, INS_SELECT, 0x04, 0x04, data=USIM_AID)
SELECT_EF_IMSI = CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=EF_IMSI)
READ_EF_IMSI = CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x00, le=9)
STATUS = CommandApdu(0x00, INS_STATUS, 0x00, 0x00)

# The status kinds every exchange is checked against, bound once (see the
# enum note in tunnel.py).
_OK = StatusKind.OK
_WRONG_LE = StatusKind.WRONG_LE
_PROACTIVE_PENDING = StatusKind.PROACTIVE_PENDING


class Timing(NamedTuple):
    """One exchange as the modem observes it, in link-clock milliseconds:
    sent at ``start_ms`` and answered ``wait_ms`` later, with a NULL
    procedure byte every ``null_interval_ms`` while the answer was
    awaited (0: stalling off)."""

    start_ms: float
    wait_ms: float = 0.0
    null_interval_ms: float = 0.0

    @property
    def done_ms(self) -> float:
        return self.start_ms + self.wait_ms


@dataclass(frozen=True)
class Phase:
    name: str
    count: int = 1
    period_ms: float = 0.0


# Phase is frozen, so every modem without a script of its own shares these.
DEFAULT_SCRIPT = (
    Phase(PHASE_RESET),
    Phase(PHASE_READ_ICCID),
    Phase(PHASE_SELECT_USIM),
    Phase(PHASE_READ_IMSI),
    Phase(PHASE_AUTHENTICATE, count=2),
    Phase(PHASE_STATUS_POLL, count=4),
    Phase(PHASE_PROACTIVE_FETCH),
)


def require_ms(name: str, value: float):
    """Refuse a time that is not a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, not {value}")


def silence_ms(wait_ms: float, null_interval_ms: float) -> float:
    """The longest silence of a wait of ``wait_ms`` with a NULL every
    ``null_interval_ms`` (0: none). NULLs come every interval strictly
    within the wait, so it is the interval when one arrives and the whole
    wait when none does. A silence longer than the budget is a timeout;
    one equal to it survives."""
    if 0 < null_interval_ms < wait_ms:
        return null_interval_ms
    return wait_ms


def script_from_json(text: str) -> dict:
    """Parse a script file: phases plus optional modem settings.

    Schema: {"phases": [{"name": ..., "count"?, "period_ms"?}, ...],
    "waiting_time_ms"?, "seed"?, "verify"?: {"k_hex", "op_salt_hex"}}
    """
    doc = json.loads(text)
    out = dict(doc)
    if "phases" in doc:
        out["phases"] = [
            Phase(p["name"], count=int(p.get("count", 1)),
                  period_ms=float(p.get("period_ms", 0.0)))
            for p in doc["phases"]
        ]
    return out


@dataclass
class SessionReport:
    """One session's outcome. ``failure`` describes the error that ended
    it; ``failure_kind`` names its class, with a ``ProtocolViolation``'s
    ``kind`` after a colon (``ProtocolViolation:BadStatus``). Both are
    None for a session that completed."""

    completed_phases: List[str] = field(default_factory=list)
    aka_ok: Optional[bool] = None
    elapsed_ms: float = 0.0
    failure: Optional[str] = None
    failure_kind: Optional[str] = None
    iccid: Optional[str] = None
    imsi: Optional[str] = None
    exchanges: int = 0

    @property
    def completed(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        return {
            "completed_phases": self.completed_phases,
            "aka_ok": self.aka_ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "failure": self.failure,
            "iccid": self.iccid,
            "imsi": self.imsi,
            "exchanges": self.exchanges,
        }


class ModemSim:
    """Scripted modem: runs its phases in order against a link.

    A link provides ``reset() -> (atr_bytes, Timing)``,
    ``exchange(cmd) -> (ResponseApdu, Timing)`` and ``idle(ms)`` for
    inter-poll pauses. A ``SimlinkError`` from the link or the card's
    answers ends the session with its ``failure``; any other exception
    is a programming error and propagates.
    """

    def __init__(
        self,
        script: Optional[Sequence[Phase]] = None,
        waiting_time_ms: float = DEFAULT_WAITING_TIME_MS,
        verify_aka: bool = False,
        k: Optional[bytes] = None,
        op_salt: Optional[bytes] = None,
        seed: int = 0,
    ):
        require_ms("waiting_time_ms", waiting_time_ms)
        if script is None:
            self.script = DEFAULT_SCRIPT
        else:
            self.script = tuple(script)
            for phase in self.script:
                if phase.name not in _SessionRun.PHASES:
                    raise ValueError(f"unknown phase {phase.name!r}")
                if phase.count < 1 or not (math.isfinite(phase.period_ms)
                                           and phase.period_ms >= 0):
                    raise ValueError(
                        f"phase {phase.name!r}: count must be at least 1 and "
                        "period_ms a finite number >= 0, not "
                        f"{phase.count} and {phase.period_ms}")
        self.waiting_time_ms = waiting_time_ms
        self.verify_aka = verify_aka
        self.k = k
        self.op_salt = op_salt
        self.seed = seed
        if verify_aka and (k is None or op_salt is None):
            raise ValueError("verify_aka needs k and op_salt")

    # -- public -----------------------------------------------------------

    def run(self, link, tracer: Optional[Tracer] = None) -> SessionReport:
        runner = _SessionRun(self, link, tracer)
        return runner.run()


def _misread(byte: int, got: StepResult, expected: StepKind) -> ProtocolViolation:
    return ProtocolViolation(
        "ProcedureByte",
        f"byte {byte:02X} read as {got.kind.value}, expected {expected.value}",
    )


class _SessionRun:
    """State for one session execution."""

    def __init__(self, modem: ModemSim, link, tracer: Optional[Tracer]):
        self.m = modem
        self.link = link
        self.tracer = tracer
        self.rng = random.Random(modem.seed)
        self.report = SessionReport()
        self.t0: Optional[float] = None
        self.last_event: float = 0.0
        self.pending_proactive: Optional[int] = None
        self.last_sqn: Optional[int] = None
        self.aka_verified = False  # a round verified and none failed
        self.phase_name = PHASE_RESET
        self.status = None  # the StatusClass of the last exchange

    def run(self) -> SessionReport:
        try:
            for phase in self.m.script:
                self.phase_name = phase.name
                self.PHASES[phase.name](self, phase)
                self.report.completed_phases.append(phase.name)
        except SimlinkError as exc:  # link/protocol failures abort the session
            kind = type(exc).__name__
            if isinstance(exc, TimeoutExpired):
                self.report.failure = f"{kind}({exc.phase})"
            else:
                self.report.failure = f"{kind}({exc})"
            if isinstance(exc, ProtocolViolation):
                kind += ":" + exc.kind
            self.report.failure_kind = kind
            self.aka_verified &= not isinstance(exc, AuthFailed)
        if self.m.verify_aka:
            self.report.aka_ok = self.aka_verified
        self.report.elapsed_ms = max(0.0, self.last_event - (self.t0 or 0.0))
        return self.report

    # -- plumbing -----------------------------------------------------------

    def _note_timing(self, timing: Timing) -> bool:
        """Check the exchange's longest silence (:func:`silence_ms`)
        against the budget and return whether a NULL arrived: it did
        exactly when the silence is shorter than the wait."""
        start, wait, interval = timing
        if self.t0 is None:
            self.t0 = start
        silence = silence_ms(wait, interval)
        budget = self.m.waiting_time_ms
        if silence > budget:
            self.last_event = start + budget
            raise TimeoutExpired(
                self.phase_name, f"{silence:.0f} ms gap, budget {budget:.0f} ms"
            )
        self.last_event = start + wait  # the exchange's done_ms
        return silence < wait

    def _walk_procedure(self, cmd: CommandApdu, resp: ResponseApdu,
                        stalled: bool):
        # Replay the byte-level view: a NULL if the front-end stalled (a
        # NULL changes no state, so one stands for all), then the INS
        # echo transferring the body, then SW1. SW2 is taken from the
        # response itself (the pair is already complete at APDU level).
        # Each result is checked by identity against apdu's shared ones.
        step = ProcedureState(cmd.ins).step
        if stalled:
            got = step(0x60)
            if got is not WAITED:
                raise _misread(0x60, got, StepKind.WAITED)
        got = step(cmd.ins)
        if got is not TRANSFER_ALL:
            raise _misread(cmd.ins, got, StepKind.TRANSFER_ALL)
        got = step(resp.sw1)
        if got is not STATUS_STARTED.get(resp.sw1):
            raise _misread(resp.sw1, got, StepKind.STATUS_STARTED)

    def _exchange(self, cmd: CommandApdu, retry_wrong_le: bool = True) -> ResponseApdu:
        resp, timing = self.link.exchange(cmd)
        self._walk_procedure(cmd, resp, self._note_timing(timing))
        if self.tracer is not None:
            base = self.t0 or 0.0
            self.tracer.command(timing.start_ms - base, cmd)
            self.tracer.response(timing.done_ms - base, resp, command=cmd)
        self.report.exchanges += 1
        self.status = status = classify_status(resp.sw1, resp.sw2)
        kind = status.kind
        if kind is _PROACTIVE_PENDING:
            self.pending_proactive = status.value
        elif kind is _OK:
            self.pending_proactive = None
        elif kind is _WRONG_LE and retry_wrong_le:
            corrected = CommandApdu(cmd.cla, cmd.ins, cmd.p1, cmd.p2,
                                    data=cmd.data, le=status.value or 256)
            return self._exchange(corrected, retry_wrong_le=False)
        return resp

    def _succeeded(self) -> bool:
        """Whether the last exchange answered 90 00 or 91 xx."""
        kind = self.status.kind
        return kind is _OK or kind is _PROACTIVE_PENDING

    def _expect_success(self, resp: ResponseApdu, what: str) -> ResponseApdu:
        """``resp``, the last exchange's, if it succeeded."""
        if not self._succeeded():
            raise ProtocolViolation(
                "BadStatus", f"{what} answered {resp.sw1:02X}{resp.sw2:02X}")
        return resp

    # -- phases ---------------------------------------------------------------

    def _phase_reset(self, phase: Phase):
        atr_bytes, timing = self.link.reset()
        self._note_timing(timing)
        if not atr_bytes:
            raise ProtocolViolation("EmptyAtr", "the reset answered no ATR")

    def _phase_read_iccid(self, phase: Phase):
        self._expect_success(
            self._exchange(SELECT_EF_ICCID),
            "SELECT EF_ICCID",
        )
        resp = self._expect_success(
            self._exchange(READ_EF_ICCID),
            "READ BINARY EF_ICCID",
        )
        self.report.iccid = decode_iccid(resp.data)

    def _phase_select_usim(self, phase: Phase):
        self._expect_success(
            self._exchange(SELECT_ADF_USIM),
            "SELECT ADF_USIM",
        )

    def _phase_read_imsi(self, phase: Phase):
        self._expect_success(
            self._exchange(SELECT_EF_IMSI),
            "SELECT EF_IMSI",
        )
        resp = self._expect_success(
            self._exchange(READ_EF_IMSI),
            "READ BINARY EF_IMSI",
        )
        self.report.imsi = decode_imsi(resp.data)

    def _phase_authenticate(self, phase: Phase):
        randrange = self.rng.randrange
        for _ in range(phase.count):
            rand = bytes([randrange(256) for _ in range(16)])
            resp = self._exchange(
                CommandApdu(0x00, INS_AUTHENTICATE, 0x00, 0x81, data=rand, le=56)
            )
            if not self._succeeded():
                raise AuthFailed(f"status {resp.sw1:02X}{resp.sw2:02X}")
            if not self.m.verify_aka:
                continue
            sqn = verify_aka_response(self.m.k, self.m.op_salt, rand, resp.data)
            if self.last_sqn is not None and sqn <= self.last_sqn:
                raise AuthFailed(f"sequence counter did not advance: {sqn}")
            self.last_sqn = sqn
            self.aka_verified = True

    def _phase_status_poll(self, phase: Phase):
        for i in range(phase.count):
            self._expect_success(self._exchange(STATUS), "STATUS")
            if phase.period_ms and i + 1 < phase.count:
                self.link.idle(phase.period_ms)

    def _phase_proactive_fetch(self, phase: Phase):
        # Drain whatever the card announced; each fetched command gets a
        # terminal response so hidden activity is fully acknowledged.
        rounds = PROACTIVE_FETCH_ROUNDS
        while self.pending_proactive and rounds:
            rounds -= 1
            fetched = self._expect_success(
                self._exchange(
                    CommandApdu(0x80, INS_FETCH, 0x00, 0x00,
                                le=self.pending_proactive)
                ),
                "FETCH",
            )
            info = tlv.parse_proactive(fetched.data)
            if info is None:
                raise ProtocolViolation(
                    "BadProactive",
                    f"FETCH answered {len(fetched.data)} octets that are not "
                    "a proactive command")
            body = tlv.encode_terminal_response(info)
            self._expect_success(
                self._exchange(
                    CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0x00, 0x00, data=body)
                ),
                "TERMINAL RESPONSE",
            )
        if self.pending_proactive:
            raise ProtocolViolation(
                "UndrainedProactive",
                "the card still announces a proactive command after "
                f"{PROACTIVE_FETCH_ROUNDS} FETCH rounds")

    # Phase name -> handler, built once with the class.
    PHASES = {
        PHASE_RESET: _phase_reset,
        PHASE_READ_ICCID: _phase_read_iccid,
        PHASE_SELECT_USIM: _phase_select_usim,
        PHASE_READ_IMSI: _phase_read_imsi,
        PHASE_AUTHENTICATE: _phase_authenticate,
        PHASE_STATUS_POLL: _phase_status_poll,
        PHASE_PROACTIVE_FETCH: _phase_proactive_fetch,
    }

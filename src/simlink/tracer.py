"""Inspect, decode, rewrite, and persist the relayed command stream.

Trace files are JSON Lines, one event per line, each written once. A
fetched SEND SHORT MESSAGE is flagged ``silent_sms`` when its TERMINAL
RESPONSE arrives; until then it and every later event are held back, so
the file keeps stream order. Every other exchange reaches the file before
its response is sent, so a crash loses only the events held behind an
unacknowledged SEND SHORT MESSAGE. The schema is stable:

    {"ts_ms": int, "dir": "m2s"|"s2m", "raw_hex": str,
     "decoded": {...}, "session": int, "flags": [str]}

``raw_hex`` holds the relayed octets: for modem-to-sim events the bytes
as the modem sent them (before any rewriting), for sim-to-modem events
the bytes as the modem will see them (after rewriting). When a rewrite
changed the octets, the original is preserved in ``decoded.original_hex``
next to the matched ``rule_id``, so both endpoint views stay
reconstructible from one file.

One tracer serves one session and owns its file.

Most relayed octets recur in every session, so each distinct event is
decoded once: one process-wide LRU cache of ``RENDER_CACHE_SIZE``
entries, keyed on the event's direction and relayed octets (and, for a
response, the answered INS), holds its ``raw_hex`` and its ``decoded``
fields. Each event gets its own copy of ``decoded``, to which a
rewritten response adds its ``rule_id`` and ``original_hex``, and every
line is formatted from the event's own fields, so the cache changes no
line, no schema and no file layout.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import tlv
from .apdu import (
    CommandApdu,
    INS_FETCH,
    INS_SELECT,
    INS_TERMINAL_RESPONSE,
    ResponseApdu,
    classify_status,
    decode_command,
    encode_command,
    ins_name,
)

DIR_MODEM_TO_SIM = "m2s"
DIR_SIM_TO_MODEM = "s2m"

FLAG_SILENT_SMS = "silent_sms"
FLAG_REWRITTEN = "rewritten"


# The stdlib's compact encoding, built once: ``json.dumps`` with
# ``separators`` builds a new encoder on every call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_string = json.encoder.encode_basestring_ascii  # TypeError for a non-str

# The keys a tracer puts in ``decoded``, each encoded once with its colon.
_DECODED_KEYS = {
    key: _string(key) + ":"
    for key in ("ins_name", "aid", "file_id", "status_class", "proactive_type",
                "proactive_number", "rule_id", "original_hex")
}


def _members(decoded: dict) -> Optional[str]:
    """The members of ``decoded`` as ``_COMPACT`` writes them, if every
    key is a str and every value a str or an int; else None."""
    members = []
    for key, value in decoded.items():
        name = _DECODED_KEYS.get(key) or _string(key) + ":"
        if type(value) is str:
            members.append(name + _string(value))
        elif type(value) is int:
            members.append(f"{name}{value}")
        else:
            return None
    return ",".join(members)


@dataclass
class TraceEvent:
    ts_ms: int
    direction: str
    raw_hex: str
    decoded: dict
    session_id: int
    flags: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        """One compact ASCII line, byte-identical to ``json.dumps(doc,
        separators=(",", ":"))``. The fields a tracer gives an event are
        formatted in one pass; any other value (a float ``ts_ms``, a
        nested ``decoded`` value) goes through ``_COMPACT``."""
        ts, session, decoded, flags = (self.ts_ms, self.session_id,
                                       self.decoded, self.flags)
        if (type(ts) is int and type(session) is int and type(flags) is list
                and isinstance(decoded, dict)):
            try:
                members = _members(decoded)
                if members is not None:
                    listed = ",".join(map(_string, flags)) if flags else ""
                    return (f'{{"ts_ms":{ts},"dir":{_string(self.direction)},'
                            f'"raw_hex":{_string(self.raw_hex)},'
                            f'"decoded":{{{members}}},"session":{session},'
                            f'"flags":[{listed}]}}')
            except TypeError:  # a key, direction, raw_hex or flag not a str
                pass
        return _COMPACT.encode({
            "ts_ms": ts,
            "dir": self.direction,
            "raw_hex": self.raw_hex,
            "decoded": decoded,
            "session": session,
            "flags": flags,
        })

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        doc = json.loads(line)
        return cls(
            ts_ms=doc["ts_ms"],
            direction=doc["dir"],
            raw_hex=doc["raw_hex"],
            decoded=doc.get("decoded", {}),
            session_id=doc["session"],
            flags=list(doc.get("flags", [])),
        )


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_command_event(cmd: CommandApdu) -> dict:
    """Summarize one relayed command for the trace."""
    decoded = {"ins_name": ins_name(cmd.ins)}
    if cmd.ins == INS_SELECT:
        if cmd.p1 == 0x04 and cmd.data:
            decoded["aid"] = cmd.data.hex().upper()
        elif len(cmd.data) == 2:
            decoded["file_id"] = cmd.data.hex().upper()
    elif cmd.ins == INS_TERMINAL_RESPONSE:
        info = tlv.parse_terminal_response(cmd.data)
        if info is not None:
            decoded["proactive_number"] = info.command_number
            decoded["proactive_type"] = info.type_name
    return decoded


def decode_response_event(resp: ResponseApdu,
                          command: Optional[CommandApdu] = None) -> dict:
    """Summarize one relayed response for the trace; ``command``, the one
    it answers, selects the FETCH proactive envelope decoding. Bodies
    that do not decode never fail: the raw octets are in the event."""
    return _decode_response(resp, None if command is None else command.ins)


def _decode_response(resp: ResponseApdu, ins: Optional[int]) -> dict:
    decoded = {"ins_name": "UNKNOWN" if ins is None else ins_name(ins)}
    decoded["status_class"] = classify_status(resp.sw1, resp.sw2).kind.value
    if ins == INS_FETCH and resp.data:
        info = tlv.parse_proactive(resp.data) or tlv.parse_terminal_response(resp.data)
        if info is not None:
            decoded["proactive_type"] = info.type_name
            decoded["proactive_number"] = info.command_number
    return decoded


# Distinct events kept decoded. A demo session relays 26 events, 22 of
# which recur in every session, while its two AUTHENTICATE exchanges
# never recur. Under LRU the recurring ones stay, and the bound keeps the
# one-off ones from growing the process.
RENDER_CACHE_SIZE = 256


@functools.lru_cache(maxsize=RENDER_CACHE_SIZE)
def _render(direction: str, octets: bytes,
            ins: Optional[int] = None) -> Tuple[str, dict]:
    """The ``raw_hex`` and ``decoded`` of the event that relays ``octets``
    in ``direction``: a command as the modem sent it, or a response as the
    modem will see it, answering ``ins``. The dict is shared by every hit:
    callers copy it."""
    if direction == DIR_MODEM_TO_SIM:
        cmd = decode_command(octets)
        octets, decoded = encode_command(cmd), decode_command_event(cmd)
    else:
        decoded = _decode_response(ResponseApdu.from_bytes(octets), ins)
    return octets.hex().upper(), decoded


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

ACTION_REPLACE_RESPONSE_DATA = "replace_response_data"
ACTION_REPLACE_STATUS = "replace_status"
ACTION_DROP = "drop"
ACTION_PASS_THROUGH = "pass_through"

_COMMAND_MATCH_FIELDS = {"cla", "ins", "p1", "p2"}
_RESPONSE_MATCH_FIELDS = {"sw1", "sw2"}

# Drop synthesizes this toward the modem so alternation survives.
DROP_STATUS = (0x6D, 0x00)


@dataclass(frozen=True)
class RewriteRule:
    """One match/action pair; rules apply in list order, first match wins."""

    rule_id: str
    on: str  # "command" | "response"
    match: dict
    action: str
    data: bytes = b""
    sw: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.on not in ("command", "response"):
            raise ValueError(f"rule {self.rule_id}: bad target {self.on!r}")
        if self.action not in (ACTION_REPLACE_RESPONSE_DATA, ACTION_REPLACE_STATUS,
                               ACTION_DROP, ACTION_PASS_THROUGH):
            raise ValueError(f"rule {self.rule_id}: bad action {self.action!r}")
        if self.action == ACTION_REPLACE_STATUS and self.sw is None:
            raise ValueError(f"rule {self.rule_id}: replace_status needs sw1/sw2")
        for name, value in (("data_prefix", self.match.get("data_prefix", b"")),
                            ("data", self.data)):
            if not isinstance(value, bytes):
                raise ValueError(f"rule {self.rule_id}: {name} must be bytes, "
                                 f"not {value!r}")
        # A field the target lacks would be ignored and match everything.
        fields = (_COMMAND_MATCH_FIELDS if self.on == "command"
                  else _RESPONSE_MATCH_FIELDS)
        unknown = self.match.keys() - fields - {"data_prefix"}
        if unknown:
            raise ValueError(f"rule {self.rule_id}: a {self.on} rule cannot "
                             f"match {', '.join(map(repr, sorted(unknown)))}")
        octets = [item for item in self.match.items() if item[0] in fields]
        for name, value in octets + list(zip(("sw1", "sw2"), self.sw or ())):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or not 0 <= value <= 0xFF:
                raise ValueError(f"rule {self.rule_id}: {name} must be an int "
                                 f"from 0 to 255, not {value!r}")

    def matches_command(self, cmd: CommandApdu) -> bool:
        if self.on != "command":
            return False
        m = self.match
        for name in ("cla", "ins", "p1", "p2"):
            if name in m and getattr(cmd, name) != m[name]:
                return False
        prefix = m.get("data_prefix", b"")
        return cmd.data.startswith(prefix)

    def matches_response(self, resp: ResponseApdu) -> bool:
        if self.on != "response":
            return False
        m = self.match
        if "sw1" in m and resp.sw1 != m["sw1"]:
            return False
        if "sw2" in m and resp.sw2 != m["sw2"]:
            return False
        prefix = m.get("data_prefix", b"")
        return resp.data.startswith(prefix)

    def apply_to_response(self, resp: ResponseApdu) -> ResponseApdu:
        if self.action == ACTION_REPLACE_RESPONSE_DATA:
            return ResponseApdu(self.data, resp.sw1, resp.sw2)
        if self.action == ACTION_REPLACE_STATUS:
            return ResponseApdu(resp.data, *self.sw)
        if self.action == ACTION_DROP:
            return ResponseApdu(b"", *DROP_STATUS)
        return resp


def rule_from_dict(doc: dict) -> RewriteRule:
    match = dict(doc.get("match", {}))
    on = doc.get("on")
    if on is None:
        # Infer the target from the fields present; a bare data_prefix is
        # ambiguous and must say which side it means.
        if match.keys() & _COMMAND_MATCH_FIELDS:
            on = "command"
        elif match.keys() & _RESPONSE_MATCH_FIELDS:
            on = "response"
        else:
            raise ValueError(
                f"rule {doc.get('rule_id')!r}: cannot infer target, add \"on\""
            )
    if "data_prefix" in match:
        match["data_prefix"] = bytes.fromhex(match["data_prefix"])
    action = doc["action"]
    kind = action["kind"]
    data = bytes.fromhex(action.get("data_hex", ""))
    sw = None
    if kind == ACTION_REPLACE_STATUS:
        sw = (action["sw1"], action["sw2"])
    return RewriteRule(
        rule_id=doc["rule_id"], on=on, match=match, action=kind, data=data, sw=sw
    )


def rules_from_json(text: str) -> List[RewriteRule]:
    return [rule_from_dict(doc) for doc in json.loads(text)]


@dataclass(frozen=True)
class RewriteOutcome:
    response: ResponseApdu
    rule_id: Optional[str] = None
    original: Optional[ResponseApdu] = None  # set only when octets changed


class Rewriter:
    """Relay-side engine: command rules are consulted in list order before
    the card runs (a drop must keep the card out of the loop), response
    rules only if no command rule matched; the first match wins."""

    def __init__(self, rules: Optional[List[RewriteRule]] = None):
        rules = rules or []
        self._command_rules = [r for r in rules if r.on == "command"]
        self._response_rules = [r for r in rules if r.on == "response"]

    def process(self, cmd: CommandApdu, respond) -> RewriteOutcome:
        """Run one exchange through the rules; ``respond`` asks the card."""
        for rule in self._command_rules:
            if rule.matches_command(cmd):
                if rule.action == ACTION_DROP:
                    return RewriteOutcome(ResponseApdu(b"", *DROP_STATUS),
                                          rule.rule_id)
                resp = respond(cmd)
                break
        else:
            resp = respond(cmd)
            for rule in self._response_rules:
                if rule.matches_response(resp):
                    break
            else:
                return RewriteOutcome(resp)
        new = rule.apply_to_response(resp)
        return RewriteOutcome(
            new, rule.rule_id, original=resp if new != resp else None
        )


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Records one session's events, flagging silent SMS as they pair up.

    With a ``path`` it owns that file, opened unbuffered: each
    ``response()`` writes the held events' lines in one write unless a
    fetched SEND SHORT MESSAGE still waits for its TERMINAL RESPONSE, and
    ``close()`` writes the rest and closes it. ``events`` holds what is
    unwritten (all, without a file); ``silent_sms`` counts the fetches
    flagged."""

    def __init__(self, session_id: int, path: Optional[str] = None):
        self.session_id = session_id
        self.events: List[TraceEvent] = []
        self.silent_sms = 0
        self._waiting: Dict[object, List[TraceEvent]] = {}  # fetches by number
        self._file = None if path is None else open(path, "wb", buffering=0)

    def record(self, event: TraceEvent) -> List[TraceEvent]:
        """Append one event in stream order; return the fetched SEND SHORT
        MESSAGEs it acknowledges, which it flags ``silent_sms``."""
        self.events.append(event)
        decoded = event.decoded
        number = decoded.get("proactive_number")
        if event.direction == DIR_MODEM_TO_SIM:
            if decoded.get("ins_name") == "TERMINAL RESPONSE":
                acked = self._waiting.pop(number, [])
                for fetched in acked:
                    if FLAG_SILENT_SMS not in fetched.flags:
                        fetched.flags.append(FLAG_SILENT_SMS)
                self.silent_sms += len(acked)
                return acked
        elif (event.direction == DIR_SIM_TO_MODEM and number is not None
              and decoded.get("proactive_type") == "SEND_SHORT_MESSAGE"):
            self._waiting.setdefault(number, []).append(event)
        return []

    def close(self):
        """Write the events still held, unflagged, and close the file."""
        if self._file is not None:
            self._write()
            self._file.close()
            self._file = None

    def _write(self):
        events = self.events
        if events:
            data = ("\n".join(map(TraceEvent.to_json, events)) + "\n").encode()
            while data:  # one write, unless the file takes only part of it
                data = data[self._file.write(data):]
            events.clear()

    def command(self, ts_ms: float, cmd: CommandApdu,
                octets: Optional[bytes] = None) -> TraceEvent:
        """Record one relayed command; ``octets``, the command as relayed,
        spare encoding it again."""
        raw_hex, decoded = _render(
            DIR_MODEM_TO_SIM, encode_command(cmd) if octets is None else octets)
        event = TraceEvent(int(ts_ms), DIR_MODEM_TO_SIM, raw_hex,
                           dict(decoded), self.session_id, [])
        self.record(event)
        return event

    def response(
        self,
        ts_ms: float,
        resp: ResponseApdu,
        command: Optional[CommandApdu] = None,
        rule_id: Optional[str] = None,
        original: Optional[ResponseApdu] = None,
        octets: Optional[bytes] = None,
    ) -> TraceEvent:
        """Record one relayed response, answering ``command``, rewritten by
        ``rule_id`` from ``original``; ``octets``, the response as relayed,
        spare encoding it again. Writes what the file can take."""
        raw_hex, decoded = _render(
            DIR_SIM_TO_MODEM, resp.to_bytes() if octets is None else octets,
            None if command is None else command.ins)
        decoded = dict(decoded)
        if rule_id is not None:
            decoded["rule_id"] = rule_id
            if original is not None:
                decoded["original_hex"] = original.to_bytes().hex().upper()
        event = TraceEvent(int(ts_ms), DIR_SIM_TO_MODEM, raw_hex, decoded,
                           self.session_id,
                           [] if rule_id is None else [FLAG_REWRITTEN])
        self.record(event)
        if self._file is not None and not self._waiting:
            self._write()
        return event


def read_trace(lines: Iterable[str]) -> List[TraceEvent]:
    return [TraceEvent.from_json(line) for line in lines if line.strip()]


def write_trace(path: str, events: List[TraceEvent]):
    """Write a whole trace file at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(event.to_json() + "\n" for event in events)


def detect_silent_sms(events: List[TraceEvent]) -> List[TraceEvent]:
    """Flag fetched SEND SHORT MESSAGE commands the terminal acknowledged.

    Folds the events through a ``Tracer``, whose pairing this is, and
    returns the flagged events in stream order.
    """
    tracer = Tracer(session_id=0)
    acked = {id(fetched) for event in events for fetched in tracer.record(event)}
    return [event for event in events if id(event) in acked]

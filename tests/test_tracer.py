"""Tracer tests: decoding, silent-SMS pairing, rewrite rules."""

import dataclasses
import json
import random

import pytest

from simlink import tlv
from simlink.apdu import (
    CommandApdu,
    INS_FETCH,
    INS_READ_BINARY,
    INS_SELECT,
    INS_STATUS,
    INS_TERMINAL_RESPONSE,
    ResponseApdu,
)
from simlink.tlv import ProactiveKind
from simlink.tracer import (
    ACTION_DROP,
    ACTION_PASS_THROUGH,
    DIR_MODEM_TO_SIM,
    DIR_SIM_TO_MODEM,
    DROP_STATUS,
    FLAG_SILENT_SMS,
    RewriteOutcome,
    RewriteRule,
    Rewriter,
    TraceEvent,
    Tracer,
    decode_event,
    detect_silent_sms,
    read_trace,
    rules_from_json,
    write_trace,
)
from simlink.vsim import Card, ProactiveQueue, demo_profile

FETCH = CommandApdu(0x80, INS_FETCH, 0x00, 0x00, le=256)


def proactive_response(kind, number_payload=b""):
    queue = ProactiveQueue()
    raw = queue.enqueue(kind, number_payload)
    return ResponseApdu(raw, 0x90, 0x00), tlv.parse_proactive(raw).command_number


class TestDecodeEvent:
    def test_select_maps_file_id(self):
        cmd = CommandApdu(0xA0, INS_SELECT, 0x00, 0x00, data=b"\x3F\x00")
        assert decode_event(cmd) == {"ins_name": "SELECT", "file_id": "3F00"}

    def test_select_by_aid(self):
        cmd = CommandApdu(0x00, INS_SELECT, 0x04, 0x04, data=b"\xA0\x00\x00")
        assert decode_event(cmd)["aid"] == "A00000"

    def test_unknown_ins_yields_unknown(self):
        cmd = CommandApdu(0x00, 0xEE, 0x01, 0x02, data=b"\xDE\xAD")
        assert decode_event(cmd)["ins_name"] == "UNKNOWN"

    def test_fetch_response_extracts_proactive_type(self):
        resp, number = proactive_response(ProactiveKind.SEND_SHORT_MESSAGE)
        decoded = decode_event(resp, context=FETCH)
        assert decoded["proactive_type"] == "SEND_SHORT_MESSAGE"
        assert decoded["proactive_number"] == number

    def test_bare_tlv_stream_also_decodes(self):
        # Command-details TLV without the 0xD0 envelope still yields the type.
        resp = ResponseApdu(bytes.fromhex("8103011300"), 0x90, 0x00)
        decoded = decode_event(resp, context=FETCH)
        assert decoded["proactive_type"] == "SEND_SHORT_MESSAGE"

    def test_garbage_fetch_body_is_tolerated(self):
        resp = ResponseApdu(b"\xFF\x00\x01", 0x90, 0x00)
        decoded = decode_event(resp, context=FETCH)
        assert "proactive_type" not in decoded
        assert decoded["status_class"] == "ok"

    def test_status_class_names(self):
        resp = ResponseApdu(b"", 0x91, 0x0C)
        assert decode_event(resp, context=FETCH)["status_class"] == "proactive_pending"


class TestTracerPersistence:
    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(session_id=5, path=str(path))
        cmd = CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=10)
        tracer.command(10, cmd)
        tracer.response(12, ResponseApdu(b"\x98\x10", 0x90, 0x00), command=cmd)
        lines = path.read_text().splitlines()
        tracer.close()
        assert len(lines) == 2
        events = read_trace(lines)
        assert events[0].direction == DIR_MODEM_TO_SIM
        assert events[0].raw_hex == "00B000000A"
        assert events[1].raw_hex == "98109000"
        assert events[1].decoded["ins_name"] == "READ BINARY"
        import json
        doc = json.loads(lines[0])
        assert set(doc) == {"ts_ms", "dir", "raw_hex", "decoded", "session", "flags"}

    def test_replay_decodes_identically(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(session_id=1, path=str(path))
        cmd = CommandApdu(0x00, INS_SELECT, 0x00, 0x04, data=b"\x2F\xE2")
        events = [tracer.command(0, cmd),
                  tracer.response(1, ResponseApdu(b"", 0x90, 0x00), command=cmd)]
        tracer.close()
        replayed = read_trace(path.read_text().splitlines())
        assert [e.decoded for e in replayed] == [e.decoded for e in events]

    def test_a_tracer_holds_only_what_it_has_not_written(self, tmp_path):
        # Without a file every event stays held; with one, the events from
        # a fetched SEND SHORT MESSAGE on stay held until it is acknowledged.
        status = CommandApdu(0x80, INS_STATUS, 0, 0)
        ok = ResponseApdu(b"", 0x90, 0x00)
        ack = terminal_response(acknowledgement(4))
        for path in (None, tmp_path / "trace.jsonl"):
            tracer = Tracer(session_id=2, path=path)
            events = [tracer.command(0, FETCH), tracer.response(0, fetched(4), FETCH),
                      tracer.command(1, status), tracer.response(1, ok, status)]
            assert tracer.events == events
            events += [tracer.command(2, ack), tracer.response(2, ok, ack)]
            assert tracer.events == ([] if path else events)
            assert tracer.silent_sms == 1
            tracer.close()
            if path:
                assert read_trace(path.read_text().splitlines()) == events

    def test_lossless_capture_redecodes_from_raw(self):
        # Running the decoder over a persisted session's raw octets must
        # reproduce the stored summaries exactly (rewrite attribution is
        # relay metadata, not decoder output).
        from simlink.apdu import decode_command
        card = Card(demo_profile(), proactive_trigger_polls=1)
        card.reset()
        tracer = Tracer(session_id=4)
        drive_proactive(card, tracer, ack_numbers={1})
        last_cmd = None
        for event in tracer.events:
            raw = bytes.fromhex(event.raw_hex)
            if event.direction == DIR_MODEM_TO_SIM:
                last_cmd = decode_command(raw)
                assert decode_event(last_cmd) == event.decoded
            else:
                resp = ResponseApdu.from_bytes(raw)
                stored = {k: v for k, v in event.decoded.items()
                          if k not in ("rule_id", "original_hex")}
                assert decode_event(resp, context=last_cmd) == stored


def trace_card_session(card, commands, tracer):
    ts = 0
    for cmd in commands:
        tracer.command(ts, cmd)
        resp = card.process(cmd)
        tracer.response(ts + 1, resp, command=cmd)
        ts += 2
    return tracer.events


def drive_proactive(card, tracer, ack_numbers):
    """Poll, fetch everything pending, acknowledge only chosen numbers."""
    ts = 1000
    status = CommandApdu(0x00, INS_STATUS, 0, 0)
    tracer.command(ts, status)
    resp = card.process(status)
    tracer.response(ts + 1, resp, command=status)
    while resp.sw1 == 0x91:
        fetch = CommandApdu(0x80, INS_FETCH, 0, 0, le=resp.sw2)
        tracer.command(ts + 2, fetch)
        fetched = card.process(fetch)
        tracer.response(ts + 3, fetched, command=fetch)
        info = tlv.parse_proactive(fetched.data)
        resp = fetched
        if info.command_number in ack_numbers:
            body = tlv.encode_tlv(
                tlv.TAG_COMMAND_DETAILS,
                bytes([info.command_number, info.type_octet, 0x00]),
            ) + tlv.encode_tlv(tlv.TAG_RESULT, b"\x00")
            tr = CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0, 0, data=body)
            tracer.command(ts + 4, tr)
            resp = card.process(tr)
            tracer.response(ts + 5, resp, command=tr)
        ts += 6


def oracle_pairing(events):
    """Brute-force oracle over (FETCH, TERMINAL RESPONSE) command numbers."""
    flagged = set()
    for i, ev in enumerate(events):
        if ev.direction != "s2m" or ev.decoded.get("proactive_type") != "SEND_SHORT_MESSAGE":
            continue
        n = ev.decoded.get("proactive_number")
        for later in events[i + 1:]:
            if (
                later.direction == "m2s"
                and later.decoded.get("ins_name") == "TERMINAL RESPONSE"
                and later.decoded.get("proactive_number") == n
            ):
                flagged.add(i)
                break
    return flagged


class TestDetectSilentSms:
    def test_demo_profile_flags_exactly_one(self):
        card = Card(demo_profile(), proactive_trigger_polls=1)
        card.reset()
        tracer = Tracer(session_id=1)
        drive_proactive(card, tracer, ack_numbers={1})
        flagged = detect_silent_sms(tracer.events)
        assert len(flagged) == 1 == tracer.silent_sms
        assert FLAG_SILENT_SMS in flagged[0].flags

    def test_status_only_session_has_zero_flags(self):
        card = Card(demo_profile(), proactive_trigger_polls=99)
        card.reset()
        tracer = Tracer(session_id=1)
        commands = [CommandApdu(0x00, INS_STATUS, 0, 0)] * 5
        trace_card_session(card, commands, tracer)
        assert detect_silent_sms(tracer.events) == []
        assert tracer.silent_sms == 0

    def test_unacknowledged_sms_not_flagged(self):
        profile = demo_profile()
        profile.proactive = profile.proactive * 2  # two scripted silent SMS
        card = Card(profile, proactive_trigger_polls=1)
        card.reset()
        tracer = Tracer(session_id=1)
        drive_proactive(card, tracer, ack_numbers={2})  # ack only the second
        flagged = detect_silent_sms(tracer.events)
        assert len(flagged) == 1 == tracer.silent_sms
        assert flagged[0].decoded["proactive_number"] == 2
        assert oracle_pairing(tracer.events) == {
            tracer.events.index(flagged[0])
        }

    def test_matches_bruteforce_oracle_on_random_streams(self):
        rng = random.Random(0xDE7EC7)
        for _ in range(50):
            events = []
            for i in range(rng.randint(2, 20)):
                if rng.random() < 0.5:
                    n = rng.randint(1, 3)
                    events.append(TraceEvent(
                        ts_ms=i, direction="s2m", raw_hex="",
                        decoded={"ins_name": "FETCH",
                                 "proactive_type": "SEND_SHORT_MESSAGE",
                                 "proactive_number": n},
                        session_id=1))
                else:
                    n = rng.randint(1, 3)
                    events.append(TraceEvent(
                        ts_ms=i, direction="m2s", raw_hex="",
                        decoded={"ins_name": "TERMINAL RESPONSE",
                                 "proactive_number": n},
                        session_id=1))
            flagged = detect_silent_sms(events)
            assert {events.index(e) for e in flagged} == oracle_pairing(events)


def forward_scan_silent_sms(events):
    """``detect_silent_sms`` as a forward scan over every later event,
    kept as the reference for the one-pass version."""
    flagged = []
    for idx, event in enumerate(events):
        if event.direction != DIR_SIM_TO_MODEM:
            continue
        decoded = event.decoded
        if decoded.get("proactive_type") != "SEND_SHORT_MESSAGE":
            continue
        number = decoded.get("proactive_number")
        if number is None:
            continue
        acked = any(
            later.direction == DIR_MODEM_TO_SIM
            and later.decoded.get("ins_name") == "TERMINAL RESPONSE"
            and later.decoded.get("proactive_number") == number
            for later in events[idx + 1:]
        )
        if acked:
            if FLAG_SILENT_SMS not in event.flags:
                event.flags.append(FLAG_SILENT_SMS)
            flagged.append(event)
    return flagged


def random_event(rng, ts):
    direction = rng.choice((DIR_MODEM_TO_SIM, DIR_SIM_TO_MODEM, "other"))
    decoded = {"ins_name": rng.choice(("FETCH", "TERMINAL RESPONSE", "STATUS"))}
    if rng.random() < 0.7:
        decoded["proactive_type"] = rng.choice(
            ("SEND_SHORT_MESSAGE", "SEND_SHORT_MESSAGE", "DISPLAY_TEXT"))
    if rng.random() < 0.85:
        decoded["proactive_number"] = rng.randint(1, 4)
    flags = rng.choice(([], [], [FLAG_SILENT_SMS], ["rewritten"]))
    return TraceEvent(ts_ms=ts, direction=direction, raw_hex="",
                      decoded=decoded, session_id=1, flags=list(flags))


def assert_same_as_forward_scan(events):
    ours = [TraceEvent.from_json(e.to_json()) for e in events]
    ref = [TraceEvent.from_json(e.to_json()) for e in events]
    flagged = detect_silent_sms(ours)
    expected = forward_scan_silent_sms(ref)
    position = {id(e): i for i, e in enumerate(ours)}
    ref_position = {id(e): i for i, e in enumerate(ref)}
    assert [position[id(e)] for e in flagged] == \
        [ref_position[id(e)] for e in expected]
    assert [e.flags for e in ours] == [e.flags for e in ref]


class TestSilentSmsOnePass:
    def test_demo_session_matches_forward_scan(self):
        from simlink.lab import VirtualLink
        from simlink.modem import ModemSim

        profile = demo_profile()
        tracer = Tracer(session_id=3)
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(VirtualLink(Card(profile), 0.0),
                           tracer=tracer)
        assert report.failure is None
        assert_same_as_forward_scan(tracer.events)
        assert len(detect_silent_sms(tracer.events)) == 1

    def test_random_streams_match_forward_scan(self):
        rng = random.Random(0x51A5)
        for _ in range(300):
            events = [random_event(rng, ts) for ts in range(rng.randint(0, 40))]
            assert_same_as_forward_scan(events)


def terminal_response(body: bytes) -> CommandApdu:
    return CommandApdu(0x80, INS_TERMINAL_RESPONSE, 0, 0, data=body)


def acknowledgement(number: int) -> bytes:
    return tlv.encode_tlv(
        tlv.TAG_COMMAND_DETAILS,
        bytes([number, ProactiveKind.SEND_SHORT_MESSAGE, 0x00]),
    ) + tlv.encode_tlv(tlv.TAG_RESULT, b"\x00")


def fetched(number: int, kind=ProactiveKind.SEND_SHORT_MESSAGE) -> ResponseApdu:
    return ResponseApdu(tlv.encode_proactive(number, kind, b"\x01"), 0x90, 0x00)


def random_exchange(rng):
    """One command and the response the relay traced for it. Fetches and
    TERMINAL RESPONSEs share a pool of four numbers, so several SEND SHORT
    MESSAGEs wait at once, numbers repeat and acknowledgements come before
    their fetch; some acknowledgements name a number never fetched, or none."""
    roll = rng.random()
    if roll < 0.35:
        if rng.random() < 0.1:  # an envelope that does not parse
            return FETCH, ResponseApdu(b"\xD0\x01", 0x90, 0x00)
        kind = rng.choice((ProactiveKind.SEND_SHORT_MESSAGE,) * 3
                          + (ProactiveKind.PROVIDE_LOCAL_INFO,))
        return FETCH, fetched(rng.randint(1, 4), kind)
    if roll < 0.65:
        roll = rng.random()
        if roll < 0.8:
            body = acknowledgement(rng.randint(1, 4))
        elif roll < 0.9:
            body = acknowledgement(200)  # never fetched
        else:
            body = tlv.encode_tlv(tlv.TAG_RESULT, b"\x00")  # no number
        return terminal_response(body), ResponseApdu(b"", 0x90, 0x00)
    status = CommandApdu(0x80, INS_STATUS, 0, 0)
    return status, ResponseApdu(b"", 0x91, rng.randint(0x10, 0x20))


def close_time_output(events, path):
    """What the provider wrote at close before trace files were written
    once: the stream, flagged by ``detect_silent_sms``, rewritten whole."""
    # Copies without the flag only the pairing sets.
    events = [dataclasses.replace(e, flags=[f for f in e.flags if f != FLAG_SILENT_SMS])
              for e in events]
    detect_silent_sms(events)
    write_trace(str(path), events)
    return path.read_bytes()


def sms_waiting(events) -> bool:
    """Whether a fetched SEND SHORT MESSAGE among ``events`` has no later
    TERMINAL RESPONSE with its number."""
    acked = set()
    for event in reversed(events):
        decoded = event.decoded
        number = decoded.get("proactive_number")
        if event.direction == DIR_MODEM_TO_SIM:
            if decoded.get("ins_name") == "TERMINAL RESPONSE":
                acked.add(number)
        elif (event.direction == DIR_SIM_TO_MODEM and number is not None
              and decoded.get("proactive_type") == "SEND_SHORT_MESSAGE"
              and number not in acked):
            return True
    return False


class TestStreamedTraceEqualsCloseTimeRewrite:
    def test_random_streams(self, tmp_path):
        rng = random.Random(0x57AE)
        streamed, reference = tmp_path / "streamed.jsonl", tmp_path / "ref.jsonl"
        streamed.touch()
        with open(streamed, "rb") as reader:
            for n in range(2000):
                tracer = Tracer(session_id=n, path=str(streamed))  # truncates
                exchanges = [random_exchange(rng)
                             for _ in range(rng.randint(0, 24))]
                if n % 4 == 0:  # the session ends with a fetch pending
                    exchanges.append((FETCH, fetched(rng.randint(5, 9))))
                events = []  # every event the tracer returned
                written = 0  # events in the file after the last response
                seen = []  # (file contents, events expected in it) per response
                for ts, (cmd, resp) in enumerate(exchanges):
                    rewritten = rng.random() < 0.2
                    events.append(tracer.command(ts, cmd))
                    events.append(tracer.response(
                        ts, resp, command=cmd,
                        rule_id="r" if rewritten else None,
                        original=resp if rewritten else None))
                    if not sms_waiting(events):
                        written = len(events)
                    assert tracer.events == events[written:], n  # only unwritten
                    reader.seek(0)
                    seen.append((reader.read(), written))
                tracer.close()
                reader.seek(0)
                final = reader.read()
                assert final == close_time_output(events, reference), n
                for contents, expected in seen:  # written once, in stream order
                    assert final.startswith(contents)
                    assert contents.count(b"\n") == expected

    def test_demo_session(self, tmp_path):
        from simlink.lab import VirtualLink
        from simlink.modem import ModemSim

        profile = demo_profile()
        path = tmp_path / "demo.jsonl"
        events = []  # every event the tracer returned

        class KeepingTracer(Tracer):
            def record(self, event):
                events.append(event)
                return super().record(event)

        tracer = KeepingTracer(session_id=3, path=str(path))
        modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt)
        report = modem.run(VirtualLink(Card(profile), 0.0),
                           tracer=tracer)
        # The TERMINAL RESPONSE follows its fetch, so nothing is held.
        assert len(path.read_text().splitlines()) == 2 * report.exchanges
        assert tracer.events == []
        tracer.close()
        assert sum(FLAG_SILENT_SMS in e.flags for e in events) == 1
        assert tracer.silent_sms == 1
        assert path.read_bytes() == \
            close_time_output(events, tmp_path / "ref.jsonl")


# Quote, backslash, controls, DEL, and non-ASCII in and beyond the BMP,
# with a lone surrogate.
TEXT = 'aZ09 "\\/\x00\x1f\x7f\n\t\u00e9\u20ac\u2028\ud800\U0001F600'


def random_text(rng) -> str:
    return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 8)))


def random_json_value(rng, depth=0):
    """A str, int, float, bool or None, or a list or dict nesting them."""
    roll = rng.random()
    if roll < 0.3 or (depth == 2 and roll >= 0.65):
        return random_text(rng)
    if roll < 0.45:
        return rng.randint(-2 ** 70, 2 ** 70)
    if roll < 0.55:
        return rng.choice((0.0, -0.0, 1.5, -2.25e-7, 1e300, float("nan"),
                           rng.uniform(-1e6, 1e6)))
    if roll < 0.65:
        return rng.choice((True, False, None))
    if roll < 0.8:
        return [random_json_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))]
    return {random_text(rng): random_json_value(rng, depth + 1)
            for _ in range(rng.randint(0, 3))}


def random_line_event(rng) -> TraceEvent:
    """An event as a tracer builds it, or as a trace file may hold it: a
    float or bool ``ts_ms``, an IntEnum, odd text, nested values."""
    decoded = {"ins_name": rng.choice(("SELECT", "FETCH", "UNKNOWN"))}
    if rng.random() < 0.5:
        decoded["proactive_number"] = rng.choice(
            (rng.randint(0, 255), ProactiveKind.SEND_SHORT_MESSAGE))
    if rng.random() < 0.4:
        decoded["rule_id"] = random_text(rng)
        decoded["original_hex"] = rng.randbytes(rng.randint(0, 6)).hex().upper()
    if rng.random() < 0.4:
        decoded[random_text(rng)] = random_json_value(rng)
    return TraceEvent(
        ts_ms=rng.choice((rng.randint(0, 10 ** 7), 10 ** 30,
                          rng.uniform(0, 1e4), True, False)),
        direction=rng.choice((DIR_MODEM_TO_SIM, DIR_SIM_TO_MODEM,
                              random_text(rng))),
        raw_hex=rng.choice((rng.randbytes(rng.randint(0, 9)).hex().upper(),
                            random_text(rng))),
        decoded=decoded,
        session_id=rng.randint(0, (1 << 32) - 1),
        flags=rng.sample(("rewritten", FLAG_SILENT_SMS, random_text(rng)),
                         rng.randint(0, 2)),
    )


def stdlib_line(event: TraceEvent) -> str:
    return json.dumps({"ts_ms": event.ts_ms, "dir": event.direction,
                       "raw_hex": event.raw_hex, "decoded": event.decoded,
                       "session": event.session_id, "flags": event.flags},
                      separators=(",", ":"))


class TestTraceLinesMatchTheStdlibEncoder:
    def test_random_events_and_their_lines_read_back(self, tmp_path):
        rng = random.Random(0x7E1E)
        events = [random_line_event(rng) for _ in range(3000)]
        for event in events:
            assert event.to_json() == stdlib_line(event), event
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(stdlib_line(e) + "\n" for e in events))
        for event in read_trace(path.read_text().splitlines()):
            assert event.to_json() == stdlib_line(event), event

    def test_a_tracer_file_holds_the_stdlib_lines(self, tmp_path):
        rng = random.Random(0x7E1F)
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(session_id=0xFEED, path=str(path))
        events = []
        for ts in range(400):
            cmd, resp = random_exchange(rng)
            rewritten = rng.random() < 0.5
            events.append(tracer.command(ts, cmd))
            events.append(tracer.response(
                ts, resp, command=cmd,
                rule_id=random_text(rng) if rewritten else None,
                original=ResponseApdu(b"\x01", 0x6F, 0x00) if rewritten else None))
        tracer.close()
        assert path.read_bytes() == \
            "".join(stdlib_line(e) + "\n" for e in events).encode()


# Only response rules appear where this command is used, so no command
# rule matches it and the response rules decide the outcome.
READ_ICCID = CommandApdu(0x00, INS_READ_BINARY, 0x00, 0x00, le=10)

ICCID_RULE_JSON = """
[
  {"rule_id": "iccid-swap",
   "on": "response",
   "match": {"data_prefix": "9810"},
   "action": {"kind": "replace_response_data",
              "data_hex": "98103254769810325476"}}
]
"""


class TestRewrites:
    def test_rules_json_parsing(self):
        rules = rules_from_json(ICCID_RULE_JSON)
        assert rules[0].rule_id == "iccid-swap"
        assert rules[0].on == "response"
        assert rules[0].match["data_prefix"] == b"\x98\x10"

    def test_infer_target_from_fields(self):
        rules = rules_from_json(
            '[{"rule_id": "r1", "match": {"ins": 176},'
            ' "action": {"kind": "pass_through"}},'
            ' {"rule_id": "r2", "match": {"sw1": 144},'
            ' "action": {"kind": "pass_through"}}]'
        )
        assert rules[0].on == "command" and rules[1].on == "response"

    def test_ambiguous_rule_rejected(self):
        with pytest.raises(ValueError):
            rules_from_json(
                '[{"rule_id": "r", "match": {"data_prefix": "AA"},'
                ' "action": {"kind": "drop"}}]'
            )

    @pytest.mark.parametrize("rule, detail", [
        ({"on": "command", "match": {"insx": 164}, "action": {"kind": "drop"}},
         "a command rule cannot match 'insx'"),
        ({"on": "command", "match": {"sw1": 144}, "action": {"kind": "drop"}},
         "a command rule cannot match 'sw1'"),
        ({"on": "response", "match": {"ins": 164}, "action": {"kind": "drop"}},
         "a response rule cannot match 'ins'"),
        ({"on": "command", "match": {"ins": "A4"}, "action": {"kind": "drop"}},
         "ins must be an int from 0 to 255, not 'A4'"),
        ({"on": "command", "match": {"ins": 256}, "action": {"kind": "drop"}},
         "ins must be an int from 0 to 255, not 256"),
        ({"on": "response", "match": {"sw2": -1}, "action": {"kind": "drop"}},
         "sw2 must be an int from 0 to 255, not -1"),
        ({"on": "command", "match": {"p1": True}, "action": {"kind": "drop"}},
         "p1 must be an int from 0 to 255, not True"),
        ({"on": "response", "match": {"sw1": 144},
          "action": {"kind": "replace_status", "sw1": 300, "sw2": 0}},
         "sw1 must be an int from 0 to 255, not 300"),
        ({"on": "response", "match": {"sw1": 144},
          "action": {"kind": "replace_status", "sw1": 106, "sw2": 130.0}},
         "sw2 must be an int from 0 to 255, not 130.0"),
    ], ids=["unknown-field", "sw1-on-command", "ins-on-response", "ins-string",
            "ins-256", "sw2-negative", "p1-bool", "replace-sw1-300",
            "replace-sw2-float"])
    def test_mistyped_rule_is_refused_at_load(self, rule, detail):
        with pytest.raises(ValueError, match=f"rule r: {detail}"):
            rules_from_json(json.dumps([{"rule_id": "r", **rule}]))

    def test_rule_built_in_code_is_checked_too(self):
        with pytest.raises(ValueError, match="a command rule cannot match 'sw1'"):
            RewriteRule("r", "command", {"sw1": 0x90}, "drop")
        with pytest.raises(ValueError, match="sw1 must be an int from 0 to 255"):
            RewriteRule("r", "response", {}, "replace_status", sw=(300, 0))

    def test_empty_rule_list_is_identity(self):
        resp = ResponseApdu(b"\x98\x10", 0x90, 0x00)
        outcome = Rewriter([]).process(READ_ICCID, lambda cmd: resp)
        assert (outcome.response, outcome.rule_id) == (resp, None)

    def test_replace_response_data(self):
        rules = rules_from_json(ICCID_RULE_JSON)
        resp = ResponseApdu(bytes.fromhex("981032547698103254F5"), 0x90, 0x00)
        outcome = Rewriter(rules).process(READ_ICCID, lambda cmd: resp)
        new = outcome.response
        assert outcome.rule_id == "iccid-swap"
        assert new.data == bytes.fromhex("98103254769810325476")
        assert (new.sw1, new.sw2) == (0x90, 0x00)

    def test_first_match_wins(self):
        rules = [
            RewriteRule("first", "response", {"sw1": 0x90}, "replace_status",
                        sw=(0x6A, 0x82)),
            RewriteRule("second", "response", {"sw1": 0x90}, "replace_status",
                        sw=(0x6F, 0x00)),
        ]
        resp = ResponseApdu(b"", 0x90, 0x00)
        outcome = Rewriter(rules).process(READ_ICCID, lambda cmd: resp)
        new = outcome.response
        assert outcome.rule_id == "first" and (new.sw1, new.sw2) == (0x6A, 0x82)

    def test_unmatched_passes_unmodified(self):
        rules = rules_from_json(ICCID_RULE_JSON)
        resp = ResponseApdu(b"\x01\x02", 0x90, 0x00)
        outcome = Rewriter(rules).process(READ_ICCID, lambda cmd: resp)
        assert (outcome.response, outcome.rule_id) == (resp, None)

    def test_drop_synthesizes_6d00_and_skips_card(self):
        calls = []

        def respond(cmd):
            calls.append(cmd)
            return ResponseApdu(b"", 0x90, 0x00)

        rewriter = Rewriter([
            RewriteRule("no-status", "command", {"ins": INS_STATUS}, "drop")
        ])
        outcome = rewriter.process(CommandApdu(0x00, INS_STATUS, 0, 0), respond)
        assert outcome.dropped
        assert (outcome.response.sw1, outcome.response.sw2) == (0x6D, 0x00)
        assert calls == []  # the card never saw the command

    def test_command_rule_rewrites_its_response(self):
        rewriter = Rewriter([
            RewriteRule("blank-read", "command", {"ins": INS_READ_BINARY},
                        "replace_response_data", data=b"\x00" * 4)
        ])
        outcome = rewriter.process(
            CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=4),
            lambda cmd: ResponseApdu(b"\xAA\xBB\xCC\xDD", 0x90, 0x00),
        )
        assert outcome.response.data == b"\x00\x00\x00\x00"
        assert outcome.original.data == b"\xAA\xBB\xCC\xDD"
        assert outcome.rule_id == "blank-read"

    def test_pass_through_is_identity_with_attribution(self):
        rewriter = Rewriter([
            RewriteRule("skip", "command", {"ins": INS_STATUS}, "pass_through"),
            RewriteRule("maul", "response", {"sw1": 0x90}, "replace_status",
                        sw=(0x6F, 0x00)),
        ])
        outcome = rewriter.process(
            CommandApdu(0x00, INS_STATUS, 0, 0),
            lambda cmd: ResponseApdu(b"", 0x90, 0x00),
        )
        assert outcome.response.sw == 0x9000
        assert outcome.rule_id == "skip" and outcome.original is None

    def test_any_rule_set_keeps_alternation(self):
        # Property: whatever the rules, one command in yields exactly one
        # response out, so the modem-facing side never starves or floods.
        rng = random.Random(0xA17)
        actions = ["replace_response_data", "replace_status", "drop",
                   "pass_through"]
        for _ in range(40):
            rules = []
            for i in range(rng.randint(0, 5)):
                on = rng.choice(["command", "response"])
                match = ({"ins": rng.randrange(256)} if on == "command"
                         else {"sw1": rng.choice([0x90, 0x91, 0x6A])})
                action = rng.choice(actions)
                rules.append(RewriteRule(
                    f"r{i}", on, match, action,
                    data=bytes(rng.randrange(256) for _ in range(4)),
                    sw=(0x6F, 0x00) if action == "replace_status" else None,
                ))
            rewriter = Rewriter(rules)
            card = Card(demo_profile(), proactive_trigger_polls=99)
            card.reset()
            for _ in range(10):
                cmd = CommandApdu(0x00, rng.choice([0xA4, 0xB0, 0xF2, 0xEE]),
                                  0x00, 0x00)
                outcome = rewriter.process(cmd, card.process)
                assert isinstance(outcome.response, ResponseApdu)

    def test_rewritten_event_carries_flag_and_original(self):
        tracer = Tracer(session_id=9)
        cmd = CommandApdu(0x00, INS_READ_BINARY, 0, 0, le=2)
        original = ResponseApdu(b"\x98\x10", 0x90, 0x00)
        new = ResponseApdu(b"\x00\x00", 0x90, 0x00)
        event = tracer.response(5, new, command=cmd, rule_id="iccid-swap",
                                original=original)
        assert "rewritten" in event.flags
        assert event.raw_hex == "00009000"
        assert event.decoded["original_hex"] == "98109000"
        assert event.decoded["rule_id"] == "iccid-swap"


def two_path_process(rules, cmd, respond):
    """``Rewriter.process`` as it was with a branch per rule target and
    one for pass_through; the reference for the single path."""
    cmd_rule = next((r for r in rules if r.matches_command(cmd)), None)
    if cmd_rule is not None:
        if cmd_rule.action == ACTION_DROP:
            return RewriteOutcome(
                ResponseApdu(b"", *DROP_STATUS), cmd_rule.rule_id, dropped=True
            )
        resp = respond(cmd)
        if cmd_rule.action == ACTION_PASS_THROUGH:
            return RewriteOutcome(resp, cmd_rule.rule_id)
        new = cmd_rule.apply_to_response(resp)
        return RewriteOutcome(
            new, cmd_rule.rule_id, original=resp if new != resp else None
        )
    resp = respond(cmd)
    resp_rule = next((r for r in rules if r.matches_response(resp)), None)
    if resp_rule is None:
        return RewriteOutcome(resp)
    new = resp_rule.apply_to_response(resp)
    return RewriteOutcome(
        new, resp_rule.rule_id, original=resp if new != resp else None
    )


def random_rule(rng, i):
    on = rng.choice(["command", "response"])
    fields = ("cla", "ins", "p1", "p2") if on == "command" else ("sw1", "sw2")
    match = {name: rng.choice((0x00, 0x90, 0xA4, 0xB0)) for name in fields
             if rng.random() < 0.4}
    if rng.random() < 0.3:
        match["data_prefix"] = bytes(rng.choice((0x00, 0x90)) for _ in range(rng.randrange(2)))
    action = rng.choice(["replace_response_data", "replace_status", "drop",
                         "pass_through"])
    return RewriteRule(
        f"r{i}", on, match, action,
        data=rng.choice((b"", b"\x90", bytes(rng.randrange(256) for _ in range(3)))),
        sw=(rng.choice((0x90, 0x6F)), 0x00) if action == "replace_status" else None,
    )


class TestRewriterSinglePath:
    def test_matches_the_two_path_method(self):
        rng = random.Random(0x5E71)
        bytes_pool = (0x00, 0x90, 0xA4, 0xB0)
        for _ in range(3000):
            rules = [random_rule(rng, i) for i in range(rng.randint(0, 6))]
            cmd = CommandApdu(*(rng.choice(bytes_pool) for _ in range(4)),
                              data=bytes(rng.choice(bytes_pool)
                                         for _ in range(rng.randrange(3))))
            resp = ResponseApdu(bytes(rng.choice(bytes_pool)
                                      for _ in range(rng.randrange(3))),
                                rng.choice((0x90, 0x6F)), rng.choice((0x00, 0x90)))
            got_calls, want_calls = [], []
            got = Rewriter(rules).process(
                cmd, lambda c: got_calls.append(c) or resp)
            want = two_path_process(
                rules, cmd, lambda c: want_calls.append(c) or resp)
            assert got == want, (rules, cmd, resp)
            assert got_calls == want_calls

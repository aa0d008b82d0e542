"""Wire codec and session state-machine tests."""

import random

import pytest

from simlink.apdu import CommandApdu, ResponseApdu, encode_command
from simlink.errors import (
    BadMagic,
    BadVersion,
    Oversize,
    ProtocolViolation,
)
from simlink.tunnel import (
    Closed,
    DeliverAtr,
    DeliverCommand,
    DeliverResponse,
    EmitFrame,
    Established,
    FrameDecoder,
    KeepaliveAcked,
    MessageType,
    Phase,
    ResetIndication,
    Role,
    Session,
    TunnelFrame,
    Violation,
    frame_encode,
)

TOKEN = "test-token"


class TestFrameCodec:
    def test_pinned_keepalive_layout(self):
        raw = frame_encode(MessageType.KEEPALIVE, 1, 0, b"")
        assert raw.hex().upper() == "4D4101070000000100000000" + "0000"

    def test_bad_magic(self):
        raw = bytearray(frame_encode(MessageType.HELLO, 1, 0, b""))
        raw[1] = 0x42
        decoder = FrameDecoder()
        assert decoder.feed(bytes(raw)) == []
        assert isinstance(decoder.fault, BadMagic)

    def test_bad_version(self):
        raw = bytearray(frame_encode(MessageType.HELLO, 1, 0, b""))
        raw[2] = 0x02
        decoder = FrameDecoder()
        assert decoder.feed(bytes(raw)) == []
        assert isinstance(decoder.fault, BadVersion)

    def test_oversize_rejected_both_ways(self):
        with pytest.raises(Oversize):
            frame_encode(MessageType.APDU_REQ, 1, 0, bytes(4097))
        raw = bytearray(frame_encode(MessageType.APDU_REQ, 1, 0, b""))
        raw[12:14] = (4097).to_bytes(2, "big")
        decoder = FrameDecoder()
        assert decoder.feed(bytes(raw)) == []
        assert isinstance(decoder.fault, Oversize)

    def test_truncated_stream(self):
        raw = frame_encode(MessageType.APDU_REQ, 1, 2, b"\x00" * 10)
        for cut in (8, len(raw) - 1):
            decoder = FrameDecoder()
            assert decoder.feed(raw[:cut]) == []
            assert decoder.fault is None and decoder.pending == cut

    def test_decode_returns_remainder(self):
        one = frame_encode(MessageType.RESET, 7, 3, b"")
        two = frame_encode(MessageType.ATR_IND, 7, 4, b"\x3B\x00")
        decoder = FrameDecoder()
        frame, frame2 = decoder.feed(one + two)
        assert frame.msg_type == MessageType.RESET and frame.seq == 3
        assert frame2.payload == b"\x3B\x00" and decoder.pending == 0

    def test_frames_before_a_fault_are_returned(self):
        one = frame_encode(MessageType.RESET, 7, 3, b"")
        decoder = FrameDecoder()
        (frame,) = decoder.feed(one + b"GET / HTTP/1.1\r\n\r\n")
        assert frame.msg_type == MessageType.RESET
        assert isinstance(decoder.fault, BadMagic)
        assert str(decoder.fault) == "47 45"

    def test_roundtrip_fuzz(self):
        rng = random.Random(0x7E57)
        for _ in range(1500):
            msg_type = rng.choice(list(MessageType))
            session = rng.randint(0, 2**32 - 1)
            seq = rng.randint(0, 2**32 - 1)
            payload = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 4096)))
            decoder = FrameDecoder()
            (frame,) = decoder.feed(frame_encode(msg_type, session, seq, payload))
            assert decoder.pending == 0 and decoder.fault is None
            assert frame == TunnelFrame(msg_type, session, seq, payload)
            assert type(frame.payload) is bytes

    def test_reassembly_under_any_segmentation(self):
        rng = random.Random(0x5119)
        frames = [
            TunnelFrame(MessageType.APDU_REQ, 9, i,
                        bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 300))))
            for i in range(25)
        ]
        stream = b"".join(frame_encode(f.msg_type, f.session_id, f.seq, f.payload)
                          for f in frames)
        for _ in range(30):
            decoder = FrameDecoder()
            got = []
            pos = 0
            while pos < len(stream):
                step = rng.randint(1, 37)
                got.extend(decoder.feed(stream[pos:pos + step]))
                pos += step
            assert got == frames
            assert decoder.pending == 0


def establish_pair(session_id=1, token=TOKEN, reset=False):
    """A probe and a provider past the handshake; with ``reset``, also past
    one Reset/ATR cycle, which the provider requires before any ApduReq."""
    probe = Session(Role.PROBE, token, session_id=session_id)
    provider = Session(Role.PROVIDER, token)
    actions = probe.start()
    hello = actions[0].frame
    provider_actions = provider.on_frame(hello)
    assert any(isinstance(a, Established) for a in provider_actions)
    ack = next(a.frame for a in provider_actions if isinstance(a, EmitFrame))
    probe_actions = probe.on_frame(ack)
    assert any(isinstance(a, Established) for a in probe_actions)
    if reset:
        provider.on_frame(only_frame(probe.send_reset()))
        probe.on_frame(only_frame(provider.send_atr(bytes.fromhex("3B00"))))
    return probe, provider


def only_frame(actions):
    frames = [a.frame for a in actions if isinstance(a, EmitFrame)]
    assert len(frames) == 1
    return frames[0]


class TestHandshake:
    def test_hello_helloack_establishes_both_ends(self):
        probe, provider = establish_pair()
        assert probe.phase is Phase.ESTABLISHED
        assert provider.phase is Phase.ESTABLISHED
        assert provider.session_id == probe.session_id == 1

    def test_bad_token_refused(self):
        probe = Session(Role.PROBE, "wrong", session_id=2)
        provider = Session(Role.PROVIDER, TOKEN)
        hello = only_frame(probe.start())
        actions = provider.on_frame(hello)
        assert provider.phase is Phase.CLOSED
        err = only_frame(actions)
        assert err.msg_type == MessageType.ERROR
        closed = probe.on_frame(err)
        assert probe.phase is Phase.CLOSED
        assert any(isinstance(a, Closed) for a in closed)

    @pytest.mark.parametrize("offered", ["wröng-tökén", "test-tokeñ", "", "test-token "])
    def test_bad_non_ascii_token_refused(self, offered):
        probe = Session(Role.PROBE, offered, session_id=2)
        provider = Session(Role.PROVIDER, TOKEN)
        actions = provider.on_frame(only_frame(probe.start()))
        assert provider.phase is Phase.CLOSED
        assert provider.close_reason == "BadToken"
        assert only_frame(actions).payload == b"BadToken"

    def test_non_ascii_token_establishes(self):
        probe, provider = establish_pair(token="tökén-ü-\u4e2d")
        assert provider.phase is Phase.ESTABLISHED

    def test_undecodable_token_octets_refused(self):
        provider = Session(Role.PROVIDER, TOKEN)
        hello = only_frame(Session(Role.PROBE, TOKEN, session_id=2).start())
        mangled = TunnelFrame(hello.msg_type, hello.session_id, hello.seq,
                              hello.payload[:1] + b"\xff\xfe" + hello.payload[3:])
        actions = provider.on_frame(mangled)
        assert provider.close_reason == "BadToken"
        assert only_frame(actions).payload == b"BadToken"

    @pytest.mark.parametrize("octet, shown", [
        (b"\x00", "00"), (b"\x02", "02"), (b"\xff", "FF"), (None, "missing"),
    ])
    def test_hello_without_the_probe_role_octet_is_refused(self, octet, shown):
        provider = Session(Role.PROVIDER, TOKEN)
        hello = only_frame(Session(Role.PROBE, TOKEN, session_id=2).start())
        payload = b"" if octet is None else octet + hello.payload[1:]
        forged = TunnelFrame(hello.msg_type, hello.session_id, hello.seq, payload)
        actions = provider.on_frame(forged)
        assert provider.phase is Phase.CLOSED
        assert only_frame(actions).payload == \
            f"BadRole: Hello role octet {shown}".encode()
        [violation] = [a for a in actions if isinstance(a, Violation)]
        assert violation.kind == "BadRole"
        assert isinstance(actions[-1], Closed)

    def test_apdu_before_hello_is_violation(self):
        provider = Session(Role.PROVIDER, TOKEN)
        raw = TunnelFrame(MessageType.APDU_REQ, 3, 0, b"\x00\xA4\x00\x00\x00")
        actions = provider.on_frame(raw)
        assert any(isinstance(a, Violation) for a in actions)
        assert provider.phase is Phase.CLOSED

    def test_apdu_before_reset_is_refused(self):
        probe, provider = establish_pair()
        req = only_frame(probe.send_command(CommandApdu(0x00, 0xF2, 0x00, 0x00)))
        actions = provider.on_frame(req)
        assert not any(isinstance(a, DeliverCommand) for a in actions)
        assert Violation("AlternationBroken", "ApduReq before Reset") in actions
        assert only_frame(actions).payload == b"AlternationBroken: ApduReq before Reset"
        assert provider.phase is Phase.CLOSED


class TestRelayDiscipline:
    def test_request_response_cycle(self):
        probe, provider = establish_pair(reset=True)
        cmd = CommandApdu(0x00, 0xA4, 0x00, 0x04, data=b"\x3F\x00")
        req = only_frame(probe.send_command(cmd))
        assert req.msg_type == MessageType.APDU_REQ
        delivered = provider.on_frame(req)
        assert DeliverCommand(cmd) in delivered
        resp = ResponseApdu(b"", 0x90, 0x00)
        resp_frame = only_frame(provider.send_response(resp))
        assert resp_frame.payload == b"\x90\x00"
        back = probe.on_frame(resp_frame)
        assert DeliverResponse(resp) in back
        assert probe.in_flight is None

    def test_second_request_while_in_flight_raises_locally(self):
        probe, provider = establish_pair()
        cmd = CommandApdu(0x00, 0xF2, 0x00, 0x00)
        probe.send_command(cmd)
        with pytest.raises(ProtocolViolation):
            probe.send_command(cmd)

    def test_incoming_apdureq_while_in_flight_is_violation(self):
        probe, provider = establish_pair(reset=True)
        cmd = CommandApdu(0x00, 0xF2, 0x00, 0x00)
        req = only_frame(probe.send_command(cmd))
        provider.on_frame(req)
        dup = TunnelFrame(MessageType.APDU_REQ, 1, req.seq + 1, req.payload)
        actions = provider.on_frame(dup)
        assert any(a.kind == "AlternationBroken" for a in actions
                   if isinstance(a, Violation))
        assert provider.phase is Phase.CLOSED

    def test_unsolicited_response_is_violation_and_delivers_nothing(self):
        probe, provider = establish_pair()
        rogue = TunnelFrame(MessageType.APDU_RESP, 1, 1, b"\x90\x00")
        actions = probe.on_frame(rogue)
        assert not any(isinstance(a, DeliverResponse) for a in actions)
        assert any(isinstance(a, Violation) for a in actions)
        assert probe.phase is Phase.CLOSED

    def test_seq_gap_is_fatal(self):
        probe, provider = establish_pair()
        req = only_frame(probe.send_command(CommandApdu(0, 0xF2, 0, 0)))
        skipped = TunnelFrame(req.msg_type, req.session_id, req.seq + 1, req.payload)
        actions = provider.on_frame(skipped)
        assert any(a.kind == "SeqGap" for a in actions if isinstance(a, Violation))

    def test_unknown_type_is_fatal(self):
        probe, provider = establish_pair()
        weird = TunnelFrame(0x42, 1, 1, b"")
        actions = provider.on_frame(weird)
        assert any(a.kind == "UnknownType" for a in actions
                   if isinstance(a, Violation))

    def test_seq_increments_by_one_per_direction(self):
        probe, provider = establish_pair(reset=True)
        seqs = []
        for _ in range(5):
            req = only_frame(probe.send_command(CommandApdu(0, 0xF2, 0, 0)))
            seqs.append(req.seq)
            provider.on_frame(req)
            resp = only_frame(provider.send_response(ResponseApdu(b"", 0x90, 0x00)))
            probe.on_frame(resp)
        assert seqs == list(range(seqs[0], seqs[0] + 5))

    def test_reset_atr_cycle(self):
        probe, provider = establish_pair()
        reset = only_frame(probe.send_reset())
        actions = provider.on_frame(reset)
        assert any(isinstance(a, ResetIndication) for a in actions)
        assert probe.in_flight == provider.in_flight == "reset"
        atr_frame = only_frame(provider.send_atr(bytes.fromhex("3B00")))
        delivered = probe.on_frame(atr_frame)
        assert DeliverAtr(bytes.fromhex("3B00")) in delivered

    def test_exactly_once_thousand_commands(self):
        probe, provider = establish_pair(reset=True)
        delivered_cmds = []
        delivered_resps = []
        for i in range(1000):
            cmd = CommandApdu(0x00, 0xB2, (i % 255) + 1, 0x04, le=(i % 255) + 1)
            req = only_frame(probe.send_command(cmd))
            (action,) = [a for a in provider.on_frame(req)
                         if isinstance(a, DeliverCommand)]
            delivered_cmds.append(action.command)
            resp = ResponseApdu(i.to_bytes(2, "big"), 0x90, 0x00)
            frame = only_frame(provider.send_response(resp))
            (back,) = [a for a in probe.on_frame(frame)
                       if isinstance(a, DeliverResponse)]
            delivered_resps.append(back.response)
        assert len(delivered_cmds) == len(delivered_resps) == 1000
        assert [r.data for r in delivered_resps] == [
            i.to_bytes(2, "big") for i in range(1000)
        ]

    def test_close_is_clean(self):
        probe, provider = establish_pair()
        close = only_frame(probe.send_close())
        actions = provider.on_frame(close)
        assert Closed(None) in actions
        assert provider.phase is Phase.CLOSED
        # Frames after close are ignored, not violations.
        assert provider.on_frame(TunnelFrame(MessageType.KEEPALIVE, 1, 99, b"")) == []


class TestStream:
    def test_pipelined_frames_enter_the_machine_one_at_a_time(self):
        # The ATR for a Reset goes out before a pipelined ApduReq is
        # checked, so that ApduReq is no longer "while in flight".
        _, provider = establish_pair()
        cmd = CommandApdu(0x00, 0xF2, 0x00, 0x00)
        chunk = (frame_encode(MessageType.RESET, 1, 1)
                 + frame_encode(MessageType.APDU_REQ, 1, 2, encode_command(cmd)))
        arrivals = provider.on_bytes(chunk, 0.0)
        assert next(arrivals) == [ResetIndication()]
        provider.send_atr(bytes.fromhex("3B00"))
        assert next(arrivals) == [DeliverCommand(cmd)]
        assert next(arrivals, None) is None

    @pytest.mark.parametrize("split", [None, "after Hello"])
    def test_frames_before_non_frame_bytes_are_answered(self, split):
        # Hello and then non-frame bytes get HelloAck, then Error BadFrame
        # from the established session, in one read or in two.
        provider = Session(Role.PROVIDER, TOKEN)
        hello = frame_encode(MessageType.HELLO, 7, 0, b"\x01" + TOKEN.encode())
        junk = b"GET / HTTP/1.1\r\n\r\n"
        chunks = [hello + junk] if split is None else [hello, junk]
        actions = [a for chunk in chunks
                   for frame_actions in provider.on_bytes(chunk, 0.0)
                   for a in frame_actions]
        ack, error = [a.frame for a in actions if isinstance(a, EmitFrame)]
        assert (ack.msg_type, ack.session_id, ack.seq) == \
            (MessageType.HELLO_ACK, 7, 0)
        assert (error.msg_type, error.session_id, error.seq) == \
            (MessageType.ERROR, 7, 1)
        assert error.payload == b"BadFrame: BadMagic: 47 45"
        assert Violation("BadFrame", "BadMagic: 47 45") in actions
        assert provider.phase is Phase.CLOSED


class TestKeepaliveRtt:
    def test_ack_echoes_payload(self):
        probe, provider = establish_pair()
        ka = only_frame(probe.send_keepalive(now_ms=1000))
        ack = only_frame(provider.on_frame(ka))
        assert ack.msg_type == MessageType.KEEPALIVE_ACK
        assert ack.payload == ka.payload

    def test_estimate_single_sample(self):
        probe, provider = establish_pair()
        ka = only_frame(probe.send_keepalive(now_ms=0))
        ack = only_frame(provider.on_frame(ka))
        assert probe.on_frame(ack, now_ms=100) == [KeepaliveAcked(100)]

    def test_sub_millisecond_round_trip(self):
        probe, provider = establish_pair()
        ka = only_frame(probe.send_keepalive(now_ms=0.25))
        ack = only_frame(provider.on_frame(ka))
        [acked] = probe.on_frame(ack, now_ms=0.41)
        assert acked.rtt_ms == pytest.approx(0.16)

    def test_ack_not_of_eight_octets_is_unknown_type(self):
        probe, provider = establish_pair()
        ka = only_frame(probe.send_keepalive(now_ms=0))
        ack = only_frame(provider.on_frame(ka))._replace(payload=b"\x00\x00\x01")
        actions = probe.on_frame(ack, now_ms=5)
        assert Violation("UnknownType", "KeepaliveAck of 3 octets, not 8") in actions
        assert probe.phase is Phase.CLOSED

    def test_keepalive_interleaves_with_in_flight(self):
        probe, provider = establish_pair(reset=True)
        req = only_frame(probe.send_command(CommandApdu(0, 0xF2, 0, 0)))
        ka = only_frame(probe.send_keepalive(now_ms=5))
        provider.on_frame(req)
        # The keepalive lands while the request is still being served.
        ack = only_frame(provider.on_frame(ka))
        assert ack.msg_type == MessageType.KEEPALIVE_ACK
        assert probe.on_frame(ack, now_ms=9) == [KeepaliveAcked(4)]
        resp = only_frame(provider.send_response(ResponseApdu(b"", 0x90, 0x00)))
        delivered = probe.on_frame(resp)
        assert any(isinstance(a, DeliverResponse) for a in delivered)

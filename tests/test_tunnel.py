"""Wire codec and session state-machine tests."""

import random

import pytest

from simlink.apdu import CommandApdu, ResponseApdu
from simlink.errors import (
    BadMagic,
    BadVersion,
    NoSamples,
    Oversize,
    ProtocolViolation,
    Truncated,
)
from simlink.tunnel import (
    Closed,
    DeliverAtr,
    DeliverCommand,
    DeliverResponse,
    EmitFrame,
    Established,
    FrameDecoder,
    MessageType,
    Phase,
    ResetIndication,
    Role,
    Session,
    TunnelFrame,
    Violation,
    frame_decode,
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
        with pytest.raises(BadMagic):
            frame_decode(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(frame_encode(MessageType.HELLO, 1, 0, b""))
        raw[2] = 0x02
        with pytest.raises(BadVersion):
            frame_decode(bytes(raw))

    def test_oversize_rejected_both_ways(self):
        with pytest.raises(Oversize):
            frame_encode(MessageType.APDU_REQ, 1, 0, bytes(4097))
        raw = bytearray(frame_encode(MessageType.APDU_REQ, 1, 0, b""))
        raw[12:14] = (4097).to_bytes(2, "big")
        with pytest.raises(Oversize):
            frame_decode(bytes(raw))

    def test_truncated_stream(self):
        raw = frame_encode(MessageType.APDU_REQ, 1, 2, b"\x00" * 10)
        with pytest.raises(Truncated):
            frame_decode(raw[:8])
        with pytest.raises(Truncated):
            frame_decode(raw[:-1])

    def test_decode_returns_remainder(self):
        one = frame_encode(MessageType.RESET, 7, 3, b"")
        two = frame_encode(MessageType.ATR_IND, 7, 4, b"\x3B\x00")
        frame, rest = frame_decode(one + two)
        assert frame.msg_type == MessageType.RESET and frame.seq == 3
        frame2, rest2 = frame_decode(rest)
        assert frame2.payload == b"\x3B\x00" and rest2 == b""

    def test_roundtrip_fuzz(self):
        rng = random.Random(0x7E57)
        for _ in range(1500):
            msg_type = rng.choice(list(MessageType))
            session = rng.randint(0, 2**32 - 1)
            seq = rng.randint(0, 2**32 - 1)
            payload = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 4096)))
            frame, rest = frame_decode(frame_encode(msg_type, session, seq, payload))
            assert rest == b""
            assert frame == TunnelFrame(msg_type, session, seq, payload)

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
        probe.on_frame(ack, now_ms=100)
        assert probe.rtt_estimate() == 100

    def test_estimate_is_median(self):
        probe, provider = establish_pair()
        for sent, acked in ((0, 80), (0, 100), (0, 400)):
            ka = only_frame(probe.send_keepalive(now_ms=sent))
            ack = only_frame(provider.on_frame(ka))
            probe.on_frame(ack, now_ms=acked)
        assert probe.rtt_estimate() == 100

    def test_estimate_windows_last_sixteen(self):
        probe, provider = establish_pair()
        for acked in [10_000] * 10 + [50] * 16:
            ka = only_frame(probe.send_keepalive(now_ms=0))
            ack = only_frame(provider.on_frame(ka))
            probe.on_frame(ack, now_ms=acked)
        assert probe.rtt_estimate() == 50

    def test_no_samples(self):
        probe, provider = establish_pair()
        with pytest.raises(NoSamples):
            probe.rtt_estimate()

    def test_sub_millisecond_round_trip(self):
        probe, provider = establish_pair()
        ka = only_frame(probe.send_keepalive(now_ms=0.25))
        ack = only_frame(provider.on_frame(ka))
        probe.on_frame(ack, now_ms=0.41)
        assert probe.rtt_estimate() == pytest.approx(0.16)

    def test_keepalive_interleaves_with_in_flight(self):
        probe, provider = establish_pair(reset=True)
        req = only_frame(probe.send_command(CommandApdu(0, 0xF2, 0, 0)))
        ka = only_frame(probe.send_keepalive(now_ms=5))
        provider.on_frame(req)
        # The keepalive lands while the request is still being served.
        ack = only_frame(provider.on_frame(ka))
        assert ack.msg_type == MessageType.KEEPALIVE_ACK
        probe.on_frame(ack, now_ms=9)
        resp = only_frame(provider.send_response(ResponseApdu(b"", 0x90, 0x00)))
        delivered = probe.on_frame(resp)
        assert any(isinstance(a, DeliverResponse) for a in delivered)
        assert probe.rtt_estimate() == 4

"""Exception taxonomy shared by the codec, tunnel, and broker layers."""


class SimlinkError(Exception):
    """Base class for every error raised by this package."""


class CodecError(SimlinkError, ValueError):
    """Malformed bytes on a parse path."""


class Truncated(CodecError):
    """Input ended before the structure it announces was complete."""


class TrailingGarbage(CodecError):
    """Input continues past the only valid interpretations."""


class BadChecksum(CodecError):
    """A checksum octet does not verify."""


class UnknownConvention(CodecError):
    """Initial reset octet is neither direct nor inverse."""


class BadMagic(CodecError):
    """Frame does not start with the protocol magic."""


class BadVersion(CodecError):
    """Frame carries an unsupported protocol version."""


class Oversize(CodecError):
    """A length field exceeds the allowed maximum."""


class ProtocolViolation(SimlinkError):
    """The peer broke the link discipline; the session is unrecoverable.

    ``kind`` is one of ``AlternationBroken``, ``SeqGap``, ``UnknownType``,
    ``ProcedureByte``, ``BadFrame`` (bytes that do not decode as a frame),
    ``HandshakeTimeout`` (no Hello within the provider's deadline),
    ``BadRole`` (a Hello without the probe's role octet), and, from
    the modem, ``BadStatus`` (a card answer with an error status word),
    ``EmptyAtr`` (a reset answered with no ATR) and ``BadProactive`` (a
    FETCH answered with a body that is not a proactive command).
    """

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


class PayloadTooLong(SimlinkError, ValueError):
    """A proactive-command payload exceeds the queue limit."""


class BrokerError(SimlinkError):
    """Registry-level failure; ``code`` is the wire error name."""

    code = "BrokerError"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


class BadRequest(BrokerError):
    """A control request is not JSON, lacks a field, or has one of the
    wrong type or out of range."""

    code = "BadRequest"


class InvalidIccid(BrokerError):
    code = "InvalidIccid"


class NoMatch(BrokerError):
    code = "NoMatch"


class ProbeStale(BrokerError):
    code = "ProbeStale"


class AlreadyLeased(BrokerError):
    code = "AlreadyLeased"


class UnknownLease(BrokerError):
    code = "UnknownLease"


class RegistryClosed(BrokerError):
    """A state change was asked of a registry whose event log is closed;
    it is refused because the log could no longer record it."""

    code = "RegistryClosed"


class NoSamples(SimlinkError):
    """RTT estimate requested before any keepalive round-trip completed."""


class TimeoutExpired(SimlinkError):
    """The modem's work-waiting budget ran out mid-phase."""

    def __init__(self, phase: str, detail: str = ""):
        self.phase = phase
        self.detail = detail
        super().__init__(f"timeout in phase {phase}" + (f" ({detail})" if detail else ""))


class AuthFailed(SimlinkError):
    """Challenge/response verification mismatch on the modem side."""


class ConfigError(SimlinkError):
    """Bad or missing CLI configuration, reported before any network activity."""

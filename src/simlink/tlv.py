"""Minimal BER-TLV encode/decode for card-toolkit proactive commands.

Single-octet tags only; the card-toolkit tags used here (0x81, 0x82,
0x83, 0x8B, 0xD0) never need the multi-byte tag form. Lengths use the
short form below 0x80 and the 0x81/0x82 long forms above it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .errors import Truncated

TAG_PROACTIVE = 0xD0
TAG_COMMAND_DETAILS = 0x81
TAG_DEVICE_IDENTITIES = 0x82
TAG_RESULT = 0x83
TAG_PAYLOAD = 0x8B  # TPDU-style payload container

DEV_UICC = 0x81
DEV_TERMINAL = 0x82
DEV_NETWORK = 0x83


class ProactiveKind(enum.IntEnum):
    """Type-of-command octets for the proactive commands this card emits."""

    SEND_SHORT_MESSAGE = 0x13
    PROVIDE_LOCAL_INFO = 0x26


# Source and destination device of each kind's envelope.
PROACTIVE_DEVICES = {
    ProactiveKind.SEND_SHORT_MESSAGE: (DEV_UICC, DEV_NETWORK),
    ProactiveKind.PROVIDE_LOCAL_INFO: (DEV_UICC, DEV_TERMINAL),
}


def encode_length(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative TLV length")
    if n < 0x80:
        return bytes([n])
    if n <= 0xFF:
        return bytes([0x81, n])
    if n <= 0xFFFF:
        return bytes([0x82, n >> 8, n & 0xFF])
    raise ValueError(f"TLV length too large: {n}")


def read_length(data: bytes, pos: int) -> Tuple[int, int]:
    """Return (length, position after the length field)."""
    if pos >= len(data):
        raise Truncated("TLV ends before length")
    first = data[pos]
    pos += 1
    if first < 0x80:
        return first, pos
    count = first & 0x7F
    if count == 0 or count > 2:
        raise Truncated(f"unsupported TLV length form {first:02X}")
    if pos + count > len(data):
        raise Truncated("TLV length field truncated")
    value = int.from_bytes(data[pos:pos + count], "big")
    return value, pos + count


def encode_tlv(tag: int, value: bytes) -> bytes:
    return bytes([tag]) + encode_length(len(value)) + bytes(value)


def encode_proactive(number: int, kind: ProactiveKind,
                     payload: bytes = b"") -> bytes:
    """The 0xD0 envelope of proactive command ``number`` (qualifier 0)."""
    inner = encode_tlv(TAG_COMMAND_DETAILS, bytes([number, int(kind), 0x00]))
    inner += encode_tlv(TAG_DEVICE_IDENTITIES, bytes(PROACTIVE_DEVICES[kind]))
    if payload:
        inner += encode_tlv(TAG_PAYLOAD, payload)
    return encode_tlv(TAG_PROACTIVE, inner)


def iter_tlvs(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """Walk consecutive single-octet-tag TLVs; raises Truncated midway."""
    pos = 0
    while pos < len(data):
        tag = data[pos]
        length, pos = read_length(data, pos + 1)
        if pos + length > len(data):
            raise Truncated(f"TLV value for tag {tag:02X} truncated")
        yield tag, data[pos:pos + length]
        pos += length


@dataclass(frozen=True)
class ProactiveInfo:
    """Decoded summary of one proactive-command envelope."""

    command_number: int
    type_octet: int
    qualifier: int
    source_device: Optional[int] = None
    dest_device: Optional[int] = None
    payload: bytes = b""

    @property
    def type_name(self) -> str:
        try:
            return ProactiveKind(self.type_octet).name
        except ValueError:
            return f"TYPE_{self.type_octet:02X}"


def parse_proactive(raw: bytes) -> Optional[ProactiveInfo]:
    """Decode a 0xD0 envelope; None when the bytes are not one.

    Tolerant by design: tracer consumers must never fail on garbage.
    """
    try:
        if not raw or raw[0] != TAG_PROACTIVE:
            return None
        length, pos = read_length(raw, 1)
        if pos + length != len(raw):
            return None
        number = type_octet = qualifier = None
        source = dest = None
        payload = b""
        for tag, value in iter_tlvs(raw[pos:pos + length]):
            if tag == TAG_COMMAND_DETAILS and len(value) == 3:
                number, type_octet, qualifier = value[0], value[1], value[2]
            elif tag == TAG_DEVICE_IDENTITIES and len(value) == 2:
                source, dest = value[0], value[1]
            elif tag == TAG_PAYLOAD:
                payload = value
        if number is None:
            return None
        return ProactiveInfo(number, type_octet, qualifier, source, dest, payload)
    except Truncated:
        return None


def parse_terminal_response(raw: bytes) -> Optional[ProactiveInfo]:
    """Decode the TLV body of a TERMINAL RESPONSE command; None on garbage."""
    try:
        number = type_octet = qualifier = None
        for tag, value in iter_tlvs(raw):
            if tag == TAG_COMMAND_DETAILS and len(value) == 3:
                number, type_octet, qualifier = value[0], value[1], value[2]
        if number is None:
            return None
        return ProactiveInfo(number, type_octet, qualifier)
    except Truncated:
        return None


def encode_terminal_response(info: ProactiveInfo) -> bytes:
    """The TERMINAL RESPONSE body acknowledging ``info``: its command
    details, terminal to card, result 00 (performed successfully)."""
    details = bytes([info.command_number, info.type_octet, info.qualifier])
    return (encode_tlv(TAG_COMMAND_DETAILS, details)
            + encode_tlv(TAG_DEVICE_IDENTITIES, bytes([DEV_TERMINAL, DEV_UICC]))
            + encode_tlv(TAG_RESULT, b"\x00"))

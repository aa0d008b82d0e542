"""Minimal BER-TLV encode/decode for card-toolkit proactive commands.

Single-octet tags only; the card-toolkit tags used here (0x81, 0x82,
0x83, 0x8B, 0xD0) never need the multi-byte tag form. Lengths use the
short form below 0x80 and the 0x81/0x82 long forms above it.

The proactive codec sees the same few inputs in every session: a card
numbers its commands from 1 after each reset, and the modem and the
tracer decode what the card encoded. So ``encode_proactive`` and
``parse_terminal_response`` each keep their last ``CODEC_CACHE_SIZE``
distinct results in a process-wide LRU cache, and ``parse_proactive``
checks the 0xD0 header and hands the body to the second. Each entry
point keys its cache on ``bytes`` (a ``bytearray`` changed after a call
cannot answer for a later one) and on ``operator.index`` ints (a float
raises rather than matching an int). Results are bytes, None or a frozen
``ProactiveInfo``, so hits share them; a call that raises is never kept.
A TERMINAL RESPONSE is its command details plus a constant tail: built,
not cached.
"""

from __future__ import annotations

import enum
import functools
import operator
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


# Distinct arguments each codec function keeps results for; a session
# meets a handful, so the bound only keeps unusual inputs from growing
# the process.
CODEC_CACHE_SIZE = 256


def encode_proactive(number: int, kind: ProactiveKind,
                     payload: bytes = b"") -> bytes:
    """The 0xD0 envelope of proactive command ``number`` (qualifier 0)."""
    # Unlike bytes(), which turns 3 into three zero octets, join refuses
    # an int; it copies any other bytes-like object and returns bytes as is.
    return _encode_proactive(operator.index(number), operator.index(kind),
                             b"".join((payload,)))


@functools.lru_cache(maxsize=CODEC_CACHE_SIZE)
def _encode_proactive(number: int, kind: int, payload: bytes) -> bytes:
    inner = encode_tlv(TAG_COMMAND_DETAILS, bytes([number, kind, 0x00]))
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
    """The command details of one proactive command."""

    command_number: int
    type_octet: int
    qualifier: int

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
    except Truncated:
        return None
    if pos + length != len(raw):
        return None
    return parse_terminal_response(raw[pos:])


def parse_terminal_response(raw: bytes) -> Optional[ProactiveInfo]:
    """Decode the command details in a TLV body (a TERMINAL RESPONSE's or
    a proactive envelope's); None on garbage."""
    return _parse_terminal_response(b"".join((raw,)))


@functools.lru_cache(maxsize=CODEC_CACHE_SIZE)
def _parse_terminal_response(raw: bytes) -> Optional[ProactiveInfo]:
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


_TERMINAL_RESPONSE_TAIL = (
    encode_tlv(TAG_DEVICE_IDENTITIES, bytes([DEV_TERMINAL, DEV_UICC]))
    + encode_tlv(TAG_RESULT, b"\x00"))


def encode_terminal_response(info: ProactiveInfo) -> bytes:
    """The TERMINAL RESPONSE body acknowledging ``info``: its command
    details, terminal to card, result 00 (performed successfully)."""
    return (encode_tlv(TAG_COMMAND_DETAILS, bytes(
        [info.command_number, info.type_octet, info.qualifier]))
        + _TERMINAL_RESPONSE_TAIL)

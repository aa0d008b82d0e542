"""A speed reference for timing on a shared machine.

On a machine whose cores are shared with other tenants the same code runs
at visibly different speeds for seconds at a time: on a 2-vCPU Xeon VM a
pure-Python loop alternated between speeds 50 % apart in phases of 10 to
20 seconds, and in bad phases a loopback connection to a
thread-per-connection server took twice as long. A run that lands in a
slow phase would read slow for reasons that have nothing to do with the
program.

So before every operation the benchmark times the probes its workload
names, out of two fixed probes that run no simlink code:

- ``cpu``: ``_work``, about half a millisecond of pure Python with the
  cyclic collector off: a tight loop of attribute access and arithmetic;
  JSON, hashing, bytes slicing and a dict; and small calls of the kind
  that dominate simlink's card and modem code (a frozen dataclass that
  validates its fields, a state machine stepped byte by byte, a seeded
  ``random.Random``). A slowdown of the machine hits these mixes of
  instructions unequally, so the probe carries all three;
- ``rpc``: one request over a fresh loopback TCP connection to a server
  that starts a thread per connection and echoes one line. That is a
  connect, a thread start, a round trip and a close, the pattern of
  every broker call and tunnel connect.

Each operation's times are multiplied by a factor taken from the
medians of the probes around it:
the geometric mean of ``REFERENCE_S[p] / median(p)`` over those probes.
Every reported time is thus the time on a reference machine where the
probes take exactly the reference times. The unscaled figures are kept
in the run's record.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

# Round figures near what each probe took on the 2-vCPU Xeon VM.
REFERENCE_S = {"cpu": 450e-6, "rpc": 350e-6}
WINDOW = 21  # samples in the rolling median around an operation

perf = time.perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


_DOC = {"iccid": "8944501234567890123", "imsi": "001010123456789",
        "tags": ["AT", "DE"], "n": list(range(40))}


def _octet(value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise ValueError(value)


@dataclass(frozen=True)
class _Record:
    a: int
    b: int
    data: bytes = b""
    le: Optional[int] = None

    def __post_init__(self):
        _octet(self.a)
        _octet(self.b)
        object.__setattr__(self, "data", bytes(self.data))
        if self.le is not None and not 1 <= self.le <= 256:
            raise ValueError(self.le)


class _Machine:
    def __init__(self, echo: int):
        self.echo = echo
        self.status: Optional[int] = None

    def step(self, byte: int) -> int:
        _octet(byte)
        if self.status is not None:
            return 2
        if byte >> 4 in (0x6, 0x9):
            self.status = byte
            return 1
        return 0


def _work() -> int:
    total = 0
    for i in range(250):
        pair = _Pair(i, i ^ 0x5A)
        total += (pair.a * 31 + pair.b) & 0xFFFF
        total ^= len(bytes((i & 0xFF, (i >> 3) & 0xFF)))
    for _ in range(2):
        text = json.dumps(_DOC)
        digest = hashlib.sha256(text.encode()).digest() * 4
        parts = {digest[i:i + 5]: i for i in range(0, len(digest), 5)}
        total += len(json.loads(text)) + len(parts)
    rng = random.Random(5)
    for i in range(60):
        record = _Record(i, (i * 7) & 0xFF, bytes((i,)), None if i & 1 else 16)
        machine = _Machine(record.a)
        for byte in (0x60, record.a, 0x90, 0x00):
            total += machine.step(byte)
        total += rng.randrange(1000) + len(record.data)
    return total


class SpeedProbe:
    """Times the probes a workload names; owns the ``rpc`` echo server."""

    def __init__(self, scale_by: Sequence[str]):
        if not scale_by or set(scale_by) - set(REFERENCE_S):
            raise ValueError(f"scale by one or more of {sorted(REFERENCE_S)}, "
                             f"not {scale_by}")
        self.scale_by = tuple(scale_by)
        self._timers = [getattr(self, "_time_" + name) for name in scale_by]
        self._server = None
        if "rpc" in scale_by:
            self._server = socket.create_server(("127.0.0.1", 0))
            self._address = self._server.getsockname()
            self._accept = threading.Thread(target=self._accept_loop,
                                            name="speed-accept", daemon=True)
            self._accept.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_echo, args=(conn,),
                             name="speed-echo", daemon=True).start()

    @staticmethod
    def _serve_echo(conn):
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                stream.write(line)
                stream.flush()

    @staticmethod
    def _time_cpu() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf()
            _work()
            return perf() - start
        finally:
            if enabled:
                gc.enable()

    def _time_rpc(self) -> float:
        start = perf()
        with socket.create_connection(self._address, timeout=5.0) as conn:
            conn.sendall(b'{"op": "speed"}\n')
            with conn.makefile("rb") as stream:
                stream.readline()
        return perf() - start

    def sample(self) -> Tuple[float, ...]:
        """Time each named probe once, in the order of ``scale_by``."""
        return tuple(timer() for timer in self._timers)

    def factor(self, samples) -> float:
        logs = [math.log(REFERENCE_S[name] / statistics.median(s[i] for s in samples))
                for i, name in enumerate(self.scale_by)]
        return math.exp(sum(logs) / len(logs))

    def rolling_factors(self, samples, window: int = WINDOW) -> List[float]:
        """Per sample, the factor from the window of samples around it."""
        half = window // 2
        return [self.factor(samples[max(0, i - half):i + half + 1])
                for i in range(len(samples))]

    def close(self):
        if self._server is None:
            return
        try:  # wakes the blocked accept(); close() alone does not
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()
        self._accept.join(timeout=5)

"""Spans around calls into simlink's public functions, kept in memory.

The traced run replaces each layer function where its caller looks it up
(``simlink.relay.frame_encode`` rather than only ``simlink.tunnel``'s,
because ``relay`` imports it by name) with a wrapper that records one
span: name, start, end, thread and the span open on that thread when it
started. Nothing under ``src/`` is changed; :meth:`SpanRecorder.unpatch`
restores every original.

A *wait* span (``FrameChannel.recv``) marks time spent blocked on the
socket. It does not cover its parent: its children are treated as
children of the parent instead, so a ``ProbeLink.exchange`` span's self
time is the socket and thread hop rather than zero.

Spans opened on a daemon thread (a provider session or a broker
connection) with no enclosing span there are parented by time
containment to the client-side span that was open on the main thread:
provider work to ``relay.exchange``/``relay.connect``/``link.reset``,
registry work to ``broker.rpc``. That is exact because one client runs
at a time and every call waits for its reply.
"""

from __future__ import annotations

import bisect
import contextlib
import gzip
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, List, Optional

perf = time.perf_counter

# Client-side spans that provider or broker threads are parented to.
RELAY_CONTAINERS = ("relay.exchange", "relay.connect", "link.reset")
BROKER_CONTAINER = "broker.rpc"


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "wait",
                 "failed", "work_parent", "self_time")

    def __init__(self, name: str, thread: int, parent: Optional["Span"],
                 wait: bool):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.wait = wait
        self.failed = False
        self.start = 0.0
        self.end = 0.0
        self.work_parent: Optional[Span] = None
        self.self_time = 0.0


class SpanRecorder:
    """Owns the patches and the spans they record."""

    def __init__(self):
        # A span is recorded when it closes, as a tuple of numbers and
        # strings: (id, name, thread, parent id, wait, start, end, failed).
        # The collector stops tracking such tuples after its first pass
        # over them. Span objects, which it would keep traversing, are
        # built once recording is over: half a million of them, on top of
        # the program's own objects, stretched full collections past the
        # modem's 300 ms waiting time in a 30-second traced run, and
        # sessions timed out.
        self._records: List[tuple] = []
        self._ids = itertools.count()
        self._spans: List[Span] = []
        self.counts: Counter = Counter()
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original descriptor)

    @property
    def spans(self) -> List[Span]:
        """The recorded spans in the order they opened, each linked to its
        parent. Built on first use after recording."""
        if len(self._spans) != len(self._records):
            by_id = {}
            self._spans = []
            for (span_id, name, thread, parent, wait, start, end,
                 failed) in sorted(self._records):
                span = Span(name, thread, by_id.get(parent), wait)
                span.start, span.end, span.failed = start, end, failed
                by_id[span_id] = span
                self._spans.append(span)
        return self._spans

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        """Ids of the spans open on this thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, wait: bool = False,
             count_result: Optional[str] = None) -> Callable:
        records, ids, counts = self._records, self._ids, self.counts
        open_stack = self._stack

        def traced(*args, **kwargs):
            stack = open_stack()
            span_id, parent = next(ids), stack[-1] if stack else None
            stack.append(span_id)
            failed = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf()
                stack.pop()
                records.append((span_id, name, threading.get_ident(), parent,
                                wait, start, end, failed))
            if count_result is not None:
                counts[count_result] += len(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count calls without a span (for calls too cheap to time)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def section(self, name: str):
        """A span around the benchmark's own code (an op, a connect)."""
        stack = self._stack()
        span_id, parent = next(self._ids), stack[-1] if stack else None
        stack.append(span_id)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            stack.pop()
            self._records.append((span_id, name, threading.get_ident(), parent,
                                  False, start, end, False))

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attribute: str, name: str, wait: bool = False,
              count_result: Optional[str] = None, count_only: bool = False):
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            inner = self._wrapped(original.__func__, name, wait, count_result,
                                  count_only)
            replacement = classmethod(inner)
        else:
            replacement = self._wrapped(original, name, wait, count_result,
                                        count_only)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def _wrapped(self, fn, name, wait, count_result, count_only):
        if count_only:
            return self.counter(name, fn)
        return self.wrap(name, fn, wait=wait, count_result=count_result)

    def unpatch(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str):
        """Write every span, gzipped, as one JSON array per line: name,
        start and end in µs, thread, index of the (work) parent."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                parent = span.work_parent or span.parent
                fh.write(json.dumps([
                    span.name, round(span.start * 1e6, 3),
                    round(span.end * 1e6, 3), span.thread,
                    index.get(id(parent)) if parent is not None else None,
                ]) + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _container_kind(name: str) -> str:
    return BROKER_CONTAINER if name.startswith("broker.") else "relay"


def link_parents(spans: List[Span], main_thread: int):
    """Set each span's work parent: skip wait spans, then parent the
    top-level spans of other threads by time containment."""
    for span in spans:
        parent = span.parent
        while parent is not None and parent.wait:
            parent = parent.parent
        span.work_parent = parent
    containers = sorted(
        (s for s in spans if s.thread == main_thread
         and (s.name in RELAY_CONTAINERS or s.name == BROKER_CONTAINER)),
        key=lambda s: s.start,
    )
    starts = [c.start for c in containers]
    for span in spans:
        if span.thread == main_thread or span.work_parent is not None or span.wait:
            continue
        i = bisect.bisect_right(starts, span.start) - 1
        if i < 0:
            continue
        container = containers[i]
        if (span.end <= container.end
                and _container_kind(container.name) == _container_kind(span.name)):
            span.work_parent = container


def compute_self_times(spans: List[Span], main_thread: int):
    """Set every span's ``self_time`` in seconds.

    A span's self time is its duration minus the part of it covered by
    its (work) children. A wait span's self time is its duration minus
    its direct children: the time it spent blocked.
    """
    link_parents(spans, main_thread)
    work_children = defaultdict(list)
    direct_children = defaultdict(list)
    for span in spans:
        if span.work_parent is not None and not span.wait:
            work_children[id(span.work_parent)].append((span.start, span.end))
        if span.parent is not None and span.parent.wait:
            direct_children[id(span.parent)].append((span.start, span.end))
    for span in spans:
        kids = direct_children if span.wait else work_children
        covered = _covered(span.start, span.end, kids.get(id(span), ()))
        span.self_time = span.end - span.start - covered


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_us(seconds) -> float:
    return median_or_zero(seconds) * 1e6


def patch_layers(rec: SpanRecorder):
    """Wrap every layer function the per-layer metrics name, where its
    caller looks it up."""
    from simlink import apdu, broker, lab, modem, relay, tracer, tunnel, vsim

    p = rec.patch
    p(tunnel, "encode_command", "apdu.encode_command")
    p(tracer, "encode_command", "apdu.encode_command")
    p(tunnel, "decode_command", "apdu.decode_command")
    p(apdu.ResponseApdu, "from_bytes", "apdu.response_from_bytes")
    p(apdu.ProcedureState, "step", "apdu.procedure_step", count_only=True)
    p(vsim.Card, "process", "vsim.card_process")
    p(relay, "frame_encode", "tunnel.frame_encode")
    p(tunnel.FrameDecoder, "feed", "tunnel.decoder_feed",
      count_result="tunnel.frames")
    p(tunnel.Session, "on_frame", "tunnel.session_on_frame")
    p(relay.ProbeLink, "exchange", "relay.exchange")
    p(relay.ProbeLink, "reset", "link.reset")
    p(relay.FrameChannel, "send", "relay.send")
    p(relay.FrameChannel, "recv", "relay.recv_wait", wait=True)
    p(tracer.Rewriter, "process", "tracer.rewrite")
    p(tracer.Tracer, "command", "tracer.trace_event")
    p(tracer.Tracer, "response", "tracer.trace_event")
    p(relay, "write_trace", "tracer.write_trace")
    p(relay, "detect_silent_sms", "tracer.detect_silent_sms")
    p(tracer, "detect_silent_sms", "tracer.detect_silent_sms")
    p(modem.ModemSim, "run", "modem.run")
    p(lab, "run_one", "lab.run_one")
    p(lab.VirtualLink, "exchange", "lab.virtual_exchange")
    p(lab.VirtualLink, "reset", "link.reset")
    p(broker.BrokerClient, "request", "broker.rpc")
    p(broker.Registry, "request_lease", "broker.request_lease")
    p(broker.Registry, "release", "broker.release")
    p(broker.Registry, "register_probe", "broker.register_probe")


def layer_metrics(rec: SpanRecorder, ops: int, step_span: str) -> dict:
    """The per-layer metrics computed from the recorded spans."""
    spans = rec.spans
    compute_self_times(spans, rec.main_thread)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_us(name, main_only=False):
        return median_us(s.self_time for s in by_name[name]
                         if not main_only or s.thread == rec.main_thread)

    def per_op(count):
        return count / ops if ops else 0.0

    def covered_share(name):
        return median_or_zero(
            (s.end - s.start - s.self_time) / (s.end - s.start)
            for s in by_name[name] if s.end > s.start)

    feeds = len(by_name["tunnel.decoder_feed"])
    leases = by_name["broker.request_lease"]
    return {
        "apdu.encode_command.us": self_us("apdu.encode_command"),
        "apdu.decode_command.us": self_us("apdu.decode_command"),
        "apdu.response_from_bytes.us": self_us("apdu.response_from_bytes"),
        "apdu.procedure_step.calls": per_op(rec.counts["apdu.procedure_step"]),
        "vsim.card_process.us": self_us("vsim.card_process"),
        "vsim.card_process.calls": per_op(len(by_name["vsim.card_process"])),
        "tunnel.frame_encode.us": self_us("tunnel.frame_encode"),
        "tunnel.decoder_feed.us": self_us("tunnel.decoder_feed"),
        "tunnel.session_on_frame.us": self_us("tunnel.session_on_frame"),
        "tunnel.frames_per_feed": rec.counts["tunnel.frames"] / feeds if feeds else 0.0,
        "relay.hop.us": self_us("relay.exchange"),
        "relay.send.us": self_us("relay.send"),
        "relay.recv_wait.us": self_us("relay.recv_wait", main_only=True),
        "relay.connect.us": self_us("relay.connect"),
        "tracer.rewrite.us": self_us("tracer.rewrite"),
        "tracer.trace_event.us": self_us("tracer.trace_event"),
        "tracer.write_trace.us": self_us("tracer.write_trace"),
        "tracer.detect_silent_sms.us": self_us("tracer.detect_silent_sms"),
        "modem.self.us": self_us("modem.run"),
        "lab.virtual_exchange.self.us": self_us("lab.virtual_exchange"),
        "broker.rpc.us": median_us(s.end - s.start for s in by_name["broker.rpc"]),
        "broker.rpc.self.us": self_us("broker.rpc"),
        "broker.request_lease.us": self_us("broker.request_lease"),
        "broker.release.us": self_us("broker.release"),
        "broker.register_probe.us": self_us("broker.register_probe"),
        "broker.lease_grant_ratio": (
            sum(not s.failed for s in leases) / len(leases) if leases else 0.0),
        "op.covered_share": covered_share("bench.op"),
        "step.covered_share": covered_share(step_span),
    }

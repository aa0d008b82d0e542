#!/usr/bin/env python3
"""simlink benchmark: one workload per run, closed loop, one process.

    python3 bench/run.py --workload probe-session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates one-second untraced and traced blocks: the
traced blocks give the per-layer metrics and the difference between the
two kinds of block gives the tracing overhead.

The metric names and units come from ``BENCHMARK.json`` at the root of
the checkout; ``bench/README.md`` defines each one per workload. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed check makes the run
exit 1; a checkout without ``src/simlink`` makes it exit 1 before it
measures anything, without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
WORKLOAD_NAMES = ("probe-session", "lab-sweep", "broker-fleet")
BLOCK_S = 1.0  # traced runs alternate untraced and traced blocks this long
WINDOW_S = 3.0  # untraced runs report the median over windows this long
MIN_WINDOW_OPS = 50  # a shorter window (the run's last) is left out

perf = time.perf_counter


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import simlink from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "simlink", "__init__.py")):
        sys.exit(f"bench: no simlink package under {SRC}")
    sys.path.insert(0, SRC)
    import simlink

    if os.path.dirname(os.path.dirname(os.path.abspath(simlink.__file__))) != SRC:
        sys.exit(f"bench: simlink imported from {simlink.__file__}")


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 over the package sources: names the code when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "simlink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def stamp() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def window_medians(done, factors) -> dict:
    """Latency and throughput per window, then the median over windows.

    A slow spell of the machine that the speed factor does not fully
    cancel then moves only the windows it covers, not the whole run's
    tail.
    """
    windows = {}
    for (_, elapsed, step_s, _, window), f in zip(done, factors):
        ops, steps = windows.setdefault(window, ([], []))
        ops.append(elapsed * f)
        steps.extend(s * f for s in step_s)
    full = ([w for w in windows.values() if len(w[0]) >= MIN_WINDOW_OPS]
            or list(windows.values()))
    per_window = {
        "op_ms_p50": [statistics.median(o) * 1e3 for o, _ in full],
        "op_ms_p90": [percentile_90(o) * 1e3 for o, _ in full],
        "step_ms_p50": [statistics.median(s) * 1e3 for _, s in full],
        "step_ms_p90": [percentile_90(s) * 1e3 for _, s in full],
        "ops_per_s": [len(o) / sum(o) for o, _ in full],
    }
    return ({name: statistics.median(values) for name, values in per_window.items()},
            per_window)


def count_lines(path) -> int:
    if path is None or not os.path.isfile(path):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, workload, recorder=None):
        """One operation; returns (seconds, steps) or None when it failed."""
        self.attempted += 1
        try:
            elapsed, steps, errors = workload.run_op(recorder)
        except Exception as exc:  # an operation that raises is a failure
            elapsed, steps, errors = None, [], [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.messages.extend(errors[:3])
            return None
        return elapsed, steps


def measure(workload, seconds: float, trace: bool):
    """Set up, warm up, then run operations for ``seconds``.

    Every time is scaled to the reference machine (see ``speed.py``).
    """
    probe = speed.SpeedProbe(workload.scale_by)
    try:
        return _measure(workload, seconds, trace, probe)
    finally:
        probe.close()


def _measure(workload, seconds, trace, probe):
    from spans import SpanRecorder, layer_metrics, patch_layers

    for _ in range(speed.WINDOW):
        probe.sample()
    setup_raw_s, setup_samples = [], []
    for _ in range(workload.setup_reps):
        setup_samples.append(probe.sample())
        setup_raw_s.append(workload.setup())
    setup_s = statistics.median(
        r * f for r, f in zip(setup_raw_s, probe.rolling_factors(setup_samples)))
    tally = Tally()
    for _ in range(workload.warmup_ops):
        tally.run(workload)

    recorder = SpanRecorder() if trace else None
    done = []  # (traced?, seconds, step seconds, speed sample, window)
    lines_before = count_lines(workload.log_path)
    peak_rss_mb = None
    patched = False
    begin = perf()
    deadline = begin + seconds
    try:
        while True:
            now = perf()
            if now >= deadline:
                break
            traced = trace and int((now - begin) / BLOCK_S) % 2 == 1
            if traced != patched:
                if traced:
                    patch_layers(recorder)
                else:
                    recorder.unpatch()
                patched = traced
            calibration = probe.sample()
            result = tally.run(workload, recorder if traced else None)
            if result is not None:
                done.append((traced, result[0], result[1], calibration,
                             int((now - begin) / WINDOW_S)))
            if peak_rss_mb is None and tally.attempted >= workload.rss_at_op:
                peak_rss_mb = _peak_rss_mb()
    finally:
        if patched:
            recorder.unpatch()
    lines_after = count_lines(workload.log_path)
    finish_errors = workload.finish()
    if finish_errors:
        tally.attempted += 1
        tally.failed += 1
        tally.messages.extend(finish_errors[:3])
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    factors = probe.rolling_factors([d[3] for d in done])
    ops = {False: [], True: []}  # scaled op seconds, untraced and traced
    for (traced, elapsed, _, _, _), f in zip(done, factors):
        ops[traced].append(elapsed * f)
    raw = {
        "speed_factor": statistics.median(factors),
        "setup_s": statistics.median(setup_raw_s),
        "op_ms_p50": statistics.median(d[1] for d in done if not d[0]) * 1e3,
    }
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "success_rate": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        medians, per_window = window_medians(done, factors)
        metrics.update(medians)
        samples = {"ops": len(done), "steps": sum(len(d[2]) for d in done),
                   "windows": len({d[4] for d in done}),
                   "per_window": per_window}
    else:
        traced_factor = statistics.median(
            f for d, f in zip(done, factors) if d[0])
        metrics = layer_metrics(recorder, len(ops[True]), workload.step_span)
        metrics.update(workload.layer_extras())
        for name in metrics:
            if name.endswith((".us", ".ms")):
                metrics[name] *= traced_factor
        metrics["broker.log_lines"] = (
            (lines_after - lines_before) / len(done) if done else 0.0)
        untraced_p50 = statistics.median(ops[False]) * 1e3
        traced_p50 = statistics.median(ops[True]) * 1e3
        metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
        metrics["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
        samples = {"ops_untraced": len(ops[False]), "ops_traced": len(ops[True]),
                   "spans": len(recorder.spans)}
    return metrics, tally, samples, recorder, raw


def pin_to_one_cpu():
    """Run every thread of this process on one CPU, the last one allowed.

    The workloads are closed loops: one thread runs at a time and hands
    over to the next through a socket. Left free, the scheduler puts the
    threads on the same CPU in one run and on different CPUs in the next,
    and on a VM a hand-over to another CPU that sits idle costs a wake-up
    of that virtual CPU, which on a busy host takes from tens of
    microseconds to milliseconds. Session tails then jumped between runs
    of the same code. On one CPU every hand-over is a local context
    switch. Threads inherit the mask, so this runs before any thread
    starts. Returns the CPU, or None where the mask cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    spec = load_spec()
    import_program()
    pinned = pin_to_one_cpu()
    from workloads import WORKLOADS

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    machine = stamp()
    machine["pinned_cpu"] = pinned
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    workload = WORKLOADS[args.workload](ROOT, args.seed, tmp)
    try:
        metrics, tally, samples, recorder, raw = measure(
            workload, args.seconds, bool(args.trace))
        retained = workload.retained()
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)

    result_metrics = {}
    for name in names:
        value = metrics.get(name, 0.0)
        result_metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print("samples: " + json.dumps(
        {k: v for k, v in samples.items() if k != "per_window"}))
    print(f"unscaled: {json.dumps(raw)}")
    if retained:
        print(f"retained after the run: {json.dumps(retained)}")
    print(f"checks: {tally.attempted} operations attempted, {tally.failed} failed")
    for message in tally.messages[:10]:
        print(f"  FAILED: {message}")

    os.makedirs(OUT_DIR, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "samples": samples, "retained": retained,
              "unscaled": raw,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": result_metrics}
    with open(os.path.join(OUT_DIR, base + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if recorder is not None:  # the latest traced run of each workload
        recorder.dump(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl.gz"))

    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and args.seconds < 2 * BLOCK_S:
        parser.error(f"--trace 1 needs at least {2 * BLOCK_S:g} seconds")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""The process-wide memos in simlink, each with the benchmark op it serves.

A memo keeps results for the whole process, so it has to pay for itself
on an op the benchmark runs. These tests pin the set: every
``functools.lru_cache`` defined in a simlink module, and every
module-level container that the benchmark's ops fill. Adding a memo or
dropping one is a change to the lists below, recorded in CHANGES.md
with the op that hits it, as ``tests/test_bench_names.py`` does for the
benchmark's span names.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import simlink

# Lookups per op are counted after warm-up.
LRU_CACHES = {
    # probe-session: 54 lookups per op, one per event the probe's and the
    # provider's tracers write.
    "simlink.tracer._render",
    # No op: each workload's set-up loads its profile once, as `simlink
    # provide` does; a parse costs nearly as much as the rest of the load.
    "simlink.vsim._parse_atr_hex",
    # probe-session: 1 lookup per op, the provider's card for the session.
    "simlink.vsim.build_filesystem",
}

DICT_MEMOS = {
    # probe-session: 15 lookups per op, one per classified status word.
    "simlink.apdu._STATUS_CLASSES",
    # lab-sweep: 20 lookups per op, one per session's recorded walk.
    "simlink.lab._walks",
}


def simlink_modules():
    return [importlib.import_module(f"simlink.{info.name}")
            for info in pkgutil.iter_modules(simlink.__path__)
            if info.name != "__main__"]  # running it parses sys.argv


def test_the_lru_caches_are_the_listed_ones():
    found = set()
    for module in simlink_modules():
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type)]
        for owner in owners:
            for value in vars(owner).values():
                if (hasattr(value, "cache_info")
                        and value.__module__ == module.__name__):
                    found.add(f"{module.__name__}.{value.__qualname__}")
    assert found == LRU_CACHES


def test_the_dict_memos_exist_by_name():
    for where in DICT_MEMOS:
        module, name = where.rsplit(".", 1)
        assert isinstance(getattr(importlib.import_module(module), name), dict)


# One session of each benchmark op in a fresh process: the module-level
# containers that grow meanwhile are printed, one name per line.
OPS = """
import collections, importlib, pkgutil
import simlink

modules = [importlib.import_module(f"simlink.{info.name}")
           for info in pkgutil.iter_modules(simlink.__path__)
           if info.name != "__main__"]

def sizes():
    return {f"{module.__name__}.{name}": len(value)
            for module in modules for name, value in vars(module).items()
            if isinstance(value, (dict, list, set, collections.deque))
            and not name.startswith("__")}

before = sizes()

from simlink.apdu import INS_STATUS, CommandApdu
from simlink.broker import Registry
from simlink.lab import StallPolicy, VirtualLink, lab_sweep
from simlink.modem import ModemSim
from simlink.relay import ProviderCore, wire
from simlink.tracer import Tracer
from simlink.tunnel import Role, Session
from simlink.vsim import Card, demo_profile

# probe-session: a traced, verified modem session, and relayed exchanges.
profile = demo_profile()
tracer = Tracer(session_id=1)
modem = ModemSim(verify_aka=True, k=profile.k, op_salt=profile.op_salt, seed=3)
assert modem.run(VirtualLink(Card(profile), 10.0), tracer).completed
tracer.close()
core = ProviderCore(profile, "t0ken", 0.0)
probe = Session(Role.PROBE, "t0ken", session_id=7)
sends = [probe.start, probe.send_reset]
sends += [lambda: probe.send_command(CommandApdu(0, INS_STATUS, 0, 0))] * 3
for send in sends:
    for _ in probe.on_bytes(core.on_bytes(wire(send()), 1.0), 1.0):
        pass
# lab-sweep: jittered sessions, stalled, within the budget and past it.
lab_sweep([0, 600], StallPolicy(enabled=True), repetitions=2, jitter_ms=5.0)
# broker-fleet: a lease by tag and its release.
registry = Registry()
registry.register_sim("8901234567890123455", tags={"AT"}, provider_endpoint="h:1")
registry.register_probe("p1")
registry.release(registry.request_lease("p1", tags={"AT"}).lease_id)
registry.close()

after = sizes()
for name in sorted(after):
    if after[name] != before.get(name):
        print(name)
"""


def test_the_ops_fill_only_the_listed_dict_memos():
    src = os.path.dirname(os.path.dirname(os.path.abspath(simlink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", OPS], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == DICT_MEMOS

"""Single entry point wiring the daemons and the lab together.

Every subcommand is non-interactive and scriptable: exit code 0 on
success, nonzero with one machine-parsable JSON error line on stderr.
Configuration problems are reported before any socket is bound. The
pre-shared token comes from --token or the SIMLINK_TOKEN environment
variable and is required for every networked role.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import sys
import threading
import time
from typing import List, Optional

from . import __version__
from .broker import BrokerClient, BrokerRequestError, BrokerServer, Registry
from .errors import BrokerError, ConfigError, RegistryClosed, SimlinkError
from .lab import StallPolicy, lab_sweep, render_csv, render_table
from .listener import parse_hostport
from .modem import ModemSim, default_script, script_from_json
from .relay import LinkClosed, ProbeLink, ProviderServer
from .tracer import Tracer, detect_silent_sms, read_trace, rules_from_json
from .vsim import SimProfile, demo_profile

logger = logging.getLogger(__name__)

TOKEN_ENV = "SIMLINK_TOKEN"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def fail(code: str, detail: str = "", exit_code: int = EXIT_RUNTIME) -> int:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")
    return exit_code


def resolve_token(args) -> str:
    token = getattr(args, "token", None) or os.environ.get(TOKEN_ENV)
    if not token:
        raise ConfigError(f"a token is required: pass --token or set {TOKEN_ENV}")
    return token


def require_file(path: Optional[str], what: str) -> Optional[str]:
    if path is not None and not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def load_profile(path: Optional[str]) -> SimProfile:
    if path is None:
        return demo_profile()
    with open(path, encoding="utf-8") as fh:
        return SimProfile.from_json(fh.read())


def load_rules(path: Optional[str]) -> list:
    if path is None:
        return []
    with open(path, encoding="utf-8") as fh:
        return rules_from_json(fh.read())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_broker(args) -> int:
    token = resolve_token(args)
    host, port = parse_hostport(args.listen)
    registry = Registry.replay(args.state_log) if args.state_log else Registry()
    server = BrokerServer(registry, token, host=host, port=port)
    print(f"broker listening on {server.endpoint}", file=sys.stderr)

    def sweeper():
        while True:
            time.sleep(args.sweep_interval_s)
            try:
                freed = registry.expire_sweep()
            except RegistryClosed:  # the broker is shutting down
                return
            if freed:
                logger.info("expired leases freed: %s", freed)

    threading.Thread(target=sweeper, daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        registry.close()
    return EXIT_OK


def cmd_provide(args) -> int:
    token = resolve_token(args)
    require_file(args.profile, "profile")
    require_file(args.rules, "rules file")
    profile = load_profile(args.profile)
    rules = load_rules(args.rules)
    host, port = parse_hostport(args.listen)
    client = BrokerClient(args.broker, token)  # checks --broker before binding
    server = ProviderServer(
        profile, token, host=host, port=port,
        rules=rules, trace_dir=args.trace_dir,
    )
    with client:
        client.request("register_sim", {
            "iccid": profile.iccid,
            "tags": args.tag,
            "provider_endpoint": server.endpoint,
        })
    print(f"provider for {profile.iccid} listening on {server.endpoint}",
          file=sys.stderr)
    try:
        server.serve_forever()  # connections made meanwhile wait in the backlog
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def parse_lease_selector(value: str) -> dict:
    kind, _, rest = value.partition(":")
    if kind == "iccid" and rest:
        return {"iccid": rest}
    if kind == "tag" and rest:
        return {"tags": rest.split(",")}
    raise ConfigError(f"bad --lease {value!r}: use iccid:<digits> or tag:<t1,t2>")


def build_modem(args) -> ModemSim:
    settings = {}
    if args.script is not None:
        with open(args.script, encoding="utf-8") as fh:
            settings = script_from_json(fh.read())
    verify = settings.get("verify")
    return ModemSim(
        script=settings.get("phases", default_script()),
        waiting_time_ms=float(settings.get("waiting_time_ms",
                                           args.waiting_time_ms)),
        verify_aka=verify is not None,
        k=bytes.fromhex(verify["k_hex"]) if verify else None,
        op_salt=bytes.fromhex(verify["op_salt_hex"]) if verify else None,
        seed=int(settings.get("seed", args.seed)),
    )


def cmd_probe(args) -> int:
    token = resolve_token(args)
    require_file(args.script, "script")
    criteria = parse_lease_selector(args.lease)
    modem = build_modem(args)

    with BrokerClient(args.broker, token) as client:
        client.request("register_probe", {
            "probe_id": args.probe_id, "location_tag": args.location,
        })
        body = {"probe_id": args.probe_id, **criteria}
        if args.duration_s:
            body["duration_ms"] = args.duration_s * 1000
        reply = client.request("request_lease", body)
        lease = reply["lease"]
        endpoint = reply["provider_endpoint"]
        logger.info("leased %s until %s via %s",
                    lease["iccid"], lease["expires_at"], endpoint)

        # Everything that can fail once the lease is held sits inside the
        # try, so the lease is released even when the tunnel never opens.
        trace_file = link = tracer = None
        try:
            if args.trace_out:
                trace_file = open(args.trace_out, "w", encoding="utf-8")
            link = ProbeLink(endpoint, token).connect()
            rtt = link.keepalive_roundtrip()
            tracer = Tracer(link.session.session_id, sink=trace_file)
            report = modem.run(link, tracer=tracer)
        except ConfigError as exc:  # the endpoint came from the broker, not --options
            raise BrokerError(f"provider endpoint: {exc}") from None
        finally:
            if link is not None:
                link.close()
            if tracer is not None:
                tracer.close()
            if trace_file is not None:
                trace_file.close()
            try:
                client.request("release", {"lease_id": lease["lease_id"]})
            except (BrokerError, OSError) as exc:
                logger.warning("release failed: %s", exc)

    flagged = detect_silent_sms(tracer.events)

    doc = report.to_dict()
    doc["lease"] = lease
    doc["provider_endpoint"] = endpoint
    doc["tunnel_rtt_ms"] = round(rtt, 3)
    doc["silent_sms_flags"] = len(flagged)
    print(json.dumps(doc, indent=2))
    if report.failure is not None:
        return fail("SessionFailed", report.failure)
    return EXIT_OK


def cmd_trace(args) -> int:
    require_file(args.file, "trace file")
    with open(args.file, encoding="utf-8") as fh:
        events = read_trace(fh)
    if args.action == "grep-silent-sms":
        for event in detect_silent_sms(events):
            print(event.to_json())
        return EXIT_OK
    for event in events:
        decoded = dict(event.decoded)
        name = decoded.pop("ins_name", "?")
        extra = " ".join(f"{k}={v}" for k, v in sorted(decoded.items()))
        flags = f" [{','.join(event.flags)}]" if event.flags else ""
        print(f"{event.ts_ms:>8} {event.direction} {name:<18} "
              f"{event.raw_hex:<48} {extra}{flags}")
    return EXIT_OK


def cmd_lab(args) -> int:
    try:
        grid = [float(x) for x in args.rtt_grid.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"bad --rtt-grid {args.rtt_grid!r}") from None
    stall = StallPolicy(enabled=args.stall == "on",
                        null_interval_ms=args.null_interval_ms)
    profile = load_profile(require_file(args.profile, "profile"))
    rows = lab_sweep(
        grid,
        stall,
        repetitions=args.repetitions,
        seed=args.seed,
        jitter_ms=args.jitter_ms,
        waiting_time_ms=args.waiting_time_ms,
        profile=profile,
    )
    csv_text = render_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(render_table(rows))
    else:
        sys.stdout.write(csv_text)
        print(render_table(rows), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlink",
        description="Remote-SIM tunnel lab: broker, provider, probe, "
                    "trace tools, and the latency sweep.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("broker", help="run the SIM directory / lease broker")
    p.add_argument("--listen", default="127.0.0.1:7400")
    p.add_argument("--state-log", default=None,
                   help="append-only event log; replayed at startup")
    p.add_argument("--token", default=None)
    p.add_argument("--sweep-interval-s", type=float, default=10.0)
    p.set_defaults(func=cmd_broker)

    p = sub.add_parser("provide", help="host a virtual SIM and serve tunnels")
    p.add_argument("--broker", required=True)
    p.add_argument("--profile", default=None,
                   help="SIM profile JSON (defaults to the demo profile)")
    p.add_argument("--rules", default=None, help="rewrite rules JSON")
    p.add_argument("--listen", default="127.0.0.1:0")
    p.add_argument("--tag", action="append", default=[])
    p.add_argument("--trace-dir", default=None)
    p.add_argument("--token", default=None)
    p.set_defaults(func=cmd_provide)

    p = sub.add_parser("probe", help="lease a SIM and run the modem script")
    p.add_argument("--broker", required=True)
    p.add_argument("--lease", required=True,
                   help="iccid:<digits> or tag:<t1,t2>")
    p.add_argument("--script", default=None, help="modem script JSON")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--probe-id", default=f"probe-{socket.gethostname()}-{os.getpid()}")
    p.add_argument("--location", default="")
    p.add_argument("--duration-s", type=int, default=None)
    p.add_argument("--waiting-time-ms", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--token", default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("trace", help="offline trace decoding and grep")
    p.add_argument("action", choices=["decode", "grep-silent-sms"])
    p.add_argument("file")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("lab", help="latency sweep in simulated time")
    p.add_argument("--rtt-grid", default="0,150,300,600,900")
    p.add_argument("--stall", choices=["on", "off"], default="off")
    p.add_argument("--null-interval-ms", type=float, default=100.0)
    p.add_argument("--waiting-time-ms", type=float, default=300.0)
    p.add_argument("--jitter-ms", type=float, default=0.0)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default=None)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_lab)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        return fail("ConfigError", str(exc), EXIT_CONFIG)
    except BrokerRequestError as exc:
        return fail(exc.code, exc.detail)
    except LinkClosed as exc:
        return fail("LinkClosed", str(exc))
    except SimlinkError as exc:
        return fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return fail("IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())

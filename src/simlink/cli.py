"""Single entry point wiring the daemons and the lab together.

Every subcommand is non-interactive and scriptable: exit code 0 on
success, nonzero with one machine-parsable JSON error line on stderr.
Configuration problems are reported before any socket is bound. The
pre-shared token comes from --token or the SIMLINK_TOKEN environment
variable and is required for every networked role.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import secrets
import socket
import sys
from typing import List, Optional

from . import __version__
from .broker import BrokerClient, BrokerRequestError, BrokerServer, Registry
from .errors import BrokerError, ConfigError, SimlinkError
from .lab import StallPolicy, lab_sweep, render_csv, render_table
from .listener import parse_hostport
from .modem import ModemSim, script_from_json
from .relay import ProbeLink, ProviderServer
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


def require_number(value: float, flag: str, low: float = 0.0):
    if not (math.isfinite(value) and value >= low):
        raise ConfigError(f"{flag} must be a finite number >= {low:g}, not {value}")


@contextlib.contextmanager
def loading(path: Optional[str], what: str):
    """Report a file that cannot be opened, or whose contents do not
    parse, as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot open {what} {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(
            f"malformed {what} {path}: {type(exc).__name__}: {exc}") from None


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_profile(path: Optional[str]) -> SimProfile:
    if path is None:
        return demo_profile()
    with loading(path, "profile"):
        return SimProfile.from_json(read_text(path))


def load_rules(path: Optional[str]) -> list:
    if path is None:
        return []
    with loading(path, "rules file"):
        return rules_from_json(read_text(path))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_broker(args) -> int:
    token = resolve_token(args)
    host, port = parse_hostport(args.listen)
    with loading(args.state_log, "state log"):
        registry = Registry.replay(args.state_log) if args.state_log else Registry()
    server = BrokerServer(registry, token, host=host, port=port)
    print(f"broker listening on {server.endpoint}", file=sys.stderr)
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
    profile = load_profile(args.profile)
    rules = load_rules(args.rules)
    host, port = parse_hostport(args.listen)
    client = BrokerClient(args.broker, token)  # checks --broker before binding
    server = ProviderServer(
        profile, token, host=host, port=port,
        rules=rules, trace_dir=args.trace_dir,
    )
    try:  # a refused registration closes the bound server too
        with client:
            client.request("register_sim", {
                "iccid": profile.iccid,
                "tags": args.tag,
                "provider_endpoint": server.endpoint,
            })
        print(f"provider for {profile.iccid} listening on {server.endpoint}",
              file=sys.stderr)
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
    """The probe's modem: the --script file's settings over the flags."""
    require_number(args.waiting_time_ms, "--waiting-time-ms")
    settings = {}
    with loading(args.script, "script"):
        if args.script is not None:
            settings = script_from_json(read_text(args.script))
        verify = settings.get("verify")
        return ModemSim(
            script=settings.get("phases"),
            waiting_time_ms=float(settings.get("waiting_time_ms",
                                               args.waiting_time_ms)),
            verify_aka=verify is not None,
            k=bytes.fromhex(verify["k_hex"]) if verify else None,
            op_salt=bytes.fromhex(verify["op_salt_hex"]) if verify else None,
            seed=int(settings.get("seed", args.seed)),
        )


def cmd_probe(args) -> int:
    token = resolve_token(args)
    criteria = parse_lease_selector(args.lease)
    if args.duration_s is not None:
        require_number(args.duration_s, "--duration-s", 1)
    modem = build_modem(args)
    # The session id is drawn here so the trace file opens before the
    # first broker request: a path that cannot be written takes no lease.
    session_id = secrets.randbelow(1 << 32)
    with loading(args.trace_out, "trace output"):
        tracer = Tracer(session_id, path=args.trace_out)

    with contextlib.closing(tracer), BrokerClient(args.broker, token) as client:
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
        link = None
        try:
            link = ProbeLink(endpoint, token, session_id=session_id).connect()
            rtt = link.keepalive_roundtrip()
            report = modem.run(link, tracer=tracer)
        except ConfigError as exc:  # the endpoint came from the broker, not --options
            raise BrokerError(f"provider endpoint: {exc}") from None
        finally:
            if link is not None:
                link.close()
            try:
                client.request("release", {"lease_id": lease["lease_id"]})
            except (BrokerError, OSError) as exc:
                logger.warning("release failed: %s", exc)

    doc = report.to_dict()
    doc["lease"] = lease
    doc["provider_endpoint"] = endpoint
    doc["tunnel_rtt_ms"] = round(rtt, 3)
    doc["silent_sms_flags"] = tracer.silent_sms
    print(json.dumps(doc, indent=2))
    if report.failure is not None:
        return fail("SessionFailed", report.failure)
    return EXIT_OK


def cmd_trace(args) -> int:
    with loading(args.file, "trace file"):
        events = read_trace(read_text(args.file).splitlines())
        if args.action == "grep-silent-sms":
            lines = [event.to_json() for event in detect_silent_sms(events)]
        else:
            lines = [decode_line(event) for event in events]
    for line in lines:
        print(line)
    return EXIT_OK


def decode_line(event) -> str:
    decoded = dict(event.decoded)
    name = decoded.pop("ins_name", "?")
    extra = " ".join(f"{k}={v}" for k, v in sorted(decoded.items()))
    flags = f" [{','.join(event.flags)}]" if event.flags else ""
    return (f"{event.ts_ms:>8} {event.direction} {name:<18} "
            f"{event.raw_hex:<48} {extra}{flags}")


def cmd_lab(args) -> int:
    try:
        grid = [float(x) for x in args.rtt_grid.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"bad --rtt-grid {args.rtt_grid!r}") from None
    if not grid:
        raise ConfigError("--rtt-grid names no RTT")
    for rtt in grid:
        require_number(rtt, "an --rtt-grid value")
    require_number(args.repetitions, "--repetitions", 1)
    require_number(args.null_interval_ms, "--null-interval-ms")
    require_number(args.waiting_time_ms, "--waiting-time-ms")
    require_number(args.jitter_ms, "--jitter-ms")
    stall = StallPolicy(enabled=args.stall == "on",
                        null_interval_ms=args.null_interval_ms)
    profile = load_profile(args.profile)
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
    except SimlinkError as exc:
        return fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return fail("IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())

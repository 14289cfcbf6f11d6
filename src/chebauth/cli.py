"""Command-line driver for seeded, reproducible protocol and attack runs.

One subcommand per experiment: honest-run, guess-attack, wrong-login-demo,
dos-demo. Every run emits a JSON report (schema in docs/report.schema.json)
whose fields, wall time aside, are a pure function of the configuration.

Exit codes: 0 the expected outcome reproduced, 2 the experiment ran but
contradicted the expected outcome, 3 configuration or I/O error, or an
invalid fixture: one that violates the experiment's precondition, such as a
wrong password that passes X1 by truncation collision at a toy width.
"""

import argparse
import json
import sys
import time

from .adversary import (
    Dictionary,
    ExperimentInvalid,
    dos_experiment,
    offline_guess,
    wrong_login_experiment,
)
from .chaotic import DEFAULT_PRIME, FieldElement, backend_name
from .primitives import DEFAULT_WIDTH, LogicalClock, OpCounts, RandomSource, Timestamp
from .protocol import (
    DEFAULT_DELTA_T,
    LoginRequest,
    Params,
    registration,
    run_login_session,
    server_setup,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONTRADICTED = 2
EXIT_CONFIG = 3


def _setup(args: argparse.Namespace):
    """Common fixture: server, protocol rng (a distinct stream), clock, card."""
    server = server_setup(args.seed, Params(args.prime, args.width, args.delta_t))
    rng = RandomSource(args.seed + 1)
    clock = LogicalClock()
    card = registration(server, args.identity, args.password, rng)
    return server, rng, clock, card


_FIELD_JSON = {bytes: bytes.hex, FieldElement: str, Timestamp: lambda stamp: stamp.ticks}


def _message_json(message) -> dict:
    """M1 or M2, its fields in declared order, each encoded by its type."""
    encoded = {"type": "login_request" if isinstance(message, LoginRequest) else "login_response"}
    for name, value in zip(message.__match_args__, message._key):
        encoded[name] = _FIELD_JSON[type(value)](value)
    return encoded


def _event_json(event) -> dict:
    """One transcript entry: M1 goes user to server, M2 back, each sent at its last field, T1 or T2."""
    message = _message_json(event.message)
    return {
        "direction": "user->server" if message["type"] == "login_request" else "server->user",
        "sent_at": event.message._key[-1].ticks,
        "delivered_at": event.delivered_at.ticks,
        "message": message,
    }


def _login(index: int, args: argparse.Namespace, server, card, clock, rng):
    """One honest login with per-party op counts: the session and its report entry."""
    user_counts, server_counts = OpCounts(), OpCounts()
    session = run_login_session(
        server, card, args.password, clock, rng,
        channel_delay=args.channel_delay,
        user_counts=user_counts, server_counts=server_counts,
    )
    return session, {
        "index": index,
        "keys_match": session.keys_match,
        "user_key": session.user_key.hex() if session.user_key else None,
        "server_key": session.server_key.hex() if session.server_key else None,
        "reject": (
            None
            if session.ok
            else {"by": session.rejected_by, "reason": session.reject.reason.value}
        ),
        "op_counts": {"user": user_counts.as_dict(), "server": server_counts.as_dict()},
        "transcript": [_event_json(event) for event in session.events],
    }


def _timed(experiment, *args, **kwargs):
    """Call one experiment; return its result and its wall time in seconds."""
    start = time.perf_counter()
    result = experiment(*args, **kwargs)
    return result, time.perf_counter() - start


# Each command takes the args and _setup's fixture, runs its experiment and
# returns the report body, which ends with the verdict, and the verdict itself.


def cmd_honest_run(args: argparse.Namespace, server, rng, clock, card):
    """Two consecutive logins (pseudonym refresh)."""
    sessions = []
    all_ok = True
    for index in (1, 2):
        session, entry = _login(index, args, server, card, clock, rng)
        card = session.card
        sessions.append(entry)
        all_ok = all_ok and session.keys_match  # only an accepted session has keys
    return {"sessions": sessions, "all_sessions_ok": all_ok}, all_ok


def cmd_guess_attack(args: argparse.Namespace, server, rng, clock, card):
    """Eavesdrop one honest login, extract the card, scan the dictionary."""
    dictionary = Dictionary.from_file(args.dictionary)
    session, entry = _login(1, args, server, card, clock, rng)
    m1 = session.events[0].message
    attack, wall_time_s = _timed(offline_guess, card, m1, dictionary)  # the card state the login used
    # a miss scans the whole dictionary, so guesses needs no check of its own
    as_expected = attack.recovered == (None if args.expect_miss else args.password.encode("utf-8"))
    recovered = attack.recovered.decode("utf-8") if attack.recovered is not None else None
    return {
        "session": entry,
        "attack": {
            "outcome": "recovered" if recovered is not None else "none",
            "recovered_password": recovered,
            "guesses": attack.guesses,
            "dictionary_size": len(dictionary),
            "multiple_matches": False,  # the scan stops at its first match
            "op_counts": attack.counts.as_dict(),
            "wall_time_s": wall_time_s,
        },
        "as_expected": as_expected,
    }, as_expected


_WASTED_ROUND_COUNTS = {"hash": 6, "xor": 4, "cheb": 1}


def cmd_wrong_login(args: argparse.Namespace, server, rng, clock, card):
    """One wasted login round with a wrong password, with op accounting."""
    # raises ExperimentInvalid unless the server rejected the password, so the
    # report's server_rejected is always true
    counts, wall_time_s = _timed(
        wrong_login_experiment,
        card, args.wrong_password, server, clock, rng, channel_delay=args.channel_delay,
    )
    as_expected = counts.as_dict() == _WASTED_ROUND_COUNTS
    return {
        "experiment": {
            "server_rejected": True,
            "op_counts": counts.as_dict(),
            "expected_op_counts": dict(_WASTED_ROUND_COUNTS),
            "wall_time_s": wall_time_s,
        },
        "as_expected": as_expected,
    }, as_expected


def cmd_dos_demo(args: argparse.Namespace, server, rng, clock, card):
    """Password change with a wrong (or, as control, correct) old password."""
    experiment, wall_time_s = _timed(
        dos_experiment,
        card, args.password, args.wrong_old_password, args.new_password, server, clock, rng,
        channel_delay=args.channel_delay, correct_old=args.correct_old_password,
    )
    if args.correct_old_password:  # an accepted probe already means no denial of service
        as_expected = experiment.probes["new_password"] == "accepted"
    else:
        as_expected = experiment.dos_confirmed
    return {
        "experiment": {
            "dos_confirmed": experiment.dos_confirmed,
            "probes": experiment.probes,
            "op_counts": experiment.counts.as_dict(),
            "wall_time_s": wall_time_s,
        },
        "as_expected": as_expected,
    }, as_expected


# command -> (function, fixture keys echoed beyond identity and password,
#             further flags echoed at the end of the config)
_COMMANDS = {
    "honest-run": (cmd_honest_run, (), ()),
    "guess-attack": (cmd_guess_attack, (), ("expect_miss",)),
    "wrong-login-demo": (cmd_wrong_login, ("wrong_password",), ()),
    "dos-demo": (cmd_dos_demo, ("wrong_old_password", "new_password", "correct_old_password"), ()),
}


def run_command(args: argparse.Namespace) -> dict:
    """Run the resolved command and wrap its body in the report head and verdict."""
    start = time.perf_counter()
    command, fixture_keys, extra_keys = _COMMANDS[args.command]
    body, verdict = command(args, *_setup(args))
    config = {
        "seed": args.seed,
        "width": args.width,
        "prime": str(args.prime),
        "delta_t": args.delta_t,
        "channel_delay": args.channel_delay,
        "dictionary": args.dictionary,
        "fixture": {key: getattr(args, key) for key in ("identity", "password", *fixture_keys)},
    }
    config.update((key, getattr(args, key)) for key in extra_keys)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "digest": "sha-256",
        "backend": backend_name,
        **body,
        "exit_status": EXIT_OK if verdict else EXIT_CONTRADICTED,
        "wall_time_s": time.perf_counter() - start,
    }


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "claim contradicted" here,
    # so remap usage problems to the configuration-error code.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chebauth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.set_defaults(dictionary=None)  # the config echo reads it for every command
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--width", type=int, default=DEFAULT_WIDTH, help="bit width l")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="field modulus, decimal")
        p.add_argument("--delta-t", type=int, default=DEFAULT_DELTA_T, help="freshness window, ticks")
        p.add_argument("--channel-delay", type=int, default=1, help="per-leg delivery delay, ticks")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--id", dest="identity", default="alice")
        p.add_argument("--password", default="sunrise77")
        if command == "guess-attack":
            p.add_argument("--dict", dest="dictionary", required=True, help="password list, one per line")
            p.add_argument("--expect-miss", action="store_true",
                           help="expect exhaustion (true password absent from the list)")
        if command == "wrong-login-demo":
            p.add_argument("--wrong-password", default=None)
        if command == "dos-demo":
            p.add_argument("--wrong-old-password", default=None)
            p.add_argument("--new-password", default=None)
            p.add_argument("--correct-old-password", action="store_true",
                           help="control run: change with the correct old password")
    return parser


def _config_from_args(args: argparse.Namespace) -> None:
    """Derive each password no flag set from --password; refuse a negative --seed or --channel-delay."""
    for key, suffix in (("wrong_password", "-typo"), ("wrong_old_password", "-typo"), ("new_password", "-new")):
        if getattr(args, key, None) is None:
            setattr(args, key, args.password + suffix)
    if args.seed < 0:  # RandomSource refuses it too; this check names the flag
        raise ValueError(f"--seed must be a non-negative integer: {args.seed}")
    if args.channel_delay < 0:  # the clock refuses it too; this check names the flag
        raise ValueError(f"--channel-delay must be a non-negative integer: {args.channel_delay}")


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _config_from_args(args)
        report = run_command(args)
    except (ExperimentInvalid, OSError, ValueError) as exc:
        print(f"chebauth: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _emit(report, args.out)
    except OSError as exc:
        print(f"chebauth: cannot write report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return report["exit_status"]


if __name__ == "__main__":
    sys.exit(main())

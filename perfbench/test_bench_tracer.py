"""The traced run's wrappers change no output and leave no name replaced."""

import contextlib
import io
import json
from itertools import islice

import inputs
import pytest
import tracer
from chebauth import adversary, cli, protocol
from chebauth.adversary import Dictionary, ExtractedCard
from chebauth.primitives import BitString, LogicalClock, OpCounts, RandomSource
from workloads import strip_wall_time


def names_snapshot() -> dict:
    snapshot = {(m.__name__, k): v for m in tracer.chebauth_modules() for k, v in vars(m).items()}
    snapshot["BitString.__post_init__"] = BitString.__dict__["__post_init__"]
    snapshot["Dictionary.from_file"] = Dictionary.__dict__["from_file"]
    return snapshot


def assert_same_objects(before: dict, after: dict):
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def login_mix_outputs(seed: int = 11, population: int = 12, ops: int = 120) -> list:
    """Replay a login-mix prefix and record every key, op count and card."""
    server = protocol.server_setup(seed)
    rng, clock = RandomSource(seed + 1), LogicalClock()
    people = inputs.login_population(seed, population)
    passwords = [pw for _, pw in people]
    cards = [protocol.registration(server, identity, pw, rng) for identity, pw in people]
    out = []
    for op in islice(inputs.login_mix_ops(seed, population), ops):
        i = op.card
        user, server_counts = OpCounts(), OpCounts()
        if op.kind in ("login", "wrong"):
            pw = passwords[i] if op.kind == "login" else passwords[i] + "-typo"
            session = protocol.run_login_session(server, cards[i], pw, clock, rng,
                                                 user_counts=user, server_counts=server_counts)
            cards[i] = session.card
            out.append((session.user_key, session.server_key, session.reject))
        elif op.kind == "change":
            cards[i] = protocol.change_password(cards[i], passwords[i], op.new_password, counts=user)
            passwords[i] = op.new_password
        else:
            cards[i] = protocol.registration(server, people[i][0], passwords[i], rng, counts=user)
        out.append((op.kind, user.as_dict(), server_counts.as_dict(), cards[i]))
    return out


def guess_outputs(seed: int = 4):
    victim = inputs.victim(seed)
    server = protocol.server_setup(victim.server_seed)
    rng = RandomSource(victim.rng_seed)
    card = protocol.registration(server, victim.identity, victim.password, rng)
    session = protocol.run_login_session(server, card, victim.password, LogicalClock(), rng)
    words = Dictionary(inputs.guess_scan_words(seed, 300, victim.password))
    report = adversary.offline_guess(ExtractedCard.from_card(card), session.events[0].message, words)
    return session.user_key, report.recovered, report.guesses, report.counts


def cli_reports(tmp_path) -> list:
    cli_inputs = inputs.cli_inputs(2, 64)
    path = tmp_path / "words.txt"
    inputs.write_dictionary(path, list(cli_inputs.words))
    reports = []
    for argv in inputs.cli_argvs(cli_inputs, str(path)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        reports.append(json.dumps(strip_wall_time(json.loads(out.getvalue()))))
    return reports


def test_login_outputs_identical_traced_and_untraced():
    untraced = login_mix_outputs()
    with tracer.Tracer() as t:
        traced = login_mix_outputs()
    assert traced == untraced
    assert t.calls("protocol.run_login_session") > 0 and t.calls("chaotic.cheb_eval") > 0
    assert t.calls("protocol.change_password") > 0 and t.calls("protocol.registration") > 12


def test_guess_outputs_identical_traced_and_untraced():
    untraced = guess_outputs()
    with tracer.Tracer() as t:
        traced = guess_outputs()
    assert traced == untraced
    assert t.calls("adversary.guess_predicate") == 300


def test_cli_reports_identical_traced_and_untraced(tmp_path):
    untraced = cli_reports(tmp_path)
    with tracer.Tracer() as t:
        traced = cli_reports(tmp_path)
    assert traced == untraced
    assert t.calls("cli.main") == 6 and t.calls(tracer.DICTIONARY_FROM_FILE) == 2


def test_every_wrapped_name_is_restored():
    before = names_snapshot()
    with tracer.Tracer():
        during = names_snapshot()
        assert protocol.run_login_session is not before[("chebauth.protocol", "run_login_session")]
        assert adversary.hash_h is not before[("chebauth.adversary", "hash_h")]
        assert protocol.cheb_eval is not before[("chebauth.protocol", "cheb_eval")]
    assert_same_objects(before, names_snapshot())
    assert during.keys() == before.keys()


def test_names_are_restored_when_the_traced_code_raises():
    before = names_snapshot()
    with pytest.raises(RuntimeError), tracer.Tracer():
        raise RuntimeError("interrupted traced run")
    assert_same_objects(before, names_snapshot())


def test_self_times_add_up_to_the_outermost_spans():
    with tracer.Tracer() as t:
        server = protocol.server_setup(3)
        rng = RandomSource(4)
        card = protocol.registration(server, "id", "pw", rng)
        protocol.run_login_session(server, card, "pw", LogicalClock(), rng)
    spans = [name for name in t.stats if name not in (tracer.BITSTRING, tracer.SERVER_ACCEPTED)]
    outermost = ("protocol.server_setup", "protocol.registration", "protocol.run_login_session")
    assert sum(t.self_ns(name) for name in spans) == sum(t.total_ns(name) for name in outermost)
    assert t.calls(tracer.SERVER_ACCEPTED) == t.calls("protocol.server_handle_login") == 1
    assert t.calls("chaotic.cheb_eval") == 4

import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from chebauth import cli
from chebauth.adversary import DosReport
from chebauth.primitives import OpCounts
from helpers import mask_wall_time, strip_wall_time

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = cli.main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return status, report


def validate(report):
    VALIDATOR.validate(report)


def write_dictionary(tmp_path, words, name="dict.txt"):
    path = tmp_path / name
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    return str(path)


# The README's seven invocations plus a toy-size run, with the exit status and
# two SHA-256 digests of each report: of its content (wall times stripped,
# emitter key order kept) and of the text as written (wall times masked).
# Any change to a report byte, to key order or to layout shows up here.
GOLDEN_REPORTS = [
    (("honest-run", "--seed", "42"), 0,
     "7394b7e2160cd0e812aa830bfc47ad1de64aeaee652c7b936fa9240e8184b01c",
     "a9f457c7edef7d32571452b848a060e822889bb01832f501b99c9a131baea10a"),
    (("honest-run", "--delta-t", "2", "--channel-delay", "3"), 2,
     "01a0832c01294d7082fed19b87319a3992f33ef27a2c6e0570054dd62e94ad63",
     "6e4373fbbcd84e4cab923ae9726eeeaf33aa706f4a82e1eb01d784d6c533be2c"),
    (("guess-attack", "--dict", "words.txt", "--password", "sunrise77"), 0,
     "39bed1210395c617bc5870738fc6b70ab8fff5437c73bb5cc183a883c5b2e6aa",
     "79ce91946356e33c82c74c5f64e8a9f1bed52821a264fe9a7ef8915b7e3ca4ee"),
    (("guess-attack", "--dict", "words.txt", "--password", "not-listed", "--expect-miss"), 0,
     "251ff5d67d064643ea7faf064c7620b0854009c2a27f92d451ff724705a6ec57",
     "1eaebc37dae56065b723a414afebc99b1cdefc1b1fa33d79003ebf375e88101e"),
    (("wrong-login-demo",), 0,
     "e250504a809b49f8e88a97a67a3d2b576b8e518896e6cb747eaf1f48379a1091",
     "5eb61cb208de0c9ae797bf794d088a5d907c431f01825fe89bc3ce8c1c56b550"),
    (("dos-demo",), 0,
     "7d3018eb33f86bbe1f604ee4ab50a6ba60be6981b6a8dd932ffe6cce3903295c",
     "55e1106afa419d67f054d1c8ba425ef45db843d65ced4688cdea387d2db1413a"),
    (("dos-demo", "--correct-old-password"), 0,
     "a6f35103eb8d803b330c4d008a42db548d764bf780505557b80a88fd9760486e",
     "8dd186cc41c5db980516d1f587a0790e7e4ee771ad62235432c7bdc01890c830"),
    (("honest-run", "--width", "8", "--prime", "17"), 0,
     "062b72dd636bba75486c8d034533c0a7bf7345edd7c4d2d5483c16609364009f",
     "d7f894a753ef7794fd08785530d661643cb47abfece10b8bb8c70dff2bbf66e8"),
]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, status, digest, written_digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, *_ in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(tmp_path, monkeypatch, argv, status, digest, written_digest):
    monkeypatch.chdir(tmp_path)  # the dictionary path is echoed as given
    (tmp_path / "words.txt").write_text("sunrise77\nhunter2\nletmein\n", encoding="utf-8")
    got_status, report = run(tmp_path, *argv)
    assert got_status == status
    assert sha256(json.dumps(strip_wall_time(report), indent=2)) == digest
    assert sha256(mask_wall_time((tmp_path / "report.json").read_text(encoding="utf-8"))) == written_digest


class TestHonestRun:
    def test_default_run_agrees_on_keys(self, tmp_path):
        status, report = run(tmp_path, "honest-run", "--seed", "42")
        assert status == 0
        validate(report)
        assert report["all_sessions_ok"]
        assert len(report["sessions"]) == 2
        for session in report["sessions"]:
            assert session["keys_match"]
            assert session["user_key"] == session["server_key"]
        # second session must run on refreshed pseudonyms
        m1_first = report["sessions"][0]["transcript"][0]["message"]
        m1_second = report["sessions"][1]["transcript"][0]["message"]
        assert m1_first["im1"] != m1_second["im1"]

    def test_slow_channel_gets_rejected(self, tmp_path):
        status, report = run(
            tmp_path, "honest-run", "--delta-t", "2", "--channel-delay", "3"
        )
        assert status == 2
        validate(report)
        assert not report["all_sessions_ok"]
        assert report["sessions"][0]["reject"] == {"by": "server", "reason": "stale_timestamp"}

    def test_reports_are_deterministic(self, tmp_path):
        status_a, report_a = run(tmp_path, "honest-run", "--seed", "9")
        status_b, report_b = run(tmp_path, "honest-run", "--seed", "9")
        assert status_a == status_b == 0
        dump_a = json.dumps(strip_wall_time(report_a), sort_keys=False)
        dump_b = json.dumps(strip_wall_time(report_b), sort_keys=False)
        assert dump_a == dump_b

    def test_config_is_echoed(self, tmp_path):
        status, report = run(
            tmp_path, "honest-run", "--seed", "5", "--prime", "101", "--width", "64",
            "--delta-t", "7", "--channel-delay", "2", "--id", "bob", "--password", "pw",
        )
        assert status == 0
        assert report["config"] == {
            "seed": 5,
            "width": 64,
            "prime": "101",
            "delta_t": 7,
            "channel_delay": 2,
            "dictionary": None,
            "fixture": {"identity": "bob", "password": "pw"},
        }

    def test_stdout_when_no_out_flag(self, capsys):
        status = cli.main(["honest-run", "--seed", "3"])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        validate(report)


class TestGuessAttack:
    def test_planted_password_recovered(self, tmp_path):
        words = [f"w{i:04d}" for i in range(499)]
        words.insert(249, "sunrise77")  # the default fixture password
        dict_path = write_dictionary(tmp_path, words)
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path)
        assert status == 0
        validate(report)
        attack = report["attack"]
        assert attack["outcome"] == "recovered"
        assert attack["recovered_password"] == "sunrise77"
        assert attack["guesses"] == 250
        assert attack["op_counts"]["hash"] == 3 * 250
        assert report["as_expected"]

    def test_unplanted_dictionary_contradicts_expectation(self, tmp_path):
        dict_path = write_dictionary(tmp_path, [f"w{i}" for i in range(100)])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path)
        assert status == 2
        validate(report)
        assert report["attack"]["outcome"] == "none"
        assert report["attack"]["guesses"] == 100

    def test_expect_miss_scenario(self, tmp_path):
        dict_path = write_dictionary(tmp_path, [f"w{i}" for i in range(100)])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path, "--expect-miss")
        assert status == 0
        validate(report)
        assert report["config"]["expect_miss"] is True

    def test_expect_miss_with_the_password_listed_last_is_contradicted(self, tmp_path):
        # the scan reaches the last candidate and recovers it: not a miss
        dict_path = write_dictionary(tmp_path, ["w0", "w1", "sunrise77"])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path, "--expect-miss")
        assert status == 2 and not report["as_expected"]
        assert report["attack"]["guesses"] == report["attack"]["dictionary_size"] == 3

    def test_missing_dictionary_file(self, tmp_path):
        status, report = run(tmp_path, "guess-attack", "--dict", str(tmp_path / "nope.txt"))
        assert status == 3 and report is None

    @pytest.mark.parametrize("name, error", [("nope.txt", errno.ENOENT), ("words.d", errno.EISDIR)],
                             ids=["missing", "directory"])
    def test_unreadable_dictionary_prints_the_os_error(self, tmp_path, capsys, name, error):
        # the OSError from reading the list reaches main as it was raised
        path = tmp_path / name
        if error == errno.EISDIR:
            path.mkdir()
        status, report = run(tmp_path, "guess-attack", "--dict", str(path))
        assert status == 3 and report is None and not (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == f"chebauth: error: [Errno {error}] {os.strerror(error)}: {str(path)!r}\n"

    def test_dict_flag_required(self, tmp_path, capsys):
        # argparse refuses the run, as it refuses any usage error: exit 3, no report
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "guess-attack")
        assert exc.value.code == 3 and not (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == (
            "chebauth guess-attack: error: the following arguments are required: --dict\n"
        )

    def test_bad_fixture_reported_before_bad_dictionary(self, tmp_path, capsys):
        # run_command builds the fixture before the command reads its dictionary
        missing = str(tmp_path / "nope.txt")
        status, report = run(tmp_path, "guess-attack", "--dict", missing, "--prime", "91")
        assert status == 3 and report is None
        assert capsys.readouterr().err == "chebauth: error: modulus must be a prime greater than 3\n"

    def test_malformed_dictionary(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\n\nb\n", encoding="utf-8")
        status, report = run(tmp_path, "guess-attack", "--dict", str(path))
        assert status == 3 and report is None

    @pytest.mark.parametrize("content, reason", [
        (b"\xef\xbb\xbfsunrise77\n", "starts with a UTF-8 byte-order mark; remove it"),
        (b"alpha\nsun\xffrise77\n", "not UTF-8 at byte 9"),
    ], ids=["byte-order-mark", "not-utf-8"])
    def test_undecodable_dictionary_error_names_the_file(self, tmp_path, capsys, content, reason):
        # behind a BOM the true password would be missed, with exit 2
        path = tmp_path / "words.txt"
        path.write_bytes(content)
        status, report = run(tmp_path, "guess-attack", "--dict", str(path))
        assert status == 3 and report is None
        assert capsys.readouterr().err == f"chebauth: error: {path}: {reason}\n"


class TestWrongLoginDemo:
    def test_default_demo(self, tmp_path):
        status, report = run(tmp_path, "wrong-login-demo")
        assert status == 0
        validate(report)
        experiment = report["experiment"]
        assert experiment["server_rejected"]
        assert experiment["op_counts"] == {"hash": 6, "xor": 4, "cheb": 1}
        assert report["as_expected"]

    def test_wrong_password_must_differ(self, tmp_path, capsys):
        # the experiment itself refuses a round the server accepts
        status, report = run(
            tmp_path, "wrong-login-demo", "--password", "pw", "--wrong-password", "pw"
        )
        assert status == 3 and report is None
        assert capsys.readouterr().err == (
            "chebauth: error: server accepted the login: the supplied password is the true one"
            " or collides with it at width 256\n")


@pytest.mark.parametrize("command, message", [
    ("wrong-login-demo", "rejected for stale_timestamp, not the password mistake"),
    ("dos-demo", "baseline login with the true password rejected for stale_timestamp"),
])
def test_invalid_experiment_exits_3_with_its_reason(tmp_path, capsys, command, message):
    # M1 arrives 3 ticks late against a 2-tick window: the round never tests the password
    status, report = run(tmp_path, command, "--delta-t", "2", "--channel-delay", "3")
    assert status == 3 and report is None
    assert capsys.readouterr().err == f"chebauth: error: {message}\n"


def test_wrong_password_colliding_at_toy_width_exits_3(tmp_path, capsys):
    # at width 8 about 0.78% of wrong passwords pass X1 (tests/test_rates.py);
    # seed 47's "sunrise77-typo" is one, and the message must not call it right
    status, report = run(tmp_path, "wrong-login-demo", "--width", "8", "--seed", "47")
    assert status == 3 and report is None
    assert capsys.readouterr().err == (
        "chebauth: error: server accepted the login: the supplied password is the true one"
        " or collides with it at width 8\n"
    )


class TestDosDemo:
    def test_default_demo_confirms_dos(self, tmp_path):
        status, report = run(tmp_path, "dos-demo")
        assert status == 0
        validate(report)
        assert report["experiment"]["dos_confirmed"]
        assert set(report["experiment"]["probes"].values()) == {"rejected"}

    def test_control_run(self, tmp_path):
        status, report = run(tmp_path, "dos-demo", "--correct-old-password")
        assert status == 0
        validate(report)
        assert not report["experiment"]["dos_confirmed"]
        assert report["experiment"]["probes"]["new_password"] == "accepted"
        assert report["config"]["fixture"]["correct_old_password"] is True

    def test_control_run_echoes_the_new_password(self, tmp_path):
        status, report = run(tmp_path, "dos-demo", "--correct-old-password", "--new-password", "X")
        assert status == 0 and report["experiment"]["probes"]["new_password"] == "accepted"
        assert report["config"]["fixture"]["new_password"] == "X"

    def test_control_run_contradicted_when_only_another_password_is_accepted(self, tmp_path, monkeypatch):
        # the control's verdict reads the new password's probe alone
        def stubbed(*args, **kwargs):
            probes = {"new_password": "rejected", "true_password": "accepted",
                      "wrong_old_password": "rejected"}
            return DosReport(probes, OpCounts())

        monkeypatch.setattr(cli, "dos_experiment", stubbed)
        status, report = run(tmp_path, "dos-demo", "--correct-old-password")
        assert status == 2 and not report["experiment"]["dos_confirmed"] and not report["as_expected"]

    def test_wrong_old_equal_to_true_is_config_error(self, tmp_path):
        status, report = run(
            tmp_path, "dos-demo", "--password", "pw", "--wrong-old-password", "pw"
        )
        assert status == 3 and report is None


class TestPlumbing:
    def test_unknown_flag_exits_3(self, tmp_path, capsys):
        # --fixture too: the five fixture strings are set by their own flags alone
        missing = str(tmp_path / "fixture.json")
        for flags in (["--bogus"], ["--fixture", missing]):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, "honest-run", *flags)
            assert exc.value.code == 3 and not (tmp_path / "report.json").exists()
            assert capsys.readouterr().err == f"chebauth: error: unrecognized arguments: {' '.join(flags)}\n"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_fixture_flag_is_unrecognized_by_every_command(self, tmp_path, capsys, command):
        missing = str(tmp_path / "fixture.json")
        extra = ["--dict", write_dictionary(tmp_path, ["sunrise77"])] if command == "guess-attack" else []
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, *extra, "--fixture", missing)
        assert exc.value.code == 3 and not (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == f"chebauth: error: unrecognized arguments: --fixture {missing}\n"

    @pytest.mark.parametrize("command, derived", [
        ("honest-run", {}),
        ("guess-attack", {}),
        ("wrong-login-demo", {"wrong_password": "pw-typo"}),
        ("dos-demo", {"wrong_old_password": "pw-typo", "new_password": "pw-new", "correct_old_password": False}),
    ])
    def test_fixture_echo_derives_each_password_no_flag_set(self, tmp_path, command, derived):
        # --id keeps its default and each derived password follows --password
        extra = ["--dict", write_dictionary(tmp_path, ["pw"])] if command == "guess-attack" else []
        status, report = run(tmp_path, command, *extra, "--password", "pw")
        assert status == 0
        assert report["config"]["fixture"] == {"identity": "alice", "password": "pw", **derived}

    def test_no_command_exits_3_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 3
        assert capsys.readouterr().err == "chebauth: error: the following arguments are required: command\n"

    def test_help_opens_with_the_module_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        summary = "Command-line driver for seeded, reproducible protocol and attack runs."
        assert f"\n{summary}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, timed", [
        (("guess-attack", "--dict", "words.txt"), "attack"),
        (("wrong-login-demo",), "experiment"),
        (("dos-demo",), "experiment"),
    ], ids=["guess-attack", "wrong-login-demo", "dos-demo"])
    def test_wall_times_fit_inside_the_run(self, tmp_path, monkeypatch, argv, timed):
        # the experiment's time is part of the command's, which is part of main's
        monkeypatch.chdir(tmp_path)
        write_dictionary(tmp_path, ["sunrise77"], name="words.txt")
        start = time.perf_counter()
        status, report = run(tmp_path, *argv)
        outside = time.perf_counter() - start
        assert status == 0
        assert 0 <= report[timed]["wall_time_s"] <= report["wall_time_s"] <= outside

    def test_unknown_command_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("prime", ["91", "3215031751"], ids=["7*13", "spsp-2-3-5-7"])
    def test_composite_prime_rejected(self, tmp_path, capsys, prime):
        status, report = run(tmp_path, "honest-run", "--prime", prime)
        assert status == 3 and report is None
        assert capsys.readouterr().err == "chebauth: error: modulus must be a prime greater than 3\n"

    def test_unwritable_out_exits_3_without_a_report(self, tmp_path, capsys):
        status = cli.main(["honest-run", "--out", str(tmp_path)])  # a directory
        out, err = capsys.readouterr()
        assert status == 3 and out == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("chebauth: cannot write report: ") and err.count("\n") == 1

    def test_non_decimal_prime_rejected(self, tmp_path, capsys):
        # argparse parses --prime as it parses --seed: a usage error, exit 3
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "honest-run", "--prime", "0x11")
        assert exc.value.code == 3 and not (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == (
            "chebauth honest-run: error: argument --prime: invalid int value: '0x11'\n"
        )

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # random.Random seeds from the absolute value, so --seed -2 would run
        # as --seed 2 while its report echoed -2
        status, report = run(tmp_path, "honest-run", "--seed", "-2")
        assert status == 3 and report is None
        assert capsys.readouterr().err == (
            "chebauth: error: --seed must be a non-negative integer: -2\n"
        )
        status, report = run(tmp_path, "honest-run", "--seed", "0")
        assert status == 0 and report["config"]["seed"] == 0

    def test_negative_channel_delay_rejected_before_any_protocol_work(self, tmp_path, capsys, monkeypatch):
        def no_protocol_work(*args, **kwargs):
            raise AssertionError("a negative --channel-delay reached the protocol")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "server_setup", no_protocol_work)
            status, report = run(tmp_path, "honest-run", "--channel-delay", "-1")
        assert status == 3 and report is None
        assert capsys.readouterr().err == (
            "chebauth: error: --channel-delay must be a non-negative integer: -1\n"
        )
        status, report = run(tmp_path, "honest-run", "--channel-delay", "0")
        assert status == 0 and report["config"]["channel_delay"] == 0

    def test_channel_delay_past_the_last_tick_rejected(self, tmp_path, capsys):
        # M1 would arrive at tick 2^64, past what a timestamp's 8 bytes hold
        status, report = run(tmp_path, "honest-run", "--channel-delay", str(1 << 64))
        assert status == 3 and report is None
        assert capsys.readouterr().err == (
            f"chebauth: error: ticks must be in [0, 2**64), got {1 << 65}\n"
        )

    @pytest.mark.parametrize("value", [-1, 1 << 64, 1 << 128], ids=["-1", "2**64", "2**128"])
    @pytest.mark.parametrize("flag", ["--seed", "--width", "--prime", "--delta-t", "--channel-delay"])
    @pytest.mark.parametrize("command", ["honest-run", "wrong-login-demo", "dos-demo"])
    def test_integer_flag_at_its_edges_ends_in_an_exit_status(self, tmp_path, capsys, command, flag, value):
        # a huge seed or window runs as any other; every other edge is one error line, never a traceback
        status, report = run(tmp_path, command, flag, str(value))
        err = capsys.readouterr().err
        if flag in ("--seed", "--delta-t") and value > 0:
            assert status == 0 and err == ""
            validate(report)
        else:
            assert status == 3 and report is None
            assert err.startswith("chebauth: error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_small_width_small_prime_run(self, tmp_path):
        # the whole pipeline also works at toy sizes used by collision tests
        status, report = run(tmp_path, "honest-run", "--width", "8", "--prime", "17")
        assert status == 0
        validate(report)
        assert report["all_sessions_ok"]

    def test_schema_document_is_itself_valid(self):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_schema_rejects_a_backend_other_than_pure(self, tmp_path):
        status, report = run(tmp_path, "wrong-login-demo")
        assert status == 0
        validate(report)
        with pytest.raises(jsonschema.ValidationError):
            validate({**report, "backend": "compiled"})

    def test_schema_rejects_a_wrong_login_report_the_server_did_not_reject(self, tmp_path):
        # wrong_login_experiment raises unless the server rejected, so only true is valid
        status, report = run(tmp_path, "wrong-login-demo")
        assert status == 0
        validate(report)
        with pytest.raises(jsonschema.ValidationError):
            validate({**report, "experiment": {**report["experiment"], "server_rejected": False}})

    def test_schema_rejects_a_guess_report_with_multiple_matches(self, tmp_path):
        # offline_guess stops at its first match, so only false is valid
        dict_path = write_dictionary(tmp_path, ["decoy", "sunrise77"])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path)
        assert status == 0
        validate(report)
        with pytest.raises(jsonschema.ValidationError):
            validate({**report, "attack": {**report["attack"], "multiple_matches": True}})

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # Each CLI run is a fresh interpreter, and these two cost it about 6 ms
        # of import. Only what the package import adds counts, not site hooks.
        code = ("import sys; before = set(sys.modules); import chebauth.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


# honest-run's two README invocations, exit 0 and 2, with their written digests, then a refused run
ENTRY_POINT_RUNS = [(argv, status, written) for argv, status, _, written in GOLDEN_REPORTS[:2]]
ENTRY_POINT_RUNS.append((("guess-attack", "--dict", "nope.txt"), 3, None))


@pytest.mark.parametrize("argv, status, written_digest", ENTRY_POINT_RUNS, ids=["ok", "contradicted", "refused"])
def test_module_entry_point_exits_with_the_status(tmp_path, argv, status, written_digest):
    # python -m chebauth.cli, in development mode with every warning an error
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "chebauth.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == status
    if written_digest is None:
        assert result.stdout == "" and result.stderr.startswith("chebauth: error: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    else:
        assert result.stderr == ""
        assert sha256(mask_wall_time(result.stdout)) == written_digest

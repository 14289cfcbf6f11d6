import ast
import errno
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from chebauth import cli
from chebauth.adversary import DosReport
from chebauth.primitives import OpCounts
from helpers import mask_wall_time

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
# the SHA-256 digest of each report's text as written, wall times masked. It
# pins the content too, which is that text parsed without its wall times.
# Any change to a report byte, to key order or to layout shows up here, and
# each report must also validate against docs/report.schema.json.
GOLDEN_REPORTS = [
    (("honest-run", "--seed", "42"), 0,
     "a9f457c7edef7d32571452b848a060e822889bb01832f501b99c9a131baea10a"),
    (("honest-run", "--delta-t", "2", "--channel-delay", "3"), 2,
     "6e4373fbbcd84e4cab923ae9726eeeaf33aa706f4a82e1eb01d784d6c533be2c"),
    (("guess-attack", "--dict", "words.txt", "--password", "sunrise77"), 0,
     "79ce91946356e33c82c74c5f64e8a9f1bed52821a264fe9a7ef8915b7e3ca4ee"),
    (("guess-attack", "--dict", "words.txt", "--password", "not-listed", "--expect-miss"), 0,
     "1eaebc37dae56065b723a414afebc99b1cdefc1b1fa33d79003ebf375e88101e"),
    (("wrong-login-demo",), 0,
     "5eb61cb208de0c9ae797bf794d088a5d907c431f01825fe89bc3ce8c1c56b550"),
    (("dos-demo",), 0,
     "55e1106afa419d67f054d1c8ba425ef45db843d65ced4688cdea387d2db1413a"),
    (("dos-demo", "--correct-old-password"), 0,
     "8dd186cc41c5db980516d1f587a0790e7e4ee771ad62235432c7bdc01890c830"),
    (("honest-run", "--width", "8", "--prime", "17"), 0,
     "d7f894a753ef7794fd08785530d661643cb47abfece10b8bb8c70dff2bbf66e8"),
]


GOLDEN_WORDS = "sunrise77\nhunter2\nletmein\n"  # words.txt, as the README writes it


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, status, written_digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, *_ in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(tmp_path, monkeypatch, argv, status, written_digest):
    monkeypatch.chdir(tmp_path)  # the dictionary path is echoed as given
    (tmp_path / "words.txt").write_text(GOLDEN_WORDS, encoding="utf-8")
    got_status, report = run(tmp_path, *argv)
    assert got_status == status
    validate(report)
    assert sha256(mask_wall_time((tmp_path / "report.json").read_text(encoding="utf-8"))) == written_digest


NOT_FOUND = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
IS_A_DIRECTORY = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
NOT_PRIME = "chebauth: error: modulus must be a prime greater than 3"
EMPTY = "chebauth: error: identity and password must be non-empty"
NOT_UTF_8 = ("chebauth: error: 'utf-8' codec can't encode character '\\udcff' in position 0:"
             " surrogates not allowed")
ACCEPTED = ("chebauth: error: server accepted the login: the supplied password is the true one"
            " or collides with it at width {}")
FIXTURE_FLAG = "chebauth: error: unrecognized arguments: --fixture fixture.json"

# Every refused run of main: its argv, run in a directory that holds words.txt,
# bom.txt, latin.txt and an empty words.d/, and the one line it prints.
REFUSED = [
    # usage errors, which argparse refuses before the run
    ((), "chebauth: error: the following arguments are required: command"),
    (("frobnicate",), "chebauth: error: argument command: invalid choice: 'frobnicate'"
                      " (choose from 'honest-run', 'guess-attack', 'wrong-login-demo', 'dos-demo')"),
    (("guess-attack",), "chebauth guess-attack: error: the following arguments are required: --dict"),
    (("honest-run", "--bogus"), "chebauth: error: unrecognized arguments: --bogus"),
    (("honest-run", "--prime", "0x11"), "chebauth honest-run: error: argument --prime: invalid int value: '0x11'"),
    # the five fixture strings are set by their own flags alone
    (("honest-run", "--fixture", "fixture.json"), FIXTURE_FLAG),
    (("guess-attack", "--dict", "words.txt", "--fixture", "fixture.json"), FIXTURE_FLAG),
    (("wrong-login-demo", "--fixture", "fixture.json"), FIXTURE_FLAG),
    (("dos-demo", "--fixture", "fixture.json"), FIXTURE_FLAG),
    # configuration errors; random.Random seeds from the absolute value, so
    # --seed -2 would run as --seed 2 while its report echoed -2
    (("honest-run", "--seed", "-2"), "chebauth: error: --seed must be a non-negative integer: -2"),
    (("honest-run", "--channel-delay", "-1"), "chebauth: error: --channel-delay must be a non-negative integer: -1"),
    # M2 would arrive at tick 2^65, past what a timestamp's 8 bytes hold
    (("honest-run", "--channel-delay", str(1 << 64)), f"chebauth: error: channel_delay {1 << 64} refused by the"
                                                      f" clock: ticks must be in [0, 2**64), got {1 << 65}"),
    (("honest-run", "--prime", "91"), NOT_PRIME),
    (("honest-run", "--id", ""), EMPTY),
    (("honest-run", "--password", ""), EMPTY),
    # argparse hands the byte 0xff of --password=$'\xff' over as "\udcff"
    (("honest-run", "--id", "\udcff"), NOT_UTF_8),
    (("honest-run", "--password", "\udcff"), NOT_UTF_8),
    # the dictionary's OSError as raised, or its path and reason; behind a
    # byte-order mark the true password would be missed, with exit 2
    (("guess-attack", "--dict", "nope.txt"), f"chebauth: error: {NOT_FOUND}: 'nope.txt'"),
    (("guess-attack", "--dict", "words.d"), f"chebauth: error: {IS_A_DIRECTORY}: 'words.d'"),
    (("guess-attack", "--dict", "bom.txt"), "chebauth: error: bom.txt: starts with a UTF-8 byte-order mark; remove it"),
    (("guess-attack", "--dict", "latin.txt"), "chebauth: error: latin.txt: not UTF-8 at byte 9"),
    # the fixture is built before the dictionary is read
    (("guess-attack", "--dict", "nope.txt", "--prime", "91"), NOT_PRIME),
    # an experiment whose precondition fails: the round must test a wrong
    # password; at width 8 about 0.78% of wrong passwords pass X1
    # (tests/test_rates.py), and seed 47's "sunrise77-typo" is one
    (("wrong-login-demo", "--password", "pw", "--wrong-password", "pw"), ACCEPTED.format(256)),
    (("wrong-login-demo", "--width", "8", "--seed", "47"), ACCEPTED.format(8)),
    (("dos-demo", "--password", "pw", "--wrong-old-password", "pw"),
     "chebauth: error: wrong_old_password equals the true password"),
    # M1 arrives 3 ticks late against a 2-tick window: the round never tests the password
    (("wrong-login-demo", "--delta-t", "2", "--channel-delay", "3"),
     "chebauth: error: rejected for stale_timestamp, not the password mistake"),
    (("dos-demo", "--delta-t", "2", "--channel-delay", "3"),
     "chebauth: error: baseline login with the true password rejected for stale_timestamp"),
    # the report cannot be written
    (("honest-run", "--out", "words.d"), f"chebauth: cannot write report: {IS_A_DIRECTORY}: 'words.d'"),
]


@pytest.mark.parametrize("argv, line", REFUSED, ids=[shlex.join(argv) or "no-command" for argv, _ in REFUSED])
def test_refused_run_exits_3_with_one_line(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)  # paths are echoed as given
    (tmp_path / "words.txt").write_text(GOLDEN_WORDS, encoding="utf-8")
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbfsunrise77\n")
    (tmp_path / "latin.txt").write_bytes(b"alpha\nsun\xffrise77\n")
    (tmp_path / "words.d").mkdir()
    files = sorted(tmp_path.rglob("*"))
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:  # a usage error: argparse exits
        status = exc.code
    assert status == 3
    assert capsys.readouterr() == ("", f"{line}\n")
    assert sorted(tmp_path.rglob("*")) == files


class TestHonestRun:
    def test_config_is_echoed(self, tmp_path):
        status, report = run(
            tmp_path, "honest-run", "--seed", "0", "--prime", "101", "--width", "64",
            "--delta-t", "7", "--channel-delay", "2", "--id", "bob", "--password", "pw",
        )
        assert status == 0
        assert report["config"] == {
            "seed": 0,
            "width": 64,
            "prime": "101",
            "delta_t": 7,
            "channel_delay": 2,
            "dictionary": None,
            "fixture": {"identity": "bob", "password": "pw"},
        }


class TestGuessAttack:
    def test_unplanted_dictionary_contradicts_expectation(self, tmp_path):
        dict_path = write_dictionary(tmp_path, [f"w{i}" for i in range(100)])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path)
        assert status == 2
        validate(report)
        assert report["attack"]["outcome"] == "none"
        assert report["attack"]["guesses"] == 100

    def test_expect_miss_with_the_password_listed_last_is_contradicted(self, tmp_path):
        # the scan reaches the last candidate and recovers it: not a miss
        dict_path = write_dictionary(tmp_path, ["w0", "w1", "sunrise77"])
        status, report = run(tmp_path, "guess-attack", "--dict", dict_path, "--expect-miss")
        assert status == 2 and not report["as_expected"]
        assert report["attack"]["guesses"] == report["attack"]["dictionary_size"] == 3

class TestDosDemo:
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

class TestPlumbing:
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

    def test_negative_channel_delay_rejected_before_any_protocol_work(self, tmp_path, monkeypatch):
        # REFUSED pins the line it prints
        def no_protocol_work(*args, **kwargs):
            raise AssertionError("a negative --channel-delay reached the protocol")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "server_setup", no_protocol_work)
            status, _ = run(tmp_path, "honest-run", "--channel-delay", "-1")
        assert status == 3
        status, report = run(tmp_path, "honest-run", "--channel-delay", "0")
        assert status == 0 and report["config"]["channel_delay"] == 0

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


# Every golden run, exit 0 and 2, with its written digest, then a refused run;
# honest-run's two README invocations keep their short ids.
ENTRY_POINT_RUNS = [*GOLDEN_REPORTS, (("guess-attack", "--dict", "nope.txt"), 3, None)]
ENTRY_POINT_IDS = ["ok", "contradicted", *(" ".join(argv) for argv, *_ in GOLDEN_REPORTS[2:]), "refused"]


@pytest.mark.parametrize("argv, status, written_digest", ENTRY_POINT_RUNS, ids=ENTRY_POINT_IDS)
def test_module_entry_point_exits_with_the_status(tmp_path, argv, status, written_digest):
    # python -m chebauth.cli, in development mode with every warning an error
    (tmp_path / "words.txt").write_text(GOLDEN_WORDS, encoding="utf-8")
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


PROCESS_ENTRY = """\
import gc
from chebauth import cli
try:
    cli.process_main()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("argv, status", [
    (("honest-run", "--out", "report.json"), 0),
    (("honest-run", "--delta-t", "2", "--channel-delay", "3", "--out", "report.json"), 2),
    (("honest-run", "--seed", "-1"), 3),
], ids=["ok", "contradicted", "refused"])
def test_process_entry_freezes_and_exits_with_the_status(tmp_path, argv, status):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", PROCESS_ENTRY, *argv],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{status} True\n"


def test_console_script_and_module_run_call_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    tree = ast.parse((ROOT / "src" / "chebauth" / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block.body] == ["process_main()"]
    assert scripts == {"chebauth": "chebauth.cli:process_main"}


def test_in_process_main_leaves_the_collector_as_it_found_it(tmp_path):
    frozen = gc.get_freeze_count()
    status, _ = run(tmp_path, "honest-run", "--width", "8", "--prime", "17")
    assert status == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_report_on_a_full_stdout_exits_3_with_one_line(tmp_path):
    # Buffered stdout: the write only fills the buffer and the full device
    # refuses the flush, which left to shutdown would end in status 120.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "chebauth.cli", "honest-run"],
                                cwd=tmp_path, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 3
    assert result.stderr.startswith(f"chebauth: cannot write report: [Errno {errno.ENOSPC}] ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

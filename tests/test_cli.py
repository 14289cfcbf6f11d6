import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from chebauth import cli

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


def strip_wall_time(node):
    if isinstance(node, dict):
        return {k: strip_wall_time(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [strip_wall_time(item) for item in node]
    return node


def write_dictionary(tmp_path, words, name="dict.txt"):
    path = tmp_path / name
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    return str(path)


# The README's seven invocations plus a toy-size run, with the exit status and
# the SHA-256 of each report (wall times stripped, emitter key order kept).
# Any change to a report byte or to key order shows up here.
GOLDEN_REPORTS = [
    (("honest-run", "--seed", "42"), 0,
     "7394b7e2160cd0e812aa830bfc47ad1de64aeaee652c7b936fa9240e8184b01c"),
    (("honest-run", "--delta-t", "2", "--channel-delay", "3"), 2,
     "01a0832c01294d7082fed19b87319a3992f33ef27a2c6e0570054dd62e94ad63"),
    (("guess-attack", "--dict", "words.txt", "--password", "sunrise77"), 0,
     "39bed1210395c617bc5870738fc6b70ab8fff5437c73bb5cc183a883c5b2e6aa"),
    (("guess-attack", "--dict", "words.txt", "--password", "not-listed", "--expect-miss"), 0,
     "251ff5d67d064643ea7faf064c7620b0854009c2a27f92d451ff724705a6ec57"),
    (("wrong-login-demo",), 0,
     "e250504a809b49f8e88a97a67a3d2b576b8e518896e6cb747eaf1f48379a1091"),
    (("dos-demo",), 0,
     "7d3018eb33f86bbe1f604ee4ab50a6ba60be6981b6a8dd932ffe6cce3903295c"),
    (("dos-demo", "--correct-old-password"), 0,
     "a6f35103eb8d803b330c4d008a42db548d764bf780505557b80a88fd9760486e"),
    (("honest-run", "--width", "8", "--prime", "17"), 0,
     "062b72dd636bba75486c8d034533c0a7bf7345edd7c4d2d5483c16609364009f"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(tmp_path, monkeypatch, argv, status, digest):
    monkeypatch.chdir(tmp_path)  # the dictionary path is echoed as given
    (tmp_path / "words.txt").write_text("sunrise77\nhunter2\nletmein\n", encoding="utf-8")
    got_status, report = run(tmp_path, *argv)
    assert got_status == status
    text = json.dumps(strip_wall_time(report), indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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

    def test_missing_dictionary_file(self, tmp_path):
        status, report = run(tmp_path, "guess-attack", "--dict", str(tmp_path / "nope.txt"))
        assert status == 3 and report is None

    def test_dict_flag_required(self, tmp_path):
        status, report = run(tmp_path, "guess-attack")
        assert status == 3 and report is None

    def test_malformed_dictionary(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\n\nb\n", encoding="utf-8")
        status, report = run(tmp_path, "guess-attack", "--dict", str(path))
        assert status == 3 and report is None


class TestWrongLoginDemo:
    def test_default_demo(self, tmp_path):
        status, report = run(tmp_path, "wrong-login-demo")
        assert status == 0
        validate(report)
        experiment = report["experiment"]
        assert experiment["server_rejected"]
        assert experiment["op_counts"] == {"hash": 6, "xor": 4, "cheb": 1}
        assert report["as_expected"]

    def test_wrong_password_must_differ(self, tmp_path):
        status, report = run(
            tmp_path, "wrong-login-demo", "--password", "pw", "--wrong-password", "pw"
        )
        assert status == 3 and report is None


@pytest.mark.parametrize("command, message", [
    ("wrong-login-demo", "rejected for stale_timestamp, not the password mistake"),
    ("dos-demo", "baseline login with the true password failed; fixture is broken"),
])
def test_invalid_experiment_exits_3_with_its_reason(tmp_path, capsys, command, message):
    # M1 arrives 3 ticks late against a 2-tick window: the round never tests the password
    status, report = run(tmp_path, command, "--delta-t", "2", "--channel-delay", "3")
    assert status == 3 and report is None
    assert capsys.readouterr().err == f"chebauth: error: {message}\n"


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

    def test_wrong_old_equal_to_true_is_config_error(self, tmp_path):
        status, report = run(
            tmp_path, "dos-demo", "--password", "pw", "--wrong-old-password", "pw"
        )
        assert status == 3 and report is None


class TestPlumbing:
    def test_unknown_flag_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["honest-run", "--bogus"])
        assert exc.value.code == 3

    def test_unknown_command_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 3

    def test_composite_prime_rejected(self, tmp_path):
        status, report = run(tmp_path, "honest-run", "--prime", "91")
        assert status == 3 and report is None

    def test_non_decimal_prime_rejected(self, tmp_path):
        status, report = run(tmp_path, "honest-run", "--prime", "0x11")
        assert status == 3 and report is None

    def test_fixture_file(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"identity": "carol", "password": "fromfile"}))
        status, report = run(tmp_path, "honest-run", "--fixture", str(fixture))
        assert status == 0
        assert report["config"]["fixture"] == {"identity": "carol", "password": "fromfile"}

    def test_fixture_flag_overrides_file(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"identity": "carol", "password": "fromfile"}))
        status, report = run(
            tmp_path, "honest-run", "--fixture", str(fixture), "--password", "cliwins"
        )
        assert status == 0
        assert report["config"]["fixture"]["password"] == "cliwins"

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

    @pytest.mark.parametrize(
        "content",
        [{"user": "x"}, 5, {"password": 5}, {"identity": None}, ["identity"]],
        ids=["unknown-key", "number", "number-value", "null-value", "array"],
    )
    def test_unknown_fixture_key_rejected(self, tmp_path, capsys, content):
        # anything but a JSON object of known keys with string values
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(content))
        status, report = run(tmp_path, "honest-run", "--fixture", str(fixture))
        assert status == 3 and report is None
        err = capsys.readouterr().err
        assert err.startswith("chebauth: error: ") and "fixture" in err

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

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # Each CLI run is a fresh interpreter, and these two cost it about 6 ms
        # of import. Only what the package import adds counts, not site hooks.
        code = ("import sys; before = set(sys.modules); import chebauth.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"

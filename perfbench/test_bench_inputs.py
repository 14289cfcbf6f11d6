"""The benchmark's seeded input generators: determinism, formats, proportions."""

from collections import Counter
from itertools import islice

import inputs
import pytest
from chebauth.adversary import Dictionary
from chebauth.chaotic import DEFAULT_PRIME
from chebauth.cli import build_parser


def generated(seed: int) -> dict:
    cli = inputs.cli_inputs(seed, 64)
    return {
        "population": inputs.login_population(seed, 50),
        "ops": list(islice(inputs.login_mix_ops(seed, 50), 200)),
        "victim": inputs.victim(seed),
        "words": inputs.guess_scan_words(seed, 500, "true-password"),
        "cli": cli,
        "argvs": inputs.cli_argvs(cli, "words.txt"),
        "kernel": inputs.kernel_sample(seed, 8, DEFAULT_PRIME),
    }


def test_same_seed_same_inputs():
    assert generated(7) == generated(7)


@pytest.mark.parametrize("part", ["population", "ops", "victim", "words", "cli", "kernel"])
def test_other_seed_other_inputs(part):
    assert generated(7)[part] != generated(8)[part]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dictionary_meets_from_file_contract(tmp_path, seed):
    victim = inputs.victim(seed)
    words = inputs.guess_scan_words(seed, 2000, victim.password)
    path = tmp_path / "words.txt"
    inputs.write_dictionary(path, words)
    raw = path.read_bytes()
    text = raw.decode("utf-8")
    assert "\r" not in text and text.endswith("\n")
    lines = text[:-1].split("\n")
    assert all(lines) and len(set(lines)) == len(lines) == 2000
    assert lines[-1] == victim.password
    sizes = [len(line.encode("utf-8")) for line in lines]
    assert min(sizes) >= inputs.PASSWORD_BYTES[0] and max(sizes) <= inputs.PASSWORD_BYTES[1]
    assert any(len(line.encode("utf-8")) > len(line) for line in lines)  # some multi-byte
    dictionary = Dictionary.from_file(path)
    assert dictionary.candidates == tuple(line.encode("utf-8") for line in lines)


def test_cli_dictionary_plants_password_and_omits_absent_one():
    cli = inputs.cli_inputs(5, 256)
    assert cli.words[-1] == cli.password and len(set(cli.words)) == 256
    assert cli.absent_password not in cli.words
    assert cli.password.isascii() and cli.absent_password.isascii()


def test_login_mix_proportions():
    ops = list(islice(inputs.login_mix_ops(3, 1000), 20_000))
    kinds = Counter(op.kind for op in ops)
    assert kinds == {"login": 16_000, "wrong": 2_000, "change": 1_000, "reissue": 1_000}
    for start in range(0, len(ops), inputs.LOGIN_MIX_BLOCK):  # exact in every block of 20
        block = Counter(op.kind for op in ops[start:start + inputs.LOGIN_MIX_BLOCK])
        assert block == dict(inputs.LOGIN_MIX)
    assert all(0 <= op.card < 1000 for op in ops)
    assert len({op.card for op in ops}) > 990
    assert all((op.new_password is not None) == (op.kind == "change") for op in ops)


def test_cli_argvs_carry_passwords_that_start_with_a_dash():
    fixture = inputs.CliInputs(7, "cli-id", "-pw-one", "-pw-two", ("a-word", "-pw-one"))
    parsed = [build_parser().parse_args(argv) for argv in inputs.cli_argvs(fixture, "words.txt")]
    assert [args.password for args in parsed] == ["-pw-one"] * 2 + ["-pw-two"] + ["-pw-one"] * 3
    assert {args.seed for args in parsed} == {7} and {args.identity for args in parsed} == {"cli-id"}

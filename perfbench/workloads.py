"""The three benchmark workloads and the correctness gates on their outputs.

Each workload is built from a seed (inputs are generated, never taken from
the library), has a ``setup`` whose time is the ``setup_s`` metric, and a
``measure(seconds, tally, probe)`` loop that times every library call with
``perf_counter_ns``, checks every output and returns a ``Measurement``. A
failed check is counted in the tally and its sample is left out; it never
aborts the run. All work runs in this one process, without threads; the
cli-runs workload starts one child process at a time and waits for it.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import inputs
from speed import SpeedProbe
from chebauth import adversary, chaotic, cli, protocol
from chebauth._cheb_pure import cheb_eval_int as pure_cheb_eval_int
from chebauth.adversary import Dictionary, ExtractedCard, Transcript
from chebauth.chaotic import DEFAULT_PRIME, FieldElement
from chebauth.primitives import LogicalClock, OpCounts, RandomSource
from chebauth.protocol import RejectReason, SmartCard

# Library functions are called through their modules (protocol.registration,
# not a name bound here at import), so the traced run's wrappers see the calls.

USER_LOGIN_COUNTS = {"hash": 6, "xor": 4, "cheb": 2}
SERVER_LOGIN_COUNTS = {"hash": 7, "xor": 6, "cheb": 2}
WASTED_ROUND_COUNTS = {"hash": 6, "xor": 4, "cheb": 1}
REGISTRATION_COUNTS = {"hash": 5, "xor": 4, "cheb": 0}
CHANGE_PASSWORD_COUNTS = {"hash": 4, "xor": 4, "cheb": 0}

KERNEL_SAMPLE = 16

#: The checkout the benchmark runs in: the library under src/, the report schema under docs/.
ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Operations attempted and operations that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
        return ok


class Measurement:
    """Samples of one measure loop, as measured and scaled to the reference speed.

    A sample is (elapsed microseconds, probe position at that moment); see speed.py.
    """

    def __init__(self, kinds, probe: SpeedProbe):
        self.probe = probe
        self.samples = {kind: [] for kind in kinds}
        self.completed = 0  # operations that passed their check
        self.wall_s = self.scaled_s = 0.0

    def start(self):
        self.probe.start()
        self._start = perf_counter_ns()

    def stop(self):
        self.wall_s = (perf_counter_ns() - self._start) / 1e9
        self.scaled_s = self.probe.stop()

    def add(self, kind: str, elapsed_ns: int, ops: int = 1) -> int:
        """Record ``ops`` passed operations timed together; returns the sample's position."""
        self.completed += ops
        self.samples[kind].append((elapsed_ns / ops / 1e3, self.probe.position))
        return len(self.samples[kind]) - 1

    def drop(self, kind: str, position: int):
        """Take back a sample whose operation failed a later check."""
        self.completed -= 1
        self.samples[kind][position] = None

    def raw_us(self, kind: str) -> list:
        return [s[0] for s in self.samples[kind] if s is not None]

    def scaled_us(self, kind: str) -> list:
        return [s[0] * self.probe.scale_at(s[1]) for s in self.samples[kind] if s is not None]


def percentiles(samples) -> tuple[float, float]:
    """(p50, p90) of the samples; statistics.quantiles' exclusive method."""
    if len(samples) < 2:  # only when operations failed; keep the JSON finite
        value = samples[0] if samples else 0.0
        return value, value
    deciles = statistics.quantiles(samples, n=10)
    return deciles[4], deciles[8]


def kernel_agreement(seed: int, tally: Tally):
    """Selected kernel against the pure reference on 64-bit exponents over the default prime."""
    for n, x in inputs.kernel_sample(seed, KERNEL_SAMPLE, DEFAULT_PRIME):
        expected = pure_cheb_eval_int(n, x, DEFAULT_PRIME)
        tally.check(chaotic.cheb_eval(n, FieldElement(x, DEFAULT_PRIME)).value == expected)


def _deadline(seconds: float) -> int:
    return perf_counter_ns() + int(seconds * 1e9)


class LoginMix:
    """One server, a population of registered cards, a closed loop with one client.

    Operations pick a card uniformly; the mix is 80% honest logins (the
    refreshed card is kept), 10% wrong-password logins, 5% password changes
    with the correct old password and 5% card re-issues. A write (change or
    re-issue) is checked by the next honest login on its card, or by one
    extra login after the timed loop.
    """

    name = "login-mix"
    PRIMARY = "login"  # the operation kind whose latency is the bounded metric
    POPULATION = 3000
    KINDS = ("login", "wrong", "change", "reissue")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.people = inputs.login_population(seed, self.POPULATION)

    def setup(self, tally: Tally):
        self.server = protocol.server_setup(self.seed)
        self.rng = RandomSource(self.seed + 1)
        self.clock = LogicalClock()
        self.passwords = [password for _, password in self.people]
        self.cards = [protocol.registration(self.server, identity, password, self.rng)
                      for identity, password in self.people]
        self.ops = inputs.login_mix_ops(self.seed, self.POPULATION)

    def _login(self, index: int):
        user, server = OpCounts(), OpCounts()
        start = perf_counter_ns()
        session = protocol.run_login_session(
            self.server, self.cards[index], self.passwords[index], self.clock, self.rng,
            user_counts=user, server_counts=server)
        elapsed = perf_counter_ns() - start
        ok = (session.ok and session.keys_match and user.as_dict() == USER_LOGIN_COUNTS
              and server.as_dict() == SERVER_LOGIN_COUNTS)
        if ok:
            self.cards[index] = session.card
        return ok, elapsed

    def _wrong_login(self, index: int):
        card = self.cards[index]
        counts = OpCounts()
        start = perf_counter_ns()
        session = protocol.run_login_session(
            self.server, card, self.passwords[index] + "-typo", self.clock, self.rng,
            user_counts=counts, server_counts=counts)
        elapsed = perf_counter_ns() - start
        ok = (not session.ok and session.rejected_by == "server"
              and session.reject.reason is RejectReason.AUTH_FAILURE
              and session.card is card and counts.as_dict() == WASTED_ROUND_COUNTS)
        return ok, elapsed

    def _change(self, index: int, new_password: str):
        card = self.cards[index]
        counts = OpCounts()
        start = perf_counter_ns()
        changed = protocol.change_password(card, self.passwords[index], new_password, counts=counts)
        elapsed = perf_counter_ns() - start
        ok = (isinstance(changed, SmartCard) and (changed.im1, changed.im2) == (card.im1, card.im2)
              and counts.as_dict() == CHANGE_PASSWORD_COUNTS)
        if ok:
            self.cards[index], self.passwords[index] = changed, new_password
        return ok, elapsed

    def _reissue(self, index: int):
        counts = OpCounts()
        start = perf_counter_ns()
        card = protocol.registration(
            self.server, self.people[index][0], self.passwords[index], self.rng, counts=counts)
        elapsed = perf_counter_ns() - start
        ok = isinstance(card, SmartCard) and counts.as_dict() == REGISTRATION_COUNTS
        if ok:
            self.cards[index] = card
        return ok, elapsed

    def measure(self, seconds: float, tally: Tally, probe: SpeedProbe) -> Measurement:
        m = Measurement(self.KINDS, probe)
        pending = {}  # card index -> (kind, sample position) of an unchecked write
        m.start()
        deadline = _deadline(seconds)
        while perf_counter_ns() < deadline:
            probe.tick()
            op = next(self.ops)
            if op.kind == "login":
                ok, elapsed = self._login(op.card)
                write = pending.pop(op.card, None)
                if write is not None and not ok:
                    tally.failed += 1
                    m.drop(*write)
            elif op.kind == "wrong":
                ok, elapsed = self._wrong_login(op.card)
            elif op.kind == "change":
                ok, elapsed = self._change(op.card, op.new_password)
            else:
                ok, elapsed = self._reissue(op.card)
            if tally.check(ok):
                position = m.add(op.kind, elapsed)
                if op.kind in ("change", "reissue"):
                    pending[op.card] = (op.kind, position)
        m.stop()
        for index, write in pending.items():
            if not self._login(index)[0]:
                tally.failed += 1
                m.drop(*write)
        return m

    def named_metrics(self, m: Measurement) -> dict:
        login_p50, login_p90 = percentiles(m.raw_us("login"))
        return {
            "ops_per_s": (m.completed / m.wall_s, "1/s"),
            "login_p50_us": (login_p50, "us"),
            "login_p90_us": (login_p90, "us"),
            "wrong_login_p50_us": (percentiles(m.raw_us("wrong"))[0], "us"),
            "passwd_change_p50_us": (percentiles(m.raw_us("change"))[0], "us"),
            "register_p50_us": (percentiles(m.raw_us("reissue"))[0], "us"),
        }


class GuessScan:
    """Offline dictionary attack on an extracted card and one eavesdropped M1.

    The dictionary holds a few hundred thousand 6-16 byte candidates, some
    multi-byte UTF-8, with the victim's password planted last. It is scanned
    in order as consecutive slices of BLOCK candidates, one ``offline_guess``
    call per slice, so per-candidate latency has many samples; every slice
    but the last must miss, the last must recover the password at its final
    index, and each slice of n candidates must cost exactly {hash 3n, xor 2n,
    cheb 0}. A run always completes at least one full pass.
    """

    name = "guess-scan"
    PRIMARY = "candidate"
    SIZE = 200_000
    BLOCK = 1000

    def __init__(self, seed: int, workdir: Path):
        self.victim = inputs.victim(seed)
        self.path = workdir / "guess-scan.txt"
        inputs.write_dictionary(self.path, inputs.guess_scan_words(seed, self.SIZE, self.victim.password))
        self.from_file_ms = []

    def setup(self, tally: Tally):
        v = self.victim
        server = protocol.server_setup(v.server_seed)
        rng = RandomSource(v.rng_seed)
        card = protocol.registration(server, v.identity, v.password, rng)
        self.extracted = ExtractedCard.from_card(card)
        session = protocol.run_login_session(server, card, v.password, LogicalClock(), rng)
        tally.check(session.ok and session.keys_match)
        self.m1 = Transcript.from_events(session.events).login_requests()[0]
        start = perf_counter_ns()
        self.dictionary = Dictionary.from_file(self.path)
        self.from_file_ms.append((perf_counter_ns() - start) / 1e6)
        self.blocks = None

    def measure(self, seconds: float, tally: Tally, probe: SpeedProbe) -> Measurement:
        if self.blocks is None:
            words = self.dictionary.candidates
            self.blocks = [Dictionary(words[i:i + self.BLOCK]) for i in range(0, len(words), self.BLOCK)]
        expected_last = self.victim.password.encode("utf-8")
        m = Measurement(("candidate",), probe)
        m.start()
        deadline = _deadline(seconds)
        passes = 0
        while passes == 0 or perf_counter_ns() < deadline:
            for index, block in enumerate(self.blocks):
                if passes and perf_counter_ns() >= deadline:
                    break
                probe.tick()
                start = perf_counter_ns()
                report = adversary.offline_guess(self.extracted, self.m1, block)
                elapsed = perf_counter_ns() - start
                n = len(block)
                hit = expected_last if index == len(self.blocks) - 1 else None
                ok = (report.recovered == hit and report.guesses == n
                      and report.counts.as_dict() == {"hash": 3 * n, "xor": 2 * n, "cheb": 0})
                if tally.check(ok, n):
                    m.add("candidate", elapsed, n)
            passes += 1
        m.stop()
        return m

    def named_metrics(self, m: Measurement) -> dict:
        return {
            "candidates_per_s": (m.completed / m.wall_s, "1/s"),
            "dictionary_size": (len(self.dictionary), "count"),
            "from_file_ms": (statistics.median(self.from_file_ms), "ms"),
        }


def strip_wall_time(node):
    if isinstance(node, dict):
        return {k: strip_wall_time(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [strip_wall_time(item) for item in node]
    return node


class CliRuns:
    """Sequential ``python -m chebauth.cli`` runs of the six README invocations.

    Every invocation must exit 0 and emit a report that validates against
    ``docs/report.schema.json`` and, with ``wall_time_s`` removed, equals the
    first cycle's report byte for byte. With ``in_process`` set (the traced
    run) each invocation calls ``cli.main`` in this process instead, with its
    standard output captured, so that benchmark-side spans can see it.
    """

    name = "cli-runs"
    PRIMARY = "invocation"
    DICT_SIZE = 256

    def __init__(self, seed: int, workdir: Path):
        import jsonschema  # a test extra; only this workload needs it

        self.root = ROOT
        self.inputs = inputs.cli_inputs(seed, self.DICT_SIZE)
        self.path = workdir / "cli-dict.txt"
        self.argvs = inputs.cli_argvs(self.inputs, str(self.path.relative_to(self.root)))
        schema = json.loads((self.root / "docs" / "report.schema.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.in_process = False
        self.reference = []  # stripped report bytes of the first cycle, per invocation
        self.report_bytes = []

    def _subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "chebauth.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, check=False)
        return proc.returncode, proc.stdout

    def _in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue().encode("utf-8")

    def setup(self, tally: Tally):
        inputs.write_dictionary(self.path, list(self.inputs.words))
        status, _ = self._subprocess(self.argvs[0])
        tally.check(status == 0)

    def _stripped_report(self, status: int, stdout: bytes):
        """The stripped report bytes, or None when the run failed a check."""
        if status != 0:
            return None
        try:
            report = json.loads(stdout)
        except ValueError:
            return None
        if not self.validator.is_valid(report):
            return None
        return json.dumps(strip_wall_time(report)).encode("utf-8")

    def measure(self, seconds: float, tally: Tally, probe: SpeedProbe) -> Measurement:
        run = self._in_process if self.in_process else self._subprocess
        m = Measurement(("invocation",), probe)
        m.start()
        deadline = _deadline(seconds)
        cycles = 0
        while cycles == 0 or perf_counter_ns() < deadline:
            first_cycle = not self.reference
            cycle_bytes = 0
            for position, argv in enumerate(self.argvs):
                probe.tick()
                start = perf_counter_ns()
                status, stdout = run(argv)
                elapsed = perf_counter_ns() - start
                cycle_bytes += len(stdout)
                stripped = self._stripped_report(status, stdout)
                if first_cycle:
                    self.reference.append(stripped)
                if tally.check(stripped is not None and stripped == self.reference[position]):
                    m.add("invocation", elapsed)
            self.report_bytes.append(cycle_bytes)
            cycles += 1
        m.stop()
        return m

    def named_metrics(self, m: Measurement) -> dict:
        p50, p90 = percentiles(m.raw_us("invocation"))
        return {
            "cli_run_p50_ms": (p50 / 1000, "ms"),
            "cli_run_p90_ms": (p90 / 1000, "ms"),
            "cli_runs_per_s": (m.completed / m.wall_s, "1/s"),
        }

    def import_ms(self, pairs: int) -> float:
        """Median of (fresh ``import chebauth.cli``) minus (bare interpreter start), in ms."""
        deltas = []
        for _ in range(pairs):
            times = []
            for code in ("pass", "import chebauth.cli"):
                t0 = perf_counter_ns()
                subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True)
                times.append(perf_counter_ns() - t0)
            deltas.append((times[1] - times[0]) / 1e6)
        return statistics.median(deltas)


WORKLOADS = {w.name: w for w in (LoginMix, GuessScan, CliRuns)}

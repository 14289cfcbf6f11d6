"""Model-based test: long interleavings of the protocol against the reference scheme.

This is the one place that checks the package against the reference scheme. A
hypothesis state machine drives two users and one server through logins with
the right and a wrong password, password changes with the right and a wrong old
password, card re-issues, logins whose legs take the whole freshness window
(each message arrives exactly delta_t ticks after its stamp) or a tick more,
after which every earlier message is stale, a replayed M1, an accepted M2
replayed to its card under a fresh login, messages delivered to the wrong
receiver, one bit flipped in one field of an M1 or M2 in flight, and honest
logins with a cleared kernel memo, so that logins where K is tabulated mix
with logins where it is not. Six (width, prime) configurations, (8, 101),
(8, p256), (64, 17), (136, p256), (256, 101) and (256, p256), p256 the
default prime, cover each width and each prime. Each step runs on chebauth
and on tests/reference_scheme.py, which gets a random.Random with the same
seed and draws in the package's order.
After every step the cards, session keys and reject reasons are bit-equal to
the reference, a reject has left the card as it was, and the two random
streams and clocks are in step. Each step's cost is checked against the calls
made: the run counts chebauth.protocol's leaf calls h_digest, H_digest,
xor_bytes and cheb_eval, and the counts read after each step equal the exact
cost of the exits it took, as do the OpCounts that registration,
change_password and run_login_session report. The module states those costs
apart from protocol.COSTS, which the package books from, and one test
compares the two statements. This is the one home of the
per-exit tallies: each configuration's run must reach all nine exits whose
tally it checks (registration, a change with the right and with a wrong old
password, and accept, auth_failure and stale_timestamp at the server and at
the card), one test per configuration and exit, so that no exit, the rarely
reached stale ones above all, drops out of the run unseen. So must it take
each of STEPS, a rule with an outcome that it compares with the reference (an
honest login with the kernel memo cleared and a login answered at the
window's edge among them), one test each. The rules take their rarer
outcomes by design: the last M1 that the server accepts in time and the last
that it refuses are each replayed one tick after their stamp and past the
window, an accepted M2 past its window and one tick after its stamp, each on a
clock of its own; an honest login draws whether to clear the memo first, and a
misdelivery sends the last M2 too. Each configuration runs once, in a
module-scoped fixture that all its tests share, with its index in CONFIGS as
the seed, so that each runs a program of its own. The attacker
overhears every M1 a card sends: after every step, each user's card, extracted
as it is then, is scanned against every M1 so far with four candidates, and
each guess_predicate verdict equals the oracle's. At w = 256 three rules also
hold outright: a flipped message is rejected; a card corrupted by a wrong-old
password change fails every login, under any password, until it is re-issued
(the denial of service); and the offline guess accepts, of an M1 the server
accepted, exactly the current password of an uncorrupted card of the same
identity, whatever changes and re-issues came between. At w = 8 a truncation
collision can break any of the three, and agreement with the reference is the
check.

A failing run is reported as found, without shrinking: shrinking a 20-step
run of the first four configurations took 28-94 s, against about 2 s to pass.
"""

import pickle
import random
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, seed, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import reference_scheme as ref  # noqa: E402
from chebauth import chaotic  # noqa: E402
from chebauth.adversary import guess_predicate, scan_target  # noqa: E402
from chebauth.chaotic import DEFAULT_PRIME, FieldElement  # noqa: E402
from chebauth.primitives import LogicalClock, OpCounts, RandomSource  # noqa: E402
from chebauth.protocol import (  # noqa: E402
    COSTS,
    DEFAULT_DELTA_T,
    Params,
    Reject,
    RejectReason,
    UserLoginContext,
    change_password,
    registration,
    run_login_session,
    server_handle_login,
    server_setup,
    user_handle_response,
    user_login_start,
)
from helpers import (  # noqa: E402
    card_fields, clock_at, flipped, guess_predicate_oracle, leaf_calls, m1_fields, m2_fields)

CONFIGS = [(8, 101), (8, DEFAULT_PRIME), (64, 17), (136, DEFAULT_PRIME), (256, 101), (256, DEFAULT_PRIME)]
USERS = (0, 1)

# The exact cost of each exit, written here apart from protocol.COSTS: the
# server's check of an M1 and the card's check of an M2, by the reject reason
# it returns or "accept"; the card's M1 alone, and with its check of an M2,
# which is what run_login_session books for the card in a login that ends at
# the server or at the card; a registration and a password change.
SERVER_TALLY = {"malformed": OpCounts(), "stale_timestamp": OpCounts(), "auth_failure": OpCounts(3, 2, 0),
                "accept": OpCounts(7, 6, 2)}
USER_TALLY = {"malformed": OpCounts(), "stale_timestamp": OpCounts(), "auth_failure": OpCounts(3, 2, 1),
              "accept": OpCounts(3, 2, 1)}
M1_ONLY, M1_AND_M2 = OpCounts(3, 2, 1), OpCounts(6, 4, 2)
ISSUE, CHANGE = OpCounts(5, 4, 0), OpCounts(4, 4, 0)
EXITS = ("registration", "change-right_old", "change-wrong_old",
         *(f"{side}-{exit}" for side in ("server", "user") for exit in ("accept", "auth_failure", "stale_timestamp")))

# Each rule with an outcome that the run compares with the reference, as f"{rule}-{outcome}".
STEPS = ("honest_login-accept", "honest_login-accept-cold", "wrong_password_login-auth_failure",
         "advance_past_window-accept", "advance_past_window-stale_timestamp",
         *(f"replay_last_m1-{outcome}" for outcome in ("accept", "auth_failure", "stale_timestamp")),
         "replay_accepted_m2-auth_failure", "replay_accepted_m2-stale_timestamp", "flip_in_flight-m1-auth_failure",
         "flip_in_flight-m2-auth_failure", "misdeliver-m1-malformed", "misdeliver-m2-malformed",
         "corrupted_card_login-auth_failure")

passwords = st.binary(min_size=1, max_size=6)


def outcome(result) -> str:
    return result.reason.value if isinstance(result, Reject) else "accept"


def tallied(*counts: OpCounts) -> Counter:
    """The operations the given OpCounts report, summed by kind."""
    return sum((Counter(c.as_dict()) for c in counts), Counter())


def copies(*objects) -> tuple:
    """Independent copies of random streams and clocks, in their state now (pickle is faster than deepcopy)."""
    return pickle.loads(pickle.dumps(objects))


class PackageFollowsReference(RuleBasedStateMachine):
    def __init__(self, width: int, prime: int, crossed: Counter, reached: Counter, calls: Counter):
        super().__init__()
        # guesses checked on an uncorrupted card with an M1 of its identity that
        # the server accepted before the card's D1 last changed, by whether the
        # card has the password it was issued with (True: a re-issue came
        # between; False: a password change did)
        self.crossed = crossed
        self.reached = reached  # how often each of EXITS had its tally checked, and each of STEPS ran
        self.calls = calls  # the leaf calls chebauth.protocol made since the last reading, by kind
        self.width, self.prime = width, prime
        self.delta_t = DEFAULT_DELTA_T
        self.params = Params(prime, width, self.delta_t)
        # (package M1, reference M1, reference login context) of the last M1 sent, by whether
        # the server accepts it in time: typed with the password of an uncorrupted card
        self.last_m1 = {}
        self.last_m2 = None
        self.accepted_m2 = None  # (user, package M2, reference M2) of the last login a card accepted
        self.corrupted = [False, False]  # by a wrong-old password change since the card was issued
        self.issued_with = [None, None]  # the password each card was issued for
        self.last_typo = [b"~", b"~"]  # the last wrong password each user typed
        self.overheard = []  # (user, M1, whether the server accepted it, the card's D1) of every M1 sent

    def made(self) -> Counter:
        """The leaf calls chebauth.protocol made since the last reading, by kind; the count starts again."""
        made = self.calls.copy()
        self.calls.clear()
        return made

    @initialize(seed=st.integers(0, 1 << 16))
    def setup(self, seed):
        self.server = server_setup(seed, self.params)
        self.rng, self.clock = RandomSource(seed + 1), LogicalClock()
        self.ref_mk = ref.draw(random.Random(seed), self.width // 8)  # the server's first draw
        self.ref_rng, self.ref_now = random.Random(seed + 1), 0
        assert self.server.mk == self.ref_mk
        self.identities = [f"user-{user}".encode() for user in USERS]
        self.passwords = [f"pw-{user}".encode() for user in USERS]
        self.cards, self.ref_cards = [None, None], [None, None]
        for user in USERS:
            self.issue(user)

    def issue(self, user):
        counts = OpCounts()
        self.cards[user] = registration(
            self.server, self.identities[user], self.passwords[user], self.rng, counts=counts)
        self.ref_cards[user] = ref.register(self.ref_mk, self.identities[user], self.passwords[user], self.ref_rng)
        self.corrupted[user], self.issued_with[user] = False, self.passwords[user]
        assert counts == ISSUE and self.made() == tallied(counts)
        self.reached["registration"] += 1

    def login(self, user, typed, delay=1):
        card, ref_card = self.cards[user], self.ref_cards[user]
        user_counts, server_counts = OpCounts(), OpCounts()
        session = run_login_session(self.server, card, typed, self.clock, self.rng, channel_delay=delay,
                                    user_counts=user_counts, server_counts=server_counts)
        assert self.made() == tallied(user_counts, server_counts)
        ref_m1, ref_ctx, server_result, user_result = ref.login(
            self.ref_mk, ref_card, typed, self.ref_rng, self.ref_now, delay, delay, self.delta_t, self.prime)
        self.ref_now += delay
        m1 = session.events[0].message
        assert m1_fields(m1) == ref_m1
        self.overheard.append((user, m1, session.rejected_by != "server", card.d1))
        self.last_m1[typed == self.passwords[user] and not self.corrupted[user]] = m1, ref_m1, ref_ctx
        if isinstance(server_result, str):
            assert (session.rejected_by, session.reject) == ("server", Reject(RejectReason(server_result)))
            assert session.card is card
            assert (user_counts, server_counts) == (M1_ONLY, SERVER_TALLY[server_result])
            self.reached[f"server-{server_result}"] += 1
            return server_result
        self.ref_now += delay
        ref_m2, ref_server_key = server_result
        m2 = session.events[1].message
        assert m2_fields(m2) == ref_m2 and session.server_key == ref_server_key
        assert (user_counts, server_counts) == (M1_AND_M2, SERVER_TALLY["accept"])
        self.reached["server-accept"] += 1
        self.last_m2 = m2
        if isinstance(user_result, str):
            assert (session.rejected_by, session.reject) == ("user", Reject(RejectReason(user_result)))
            assert session.card is card and session.user_key is None
            self.reached[f"user-{user_result}"] += 1
            return user_result
        self.reached["user-accept"] += 1
        ref_user_key, self.ref_cards[user] = user_result
        assert session.ok and session.user_key == ref_user_key
        assert not (self.corrupted[user] and self.width == 256)
        self.cards[user] = session.card
        self.accepted_m2 = user, m2, ref_m2
        return "accept"

    @rule(user=st.sampled_from(USERS), cold=st.booleans())
    def honest_login(self, user, cold):
        if cold:  # as the cold_memo fixture does: no K has its squaring chain until X1 tabulates it again
            chaotic._tables.clear()
        self.reached[f"honest_login-{self.login(user, self.passwords[user])}" + "-cold" * cold] += 1

    @rule(user=st.sampled_from(USERS), typo=passwords)
    def wrong_password_login(self, user, typo):
        self.last_typo[user] = self.passwords[user] + b"~" + typo
        self.reached[f"wrong_password_login-{self.login(user, self.last_typo[user])}"] += 1

    @rule(user=st.sampled_from(USERS), new=passwords, right_old=st.booleans())
    def change(self, user, new, right_old):
        # the card checks no old password: a wrong one corrupts D1 and D2
        old = self.passwords[user] if right_old else self.passwords[user] + b"~"
        counts = OpCounts()
        self.cards[user] = change_password(self.cards[user], old, new, counts=counts)
        self.ref_cards[user] = ref.change(self.ref_cards[user], old, new)
        self.passwords[user] = new
        self.corrupted[user] = self.corrupted[user] or not right_old
        assert counts == CHANGE and self.made() == tallied(counts)
        self.reached["change-right_old" if right_old else "change-wrong_old"] += 1

    @rule(user=st.sampled_from(USERS))
    def reissue(self, user):
        self.issue(user)

    @rule()
    def advance_past_window(self):
        # the channel slows down: user 0 logs in with each leg taking the whole
        # window, so that M1 and M2 arrive exactly delta_t ticks after their
        # stamps and are answered, then with M1 arriving a tick past it; every
        # message sent before is stale afterwards
        for late in (False, True):
            self.reached[f"advance_past_window-{self.login(0, self.passwords[0], self.delta_t + late)}"] += 1

    @precondition(lambda self: self.last_m1)
    @rule()
    def replay_last_m1(self):
        # the server keeps no record of seen requests: a replay one tick after
        # M1's stamp is answered, with fresh draws, as the first delivery was,
        # and one past the window is stale and draws nothing; each is
        # delivered on a clock of its own, so the run's clock does not move
        for m1, ref_m1, _ in self.last_m1.values():
            for now in (m1.t1.ticks + 1, m1.t1.ticks + self.delta_t + 1):
                result = server_handle_login(self.server, m1, clock_at(now), self.rng)
                ref_result = ref.server_respond(self.ref_mk, self.prime, self.delta_t, ref_m1, now, self.ref_rng)
                if isinstance(ref_result, str):
                    assert result == Reject(RejectReason(ref_result))
                else:
                    m2, server_key = result
                    assert (m2_fields(m2), server_key) == ref_result
                    self.last_m2 = m2
                assert self.made() == tallied(SERVER_TALLY[outcome(result)])
                self.reached[f"server-{outcome(result)}"] += 1
                self.reached[f"replay_last_m1-{outcome(result)}"] += 1

    @precondition(lambda self: self.last_m1)
    @rule(user=st.sampled_from(USERS))
    def misdeliver(self, user):
        # each last M1 goes to a card and the last M2, if any, to the server
        for m1, _, (u, tuk) in self.last_m1.values():
            ctx = UserLoginContext(self.cards[user], self.params, u, FieldElement(tuk, self.prime))
            result = user_handle_response(ctx, m1, self.clock)
            assert result == Reject(RejectReason.MALFORMED) and self.made() == tallied(USER_TALLY["malformed"])
            self.reached["misdeliver-m1-malformed"] += 1
        if self.last_m2 is not None:
            result = server_handle_login(self.server, self.last_m2, self.clock, self.rng)
            assert result == Reject(RejectReason.MALFORMED) and self.made() == tallied(SERVER_TALLY["malformed"])
            self.reached["misdeliver-m2-malformed"] += 1

    @precondition(lambda self: self.accepted_m2 is not None)
    @rule()
    def replay_accepted_m2(self):
        # the card keeps no record of answered logins: an M2 it accepted once,
        # delivered again under a fresh login, is stale past the window and
        # one tick after its stamp is checked against the new u, so Y3 fails;
        # each delivery has a clock of its own, and on a reject the card is
        # kept, which cards_match_reference checks against the reference's
        user, m2, ref_m2 = self.accepted_m2
        card, ref_card, typed = self.cards[user], self.ref_cards[user], self.passwords[user]
        _, ctx = user_login_start(card, typed, self.clock, self.rng, self.params)
        _, ref_ctx = ref.login_start(ref_card, typed, self.ref_rng, self.ref_now, self.prime)
        assert self.made() == tallied(M1_ONLY)
        for now in (m2.t2.ticks + self.delta_t + 1, m2.t2.ticks + 1):
            result = user_handle_response(ctx, m2, clock_at(now))
            ref_result = ref.user_verify(ref_card, ref_ctx, ref_m2, now, self.delta_t, self.prime)
            assert self.made() == tallied(USER_TALLY[outcome(result)])
            self.reached[f"user-{outcome(result)}"] += 1
            self.reached[f"replay_accepted_m2-{outcome(result)}"] += 1
            if isinstance(ref_result, str):
                assert result == Reject(RejectReason(ref_result))
            else:  # a toy prime's short map period can repeat the key, or w = 8 truncate Y3 to a match
                assert (self.width, self.prime) != (256, DEFAULT_PRIME)
                (user_key, self.cards[user]), (ref_user_key, self.ref_cards[user]) = result, ref_result
                assert user_key == ref_user_key

    @rule(user=st.sampled_from(USERS), at_m2=st.booleans(), field=st.integers(0, 4), bit=st.integers(0, 7))
    def flip_in_flight(self, user, at_m2, field, bit):
        # the channel changes one bit of M1 or, if the server answers, of M2;
        # the receiver's verdict, its draws and the card follow the reference
        card, ref_card, typed = self.cards[user], self.ref_cards[user], self.passwords[user]
        m1, ctx = user_login_start(card, typed, self.clock, self.rng, self.params)
        _, ref_ctx = ref.login_start(ref_card, typed, self.ref_rng, self.ref_now, self.prime)
        if not at_m2:
            m1 = flipped(m1, field, bit)
        self.clock.advance(1)
        self.ref_now += 1
        result = server_handle_login(self.server, m1, self.clock, self.rng)
        self.overheard.append((user, m1, not isinstance(result, Reject), card.d1))
        ref_result = ref.server_respond(
            self.ref_mk, self.prime, self.delta_t, m1_fields(m1), self.ref_now, self.ref_rng)
        assert self.made() == tallied(M1_ONLY, SERVER_TALLY[outcome(result)])
        self.reached[f"server-{outcome(result)}"] += 1
        if isinstance(ref_result, str):
            assert result == Reject(RejectReason(ref_result))
            self.reached[f"flip_in_flight-m1-{outcome(result)}"] += 1
            return
        assert self.width == 8 or at_m2
        (m2, server_key), (ref_m2, ref_server_key) = result, ref_result
        assert (m2_fields(m2), server_key) == (ref_m2, ref_server_key)
        if at_m2:
            m2 = flipped(m2, field, bit)
        self.clock.advance(1)
        self.ref_now += 1
        result = user_handle_response(ctx, m2, self.clock)
        ref_result = ref.user_verify(ref_card, ref_ctx, m2_fields(m2), self.ref_now, self.delta_t, self.prime)
        assert self.made() == tallied(USER_TALLY[outcome(result)])
        self.reached[f"user-{outcome(result)}"] += 1
        self.reached[f"flip_in_flight-m{1 + at_m2}-{outcome(result)}"] += 1
        if isinstance(ref_result, str):
            assert result == Reject(RejectReason(ref_result))
        else:
            assert self.width == 8
            (user_key, self.cards[user]), (ref_user_key, self.ref_cards[user]) = result, ref_result
            assert user_key == ref_user_key

    @invariant()
    def corrupted_cards_fail_to_log_in(self):
        # the denial of service: after a wrong-old change neither the password
        # the card now has nor the one it was issued for logs in, until it is
        # re-issued; probed on copies of both streams and clocks, so the run
        # itself goes on undisturbed
        for user in USERS:
            if not self.corrupted[user]:
                continue
            card, ref_card = self.cards[user], self.ref_cards[user]
            for typed in {self.passwords[user], self.issued_with[user]}:
                rng, clock, ref_rng = copies(self.rng, self.clock, self.ref_rng)
                session = run_login_session(self.server, card, typed, clock, rng)
                *_, ref_result = ref.login(
                    self.ref_mk, ref_card, typed, ref_rng, self.ref_now, 1, 1, self.delta_t, self.prime)
                assert session.ok == (not isinstance(ref_result, str))
                assert not (session.ok and self.width == 256)
                self.reached[f"corrupted_card_login-{outcome(session.reject) if session.reject else 'accept'}"] += 1
        self.made()  # the probes' leaf calls are no step's

    @invariant()
    def offline_guess_follows_oracle(self):
        # k = h(h(ID) || mk) depends on the identity and the master key alone:
        # a password change or a re-issue re-encodes the same k, so it does
        # not retire an M1 overheard before it
        for user in USERS:
            card, current = self.cards[user], self.passwords[user]
            for owner, m1, accepted, d1 in self.overheard:
                target = scan_target(card, m1)
                crossed = owner == user and accepted and d1 != card.d1 and not self.corrupted[user]
                self.crossed[self.issued_with[user] == current] += crossed
                for candidate in (current, self.issued_with[user], self.last_typo[user], b"decoy"):
                    verdict = guess_predicate(candidate, target)
                    assert verdict == guess_predicate_oracle(candidate, card, m1)
                    if self.width == 256 and (accepted or owner != user):
                        assert verdict == (owner == user and not self.corrupted[user] and candidate == current)

    @invariant()
    def cards_match_reference(self):
        assert [card_fields(card) for card in self.cards] == self.ref_cards

    @invariant()
    def streams_and_clocks_in_step(self):
        assert self.clock.now().ticks == self.ref_now
        rng, ref_rng = copies(self.rng, self.ref_rng)
        assert rng.draw_exponent() == ref.exponent(ref_rng)


@pytest.fixture(scope="module", params=CONFIGS,
                ids=["w8-p101", "w8-p256", "w64-p17", "w136-p256", "w256-p101", "w256-p256"])
def run(request) -> tuple[Counter, Counter]:
    """One run of the machine at (width, prime), seeded by its index: its crossed and reached counters."""
    width, prime = request.param
    crossed, reached, calls = Counter(), Counter(), Counter()
    with leaf_calls(calls):  # the leaf counters go when the run ends
        run_state_machine_as_test(
            seed(request.param_index)(lambda: PackageFollowsReference(width, prime, crossed, reached, calls)),
            settings=settings(max_examples=20, stateful_step_count=20, deadline=None, derandomize=True,
                              database=None, phases=[phase for phase in Phase if phase is not Phase.shrink]),
        )
    return crossed, reached


def test_package_follows_reference(run):
    crossed, _ = run
    # the run crossed both a password change and a re-issue with an accepted M1
    assert crossed[False] and crossed[True]


def test_oracle_states_the_package_costs():
    # the run checks the constants above against the calls made; the package books from COSTS
    costs = {exit: OpCounts(*cost) for exit, cost in COSTS.items()}
    assert costs == {"registration": ISSUE, "change_password": CHANGE, "card_m1": M1_ONLY,
                     "card_m2": USER_TALLY["accept"], **SERVER_TALLY}
    assert costs["card_m2"] == USER_TALLY["auth_failure"]
    assert tallied(M1_AND_M2) == tallied(costs["card_m1"], costs["card_m2"])


@pytest.mark.parametrize("exit", EXITS)
def test_run_checks_the_tally_of(run, exit):
    _, reached = run
    assert reached[exit]


@pytest.mark.parametrize("step", STEPS)
def test_run_compares_with_reference_after(run, step):
    _, reached = run
    assert reached[step]


def test_scenarios_end_where_the_scheme_says():
    # the reference itself must reproduce the scheme's outcomes at full width
    def outcome(typed=b"correct horse", delay_m1=1, delay_m2=1, old=None):
        mk, rng = ref.draw(random.Random(5), 32), random.Random(6)  # mk is the server's first draw
        card = ref.register(mk, b"patient-0042", b"correct horse", rng)
        if old is not None:  # first a change from old to the password typed at login
            card = ref.change(card, old, typed)
        *_, reply, verdict = ref.login(mk, card, typed, rng, 0, delay_m1, delay_m2, 3, DEFAULT_PRIME)
        return "server reject" if isinstance(reply, str) else "user reject" if isinstance(verdict, str) else "user"

    new = b"battery staple"
    assert outcome() == outcome(new, old=b"correct horse") == "user"
    assert outcome(b"correct horse-typo") == outcome(new, old=b"not the old one") == "server reject"
    assert outcome(delay_m1=4) == "server reject"  # past delta_t = 3
    assert outcome(delay_m2=4) == "user reject"
    assert ref.cheb(6, 3, 101) == (32 * 3**6 - 48 * 3**4 + 18 * 3**2 - 1) % 101

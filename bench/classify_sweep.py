"""classify-sweep workload: threshold decisions and enumerator calls, in
process.

Most ops decide one candidate: arg_less_than, solve_nu_prime and the
conic threshold test, then an InvariantTuple and with_status when the
candidate survives.  A fixed share of ops are whole enumerator calls at
their public defaults.  exact and slope do almost all the work here and
chow, expr and cli none, so an integer kernel under exact shows on this
workload and not on ring-eval.
"""

from __future__ import annotations

import csv
import random
from collections import namedtuple
from fractions import Fraction

from fanocalc import classify, dataset, exact, slope

import common

# tan^2(pi/(n+1)) for the three n where it is rational.
TAN_SQ = {2: Fraction(3), 3: Fraction(1), 5: Fraction(1, 3)}
# (tau, P) with tau*P < 4, so that delta = tau^2 - 4*tau/P is negative.
D_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))
DECISIONS_PER_DECK = 190
# Enumerator ops at public defaults, plus type D at seeded bounds.  The
# four type D calls with n_max from 20 to 40 are the slowest ops and 2 %
# of the deck, so op_ms.p99 falls inside their cluster and not on the
# edge between two clusters.
ENUMERATOR_OPS = ((("C", 2), ("C", 3), ("C", 5), ("P", 2), ("P", 3), ("P", 5),
                   ("D", None), ("D", (2, 19)), ("E14", None), ("E21", None))
                  + (("D", (20, 40)),) * 4)
SAMPLED_DECKS = 8
SAMPLES_PER_DECK = 8

Op = namedtuple("Op", "kind args sample")


class State:
    """The dataset loaded in set-up (the enumerators, called at their
    public defaults, read it again on every call), the oracle sample and
    the golden tables."""

    def __init__(self, fano, c2):
        self.fano = fano
        self.c2 = c2
        self.samples = []
        self.decks = 0
        self.golden_c = {}
        self.golden_p = {}
        self.golden_d = []


def setup(seed: int) -> State:
    return State(dataset.load_dataset(), dataset.load_c2_pushforward())


def prepare_checks(state: State) -> None:
    for n in (2, 3, 5):
        state.golden_c[n] = (common.GOLDEN / f"type_C_n{n}.csv").read_text()
    lines = (common.GOLDEN / "type_P.csv").read_text().splitlines(True)
    for n in (2, 3, 5):
        state.golden_p[n] = lines[0] + "".join(
            ln for ln in lines[1:] if ln.startswith(f"{n},"))
    with open(common.GOLDEN / "type_D_raw.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    state.golden_d = [tuple(int(x) for x in row) for row in rows]


def _decision_args(rng: random.Random):
    branch = rng.random()
    if branch < 0.4:
        tau, p = rng.choice(D_PAIRS)
        return ("D", rng.randint(2, 16), tau,
                Fraction(tau * tau) - Fraction(4 * tau, p), p)
    if branch < 0.7:
        n, tau = rng.choice((2, 3, 5)), rng.randint(1, 4)
        return ("C", n, tau, -Fraction(tau * tau) * TAN_SQ[n], None)
    return ("G", rng.randint(2, 16), rng.randint(1, 4),
            -Fraction(rng.randint(1, 40), rng.randint(1, 6)), None)


def make_deck(state: State, rng: random.Random):
    sampled = set()
    if state.decks < SAMPLED_DECKS:
        sampled = set(rng.sample(range(DECISIONS_PER_DECK), SAMPLES_PER_DECK))
    state.decks += 1
    deck = [Op("decision", _decision_args(rng), k in sampled)
            for k in range(DECISIONS_PER_DECK)]
    for kind, arg in ENUMERATOR_OPS:
        if kind == "D" and arg is not None:
            arg = rng.randint(*arg)
        deck.append(Op(kind, arg, False))
    rng.shuffle(deck)
    return deck


def decide(n: int, tau: int, delta: Fraction):
    """Threshold decision for one candidate (n, tau, delta): returns
    (arg below pi/(n+1), nu' or None, conic test, tuple or None)."""
    below = exact.arg_less_than(exact.quad(tau, 1, delta), n + 1)
    nu_prime = slope.solve_nu_prime(n, tau, delta, 1)
    conic = slope.check_rho_tau(n, tau, tau, delta)
    c1 = 0 if tau % 2 == 0 else -1
    common_fields = dict(n=n, lam=1, mu=1, mu_prime=1, nu=tau, tau=tau,
                         i=tau + 1, c1=c1, delta=delta,
                         c2_over_d=(c1 * c1 - delta) / 4)
    if nu_prime is not None:
        t = slope.InvariantTuple(
            kind="D", nu_prime=nu_prime, tau_prime=nu_prime,
            rho=Fraction(tau * nu_prime - 2, nu_prime), i_prime=nu_prime + 2,
            **common_fields).with_status("candidate", "blow_down")
    elif conic:
        t = slope.InvariantTuple(
            kind="C", nu_prime=1, tau_prime=1, rho=tau, i_prime=3,
            **common_fields).with_status("candidate", "conic")
    else:
        t = None
    return below, nu_prime, conic, t


def run_op(state: State, op: Op):
    kind, arg = op.kind, op.args
    if kind == "decision":
        _, n, tau, delta, _ = arg
        return decide(n, tau, delta)
    if kind == "C":
        return classify.enumerate_type_C(arg)
    if kind == "P":
        return classify.enumerate_type_P(arg)
    if kind == "D":
        return classify.enumerate_type_D() if arg is None \
            else classify.enumerate_type_D(arg)
    if kind == "E14":
        return classify.exclude_1_4()
    return classify.exclude_2_1()


def _check_decision(state: State, op: Op, out) -> bool:
    branch, n, tau, delta, p = op.args
    _, nu_prime, conic, t = out
    if op.sample:
        state.samples.append((n, tau, delta, out))
    if t is not None and t.status != "candidate":
        return False
    if branch == "C" and not (conic and t is not None and t.kind == "C"):
        return False
    if branch == "D":
        for row in state.golden_d:
            # Raw columns: n, i, tau, c1, c2, d, d', tau', i'; d = P here.
            if (row[0], row[2], row[5]) == (n, tau, p):
                return nu_prime == row[7]
    return True


def check_op(state: State, op: Op, out) -> bool:
    kind = op.kind
    if kind == "decision":
        return _check_decision(state, op, out)
    if kind == "C":
        return slope.tuples_to_csv(out[0]) == state.golden_c[op.args]
    if kind == "P":
        return slope.tuples_to_csv(out) == state.golden_p[op.args]
    if kind == "D":
        n_max = classify.DEFAULT_N_MAX if op.args is None else op.args
        want = [row for row in state.golden_d if row[0] <= n_max]
        return classify.type_d_raw_table(out) == want
    if kind == "E14":
        w = out.witness
        return (out.rule == "schwarzenberger" and w["odd"] is True
                and w["monomials"] == (-110, -36, -10, -2))
    w = out.witness
    return (out.rule == "degree_contradiction" and w["d_z"] == 1
            and w["m"] == Fraction(4, 3) and w["degrees"] == (18, 16))


def final_checks(state: State, tally: common.Tally) -> None:
    """mpmath at 60 digits on the sampled decisions."""
    from oracles import ThresholdOracle
    oracle = ThresholdOracle()
    for n, tau, delta, (below, nu_prime, conic, _) in state.samples:
        want_below, want_conic, want_nu = oracle.decide(n, Fraction(tau), delta)
        got = (below, conic, nu_prime or 0)
        for g, w in zip(got, (want_below, want_conic, want_nu)):
            if w is not None and g != w:
                tally.fail(f"decision n={n} tau={tau} delta={delta}: "
                           f"{got} against mpmath "
                           f"{(want_below, want_conic, want_nu)}")
                break

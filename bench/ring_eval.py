"""ring-eval workload: expressions and raw polynomials in ring contexts,
in process.

The contexts are the five shipped ones and seeded synthetic ones with n
from 2 to 14, all read with chow.loads_context.  The ops mix five uses of
chow and expr: long flat sums (mostly parsing), products of powers of
linear forms to top degree (mostly multiplication), powers beyond the
nilpotency bound, raw polynomials through reduce, and basis changes.
chow and expr do all the work and exact, slope and classify none; the
mix shows a change that speeds one use at another's cost.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from fanocalc import chow, expr

import common

GEN_NAMES = (("L", "H"), ("G1", "G2"), ("u", "v"))
SYNTHETIC_N = tuple(range(2, 15)) * 3
DECK = (("flat", 12), ("product", 12), ("power", 6), ("raw", 6), ("basis", 4))
SAMPLED_DECKS = 6
SAMPLES_PER_DECK = 4

Ctx = namedtuple("Ctx", "ring bindings")
Op = namedtuple("Op", "kind ctx text spec sample")


class State:
    def __init__(self, contexts):
        self.contexts = contexts
        self.samples = []
        self.decks = 0


def ftext(x: Fraction) -> str:
    """A rational as fanocalc prints it: "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def synthetic_context_text(rng: random.Random, n: int) -> str:
    g1, g2 = rng.choice(GEN_NAMES)
    rel_a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    rel_b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
    return (f"n={n}\ngen_names={g1},{g2}\nrel_a={ftext(rel_a)}\n"
            f"rel_b={ftext(rel_b)}\ndegree_s={rng.randint(1, 40)}\n")


def bindings(ring: chow.RingCtx) -> dict:
    """Generators, the canonical class K = -2*G1 + rel_a*G2 and the
    discriminant D = rel_a^2 + 4*rel_b, as the eval command binds them."""
    g1, g2 = ring.gen_names
    return {g1: ring.gen1, g2: ring.gen2,
            "K": ring.gen1.scale(-2) + ring.gen2.scale(ring.rel_a),
            "D": ring.rel_a ** 2 + 4 * ring.rel_b}


def setup(seed: int) -> State:
    rng = random.Random(f"{seed}-contexts")
    texts = [(common.CONTEXTS / f"{name}.ctx").read_text()
             for name in common.SHIPPED_CONTEXTS]
    texts += [synthetic_context_text(rng, n) for n in SYNTHETIC_N]
    rings = [chow.loads_context(text) for text in texts]
    return State([Ctx(r, bindings(r)) for r in rings])


def prepare_checks(state: State) -> None:
    pass


def _coeff(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _small(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3, 4))


def _monomial(g1: str, g2: str, i: int, j: int) -> str:
    parts = [f"{g}^{e}" if e > 1 else g for g, e in ((g1, i), (g2, j)) if e]
    return "*".join(parts)


def _signed_sum(pieces) -> str:
    """Join (coefficient, monomial text) pairs as 'a*m1 - b*m2 + ...'."""
    out = []
    for c, mono in pieces:
        body = ftext(abs(c)) + (f"*{mono}" if mono else "")
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(out)


def _linear_text(c, a, b, g1, g2) -> str:
    return "(" + _signed_sum([p for p in ((c, ""), (a, g1), (b, g2))
                              if p[0]]) + ")"


def make_op(kind: str, ctx_ix: int, ctx: Ctx, rng: random.Random,
             sample: bool) -> Op:
    """One seeded op of `kind` in context number `ctx_ix`."""
    ring = ctx.ring
    n = ring.n
    g1, g2 = ring.gen_names
    if kind == "flat":
        terms = []
        for _ in range(rng.randint(20, 60)):
            i = rng.randint(0, 3)
            terms.append((_coeff(rng), i, rng.randint(0, 3 - i)))
        text = _signed_sum([(c, _monomial(g1, g2, i, j)) for c, i, j in terms])
        return Op(kind, ctx_ix, text, ("flat", terms), sample)
    if kind == "product":
        parts = rng.randint(2, min(4, n + 1))
        cuts = sorted(rng.sample(range(1, n + 1), parts - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [n + 1])]
        factors, texts = [], []
        for e in exps:
            if rng.random() < 0.2:
                factors.append((Fraction(-2), ring.rel_a, e))
                texts.append(f"K^{e}")
            else:
                a, b = _small(rng), _small(rng)
                factors.append((Fraction(a), Fraction(b), e))
                texts.append(f"{_linear_text(0, a, b, g1, g2)}^{e}")
        return Op(kind, ctx_ix, "*".join(texts), ("product", factors), sample)
    if kind == "power":
        c, a, b = _coeff(rng), _small(rng), _small(rng)
        k = rng.randint(n + 2, 3 * (n + 1))
        text = f"{_linear_text(c, a, b, g1, g2)}^{k}"
        return Op(kind, ctx_ix, text, ("power", c, a, b, k), sample)
    if kind == "raw":
        raw = {}
        for _ in range(rng.randint(2, 4)):
            i = rng.randint(2, n + 1)
            # One degree above the top now and then, to be truncated.
            j = rng.randint(0, n + 1 - i) + (rng.random() < 0.1)
            raw[(i, j)] = _coeff(rng)
        via = rng.choice(("reduce", "element"))
        return Op(kind, ctx_ix, via, ("raw", raw), sample)
    # Basis change along an upper-triangular map with positive diagonal,
    # which keeps the new degree functional positive.
    m = chow.BasisMap(((Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                        Fraction(rng.randint(-2, 2))),
                       (Fraction(0), Fraction(rng.randint(1, 3), rng.randint(1, 2)))))
    elem = ring.element({(1, n): _coeff(rng), (2, n - 1): _coeff(rng)})
    return Op(kind, ctx_ix, None, (m, elem), False)


def make_deck(state: State, rng: random.Random):
    kinds = [kind for kind, count in DECK for _ in range(count)]
    sampled = set()
    if state.decks < SAMPLED_DECKS:
        eligible = [k for k, kind in enumerate(kinds) if kind != "basis"]
        sampled = set(rng.sample(eligible, SAMPLES_PER_DECK))
    state.decks += 1
    deck = []
    for k, kind in enumerate(kinds):
        ix = rng.randrange(len(state.contexts))
        deck.append(make_op(kind, ix, state.contexts[ix], rng, k in sampled))
    rng.shuffle(deck)
    return deck


def run_op(state: State, op: Op):
    ctx = state.contexts[op.ctx]
    if op.kind == "raw":
        raw = op.spec[1]
        return chow.reduce(raw, ctx.ring) if op.text == "reduce" \
            else ctx.ring.element(raw)
    if op.kind == "basis":
        m, elem = op.spec
        derived = chow.derived_context(ctx.ring, m)
        return derived, chow.convert_element(elem, m, derived)
    return expr.evaluate_text(op.text, ctx.ring, ctx.bindings)


def _normal(elem, n: int) -> bool:
    return all(i <= 1 and j <= n and i + j <= n + 1 for i, j in elem.coeffs)


def check_op(state: State, op: Op, out) -> bool:
    ring = state.contexts[op.ctx].ring
    if op.sample:
        state.samples.append((op, out))
    if op.kind == "basis":
        m, elem = op.spec
        derived, converted = out
        back = chow.convert_element(converted, m.inverse(), ring)
        return back == elem and chow.intersection_degree(converted) \
            == chow.intersection_degree(elem)
    if op.kind == "raw":
        return _normal(out, ring.n)
    if op.kind == "product":
        # A product of top degree can vanish; then it has no degree.
        return (out.degree is None) == out.element.is_zero() \
            and _normal(out.element, ring.n)
    return _normal(out.element, ring.n)


def final_checks(state: State, tally: common.Tally) -> None:
    """sympy on the sampled ops, and K^2 = D*H^2 in every context."""
    from oracles import RingOracle
    oracle = RingOracle()
    for op, out in state.samples:
        ring = state.contexts[op.ctx].ring
        want = oracle.normal_form(oracle.build(op.spec), ring.n,
                                  ring.rel_a, ring.rel_b)
        got = out.coeffs if op.kind == "raw" else out.element.coeffs
        if got != want:
            tally.fail(f"{op.kind} {op.text!r} in context {op.ctx}: "
                       f"{got} against sympy {want}")
        elif op.kind == "product" and out.degree != (oracle.degree(
                want, ring.n, ring.degree_s) if want else None):
            tally.fail(f"degree of {op.text!r} in context {op.ctx}")
    for k, ctx in enumerate(state.contexts):
        g2 = ctx.ring.gen_names[1]
        if not expr.evaluate_text(f"K^2 - D*{g2}^2", ctx.ring,
                                  ctx.bindings).element.is_zero():
            tally.fail(f"K^2 != D*{g2}^2 in context {k}")

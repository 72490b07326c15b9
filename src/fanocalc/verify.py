"""Named self-checks covering the invariants of every module.

This is the one property suite: a new property is one @check function.
Each check is a pure function of a seeded random.Random, named once by
its @check decorator.  It raises CheckFailed with the detail of its first
failure, and may return a note when it passes; any other exception it
raises is reported as a failure named by its type.  run_all executes the
checks in the order they are defined with the fixed SEED and builds one
CheckResult for each, so the verify command is deterministic; the test
suite runs every check on ten seeds (tests/test_verify.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import chow, classify, exact, expr, slope

SEED = 20260824

# Conic-case table rows: (n, tau, tau', Delta, c1', Y.f, deg X, deg X').
CONIC_ROWS = (
    (2, 2, 1, Fraction(-12), Fraction(-3), Fraction(1), 1, 1),
    (3, 1, 2, Fraction(-1), Fraction(-4), Fraction(0), 4, 1),
    (3, 2, 1, Fraction(-4), Fraction(-2), Fraction(0), 2, 2),
    (5, 1, 3, Fraction(-1, 3), Fraction(-6), Fraction(0), 36, 2),
    (5, 3, 1, Fraction(-3), Fraction(-2), Fraction(0), 4, 18),
)

# Blow-down-case raw rows: (n, tau, tau', Delta, c1, d, d').
BLOWDOWN_ROWS = (
    (2, 2, 1, Fraction(-4), 0, 1, 2),
    (3, 1, 2, Fraction(-1, 3), -1, 3, 1),
    (4, 1, 3, Fraction(-1, 3), -1, 3, 1),
    (4, 3, 1, Fraction(-3), -1, 1, 3),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class CheckFailed(Exception):
    """Raised by a check; its message is the detail of the failure."""


Check = Callable[[random.Random], Optional[str]]
CHECKS: Tuple[Check, ...] = ()  # every @check function, in source order


def check(name: str) -> Callable[[Check], Check]:
    """Append the decorated function to CHECKS, reported as `name`."""
    def register(fn: Check) -> Check:
        global CHECKS
        fn.check_name = name
        CHECKS += (fn,)
        return fn
    return register


def _rand_frac(rng: random.Random, bound: int = 6) -> Fraction:
    """Any p/q in [-bound, bound] with q <= 6."""
    q = rng.randint(1, 6)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def _rand_pos(rng: random.Random, bound: int) -> Fraction:
    """Any p/q in [1/6, bound] with q <= 6."""
    q = rng.randint(1, 6)
    return Fraction(rng.randint(1, bound * q), q)


def _rand_quad(rng: random.Random, delta: Fraction) -> exact.QuadNum:
    return exact.quad(_rand_frac(rng, 10), _rand_frac(rng, 10), delta)


def _rand_ctx(rng: random.Random) -> chow.RingCtx:
    n = rng.randint(2, 5)
    return chow.RingCtx(n, ("G1", "G2"), _rand_frac(rng), _rand_frac(rng),
                        _rand_pos(rng, 40))


def _rand_elem(rng: random.Random, ctx: chow.RingCtx) -> chow.RingElem:
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        coeffs[(rng.randint(0, 2), rng.randint(0, ctx.n))] = _rand_frac(rng)
    return ctx.element(coeffs)


@check("quad_pow multiplicative")
def check_quad_pow_multiplicative(rng: random.Random) -> Optional[str]:
    for _ in range(300):
        z = _rand_quad(rng, -_rand_pos(rng, 20))
        a, b = rng.randint(0, 12), rng.randint(0, 12)
        lhs = exact.quad_pow(z, a + b)
        rhs = exact.quad_pow(z, a) * exact.quad_pow(z, b)
        if lhs != rhs:
            raise CheckFailed(f"z={z} a={a} b={b}")


@check("norm multiplicative")
def check_norm_multiplicative(rng: random.Random) -> Optional[str]:
    """A^2 - D*B^2 of integral_form pairs is multiplicative under zmul."""
    for _ in range(300):
        delta = -_rand_pos(rng, 20)
        (a, b, _, d), (c, e, _, _) = [
            exact.integral_form(_rand_frac(rng, 10), _rand_frac(rng, 10),
                                delta) for _ in range(2)]
        x, y = exact.zmul((a, b), (c, e), d)
        if x * x - d * y * y != (a * a - d * b * b) * (c * c - d * e * e):
            raise CheckFailed(f"z={a}+{b}*sqrt({d}) w={c}+{e}*sqrt({d})")


@check("exact angle powers")
def check_exact_angle(rng: random.Random) -> Optional[str]:
    """(tau + sqrt(-tau^2 tan^2(pi/(n+1))))^(n+1) is a negative real."""
    for n in slope.ADMISSIBLE_N:
        tan_sq = exact.tan_sq_pi_over(n + 1)
        for tau in (1, 2, 3):
            delta = -Fraction(tau * tau) * tan_sq
            a, b, _, d = exact.integral_form(tau, 1, delta)
            x, y = exact.zpow((a, b), n + 1, d)
            if not (y == 0 and x < 0):
                raise CheckFailed(f"n={n} tau={tau}")


@check("arg_less_than antitone")
def check_arg_antitone(rng: random.Random) -> Optional[str]:
    for _ in range(200):
        z = exact.quad(_rand_pos(rng, 8), _rand_pos(rng, 8),
                       -_rand_pos(rng, 20))
        qs = [q for q in range(2, 10) if exact.arg_less_than(z, q)]
        for q in qs:
            for q2 in range(2, q):
                if not exact.arg_less_than(z, q2):
                    raise CheckFailed(f"z={z} q={q} q2={q2}")


@check("reduce idempotent/linear/multiplicative")
def check_reduce_properties(rng: random.Random) -> Optional[str]:
    for _ in range(300):
        ctx = _rand_ctx(rng)
        x, y = _rand_elem(rng, ctx), _rand_elem(rng, ctx)
        if chow.reduce(dict(x.coeffs), ctx) != x:
            raise CheckFailed(f"idempotent: {x!r}")
        s = _rand_frac(rng)
        if chow.reduce({m: c * s for m, c in x.coeffs.items()}, ctx) != x.scale(s):
            raise CheckFailed(f"linear: {x!r}")
        raw = {}
        for (i1, j1), c1 in x.coeffs.items():
            for (i2, j2), c2 in y.coeffs.items():
                m = (i1 + i2, j1 + j2)
                raw[m] = raw.get(m, Fraction(0)) + c1 * c2
        prod = x * y
        if chow.reduce(raw, ctx) != prod:
            raise CheckFailed(f"multiplicative: {x!r} * {y!r}")


@check("discriminant identity")
def check_chern_wu(rng: random.Random) -> Optional[str]:
    """(-2 G1 + c1 G2)^2 reduces to Delta G2^2 with Delta = c1^2 + 4 rel_b
    whenever rel_a = c1 and rel_b = -c2/d."""
    for _ in range(25):
        ctx = _rand_ctx(rng)
        c1 = ctx.rel_a
        delta = c1 * c1 + 4 * ctx.rel_b
        k = ctx.element({(1, 0): Fraction(-2), (0, 1): c1})
        expected = ctx.element({(0, 2): delta})
        if k * k != expected:
            raise CheckFailed(repr(ctx))


@check("basis roundtrip")
def check_basis_roundtrip(rng: random.Random) -> Optional[str]:
    cases = [(1, 4, 1, 1, 1), (1, 2, 1, 1, 1), (2, 1, 1, 1, 1),
             (3, 1, 1, 1, 2), (1, 1, 1, 1, 2)]
    for nu, nup, mu, mup, lam in cases:
        a = chow.basis_map_A(nu, nup, mu, mup, lam)
        if a @ a.inverse() != chow.BasisMap(((1, 0), (0, 1))):
            raise CheckFailed(f"A={a.entries}")
    # Element roundtrip between a context and a derived context, where
    # the conversion is an honest ring isomorphism.
    ctx, m = classify._w36_context(), classify._kprime_map_1_4()
    ctx_p = classify.kprime_context_1_4()
    for _ in range(25):
        e = _rand_elem(rng, ctx)
        back = chow.convert_element(
            chow.convert_element(e, m, ctx_p), m.inverse(), ctx)
        if back != e:
            raise CheckFailed(f"element roundtrip failed for {e!r}")


@check("cross-basis degrees")
def check_cross_basis_degrees(rng: random.Random) -> Optional[str]:
    """K'^a H'^(6-a) for a = 4..1, as exclude_1_4 expands them in the
    (L, H) ring and as (-1)^a (-K')^a H'^(6-a) in the derived (-K', H')
    ring, are the values below in both, and the functional is -395."""
    witness = classify.exclude_1_4().witness
    ctx_p = classify.kprime_context_1_4()
    mk, hp = ctx_p.gen1, ctx_p.gen2  # mk is -K'
    rings = (witness["monomials"], tuple(
        (-1) ** a * chow.intersection_degree(mk ** a * hp ** (6 - a))
        for a in range(4, 0, -1)))
    if any(got != (-110, -36, -10, -2) for got in rings):
        raise CheckFailed("K'^aH'^(6-a) for a = 4..1 in the (L, H) and "
                          "(-K', H') rings: " + "; ".join(
                              " ".join(map(str, got)) for got in rings))
    if witness["value"] != -395:
        raise CheckFailed(f"functional: {witness['value']}")


@check("codimension-two basis")
def check_b_matrix(rng: random.Random) -> Optional[str]:
    for _, nu, nup, delta, c1, d, dp in BLOWDOWN_ROWS:  # mu = b = 1
        _, report = chow.basis_map_B(nu, nup, 1, c1, delta, d, 1, dp)
        if not report.ok:
            raise CheckFailed(f"nu={nu} nu'={nup}: {report}")
    _, bad = chow.basis_map_B(2, 1, 1, 0, Fraction(-4), 1, 1, 3)
    if bad.ok:
        raise CheckFailed("perturbed d'=3 not flagged")


@check("context serialization")
def check_context_roundtrip(rng: random.Random) -> Optional[str]:
    for _ in range(20):
        ctx = _rand_ctx(rng)
        if chow.loads_context(chow.dumps_context(ctx)) != ctx:
            raise CheckFailed(repr(ctx))


@check("conic table thresholds")
def check_conic_rows(rng: random.Random) -> Optional[str]:
    for n, tau, taup, delta, c1p, ydf, dx, dxp in CONIC_ROWS:
        if not slope.check_rho_tau(n, tau, tau, delta):
            raise CheckFailed(f"n={n} tau={tau}")
        if slope.c1_prime(n, tau, taup) != c1p:
            raise CheckFailed(f"c1' mismatch at n={n} ({tau},{taup})")
        if slope.base_degree_ratio(n, tau) * dx != dxp:
            raise CheckFailed(f"degree ratio at n={n} ({tau},{taup})")
        if slope.y_dot_f(c1p, taup, 1) != ydf:
            raise CheckFailed(f"Y.f at n={n} ({tau},{taup})")


@check("second-contraction degrees")
def check_kprime_consistency(rng: random.Random) -> Optional[str]:
    for n, tau, taup, delta, c1p, ydf, dx, dxp in CONIC_ROWS:
        first, second = slope.kprime_degree_formulas(n, tau, taup, 1, 2 * dx)
        if not type(first) is type(second) is Fraction:
            raise CheckFailed(f"not a Fraction at n={n} ({tau},{taup})")
        if first != 2 * dxp:
            raise CheckFailed(f"-K'H'^n at n={n} ({tau},{taup})")
        if 2 * second / first != c1p:
            raise CheckFailed(f"c1' from K'^2 at n={n} ({tau},{taup})")


@check("blow-down table thresholds")
def check_blowdown_rows(rng: random.Random) -> Optional[str]:
    for n, tau, taup, delta, *_ in BLOWDOWN_ROWS:
        got = slope.solve_nu_prime(n, tau, delta, 1)
        if got != taup:
            raise CheckFailed(f"n={n} tau={tau}: nu'={got} != {taup}")
        rho = Fraction(tau) - Fraction(2, taup)
        if not slope.check_rho_tau(n, tau, rho, delta):
            raise CheckFailed(f"thresholds fail at n={n} tau={tau}")


@check("tuple validation reasons")
def check_tuple_rejections(rng: random.Random) -> Optional[str]:
    base = dict(n=2, kind="C", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=1,
                tau=2, tau_prime=1, rho=2, i=3, i_prime=3, c1=0,
                delta=Fraction(-12), c2_over_d=Fraction(3))
    bad = [
        ("kind", dict(base, kind="Z")),
        ("lambda_kind", dict(base, lam=2)),
        ("mu_mismatch", dict(base, mu_prime=2)),
        ("index_relation", dict(base, i=4)),
        ("delta_sign", dict(base, delta=Fraction(4), c2_over_d=Fraction(-1))),
        ("c2_discriminant", dict(base, c2_over_d=Fraction(5))),
        ("parity", dict(base, c1=-1, c2_over_d=Fraction(13, 4))),
        ("rho_value", dict(base, rho=Fraction(1))),
        ("rhotau", dict(base, delta=Fraction(-8), c2_over_d=Fraction(2))),
        ("c2_integrality", dict(base, d=3, delta=Fraction(-13, 3),
                                c2_over_d=Fraction(13, 12))),
    ]
    for reason, kwargs in bad:
        try:
            slope.InvariantTuple(**kwargs)
        except slope.InvariantError as err:
            if err.reason != reason:
                raise CheckFailed(f"wanted {reason}, got {err.reason}")
        else:
            raise CheckFailed(f"{reason} not rejected")


@check("classification tables")
def check_enumerations(rng: random.Random) -> Optional[str]:
    """Admissible C rows and raw D rows are CONIC_ROWS and BLOWDOWN_ROWS."""
    for n in sorted({row[0] for row in CONIC_ROWS}):
        rows, _ = classify.enumerate_type_C(n)
        got = [(t.n, t.tau, t.tau_prime, t.delta, t.c1_prime, t.y_dot_f,
                t.deg_x, t.deg_x_prime)
               for t in rows if t.status == "admissible"]
        if got != [row for row in CONIC_ROWS if row[0] == n]:
            raise CheckFailed(f"type C n={n} survivors: {got}")
    rows, _ = classify.enumerate_type_D()
    got = [(t.n, t.tau, t.tau_prime, t.delta, t.c1, t.d, t.d_prime)
           for t in rows]
    if got != list(BLOWDOWN_ROWS):
        raise CheckFailed(f"type D raw rows: {got}")
    survivors = [t for t in rows if t.status == "admissible"]
    if [t.label for t in survivors] != ["(D1)"]:
        raise CheckFailed(f"type D survivors: {survivors}")


@check("congruence scan")
def check_congruences(rng: random.Random) -> Optional[str]:
    m_max = 40
    got = {(t.alpha, t.z, t.m) for t in classify.enumerate_congruences(m_max)}
    brute = set()
    for m in range(2, m_max + 1):
        for z in range(1, m):
            t = m - z - 1
            if t > 0 and (m - 1) % t == 0 and (m - 1) // t >= 3 \
                    and 3 * z <= 2 * m:
                brute.add(((m - 1) // t, z, m))
    if got != brute:
        raise CheckFailed(f"diff: {got ^ brute}")


@check("deterministic output")
def check_determinism(rng: random.Random) -> Optional[str]:
    a = slope.tuples_to_csv(classify.enumerate_type_C(5)[0])
    b = slope.tuples_to_csv(classify.enumerate_type_C(5)[0])
    if a != b:
        raise CheckFailed("type C n=5")


_PRINT_CORPUS = (
    "-K + 2*H", "(L+H)^5", "K'^2 - 5*K'*H' + 7*H'^2", "1/2*L", "-(L*H)",
    "((L))", "3 - 4 - 5", "L*(H + L)^2", "-(-L)", "0",
)


def _rand_node(rng: random.Random, depth: int) -> expr.Node:
    if depth <= 0 or rng.randint(1, 10) <= 3:
        if rng.randint(0, 1):
            q = rng.randint(1, 9)
            return expr.Lit(Fraction(rng.randint(0, 9 * q), q))
        return expr.Sym(rng.choice(["L", "H", "K'", "x1", "t"]))
    kind = rng.choice(["neg", "add", "mul", "pow"])
    if kind == "neg":
        return expr.Neg(_rand_node(rng, depth - 1))
    if kind == "pow":
        return expr.Pow(_rand_node(rng, depth - 1), (rng.randint(0, 5),))
    pair = (_rand_node(rng, depth - 1), _rand_node(rng, depth - 1))
    return expr.Add(pair) if kind == "add" else expr.Mul(pair)


@check("parser round-trip")
def check_parser_roundtrip(rng: random.Random) -> Optional[str]:
    asts = [expr.parse_text(text) for text in _PRINT_CORPUS]
    for ast in asts + [_rand_node(rng, 4) for _ in range(150)]:
        printed = expr.to_text(ast)
        copy = expr.parse_text(printed)
        if copy != ast or hash(copy) != hash(ast):
            raise CheckFailed(printed)


@check("evaluator distributes")
def check_evaluator(rng: random.Random) -> Optional[str]:
    ctx = chow.RingCtx(3, ("L", "H"), Fraction(0), Fraction(-1), Fraction(2))
    bindings = {"L": ctx.gen1, "H": ctx.gen2, "K'": ctx.gen1.scale(-2),
                "x1": Fraction(1, 2), "t": Fraction(3)}
    for _ in range(50):  # the bindings cover every symbol _rand_node draws
        a = _rand_node(rng, 3)
        b = _rand_node(rng, 3)
        va = expr.evaluate(a, ctx, bindings).element
        vb = expr.evaluate(b, ctx, bindings).element
        vsum = expr.evaluate(expr.Add((a, b)), ctx, bindings).element
        if vsum != va + vb:
            raise CheckFailed(expr.to_text(expr.Add((a, b))))
        if chow.reduce(dict(vsum.coeffs), ctx) != vsum:
            raise CheckFailed("result not in normal form")


@check("perturbed thresholds fail")
def check_perturbed_thresholds(rng: random.Random) -> Optional[str]:
    """Every row the enumerators emit meets the threshold condition, and
    each perturbation of it (tau and rho one up or one down, or Delta
    doubled) breaks it."""
    rows, _ = classify.enumerate_type_D()
    for n in slope.ADMISSIBLE_N:
        rows += classify.enumerate_type_C(n)[0] + classify.enumerate_type_P(n)
    total = 0
    for n, tau, rho, delta in sorted({(t.n, t.tau, t.rho, t.delta)
                                      for t in rows}):
        if not slope.check_rho_tau(n, tau, rho, delta):
            raise CheckFailed(f"emitted row n={n} tau={tau} rho={rho} "
                              f"Delta={delta} fails")
        for t, r, d in ((tau + 1, rho + 1, delta), (tau - 1, rho - 1, delta),
                        (tau, rho, 2 * delta)):
            if t <= 0:
                continue
            total += 1
            if slope.check_rho_tau(n, t, r, d):
                raise CheckFailed(f"perturbed n={n} tau={t} rho={r} "
                                  f"Delta={d} passes")
    return f"{total}/{total} perturbations rejected"


def run_all(seed: int = SEED) -> List[CheckResult]:
    results = []
    for fn in CHECKS:
        try:
            note = fn(random.Random(seed))
        except Exception as err:
            # Any other exception, such as an AssertionError raised by
            # an enumerator or a dossier the check calls, is a failure too.
            detail = str(err) if isinstance(err, CheckFailed) \
                else f"{type(err).__name__}: {err}"
            results.append(CheckResult(fn.check_name, False, detail))
        else:
            results.append(CheckResult(fn.check_name, True, note or ""))
    return results

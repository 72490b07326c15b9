"""Finite enumerators and exclusion scripts for the classification.

Three shapes of second contraction are enumerated: a second projective
bundle structure (kind P), a blow-down along a codimension-two center
(kind D), and a conic bundle (kind C).  Each enumerator generates every
candidate allowed by the exact threshold arithmetic, then applies
realizability filters against the curated manifold dataset; candidates
killed by a nontrivial argument carry an exclusion report with its exact
witness values.  Kinds C and D return the pair (rows, reports).  The
congruence enumerator lives in `families` and is re-exported here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import dataset, exact, slope
# The benchmark and verify reach enumerate_congruences through classify.
from .families import enumerate_congruences  # noqa: F401
from .slope import InvariantTuple

if TYPE_CHECKING:
    from . import chow

# Labels of the admissible pairs, in the order of the final statement.
_P_NAMES = {
    2: (("P2", "P2"), "(P1)"),
    3: (("P3", "Q3"), "(P2)/(P3)"),
    5: (("Q5", "K(G2)"), "(P4)/(P5)"),
}

DEFAULT_N_MAX = 6
# Printed in the type D header; no option sets it.  Every solvable tau'
# of type D is at most 3, as the unbounded scan in tests/test_classify.py
# checks up to n = 50.
TAU_PRIME_MAX = 8


@dataclass(frozen=True)
class ExclusionReport:
    rule: str
    witness: Dict[str, object]
    citation: str
    candidate: Optional[InvariantTuple] = None


# The (rows, reports) of kinds C and D: each report's candidate is an
# excluded row, except a type D no_manifold candidate, which has no row.
Enumerated = Tuple[List[InvariantTuple], List[ExclusionReport]]


def _exclude(cand: Dict[str, object], rule: str, witness: Dict[str, object],
             citation: str) -> ExclusionReport:
    """The report excluding the candidate fields `cand` by `rule`."""
    row = InvariantTuple(**cand, status="excluded", reason=rule)
    return ExclusionReport(rule, witness, citation, row)


@dataclass(frozen=True)
class FinAnalysis:
    """Outcome of the branch where the blown-down locus is a point count
    zero locus of the bundle itself (finite fibers)."""

    vanishing_tau_prime: int
    rational_cases: Dict[int, Fraction]
    outcomes: Tuple[Tuple[str, str], ...]


def _sort_key(t: InvariantTuple):
    return (t.n, t.tau, t.tau_prime)


def _candidate(n: int, kind: str, tau: int, tau_prime: int,
               delta: Fraction, **fields) -> Dict[str, object]:
    """The fields of the candidate of `kind` that the relations fix:
    mu = mu' = 1, so nu = tau and nu' = tau'; i = tau + lambda and
    i' = tau' + 2; c1 normalized up to a twist (0 for even tau, -1 for
    odd) and c2/d = (c1^2 - Delta)/4.  rho is tau unless given."""
    lam = 2 if kind == "P" else 1
    c1 = 0 if tau % 2 == 0 else -1
    fields.setdefault("rho", tau)
    return dict(
        n=n, kind=kind, lam=lam, mu=1, mu_prime=1, nu=tau, nu_prime=tau_prime,
        tau=tau, tau_prime=tau_prime, i=tau + lam, i_prime=tau_prime + 2,
        c1=c1, delta=delta, c2_over_d=Fraction(c1 * c1 - delta, 4), **fields)


def _manifolds() -> Dict[Tuple[int, int], List[dataset.FanoEntry]]:
    """The dataset's entries by (dim, index) in file order, [] for none."""
    by_dim_index = defaultdict(list)
    for e in dataset.load_dataset():
        by_dim_index[e.dim, e.index].append(e)
    return by_dim_index


def _cyclic_h4(entry: dataset.FanoEntry) -> bool:
    """Fourth Betti rank one, or blank: the dataset's cyclic H^4."""
    return entry.b4_rank in (None, 1)


def _only(entries: Sequence[dataset.FanoEntry], attr: str):
    """`attr` of the one entry in `entries`; None unless there is one."""
    return getattr(entries[0], attr) if len(entries) == 1 else None


# -- kind P ------------------------------------------------------------------

def enumerate_type_P(n: int) -> List[InvariantTuple]:
    """Both projections are projective bundles; the product nu*nu' is
    pinned to 4*cos^2(pi/(n+1)), a positive integer only for n in
    slope.ADMISSIBLE_N.  There it is 1, 2 or 3, a prime or one, so the
    only factorization with nu >= nu' is nu = product, nu' = 1: one row,
    labelled by _P_NAMES, whose manifolds sit at (n, i) and (n, i')."""
    slope.require_admissible(n)
    manifolds = _manifolds()
    nu = int(4 * exact.cos_sq_pi_over(n + 1))
    (name, name_prime), label = _P_NAMES[n]
    cand = _candidate(n, "P", nu, 1,
                      -Fraction(nu) ** 2 * exact.tan_sq_pi_over(n + 1))
    x = [e for e in manifolds[n, cand["i"]] if e.name == name]
    xp = [e for e in manifolds[n, cand["i_prime"]] if e.name == name_prime]
    return [InvariantTuple(
        **cand, d=_only(x, "degree"), deg_x=_only(x, "degree"),
        deg_x_prime=_only(xp, "degree"), name_x=name, name_x_prime=name_prime,
        label=label, status="admissible")]


# -- kind D ------------------------------------------------------------------

_CITE_B4 = ("the fourth Betti number of the matched manifold (two for a "
            "four-dimensional quadric) is not one, so H^4 is not cyclic")
_CITE_KG2H = ("an index-two fourfold of degree 18 is a hyperplane section of "
              "the Pluecker-embedded G2 fivefold, which carries no rank-two "
              "bundle with these invariants")
_CITE_NO_MANIFOLD = ("no Fano manifold with cyclic cohomology realizes the "
                     "forced dimension and index")


@cache
def _type_d_candidates() -> Tuple[Tuple[int, int, int, Fraction, int], ...]:
    """All (n, tau, P, Delta, tau') with P = B21*d, tau*P < 4 and a
    solvable tau', over every n; computed once per process.

    arg(tau + sqrt(Delta)) < pi/(n+1) fails for every n past the first
    that fails it (arg_less_than is antitone in q), so each scan stops
    there, at n = 5 at the latest."""
    out = []
    for tau in (1, 2, 3):
        for p in (1, 2, 3):
            if tau * p >= 4:
                continue
            delta = Fraction(tau * tau) - Fraction(4 * tau, p)
            z = exact.quad(tau, 1, delta)
            n = 2
            while exact.arg_less_than(z, n + 1):
                tau_prime = slope.solve_nu_prime(n, tau, delta, 1)
                if tau_prime is not None:
                    out.append((n, tau, p, delta, tau_prime))
                n += 1
    return tuple(out)


def enumerate_type_D(n_max: int = DEFAULT_N_MAX) -> Enumerated:
    """Second contraction blows down a divisor to a codimension-two
    center; candidates are cut out by the argument bound and the
    integrality of the codimension-two basis change."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    manifolds = _manifolds()
    rows: List[InvariantTuple] = []
    reports: List[ExclusionReport] = []
    for n, tau, p, delta, tau_prime in _type_d_candidates():
        if n > n_max:
            continue
        # d' = tau and d = P, from B21 = tau/d' = 1 and P = B21*d.
        cand = _candidate(n, "D", tau, tau_prime, delta,
                          rho=Fraction(tau * tau_prime - 2, tau_prime),
                          d=p, d_prime=tau)
        x, xp = manifolds[n, cand["i"]], manifolds[n + 1, cand["i_prime"]]
        # The first rule that applies decides; a candidate that reaches
        # the raw table meets the geometric filters.
        if not x or not xp:
            dim, index = (n, cand["i"]) if not x else (n + 1, cand["i_prime"])
            rep = _exclude(cand, "no_manifold", {"dim": dim, "index": index},
                           _CITE_NO_MANIFOLD)
        elif all(e.name == "K(G2)_H" for e in x):
            rep = _exclude(cand, "hyperplane_section_KG2",
                           {"dim": n, "index": cand["i"],
                            "degree": x[0].degree}, _CITE_KG2H)
        elif not any(map(_cyclic_h4, x)):
            rep = _exclude(cand, "b4_quadric",
                           {"side": "X", "b4_rank": x[0].b4_rank}, _CITE_B4)
        elif not any(map(_cyclic_h4, xp)):
            rep = _exclude(cand, "b4_quadric",
                           {"side": "X'", "b4_rank": xp[0].b4_rank}, _CITE_B4)
        else:
            rows.append(InvariantTuple(
                **cand, status="admissible", label="(D1)",
                name_x=_only(x, "name"), name_x_prime=_only(xp, "name"),
                deg_x=_only(x, "degree"), deg_x_prime=_only(xp, "degree"),
            ))
            continue
        reports.append(rep)
        if rep.rule != "no_manifold":  # reported, not a row of the table
            rows.append(rep.candidate)
    rows.sort(key=_sort_key)
    return rows, reports


def type_d_raw_table(result: Enumerated) -> List[Tuple[int, ...]]:
    """Raw table (n, i, tau, c1, c2, d, d', tau', i') of type D rows.
    Each carries its d, so its c2 passed the c2_integrality rule."""
    return [(t.n, t.i, int(t.tau), t.c1, int(t.c2), t.d, t.d_prime,
             int(t.tau_prime), t.i_prime) for t in result[0]]


def type_D_fin_analysis() -> FinAnalysis:
    """Branch where the exceptional locus maps with finite fibers.

    The top Chern class of the restricted bundle has to vanish, which
    factors as a product with factors ((tau'-2j) sqrt(D) + (tau'-2))/2
    over j; a factor vanishes iff both rational coefficients vanish, so
    only when tau' = 2 and j = 1.  With tau' = 2 the thresholds force
    sqrt(-D) = tan(pi/2n), rational only for n = 2 (D = -1) and n = 3
    (D = -1/3).  The branch is closed in n, so no bound of the blow-down
    scan applies to it.
    """
    # n = 3 is the largest n with 2n in exact's Niven table.
    rational_cases = {n: -exact.tan_sq_pi_over(2 * n) for n in (2, 3)}
    outcomes = (
        ("(D2)", "n=2: second Veronese surface in G(1,3); the blown-down "
                 "family is the secant congruence of a twisted cubic"),
        ("(D3)", "n=3: quintic del Pezzo threefold in G(1,4); the "
                 "blown-down family is the trisecant congruence of a "
                 "projected Veronese surface"),
    )
    return FinAnalysis(vanishing_tau_prime=2, rational_cases=rational_cases,
                       outcomes=outcomes)


# -- kind C ------------------------------------------------------------------

_CITE_R_EFF = ("the degeneracy divisor of the conic fibration is effective, "
               "so its pushforward cannot be a negative multiple of the "
               "ample generator")
_CITE_PUSH_LIST = ("the pushforward of the degeneracy divisor is effective, "
                   "ruling out the negative values; the zero value forces "
                   "the bundle to split uniformly, which is impossible, and "
                   "the degree-five target has non-cyclic middle cohomology")
_CITE_MUKAI = ("a linear section argument bounds the auxiliary degree by "
               "22, leaving a non-integer multiplicity")
_CITE_SCHWARZ = ("Chern classes of a rank-three bundle on projective "
                 "five-space satisfy c1*c2 = c3 (mod 2)")


# chow is imported inside the functions below, which serve the n=5
# dossiers, so that every other enumeration runs without compiling it.

def _w36_context() -> chow.RingCtx:
    from . import chow
    return chow.RingCtx(5, ("L", "H"), Fraction(-1), Fraction(-1, 3),
                        Fraction(18))


def _kprime_map_1_4() -> chow.BasisMap:
    """(L, H) in terms of (-K', H'): L = -(-K') - 3H', H = (-K') + 4H'."""
    from . import chow
    return chow.BasisMap(((Fraction(-1), Fraction(-3)),
                          (Fraction(1), Fraction(4))))


def kprime_context_1_4() -> chow.RingCtx:
    """The (-K', H') context of the tau = 1, tau' = 4 conic candidate,
    derived from the (L, H) context with L^2 = -LH - H^2/3, LH^5 = 18."""
    from . import chow
    return chow.derived_context(_w36_context(), _kprime_map_1_4(),
                                ("-K'", "H'"))


def _exclude_1_2() -> ExclusionReport:
    """Degeneracy-divisor pushforwards of the tau = 1, tau' = 2 candidate
    at n = 5, one for each degree-matched target."""
    values = {deg: slope.pushforward_R(1, 2, coeff)
              for deg, coeff in sorted(dataset.load_c2_pushforward().items())}
    return ExclusionReport(
        rule="pushforward_list",
        witness={"values": values, "zero_case_degree": 4},
        citation=_CITE_PUSH_LIST,
    )


@cache
def _monomials_1_4() -> Tuple[Fraction, ...]:
    """K'^a H'^(6-a), a = 4, 3, 2, 1, in the (L, H) ring; once a process."""
    from . import chow
    # The rows of the inverse map write -K' and H' in (L, H).
    (a, b), (c, d) = _kprime_map_1_4().inverse().entries
    ctx = _w36_context()
    kp = ctx.element({(1, 0): -a, (0, 1): -b})
    hp = ctx.element({(1, 0): c, (0, 1): d})
    return tuple(chow.intersection_degree(kp ** a * hp ** (6 - a))
                 for a in (4, 3, 2, 1))


def exclude_1_4() -> ExclusionReport:
    """Parity obstruction for the tau = 1, tau' = 4 candidate at n = 5.

    The would-be rank-three bundle on projective five-space has even
    first Chern class but odd third-Chern-class functional, violating
    the parity condition.  The degrees K'^a H'^(6-a) are expanded in the
    (L, H) ring; verify's cross-basis check recomputes them in the
    derived (-K', H') ring of kprime_context_1_4.
    """
    c1p = Fraction(c1_prime_int(5, 1, 4))
    monomials = _monomials_1_4()
    # K'^4H'^2/2 - c1'K'^3H'^3/4 + c1'^2K'^2H'^4/8 - c1'^3K'H'^5/16.
    value = sum(m * (-c1p / 2) ** k for k, m in enumerate(monomials)) / 2
    odd = value.denominator == 1 and value.numerator % 2 == 1
    return ExclusionReport(
        rule="schwarzenberger",
        witness={"value": value, "odd": odd, "c1_prime": c1p,
                 "monomials": monomials},
        citation=_CITE_SCHWARZ,
    )


def exclude_2_1() -> ExclusionReport:
    """Degree contradiction for the tau = 2, tau' = 1 candidate at n = 5.

    Degree matching forces the pair of degrees (18, 16).  The candidate
    center Z would be a divisor of degree d_Z in a seven-dimensional
    cone; the degree bound 22 forces d_Z = 1, and comparing 18 = m*H^7
    with m^2*H^7 = 24 yields the non-integer multiplicity m = 4/3.
    """
    deg_x, deg_xp = Fraction(18), Fraction(16)
    bound = 22
    # d_Z^3 is bounded by 22 and d_Z^2 must divide the degree 18.
    d_z = max(k for k in range(1, bound + 1)
              if k ** 3 <= bound and 18 % (k * k) == 0)
    # m * H_Z^7 = 18, and the square of the tautological curve class gives
    # m^2 * H_Z^7 = (c2/d + c1 + 1) * 18 with c2/d = 1/3 and c1 = 0
    # (Delta = -4/3), so m = c2/d + c1 + 1.
    m = Fraction(1, 3) + 0 + 1
    return ExclusionReport(
        rule="degree_contradiction",
        witness={"degrees": (deg_x, deg_xp), "bound": bound, "d_z": d_z,
                 "m": m},
        citation=_CITE_MUKAI,
    )


# The n = 5 dossiers by (n, tau, tau').  Each function is named, not held,
# so that a wrapper set on the module attribute also sees these calls.
_DOSSIERS = {(5, 1, 2): "_exclude_1_2", (5, 2, 1): "exclude_2_1",
             (5, 1, 4): "exclude_1_4"}


def c1_prime_int(n: int, tau: int, tau_prime: int) -> Optional[int]:
    """slope.c1_prime on ints: 8p/(q*tau) - 4*tau', p/q = cos^2, or None."""
    slope.require_admissible(n)
    if {type(exact.rational(t)) for t in (tau, tau_prime)} != {int}:
        raise TypeError("tau and tau' must be ints")
    if tau == 0:
        raise ValueError("tau must be nonzero")
    cos_sq = exact.cos_sq_pi_over(n + 1)
    k, rest = divmod(8 * cos_sq.numerator, cos_sq.denominator * tau)
    return None if rest else k - 4 * tau_prime


def _degree_matches(x, xp, ratio: Fraction):
    """The pairs (X, X') of `x` and `xp` with deg X' = ratio * deg X."""
    num, den = ratio.numerator, ratio.denominator
    return [(ex, exp) for ex in x for exp in xp
            if exp.degree * den == num * ex.degree]


def enumerate_type_C(n: int) -> Enumerated:
    """Second contraction is a conic bundle over a manifold of the same
    dimension; only n in slope.ADMISSIBLE_N admits the required rational
    angle."""
    slope.require_admissible(n)
    manifolds = _manifolds()
    tan_sq = exact.tan_sq_pi_over(n + 1)
    rows: List[InvariantTuple] = []
    reports: List[ExclusionReport] = []
    for tau in range(1, n + 1):
        ratio = slope.base_degree_ratio(n, tau)
        for tau_prime in range(1, n):
            c1p = c1_prime_int(n, tau, tau_prime)
            if c1p is None:
                continue
            cand = _candidate(n, "C", tau, tau_prime,
                              -Fraction(tau * tau) * tan_sq, c1_prime=c1p,
                              y_dot_f=slope.y_dot_f(c1p, tau_prime, 1))
            # Effectivity of the degeneracy divisor: its pushforward is
            # -c1' times the ample generator.  Then the n = 5 dossiers.
            rep = None
            if c1p > 0:
                rep = _exclude(cand, "R_not_effective",
                               {"pushforward": -c1p}, _CITE_R_EFF)
            elif (n, tau, tau_prime) in _DOSSIERS:
                dossier = globals()[_DOSSIERS[n, tau, tau_prime]]()
                rep = _exclude(cand, dossier.rule, dossier.witness,
                               dossier.citation)
            if rep is not None:
                reports.append(rep)
                rows.append(rep.candidate)
                continue
            x = [e for e in manifolds[n, cand["i"]] if _cyclic_h4(e)]
            xp = [e for e in manifolds[n, cand["i_prime"]] if _cyclic_h4(e)]
            matched = _degree_matches(x, xp, ratio)
            if not matched:
                continue  # unrealizable numerics; dropped silently
            ex, exp = matched[0]
            if (cand["c2_over_d"] * ex.degree).denominator != 1:
                continue  # c2 = (c2/d)*d is not an integer
            rows.append(InvariantTuple(
                **cand, status="admissible", d=ex.degree,
                deg_x=ex.degree, deg_x_prime=exp.degree,
                name_x=ex.name, name_x_prime=exp.name,
            ))
    rows.sort(key=_sort_key)
    return rows, reports

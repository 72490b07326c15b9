import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fanocalc import chow, classify, dataset, exact, slope, verify
from fanocalc.slope import (InvariantError, InvariantTuple, base_degree_ratio,
                            c1_prime, check_rho_tau, pushforward_R,
                            solve_nu_prime, tuple_to_row, tuples_to_csv)
from quad_reference import (fraction_is_negative_real, fraction_mul,
                            fraction_pow)

F = Fraction
# The fields of InvariantTuple, in their declared order.
FIELDS = ("n", "kind", "lam", "mu", "mu_prime", "nu", "nu_prime", "tau",
          "tau_prime", "rho", "i", "i_prime", "c1", "delta", "c2_over_d",
          "deg_x", "deg_x_prime", "c1_prime", "y_dot_f", "d", "d_prime",
          "name_x", "name_x_prime", "label", "status", "reason")

fractional_taus = st.fractions(
    min_value=F(1, 7), max_value=8,
    max_denominator=7).filter(lambda x: x.denominator > 1)
fractional_deltas = st.fractions(
    min_value=-40, max_value=F(-1, 12),
    max_denominator=12).filter(lambda d: d.denominator > 1)


def fraction_check_rho_tau(n, tau, rho, delta):
    """Reference: check_rho_tau on Fraction triples, before the integer
    kernel."""
    return fraction_is_negative_real(fraction_mul(
        (rho, F(1), delta), fraction_pow((tau, F(1), delta), n)))


def fraction_solve_nu_prime(n, tau, delta, mu):
    """Reference: solve_nu_prime on Fraction triples, before the integer
    kernel."""
    b_n = fraction_pow((tau, F(1), delta), n)[1]
    b_n1 = fraction_pow((tau, F(1), delta), n + 1)[1]
    if b_n1 == 0:
        return None
    ratio = 2 * b_n / (mu * b_n1)
    if ratio.denominator != 1 or ratio <= 0:
        return None
    rho = tau - F(2, mu * int(ratio))
    return int(ratio) if fraction_check_rho_tau(n, tau, rho, delta) else None


# The rules of InvariantTuple in Fraction arithmetic, in the order and
# with the reason codes of slope.InvariantTuple, as they read before the
# rules became integer cross-products.
RATIONAL_FIELDS = ("nu", "nu_prime", "tau", "tau_prime", "rho", "delta",
                   "c2_over_d", "deg_x", "deg_x_prime", "c1_prime", "y_dot_f")
FIELD_DEFAULTS = dict(deg_x=None, deg_x_prime=None, c1_prime=None,
                      y_dot_f=None, d=None, d_prime=None)


def fraction_outcome(row):
    """Reference: what InvariantTuple(**row) gives, decided on Fractions:
    None when the row is accepted, else the reason of the first failing
    rule, or "ValueError: <message>" when check_rho_tau refuses it."""
    r = {**FIELD_DEFAULTS, **row}
    for f in RATIONAL_FIELDS:
        if r[f] is not None:
            r[f] = F(r[f])
    kind, lam, mu, mu_p = r["kind"], r["lam"], r["mu"], r["mu_prime"]
    tau, nu, nu_p, rho, delta = (r["tau"], r["nu"], r["nu_prime"], r["rho"],
                                 r["delta"])
    if kind not in ("P", "D", "C"):
        return "kind"
    if (kind == "P") != (lam == 2) or (kind != "P" and lam != 1):
        return "lambda_kind"
    if mu != mu_p:
        return "mu_mismatch"
    if kind in ("D", "C") and mu != 1:
        return "mu_one"
    if tau * mu != nu or r["tau_prime"] * mu_p != nu_p:
        return "tau_def"
    if r["i"] * mu - nu != lam or r["i_prime"] * mu_p - nu_p != 2:
        return "index_relation"
    if delta >= 0:
        return "delta_sign"
    if 4 * r["c2_over_d"] != r["c1"] ** 2 - delta:
        return "c2_discriminant"
    if kind != "P" and (r["c1"] - r["i"]) % 2 == 0:
        return "parity"
    if kind in ("P", "C") and rho != tau:
        return "rho_value"
    if kind == "D" and rho * mu * nu_p != nu * nu_p - 2:
        return "rho_value"
    if any(r[f] is not None and r[f] <= 0
           for f in ("d", "d_prime", "deg_x", "deg_x_prime")):
        return "degree_sign"
    if r["d"] is not None and (r["c2_over_d"] * r["d"]).denominator != 1:
        return "c2_integrality"
    if tau <= 0:
        return "ValueError: tau must be positive"
    if not fraction_check_rho_tau(r["n"], tau, rho, delta):
        return "rhotau"
    return None


def outcome(build):
    """What a call that builds an InvariantTuple gives, in the terms of
    fraction_outcome."""
    try:
        build()
    except InvariantError as err:
        return err.reason
    except ValueError as err:
        return f"ValueError: {err}"
    return None


TAN_SQ = {2: F(3), 3: F(1), 5: F(1, 3)}  # tan^2(pi/(n+1))


@st.composite
def valid_rows(draw):
    """A row that passes every rule: kind C or P on the angle pi/(n+1),
    or kind D on a blow-down solution of the Fraction reference."""
    kind = draw(st.sampled_from("PCD"))
    if kind == "D":
        n, tau, delta, nu_p = draw(st.sampled_from(BLOWDOWN_ROWS))
        mu, lam, rho = 1, 1, tau - F(2, nu_p)
    else:
        n = draw(st.sampled_from((2, 3, 5)))
        lam, mu = (2, draw(st.integers(1, 3))) if kind == "P" else (1, 1)
        # i = (nu + lam)/mu and i' = (nu' + 2)/mu' are integers.
        nu, nu_p = (draw(st.integers(1, 6).map(lambda k: k * mu - m)
                         .filter(lambda x: x > 0)) for m in (lam, 2))
        tau = rho = F(nu, mu)
        delta = -tau * tau * TAN_SQ[n]
    i = (tau * mu + lam) / mu
    # c1 - i odd for kinds C and D; any c1 for kind P.
    c1 = draw(st.integers(-3, 3).map(
        lambda k: k if kind == "P" else 2 * k + 1 + int(i)))
    c2_over_d = (c1 * c1 - delta) / 4
    return dict(n=n, kind=kind, lam=lam, mu=mu, mu_prime=mu,
                nu=tau * mu, nu_prime=nu_p, tau=tau, tau_prime=F(nu_p, mu),
                rho=rho, i=int(i), i_prime=(nu_p + 2) // mu, c1=c1,
                delta=delta, c2_over_d=c2_over_d,
                d=draw(st.sampled_from((None, c2_over_d.denominator))))


# (n, tau, delta, nu') with nu' from the Fraction reference, over the
# delta = tau^2 - 4*tau/p of the type D enumeration.
BLOWDOWN_ROWS = [
    (n, tau, delta, nu_p)
    for n in range(2, 9) for tau, p in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))
    for delta in [F(tau * tau) - F(4 * tau, p)]
    for nu_p in [fraction_solve_nu_prime(n, F(tau), delta, 1)]
    if nu_p is not None]


def rationals_in_any_form():
    """Rationals as an int, a Fraction, an integral Fraction built from a
    numerator and denominator that share a factor, and "p/q" text whose
    p and q share a factor."""
    values = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return values | st.integers(-6, 6) | st.builds(
        lambda v, k: F(v * k, k), st.integers(-6, 6), st.integers(1, 4)) | \
        st.builds(lambda v, k: f"{v.numerator * k}/{v.denominator * k}",
                  values, st.integers(2, 4))


SAMPLE_ROW = dict(n=2, kind="C", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=1,
                  tau=2, tau_prime=1, rho=2, i=3, i_prime=3, c1=0,
                  delta=F(-12), c2_over_d=F(3))
small_ints = st.integers(-3, 6)
one_change = st.one_of(
    st.just({}),
    st.builds(lambda k, v: {k: v}, st.sampled_from(RATIONAL_FIELDS[:7]),
              rationals_in_any_form()),
    st.builds(lambda k, v: {k: v}, st.sampled_from(
        ("lam", "mu", "mu_prime", "i", "i_prime", "c1", "d")), small_ints),
    st.builds(lambda v: {"n": v}, st.integers(0, 8)),
    st.builds(lambda v: {"kind": v}, st.sampled_from(("P", "D", "C", "X"))),
    # Zero or another mu on both sides, zero nu' with its tau'.
    st.builds(lambda v: {"mu": v, "mu_prime": v}, st.integers(0, 3)),
    st.builds(lambda v: {"nu_prime": v, "tau_prime": v}, st.integers(0, 3)),
)


@st.composite
def rows_and_changes(draw):
    """A valid row and a change to it: one field, or c1 or delta together
    with the c2/d they imply, so that the later rules are reached too."""
    row = draw(valid_rows())
    if draw(st.booleans()):
        return row, draw(one_change)
    c1, delta = row["c1"], row["delta"]
    if draw(st.booleans()):
        c1 = draw(small_ints)
    else:
        delta = F(draw(rationals_in_any_form()))
    return row, dict(c1=c1, delta=delta, c2_over_d=(c1 * c1 - delta) / 4)


@given(rows_and_changes())
@example((dict(n=2, kind="P", lam=2, mu=0, mu_prime=0, nu=1, nu_prime=1,
               tau=1, tau_prime=1, rho=1, i=3, i_prime=3, c1=0,
               delta=F(-3), c2_over_d=F(3, 4)), {}))
@example((dict(n=2, kind="D", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=1,
               tau=2, tau_prime=1, rho=0, i=3, i_prime=3, c1=0, delta=F(-4),
               c2_over_d=F(1)), {"nu_prime": 0, "tau_prime": 0}))
# A fractional nu or nu' with the numerator of its tau: tau_def needs the
# denominator of nu on its side of the cross-product.
@example((SAMPLE_ROW, {"nu": F(2, 3)}))
@example((SAMPLE_ROW, {"nu_prime": F(1, 2)}))
def test_rules_match_fraction_reference(row_and_changes):
    row, changes = row_and_changes
    changed = {**row, **changes}
    expected = fraction_outcome(changed)
    assert outcome(lambda: InvariantTuple(**changed)) == expected
    if fraction_outcome(row) is None:
        t = InvariantTuple(**row)
        assert outcome(lambda: t.with_status("admissible", **changes)) \
            == expected


def test_check_rho_tau_examples():
    assert check_rho_tau(2, 2, 2, -12)
    assert check_rho_tau(2, 2, 0, -4)
    assert not check_rho_tau(3, 1, 1, -3)


def test_check_rho_tau_rejects_bad_delta():
    with pytest.raises(ValueError):
        check_rho_tau(2, 2, 2, 1)
    with pytest.raises(ValueError):
        check_rho_tau(2, 0, 0, -1)


def as_str(x):
    return str(F(x))


@pytest.mark.parametrize("form", [int, F, as_str], ids=["int", "F", "str"])
@pytest.mark.parametrize("n, tau, rho, delta, mu", [
    (2, 2, 2, -12, 1), (2, 2, 0, -4, 1), (3, 1, 1, -3, 1), (4, 3, 1, -3, 1),
    (2, 1, 0, -1, 1), (5, 1, 1, -3, 2)])
def test_threshold_answers_do_not_depend_on_the_number_type(
        form, n, tau, rho, delta, mu):
    assert check_rho_tau(n, form(tau), form(rho), form(delta)) == \
        check_rho_tau(n, F(tau), F(rho), F(delta))
    assert solve_nu_prime(n, form(tau), form(delta), mu) == \
        solve_nu_prime(n, F(tau), F(delta), mu)


@pytest.mark.parametrize("form", [int, F, as_str], ids=["int", "F", "str"])
def test_threshold_errors_keep_their_messages(form):
    for delta in (0, 1):
        with pytest.raises(ValueError, match="^delta must be negative$"):
            check_rho_tau(2, form(2), form(2), form(delta))
        with pytest.raises(ValueError, match="^need delta < 0 and tau > 0$"):
            solve_nu_prime(2, form(2), form(delta), 1)
    for tau in (0, -1):
        with pytest.raises(ValueError, match="^tau must be positive$"):
            check_rho_tau(2, form(tau), form(2), form(-4))
        with pytest.raises(ValueError, match="^need delta < 0 and tau > 0$"):
            solve_nu_prime(2, form(tau), form(-4), 1)


@pytest.mark.parametrize("call", [
    lambda: check_rho_tau(2, 2.0, 2, -12),
    lambda: check_rho_tau(2, 2, 2.0, -12),
    lambda: check_rho_tau(2, 2, 2, -12.0),
    lambda: solve_nu_prime(2, 2.0, -4, 1),
    lambda: solve_nu_prime(2, 2, -4.0, 1),
    # A count of 0.0 runs no square-and-multiply step.
    lambda: check_rho_tau(0.0, 2, 2, -12),
    lambda: solve_nu_prime(0.0, 1, -3, 1),
    lambda: exact.quad_pow(exact.quad(1, 1, -3), 0.0),
    lambda: sample_tuple(tau=2.0),
    lambda: sample_tuple(delta=-12.0),
    lambda: sample_tuple(d=1, deg_x=1.0),
    lambda: c1_prime(5, 3.0, 1),
    lambda: c1_prime(5, 3, 1.0),
    lambda: base_degree_ratio(5, 2.0),
    lambda: slope.y_dot_f(-2.0, 1, 1),
    lambda: slope.y_dot_f(-2, 1.0, 1),
    lambda: pushforward_R(1, 2, 3.0),
    lambda: slope.kprime_degree_formulas(5, 1.0, 4, 1, 36),
    lambda: slope.kprime_degree_formulas(5, 1, 4, 1, 36.0),
    lambda: pushforward_R(1.5, 2, 8),
    lambda: pushforward_R(1, 2.0, 8),
    lambda: slope.require_admissible(5.0),
    lambda: c1_prime(5.0, 3, 1),
    lambda: base_degree_ratio(5.0, 2),
    lambda: slope.kprime_degree_formulas(5.0, 1, 3, 1, 72),
    lambda: slope.y_dot_f(-6, 3, 0.5),
    lambda: exact.tan_sq_pi_over(3.0),
    lambda: exact.cos_sq_pi_over(3.0),
    # Each int field of a row, as the float of its value.
    *(lambda f=f: sample_tuple(**{f: float(SAMPLE_ROW.get(f, 1))})
      for f in ("n", "lam", "mu", "mu_prime", "i", "i_prime", "c1", "d",
                "d_prime")),
    # Each count read by fanocalc.integer, as a float.
    lambda: slope.kprime_degree_formulas(3, 1, 2, 1.0, 8),
    lambda: slope.kprime_degree_formulas(3, 1, 2.0, 1, 8),
    lambda: solve_nu_prime(2, 2, -12, 1.0),
    lambda: solve_nu_prime(3, 1, Fraction(-1, 3), 1.0),
    lambda: exact.arg_less_than(exact.quad(1, 1, -3), 3.0),
    lambda: chow.RingCtx(5.0, ("L", "H"), 0, -1, 1),
    lambda: chow.basis_map_A(1, 4, 1, 1, 1.0),
    lambda: chow.basis_map_A(1, 4, 1.0, 1, 1),
    lambda: chow.basis_map_A(1, 4, 1, 1.0, 1),
    lambda: chow.basis_map_A(1.0, 4, 1, 1, 1),
    lambda: chow.basis_map_A(1, 4.0, 1, 1, 1),
    *(lambda k=k: chow.basis_map_B(*(float(x) if j == k else x for j, x
                                     in enumerate((2, 1, 1, 0, -4, 1, 1, 2))))
      for k in (0, 1, 2, 3, 5, 6, 7)),
    lambda: dataset.FanoEntry(3, 2.0, 2, "x", None, ""),
])
def test_float_is_refused(call):
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: check_rho_tau(-1, 1, 1, -3),
    lambda: solve_nu_prime(-2, 1, -3, 1),
    lambda: sample_tuple(n=-1),
])
def test_negative_n_raises_instead_of_hanging(call):
    with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
        call()


@pytest.mark.parametrize("mu", [0, -1])
def test_solve_nu_prime_refuses_nonpositive_mu(mu):
    # mu = 0 divided by zero, and mu = -1 answered None.
    with pytest.raises(ValueError, match="^mu must be at least 1$"):
        solve_nu_prime(2, 1, -1, mu)


@pytest.mark.parametrize("mu", [0, -1])
def test_kprime_degree_formulas_refuses_nonpositive_mu(mu):
    # mu = 0 divided by zero, and mu = -1 answered (1/2, 2).
    with pytest.raises(ValueError, match="^mu must be at least 1$"):
        slope.kprime_degree_formulas(2, 1, 1, mu, 2)


def test_formula_helpers_answer_fractions():
    # rational() passes an int through, and 8/tau of an int is a float.
    values = [c1_prime(5, 3, 1), base_degree_ratio(5, 2),
              slope.y_dot_f(-2, 1, 1), pushforward_R(1, 2, 3),
              *slope.kprime_degree_formulas(5, 1, 4, 1, 36)]
    assert all(type(v) is F for v in values)


def test_solve_nu_prime_table_values():
    assert solve_nu_prime(3, 1, F(-1, 3), 1) == 2
    assert solve_nu_prime(4, 3, F(-3), 1) == 1
    assert solve_nu_prime(4, 1, F(-1, 3), 1) == 3
    assert solve_nu_prime(2, 2, F(-4), 1) == 1
    assert solve_nu_prime(2, 1, F(-1), 1) == 2


def test_solve_nu_prime_absences():
    assert solve_nu_prime(3, 3, F(-3), 1) is None  # ratio 2/3
    assert solve_nu_prime(2, 1, F(-1, 3), 1) is None  # ratio 3/2
    assert solve_nu_prime(2, 3, F(-3), 1) is None  # ratio 1/2


@given(st.integers(min_value=0, max_value=16), fractional_taus,
       st.fractions(min_value=-8, max_value=8, max_denominator=7),
       fractional_deltas)
@example(2, F(1, 3), F(1, 6), F(-2, 9))  # rho = tau - 2/(mu*nu'), nu' = 4
@example(2, F(1, 2), F(1, 2), F(-3, 4))  # exact angle pi/3
def test_check_rho_tau_matches_fraction_reference(n, tau, rho, delta):
    assert check_rho_tau(n, tau, rho, delta) == \
        fraction_check_rho_tau(n, tau, rho, delta)


@given(st.integers(min_value=0, max_value=16), fractional_taus,
       fractional_deltas, st.integers(min_value=1, max_value=5))
@example(2, F(1, 3), F(-2, 9), 3)  # scale s = 9, nu' = 4
@example(2, F(2, 5), F(-2, 5), 4)  # scale s = 5, nu' = 5
@example(1, F(1, 2), F(-1, 3), 2)  # scale s = 6, nu' = 1
def test_solve_nu_prime_matches_fraction_reference(n, tau, delta, mu):
    assert solve_nu_prime(n, tau, delta, mu) == \
        fraction_solve_nu_prime(n, tau, delta, mu)


def test_c1_prime_values():
    assert c1_prime(5, 3, 1) == -2
    assert c1_prime(3, 1, 2) == -4
    assert c1_prime(2, 2, 1) == -3
    assert c1_prime(5, 1, 4) == -10
    # n = 1 and n = 4 alike: cos^2(pi/2) = 0 is rational, but n = 1 is
    # not admissible either.
    for n in (1, 4):
        with pytest.raises(ValueError, match="^n must be 2, 3 or 5$"):
            c1_prime(n, 1, 1)
    with pytest.raises(ValueError, match="^tau must be nonzero$"):
        c1_prime(5, 0, 1)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_c1_prime_matches_the_fraction_formula(n):
    cos_sq = {2: F(1, 4), 3: F(1, 2), 5: F(3, 4)}[n]  # cos^2(pi/(n+1))
    taus = [*range(1, 9), F(1, 2), F(7, 3), -1, F(-5, 2)]
    for tau in taus:
        for tau_prime in [*range(1, 9), F(3, 4), -2]:
            want = F(8) / tau * cos_sq - 4 * F(tau_prime)
            got = c1_prime(n, tau, tau_prime)
            assert type(got) is F and got == want


def test_base_degree_ratio_values():
    assert base_degree_ratio(5, 1) == F(1, 18)
    assert base_degree_ratio(5, 3) == F(9, 2)
    assert base_degree_ratio(3, 2) == 1
    with pytest.raises(ValueError):
        base_degree_ratio(4, 1)


def test_pushforward_R_values():
    assert pushforward_R(1, 2, 8) == 0
    assert pushforward_R(1, 2, 17) == -9
    assert pushforward_R(1, 2, 0) == 8  # first term alone


def test_scaled_cosine_power_follows_from_cos_sq():
    # 2^n * cos^(n-1)(pi/(n+1)) at n = 2, 3, 5: 2 * 1/2, 8 * 1/2, 32 * 9/16.
    assert [slope._two_pow_cos_pow(n) for n in (2, 3, 5)] == [2, 4, 18]
    with pytest.raises(ValueError):
        slope._two_pow_cos_pow(4)


def sample_tuple(**overrides):
    return InvariantTuple(**{**SAMPLE_ROW, **overrides})


def test_tuple_accepts_valid_row():
    t = sample_tuple(d=1, d_prime=1, deg_x=1, deg_x_prime=F(1, 2),
                     name_x="P2", name_x_prime="P2", c1_prime=F(-3),
                     y_dot_f=F(1), status="admissible")
    assert t.c2 == 3


def test_tuple_rho_for_blowdown_kind():
    t = InvariantTuple(n=2, kind="D", lam=1, mu=1, mu_prime=1, nu=2,
                       nu_prime=1, tau=2, tau_prime=1, rho=0, i=3,
                       i_prime=3, c1=0, delta=F(-4), c2_over_d=F(1))
    assert t.rho == 0
    with pytest.raises(InvariantError) as err:
        InvariantTuple(n=2, kind="D", lam=1, mu=1, mu_prime=1, nu=2,
                       nu_prime=1, tau=2, tau_prime=1, rho=2, i=3,
                       i_prime=3, c1=0, delta=F(-4), c2_over_d=F(1))
    assert err.value.reason == "rho_value"


def test_csv_row_serialization():
    t = sample_tuple(d=1, deg_x=1, deg_x_prime=1, name_x="P2",
                     name_x_prime="P2", c1_prime=F(-3), y_dot_f=F(1),
                     status="admissible")
    assert tuple_to_row(t) == (
        "2", "C", "2", "3", "1", "1", "1", "3", "1", "0", "-12", "3",
        "P2", "P2", "-3", "1", "admissible", "")
    text = tuples_to_csv([t])
    assert text.splitlines()[1] == \
        "2,C,2,3,1,1,1,3,1,0,-12,3,P2,P2,-3,1,admissible,"
    assert "\r" not in text


def test_fractional_cells_render_as_p_over_q():
    t = InvariantTuple(n=5, kind="C", lam=1, mu=1, mu_prime=1, nu=1,
                       nu_prime=3, tau=1, tau_prime=3, rho=1, i=2,
                       i_prime=5, c1=-1, delta=F(-1, 3), c2_over_d=F(1, 3))
    row = tuple_to_row(t)
    assert row[10] == "-1/3"
    assert row[11] == "1/3"


def fractional_tuple(**overrides):
    # c2/d = 1/3, so c2 = (c2/d)*d is an integer only for d divisible by 3.
    base = dict(n=5, kind="C", lam=1, mu=1, mu_prime=1, nu=1, nu_prime=3,
                tau=1, tau_prime=3, rho=1, i=2, i_prime=5, c1=-1,
                delta=F(-1, 3), c2_over_d=F(1, 3))
    base.update(overrides)
    return InvariantTuple(**base)


def test_with_status_still_checks_c2_integrality():
    t = fractional_tuple()
    assert t.with_status("admissible", d=3).c2 == 1
    with pytest.raises(InvariantError) as err:
        t.with_status("admissible", d=1)
    assert err.value.reason == "c2_integrality"


@pytest.mark.parametrize("start,changes", [
    # delta: (2 + sqrt(-8))^3 is not real.
    (dict(), dict(delta=F(-8), c2_over_d=F(2))),
    # tau: (1 + sqrt(-12))^3 is not real.
    (dict(), dict(tau=1, nu=1, i=2, rho=1, c1=-1, c2_over_d=F(13, 4))),
    # rho: (1 + 2i) * (2 + 2i)^2 = -16 + 8i is not real.
    (dict(kind="D", rho=0, delta=F(-4), c2_over_d=F(1)),
     dict(rho=1, nu_prime=2, tau_prime=2, i_prime=4)),
])
def test_with_status_rechecks_changed_thresholds(start, changes):
    t = sample_tuple(**start)
    with pytest.raises(InvariantError) as err:
        t.with_status("admissible", **changes)
    assert err.value.reason == "rhotau"


@pytest.mark.parametrize("changes", [
    dict(), dict(d=3), dict(tau=2, delta=-12),
    dict(d=1, deg_x=1, name_x="P2", label="row"),
])
def test_with_status_copies_equal_replace(changes):
    t = sample_tuple()
    copy = t.with_status("admissible", "why", **changes)
    fields = {name: getattr(t, name) for name in FIELDS}
    assert copy == InvariantTuple(**{**fields, "status": "admissible",
                                     "reason": "why", **changes})
    assert type(copy.delta) is Fraction


def test_constructor_takes_exactly_the_fields():
    # No argument outside the fields can bypass a rule.
    params = list(inspect.signature(InvariantTuple).parameters)
    assert params == list(InvariantTuple.__slots__) == list(FIELDS)


@pytest.mark.parametrize("row, reason", [
    # tau = nu/mu has no value at mu = 0.
    (dict(kind="P", lam=2, mu=0, mu_prime=0, nu=1, nu_prime=1, tau=1,
          tau_prime=1, rho=1, i=3, i_prime=3, c1=0, delta=F(-3),
          c2_over_d=F(3, 4)), "tau_def"),
    # rho = (nu*nu' - 2)/(mu*nu') has no value at nu' = 0.
    (dict(kind="D", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=0, tau=2,
          tau_prime=0, rho=1, i=3, i_prime=2, c1=0, delta=F(-4),
          c2_over_d=F(1)), "rho_value"),
])
def test_zero_denominator_fails_its_rule(row, reason):
    with pytest.raises(InvariantError) as err:
        InvariantTuple(n=2, **row)
    assert err.value.reason == reason


@pytest.mark.parametrize("changes", [
    dict(d=0), dict(d=-3), dict(d_prime=0), dict(d_prime=-1),
    dict(deg_x=-5), dict(deg_x=0), dict(deg_x_prime=F(-1, 2)),
])
def test_nonpositive_degree_is_refused(changes):
    with pytest.raises(InvariantError) as err:
        sample_tuple(**changes)
    assert err.value.reason == "degree_sign"
    assert fraction_outcome({**SAMPLE_ROW, **changes}) == "degree_sign"
    # A copy that changes a degree is validated in full.
    with pytest.raises(InvariantError) as err:
        sample_tuple().with_status("admissible", **changes)
    assert err.value.reason == "degree_sign"


def test_degree_sign_comes_before_c2_integrality():
    # c2/d = 1/3, so d = -1 fails both rules.
    with pytest.raises(InvariantError) as err:
        fractional_tuple(d=-1)
    assert err.value.reason == "degree_sign"


# -- copies ---------------------------------------------------------------------

STATUSES = [("candidate", None), ("admissible", None), ("excluded", "why"),
            ("candidate", "conic"), ("", "")]


def emitted_rows():
    rows = []
    for n in slope.ADMISSIBLE_N:
        rows += classify.enumerate_type_P(n)
        c_rows, c_reports = classify.enumerate_type_C(n)
        rows += c_rows + [r.candidate for r in c_reports]
    d_rows, d_reports = classify.enumerate_type_D()
    return rows + d_rows + [r.candidate for r in d_reports]


def test_status_only_copy_equals_the_built_row():
    rows = emitted_rows()
    assert {t.kind for t in rows} == set(slope.KINDS)
    for t in rows:
        fields = {name: getattr(t, name) for name in FIELDS}
        for status, reason in STATUSES:
            copy = t.with_status(status, reason)
            built = InvariantTuple(**{**fields, "status": status,
                                      "reason": reason})
            assert copy == built
            assert type(copy) is InvariantTuple
            assert [type(getattr(copy, f)) for f in FIELDS] \
                == [type(getattr(built, f)) for f in FIELDS]
            assert (copy.status, copy.reason) == (status, reason)
            assert (t.status, t.reason) == (fields["status"],
                                            fields["reason"])


def refuse(*args, **kwargs):
    raise AssertionError("a copy ran a rule")


def test_every_copy_runs_the_rules(monkeypatch):
    t = sample_tuple(d=1, deg_x=1, status="admissible")
    monkeypatch.setattr(slope, "check_rho_tau", refuse)
    monkeypatch.setattr(InvariantTuple, "_validate", refuse)
    # A status-only copy is validated in full, like a copy that changes
    # any other field, even to the value it already has.
    with pytest.raises(AssertionError, match="ran a rule"):
        t.with_status("excluded", "why")
    for name in FIELDS[:-2]:
        with pytest.raises(AssertionError, match="ran a rule"):
            t.with_status("admissible", **{name: getattr(t, name)})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        t.with_status("admissible", bogus=1)


@pytest.mark.parametrize("status, reason", STATUSES)
def test_rejections_do_not_depend_on_status(monkeypatch, status, reason):
    seen = []

    def build(**kwargs):
        seen.append(kwargs)
        return InvariantTuple(**kwargs, status=status, reason=reason)

    monkeypatch.setattr(slope, "InvariantTuple", build)
    assert verify.check_tuple_rejections(None) is None
    assert len(seen) > 10  # every bad case was built

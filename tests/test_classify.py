import csv
import os
import pathlib
from fractions import Fraction

import pytest

from fanocalc import chow, classify, dataset, exact, families, slope
from fanocalc.classify import (enumerate_type_C, enumerate_type_D,
                               enumerate_type_P, exclude_2_1,
                               type_D_fin_analysis)
from fanocalc.families import (CongruenceTuple, enumerate_congruences,
                               family_table)

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


# -- kind P ------------------------------------------------------------------

def test_type_P_factorizations():
    for n, product in ((2, 1), (3, 2), (5, 3)):
        rows = enumerate_type_P(n)
        assert len(rows) == 1
        t = rows[0]
        assert t.nu * t.nu_prime == product
        assert t.status == "admissible"
    assert enumerate_type_P(2)[0].name_x == "P2"
    assert enumerate_type_P(3)[0].label == "(P2)/(P3)"
    assert (enumerate_type_P(5)[0].name_x,
            enumerate_type_P(5)[0].name_x_prime) == ("Q5", "K(G2)")


def test_type_P_matches_entries_by_dim_index_and_name(tmp_path, monkeypatch):
    shipped = pathlib.Path(dataset._default_path("fano_manifolds.csv"))
    path = tmp_path / "manifolds.csv"
    path.write_text(shipped.read_text().replace("3,4,1,P3,", "3,3,1,P3,"))
    monkeypatch.setenv(dataset.DATA_ENV_VAR, str(path))
    rows = {n: enumerate_type_P(n)[0] for n in (2, 3, 5)}
    # P3 now sits at index 3, not at the i = 4 of the n = 3 row.
    assert (rows[3].name_x, rows[3].d, rows[3].deg_x) == ("P3", None, None)
    assert rows[3].deg_x_prime == 2
    assert (rows[2].d, rows[5].d, rows[5].deg_x_prime) == (1, 2, 18)


def test_type_P_rejects_other_dimensions():
    with pytest.raises(ValueError, match="^n must be 2, 3 or 5$"):
        enumerate_type_P(4)


# -- kind D ------------------------------------------------------------------

def test_type_D_survivor_and_filters():
    rows, _ = enumerate_type_D()
    survivors = [t for t in rows if t.status == "admissible"]
    assert len(survivors) == 1
    d1 = survivors[0]
    assert (d1.label, d1.name_x, d1.name_x_prime) == ("(D1)", "P2", "Q3")
    reasons = sorted(t.reason for t in rows if t.status == "excluded")
    assert reasons == ["b4_quadric", "b4_quadric", "hyperplane_section_KG2"]


def test_type_D_pre_table_exclusion():
    _, reports = enumerate_type_D()
    pre = [r for r in reports if r.rule == "no_manifold"]
    assert len(pre) == 1
    cand = pre[0].candidate
    assert (cand.n, cand.tau, cand.tau_prime, cand.delta) == (2, 1, 2, -1)
    assert pre[0].witness == {"dim": 2, "index": 2}


def test_type_D_h4_rule_and_witnesses_follow_the_dataset(tmp_path,
                                                         monkeypatch):
    shipped = pathlib.Path(dataset._default_path("fano_manifolds.csv"))
    path = tmp_path / "manifolds.csv"
    monkeypatch.setenv(dataset.DATA_ENV_VAR, str(path))

    def run(*edits):
        text = shipped.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
        rows, reports = enumerate_type_D()
        return ({(t.n, t.tau, t.tau_prime): t.status for t in rows},
                {r.rule: r.witness for r in reports})

    # A blank b4_rank reads as cyclic H^4, so Q4 no longer excludes.
    status, witness = run(("Q4,2,", "Q4,,"),
                          ("4,2,18,K(G2)_H", "4,2,19,K(G2)_H"))
    assert status[3, 1, 2] == status[4, 3, 1] == "admissible"
    assert "b4_quadric" not in witness
    assert witness["hyperplane_section_KG2"] == \
        {"dim": 4, "index": 2, "degree": 19}
    # The b4_quadric witness is the matched entry's rank.
    status, witness = run(("Q4,2,", "Q4,3,"))
    assert status[3, 1, 2] == status[4, 3, 1] == "excluded"
    assert witness["b4_quadric"]["b4_rank"] == 3


def _emitted(out):
    """The ids of every row an enumerator returns, report rows included."""
    rows, reports = out if isinstance(out, tuple) else (out, [])
    return {id(t) for t in rows} | {id(r.candidate) for r in reports}


@pytest.mark.parametrize("call, built", [
    (lambda: enumerate_type_C(2), 1),
    (lambda: enumerate_type_C(3), 2),
    (lambda: enumerate_type_C(5), 6),
    (lambda: enumerate_type_P(2), 1),
    (lambda: enumerate_type_P(3), 1),
    (lambda: enumerate_type_P(5), 1),
    (lambda: enumerate_type_D(), 5),
], ids=["C2", "C3", "C5", "P2", "P3", "P5", "D"])
def test_each_row_is_built_and_validated_once(monkeypatch, call, built):
    validated = []
    post_init = slope.InvariantTuple.__post_init__

    def counted(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(slope.InvariantTuple, "__post_init__", counted)
    out = call()
    assert len(validated) == built
    assert {id(t) for t in validated} == _emitted(out)


def test_fin_analysis():
    fin = type_D_fin_analysis()
    assert fin.vanishing_tau_prime == 2
    assert fin.rational_cases == {2: F(-1), 3: F(-1, 3)}
    assert [label for label, _ in fin.outcomes] == ["(D2)", "(D3)"]


def _type_d_full_scan(n_max):
    """The type D scan before each (tau, P) stopped at its first failing
    power: every n up to n_max, and no bound on tau'."""
    out = []
    for tau in (1, 2, 3):
        for p in (1, 2, 3):
            if tau * p >= 4:
                continue
            delta = F(tau * tau) - F(4 * tau, p)
            z = exact.quad(tau, 1, delta)
            for n in range(2, n_max + 1):
                if not exact.arg_less_than(z, n + 1):
                    continue
                tau_prime = slope.solve_nu_prime(n, tau, delta, 1)
                if tau_prime is not None:
                    out.append((n, tau, p, delta, tau_prime))
    return sorted(out)


def test_type_D_early_stop_matches_full_scan():
    full = _type_d_full_scan(50)
    result = enumerate_type_D(50)
    rows, reports = result
    admissible = [t for t in rows if t.status == "admissible"]
    got = sorted((t.n, int(t.tau), t.d, t.delta, int(t.tau_prime))
                 for t in admissible + [r.candidate for r in reports])
    assert got == full
    assert max(tau_prime for *_, tau_prime in full) <= 3 \
        < classify.TAU_PRIME_MAX
    assert result == enumerate_type_D()


# -- kind C ------------------------------------------------------------------

@pytest.mark.parametrize("n", (2, 3, 5))
def test_integer_conic_decisions_match_fractions(n):
    entries = [dataset.FanoEntry(n, 1, deg, f"X{deg}", None, "")
               for deg in range(1, 41)]
    for tau in range(1, 9):
        ratio = slope.base_degree_ratio(n, tau)
        assert classify._degree_matches(
            entries, entries, tau ** (n - 1), slope._two_pow_cos_pow(n)) == [
            (x, xp) for x in entries for xp in entries
            if Fraction(xp.degree) == ratio * x.degree]


@pytest.mark.parametrize("n", (2, 3, 5))
def test_conic_int_decisions_match_slope_formulas(n, tmp_path, monkeypatch):
    # A manifold of every degree up to 90 at every index matches every
    # degree ratio, so each candidate with an integral c1' becomes a row,
    # and the enumerator's int c1', Y.f and ratio meet slope's formulas.
    path = tmp_path / "manifolds.csv"
    path.write_text("dim,index,degree,name,b4_rank,source_note\n" + "".join(
        f"{n},{i},{deg},X{i}_{deg},1,\n"
        for i in range(1, n + 2) for deg in range(1, 91)))
    monkeypatch.setenv(dataset.DATA_ENV_VAR, str(path))
    rows, reports = enumerate_type_C(n)
    assert {(t.tau, t.tau_prime) for t in rows} == {
        (tau, tau_prime) for tau in range(1, n + 1)
        for tau_prime in range(1, n)
        if slope.c1_prime(n, tau, tau_prime).denominator == 1}
    assert {id(r.candidate) for r in reports} == {
        id(t) for t in rows if t.status == "excluded"}
    for t in rows:
        assert t.c1_prime == slope.c1_prime(n, t.tau, t.tau_prime)
        assert t.y_dot_f == slope.y_dot_f(t.c1_prime, t.tau_prime, 1)
        assert t.delta == -t.tau ** 2 * exact.tan_sq_pi_over(n + 1)
        assert all(type(getattr(t, f)) is Fraction
                   for f in slope._RATIONAL_FIELDS if getattr(t, f) is not None)
        if t.status == "admissible":
            assert t.deg_x_prime == slope.base_degree_ratio(n, t.tau) * t.deg_x


def test_conic_degree_match_gives_an_integral_c2():
    # enumerate_type_C keeps a degree-matched candidate without testing
    # that c2 = (c2/d)*deg X is an integer: deg X' = ratio*deg X integral
    # implies it.  With c1 = 0 or -1 by the parity of tau, ratio =
    # tau^(n-1)/(2^n cos^(n-1)(pi/(n+1))) and c2/d = (c1^2 + tau^2
    # tan^2(pi/(n+1)))/4, whether either is integral after multiplying by
    # deg X depends on tau only mod 6 and on deg X only mod 36, so this
    # window decides it for every tau and degree, and for every dataset.
    scale = {2: 2, 3: 4, 5: 18}
    tan_sq = {2: F(3), 3: F(1), 5: F(1, 3)}
    not_integral = set()
    for n in (2, 3, 5):
        for tau in range(1, 3 * n + 1):
            ratio = F(tau ** (n - 1), scale[n])
            c1 = 0 if tau % 2 == 0 else -1
            c2_over_d = (c1 * c1 + tau * tau * tan_sq[n]) / 4
            assert ratio == slope.base_degree_ratio(n, tau)
            assert c2_over_d == classify._candidate(
                n, "C", tau, 1, -tau * tau * exact.tan_sq_pi_over(n + 1)
            )["c2_over_d"]
            if c2_over_d.denominator != 1:
                not_integral.add(n)
            for deg in range(1, 2000):
                if (ratio * deg).denominator == 1:
                    assert (c2_over_d * deg).denominator == 1, (n, tau, deg)
    # Not vacuous: at n = 3 and 5 some c2/d is not an integer.
    assert not_integral == {3, 5}


def test_1_4_dossier_ring_is_the_shipped_w36_context():
    shipped = pathlib.Path(classify.__file__).parent / "data" / "contexts"
    assert classify._w36_context() == chow.load_context(shipped / "w36.ctx")


def test_type_C_n5_dossier():
    rows, reports = enumerate_type_C(5)
    assert [t.status for t in rows].count("admissible") == 2
    assert len(reports) == 4
    by_pair = {(int(r.candidate.tau), int(r.candidate.tau_prime)): r
               for r in reports}
    assert by_pair[(1, 1)].rule == "R_not_effective"
    assert by_pair[(1, 1)].witness["pushforward"] == -2
    assert by_pair[(1, 2)].rule == "pushforward_list"
    assert by_pair[(1, 2)].witness["values"] == \
        {1: F(-9), 2: F(-3), 3: F(-1), 4: F(0)}
    assert by_pair[(2, 1)].rule == "degree_contradiction"
    assert by_pair[(2, 1)].witness["m"] == F(4, 3)
    assert by_pair[(1, 4)].rule == "schwarzenberger"
    w = by_pair[(1, 4)].witness
    assert (w["value"], w["odd"], w["c1_prime"]) == (-395, True, -10)


def test_type_C_survivor_fields():
    rows, _ = enumerate_type_C(5)
    admissible = {(int(t.tau), int(t.tau_prime)): t for t in rows
                  if t.status == "admissible"}
    w36 = admissible[(1, 3)]
    assert (w36.deg_x, w36.deg_x_prime) == (36, 2)
    assert (w36.name_x, w36.name_x_prime) == ("W_36^5", "Q5")
    assert (w36.delta, w36.c1_prime) == (F(-1, 3), -6)
    v45 = admissible[(3, 1)]
    assert (v45.deg_x, v45.deg_x_prime) == (4, 18)
    assert (v45.name_x, v45.name_x_prime) == ("V_4^5", "K(G2)")
    assert (v45.delta, v45.c1_prime) == (-3, -2)


def test_type_C_rejects_other_dimensions():
    with pytest.raises(ValueError, match="^n must be 2, 3 or 5$"):
        enumerate_type_C(4)


@pytest.mark.parametrize("kind", ["C5", "D"])
def test_every_report_carries_its_excluded_row(kind):
    _, reports = enumerate_type_C(5) if kind == "C5" else enumerate_type_D()
    assert reports
    for rep in reports:
        assert rep.candidate.status == "excluded"
        assert rep.candidate.reason == rep.rule


@pytest.mark.parametrize("n", [2, 3, 5, None], ids=["C2", "C3", "C5", "D"])
def test_types_C_and_D_return_rows_and_reports(n):
    out = enumerate_type_D() if n is None else enumerate_type_C(n)
    assert type(out) is tuple and len(out) == 2
    rows, reports = out
    assert all(isinstance(t, slope.InvariantTuple) for t in rows)
    assert all(isinstance(r, classify.ExclusionReport) for r in reports)
    # The excluded rows are the reports' candidates, except that a type D
    # no_manifold candidate is reported but never reaches the table.
    excluded = [t for t in rows if t.status == "excluded"]
    kept = [r.candidate for r in reports if n or r.rule != "no_manifold"]
    assert sorted(excluded, key=repr) == sorted(kept, key=repr)


def test_type_D_raw_table_is_golden_under_each_bound():
    # The raw table of each n_max is the golden rows with n <= n_max.
    with open(GOLDEN / "type_D_raw.csv", encoding="utf-8") as fh:
        golden = [tuple(map(int, row)) for row in list(csv.reader(fh))[1:]]
    for n_max in (2, 3, 4, classify.DEFAULT_N_MAX, 40):
        want = [row for row in golden if row[0] <= n_max]
        got = classify.type_d_raw_table(enumerate_type_D(n_max))
        assert got == want, n_max
    assert {row[0] for row in golden} == {2, 3, 4}


def test_exclusion_scripts_standalone():
    # exclude_1_4's witness is verify.check_cross_basis_degrees.
    rep = exclude_2_1()
    assert rep.witness["degrees"] == (18, 16)
    # The degree pair matches the conic factor at (n, tau) = (5, 2).
    assert slope.base_degree_ratio(5, 2) * 18 == 16
    assert rep.witness["bound"] == 22
    assert rep.witness["d_z"] == 1
    assert rep.witness["m"] == F(4, 3)


# -- dataset -----------------------------------------------------------------

def test_dataset_b4_flags():
    data = dataset.load_dataset()
    flagged = {e.name for e in data if e.b4_rank == 2}
    assert flagged == {"Q4", "V_5^5", "K(G2)_H"}


def _count_parsed_rows(monkeypatch):
    """A list that gains one item per dataset row parsed from now on."""
    parsed = []
    entry = dataset._entry
    monkeypatch.setattr(dataset, "_entry",
                        lambda row: parsed.append(row) or entry(row))
    return parsed


def test_each_load_returns_its_own_container(monkeypatch):
    monkeypatch.delenv(dataset.DATA_ENV_VAR, raising=False)
    first, c2 = dataset.load_dataset(), dataset.load_c2_pushforward()
    kept = list(first)
    first.clear()
    c2.clear()
    again = dataset.load_dataset()
    assert again == kept and again is not first
    # Both calls share one parse of the unchanged file.
    assert all(a is b for a, b in zip(again, kept))
    assert dataset.load_c2_pushforward() == {1: 17, 2: 11, 3: 9, 4: 8}


def test_a_file_that_fails_to_parse_fails_on_every_call(tmp_path,
                                                        monkeypatch):
    path = tmp_path / "manifolds.csv"
    monkeypatch.setenv(dataset.DATA_ENV_VAR, str(path))
    path.write_text("dim,index,degree,name,b4_rank,source_note\n2,4,1,P2,,\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="line 2: index must lie"):
            dataset.load_dataset()
    path.write_text("dim,index,degree,name,b4_rank,source_note\n2,3,1,P2,,\n")
    assert [e.name for e in dataset.load_dataset()] == ["P2"]


def test_same_size_rewrite_in_one_timestamp_tick_is_seen(tmp_path,
                                                          monkeypatch):
    shipped = pathlib.Path(dataset._default_path("fano_manifolds.csv"))
    path = tmp_path / "manifolds.csv"
    path.write_bytes(shipped.read_bytes())
    monkeypatch.setenv(dataset.DATA_ENV_VAR, str(path))
    parsed = _count_parsed_rows(monkeypatch)

    def survivors():
        rows, _ = enumerate_type_C(5)
        return {t.name_x for t in rows if t.status == "admissible"}

    assert survivors() == {"W_36^5", "V_4^5"}
    # Unchanged bytes are read, not parsed again.
    del parsed[:]
    assert survivors() == {"W_36^5", "V_4^5"} and not parsed
    before = path.stat()
    path.write_text(shipped.read_text().replace("5,2,36,W_36^5",
                                                "5,2,37,W_36^5"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)
    # Degree 37 matches no Q5 (deg X' = deg X/18), so W_36^5 drops out.
    assert survivors() == {"V_4^5"} and parsed


# -- family table ------------------------------------------------------------

def test_family_table():
    rows = family_table()
    assert len(rows) == 5
    as_tuples = [(r.x_prime, r.moduli, r.tau_moduli, r.x, r.tau,
                  r.factor) for r in rows]
    assert ("P3", "G(1,3)", 1, "V_4^3", 1, str(F(1))) in as_tuples
    assert ("P2", "P2", 2, "P2", 1, str(F(2))) in as_tuples
    assert ("Q5", "G(1,6)_Q5", 1, "W_36^5", 1, str(F(1))) in as_tuples


def test_family_factor_prints_as_a_fraction():
    for p in range(1, 13):
        for q in range(1, 13):
            row = families.FamilyRow("X'", "M", p, "X", q)
            assert row.factor == str(F(p, q))


# -- congruences -------------------------------------------------------------

def _congruences_quadratic(m_max):
    """The O(m_max^2) scan over every z, kept as the reference for the
    closed form m = alpha*t + 1, z = (alpha-1)*t."""
    out = []
    for m in range(3, m_max + 1):
        for z in range(1, 2 * m // 3 + 1):
            t = m - z - 1
            if t <= 0 or (m - 1) % t:
                continue
            alpha = (m - 1) // t
            if alpha < 3:
                continue
            out.append(CongruenceTuple(alpha, z, m))
    out.sort(key=lambda c: (c.alpha, c.z, c.m))
    return out


def test_congruences_match_quadratic_scan():
    for m_max in range(3, 301):
        assert enumerate_congruences(m_max) == _congruences_quadratic(m_max)
    got = enumerate_congruences(2000)
    assert len(got) == 669
    assert got == _congruences_quadratic(2000)


def test_congruence_tuple_validation():
    CongruenceTuple(4, 6, 9)
    with pytest.raises(ValueError, match=r"^alpha must be at least 3$"):
        CongruenceTuple(2, 1, 3)  # alpha = 2 ruled out
    mismatch = r"^alpha must equal \(m-1\)/\(m-z-1\) exactly$"
    with pytest.raises(ValueError, match=mismatch):
        CongruenceTuple(3, 3, 4)  # alpha mismatch
    with pytest.raises(ValueError, match=mismatch):
        CongruenceTuple(9, 8, 9)  # z beyond 2m/3 leaves no integer alpha
    # With alpha an integer >= 3, z > 2m/3 needs a rational z and m.
    with pytest.raises(ValueError, match=r"^z must satisfy 0 < z <= 2m/3$"):
        CongruenceTuple(100, F(99, 40), F(7, 2))


@pytest.mark.parametrize("call", [
    lambda: CongruenceTuple(3.0, 2, 4),
    lambda: CongruenceTuple(3, 2, 4.0),
    lambda: dataset.FanoEntry(3.0, 2, 2.5, "x", None, ""),
    lambda: dataset.FanoEntry(3, 2, 2.5, "x", None, ""),
    lambda: dataset.FanoEntry(3, 2, 2, "x", 1.0, ""),
    lambda: enumerate_type_C(5.0),
    lambda: classify.enumerate_type_P(5.0),
    lambda: enumerate_type_D(5.5),
    lambda: enumerate_congruences(19.0),
])
def test_records_refuse_float(call):
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        call()


@pytest.mark.parametrize("dim, b4_rank, message", [
    (0, None, "^dim must be at least 1$"),
    (5, -2, "^b4_rank must be at least 1 in dimension 5$"),
    (2, 0, "^b4_rank must be at least 1 in dimension 2$"),
    (1, -1, "^b4_rank must be at least 0 in dimension 1$"),
])
def test_fano_entry_refuses_impossible_dimension_and_b4(dim, b4_rank,
                                                         message):
    with pytest.raises(ValueError, match=message):
        dataset.FanoEntry(dim, 1, 4, "X", b4_rank, "note")


def test_fano_entry_accepts_a_curve_with_no_h4():
    assert dataset.FanoEntry(1, 2, 2, "P1", 0, "line").b4_rank == 0


@pytest.mark.parametrize("call, bound", [
    (lambda: enumerate_type_D(F(11, 2)), "n_max"),
    (lambda: enumerate_congruences(F(39, 2)), "m_max"),
    # Every other count that fanocalc.integer reads.
    (lambda: CongruenceTuple(F(7, 2), 5, 8), "alpha"),
    (lambda: exact.arg_less_than(exact.quad(1, 1, -3), F(7, 2)), "q"),
    (lambda: exact.tan_sq_pi_over(F(7, 2)), "q"),
    (lambda: exact.cos_sq_pi_over(F(7, 2)), "q"),
    (lambda: chow.RingCtx(F(5, 2), ("L", "H"), 0, -1, 1), "n"),
    (lambda: dataset.FanoEntry(F(5, 2), 2, 3, "X", 1, "n"), "dim"),
    (lambda: dataset.FanoEntry(3, F(3, 2), 3, "X", 1, "n"), "index"),
    (lambda: dataset.FanoEntry(3, 2, F(5, 2), "X", 1, "n"), "degree"),
    (lambda: dataset.FanoEntry(3, 2, 3, "X", F(1, 2), "n"), "b4_rank"),
    (lambda: chow.basis_map_A(1, 2, 1, 1, F(3, 2)), "lambda"),
    (lambda: chow.basis_map_A(1, 2, F(1, 2), F(1, 2), 1), "mu"),
    (lambda: chow.basis_map_A(1, 2, 1, F(1, 2), 1), "mu'"),
    (lambda: chow.basis_map_B(2, 1, F(1, 2), 0, -4, 1, 1, 2), "mu"),
    (lambda: chow.basis_map_B(2, 1, 1, F(1, 2), -4, 1, 1, 2), "c1"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, F(1, 2), 1, 2), "d"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, 1, F(1, 2), 2), "b"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, 1, 1, F(1, 2)), "d'"),
    (lambda: slope.solve_nu_prime(2, 2, -12, F(1, 2)), "mu"),
    (lambda: slope.kprime_degree_formulas(3, 1, 2, F(1, 2), 8), "mu"),
    (lambda: slope.kprime_degree_formulas(3, 1, F(3, 2), 1, 8), "nu'"),
])
def test_bounds_refuse_a_non_integer(call, bound):
    with pytest.raises(ValueError, match=f"^{bound} must be an integer$"):
        call()


def test_bounds_read_a_whole_fraction_as_its_int():
    # The check is on the value: Fraction(6) is the bound 6.
    assert enumerate_type_D(F(6)) == enumerate_type_D(6)
    assert enumerate_congruences(F(40)) == enumerate_congruences(40)


def test_counts_read_a_whole_fraction_as_its_int():
    for z in (exact.quad(1, 1, -3), exact.quad(1, 1, -1)):
        for q in (3, 5):
            assert exact.arg_less_than(z, F(q)) == exact.arg_less_than(z, q)
    assert exact.tan_sq_pi_over(F(3)) == exact.tan_sq_pi_over(3) == 3
    assert exact.cos_sq_pi_over(F(4)) == exact.cos_sq_pi_over(4) == F(1, 2)
    ctx = chow.RingCtx(F(5), ("L", "H"), 0, -1, 1)
    assert ctx == chow.RingCtx(5, ("L", "H"), 0, -1, 1)
    assert type(ctx.n) is int
    entry = dataset.FanoEntry(F(3), F(2), F(2), "Q3", F(1), "n")
    assert entry == dataset.FanoEntry(3, 2, 2, "Q3", 1, "n")
    assert {type(entry.dim), type(entry.index), type(entry.degree),
            type(entry.b4_rank)} == {int}
    assert chow.basis_map_A(1, 4, F(1), F(1), F(1)) == \
        chow.basis_map_A(1, 4, 1, 1, 1)
    assert chow.basis_map_B(2, 1, F(1), F(0), -4, F(1), F(1), F(2)) == \
        chow.basis_map_B(2, 1, 1, 0, -4, 1, 1, 2)
    assert slope.solve_nu_prime(2, 2, -12, F(1)) == \
        slope.solve_nu_prime(2, 2, -12, 1)
    assert slope.kprime_degree_formulas(3, 1, F(2), F(1), 8) == \
        slope.kprime_degree_formulas(3, 1, 2, 1, 8)
    assert CongruenceTuple(F(4), 6, 9) == (4, 6, 9)


@pytest.mark.parametrize("call, message", [
    (lambda: chow.basis_map_A(1, 2, 1, 1, 0), "lambda must be at least 1"),
    (lambda: chow.basis_map_A(1, 2, 1, 1, 3), "lambda must be 1 or 2"),
    (lambda: chow.basis_map_A(1, 2, 0, 1, 1), "mu must be at least 1"),
    (lambda: chow.basis_map_A(1, 2, 1, -1, 1), "mu' must be at least 1"),
    (lambda: chow.basis_map_B(2, 1, 0, 0, -4, 1, 1, 2), "mu must be at least 1"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, 0, 1, 2), "d must be at least 1"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, 1, -2, 2), "b must be at least 1"),
    (lambda: chow.basis_map_B(2, 1, 1, 0, -4, 1, 1, 0), "d' must be at least 1"),
    (lambda: slope.kprime_degree_formulas(3, 1, 0, 1, 8),
     "nu' must be at least 1"),
    (lambda: exact.arg_less_than(exact.quad(1, 1, -3), F(1)),
     "q must be at least 2"),
    (lambda: CongruenceTuple(F(2), 1, 3), "alpha must be at least 3"),
    (lambda: dataset.FanoEntry(3, 2, 0, "X", 1, "n"),
     "degree must be at least 1"),
], ids=["lambda-0", "lambda-3", "A-mu", "A-mu-prime", "B-mu", "B-d", "B-b",
        "B-d-prime", "nu-prime", "q", "alpha", "degree"])
def test_counts_refuse_a_value_below_their_least(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_congruence_tuple_value_semantics():
    # Equality, hash and repr as the frozen dataclass had them.
    t = CongruenceTuple(4, 6, 9)
    assert t == CongruenceTuple(4, 6, 9) and t != CongruenceTuple(3, 4, 7)
    assert hash(t) == hash(CongruenceTuple(4, 6, 9)) == hash((4, 6, 9))
    assert len({t, CongruenceTuple(4, 6, 9)}) == 1
    assert repr(t) == "CongruenceTuple(alpha=4, z=6, m=9)"
    with pytest.raises(AttributeError):
        t.alpha = 5
    assert (t.alpha, t.z, t.m) == (4, 6, 9)


@pytest.mark.parametrize("name", ["enumerate_congruences"])
def test_families_names_reexported_by_classify(name):
    assert getattr(classify, name) is getattr(families, name)

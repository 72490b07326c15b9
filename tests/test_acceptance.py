"""Acceptance suite: one check per headline guarantee, each reporting a
single pass line when it holds."""

import csv
import pathlib
import random
from fractions import Fraction

from fanocalc import classify, slope, verify

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_conic_tables(capsys):
    with capsys.disabled():
        expected = {
            2: [(2, 1, 1, 1, F(-12), F(3), F(-3), F(1))],
            3: [(1, 2, 4, 1, F(-1), F(1, 2), F(-4), F(0)),
                (2, 1, 2, 2, F(-4), F(1), F(-2), F(0))],
            5: [(1, 3, 36, 2, F(-1, 3), F(1, 3), F(-6), F(0)),
                (3, 1, 4, 18, F(-3), F(1), F(-2), F(0))],
        }
        for n, want in expected.items():
            rows, _ = classify.enumerate_type_C(n)
            got = [(int(t.tau), int(t.tau_prime), int(t.deg_x),
                    int(t.deg_x_prime), t.delta, t.c2_over_d, t.c1_prime,
                    t.y_dot_f)
                   for t in rows if t.status == "admissible"]
            assert got == want, f"n={n}: {got}"
            assert slope.tuples_to_csv(rows) == \
                (GOLDEN / f"type_C_n{n}.csv").read_text()
        assert classify.enumerate_type_C(2)[0][0].c2 == 3
        report(1, "conic tables for n=2,3,5 reproduced exactly")


def test_criterion_2_conic_exclusion_dossiers(capsys):
    with capsys.disabled():
        _, reports = classify.enumerate_type_C(5)
        assert len(reports) == 4
        by_pair = {(int(r.candidate.tau), int(r.candidate.tau_prime)): r
                   for r in reports}
        assert by_pair[(1, 1)].witness["pushforward"] == -2
        assert by_pair[(1, 2)].witness["values"] == \
            {1: F(-9), 2: F(-3), 3: F(-1), 4: F(0)}
        assert "zero_case_degree" in by_pair[(1, 2)].witness
        assert by_pair[(2, 1)].witness["m"] == F(4, 3)
        w = by_pair[(1, 4)].witness
        assert (w["value"], w["odd"]) == (-395, True)
        assert w["c1_prime"] % 2 == 0  # even c1' makes the odd value fatal
        report(2, "four n=5 exclusion dossiers with exact witnesses")


def test_criterion_3_blowdown_tables(capsys):
    with capsys.disabled():
        result = classify.enumerate_type_D()
        with open(GOLDEN / "type_D_raw.csv", encoding="utf-8") as fh:
            want = [tuple(map(int, row)) for row in list(csv.reader(fh))[1:]]
        assert classify.type_d_raw_table(result) == want
        survivors = [t for t in result.tuples if t.status == "admissible"]
        assert [t.label for t in survivors] == ["(D1)"]
        fin = result.fin
        assert fin.vanishing_tau_prime == 2
        assert sorted(fin.rational_cases) == [2, 3]
        assert [label for label, _ in fin.outcomes] == ["(D2)", "(D3)"]
        report(3, "blow-down raw table, (D1) survivor and finite-fiber "
                  "branch reproduced")


def test_criterion_4_projective_pairs(capsys):
    with capsys.disabled():
        for n, product, names in ((2, 1, ("P2", "P2")),
                                  (3, 2, ("P3", "Q3")),
                                  (5, 3, ("Q5", "K(G2)"))):
            rows = classify.enumerate_type_P(n)
            assert len(rows) == 1
            t = rows[0]
            assert int(t.nu * t.nu_prime) == product
            assert (t.name_x, t.name_x_prime) == names
        report(4, "double projective bundle factorizations and names match")


def test_criterion_5_ring_kernel(capsys):
    with capsys.disabled():
        verify.check_cross_basis_degrees(random.Random(verify.SEED))
        report(5, "monomial vector (-110,-36,-10,-2) and value -395 agree "
                  "across both rings")


def test_criterion_6_threshold_suite(capsys):
    with capsys.disabled():
        note = verify.check_perturbed_thresholds(random.Random(verify.SEED))
        report(6, f"threshold condition holds on every emitted row; {note}")


def test_criterion_7_congruences(capsys):
    with capsys.disabled():
        got = [(t.alpha, t.z, t.m)
               for t in classify.enumerate_congruences(19)]
        assert got == [(3, 2, 4), (3, 4, 7), (3, 6, 10), (3, 8, 13),
                       (3, 10, 16), (3, 12, 19), (4, 3, 5), (4, 6, 9),
                       (5, 4, 6)]
        verify.check_congruences(random.Random(verify.SEED))
        report(7, "congruence solutions match the brute-force scan")


def test_criterion_8_property_suites(capsys):
    # tests/test_verify.py runs every check on ten seeds, 8 among them.
    with capsys.disabled():
        failed = [r for r in verify.run_all(seed=8) if not r.ok]
        assert not failed, failed
        report(8, "property suites pass (ring kernel, discriminant "
                  "identity, roundtrips, powers, parser)")

"""Fixed measurements that every traced run adds to the per-layer
metrics, whatever its workload: each verify check, the scaling points of
the user-controlled bounds, interpreter start and import, and the
per-operation costs that the ROADMAP Baseline quotes.  All run without
tracing, and each is scaled by the host speed measured around it
(common.HostSpeed.scaled)."""

from __future__ import annotations

import random
import sys
import time
import timeit
from fractions import Fraction

from fanocalc import chow, classify, exact, expr, slope, verify

import common


def _ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1000


def _best_ms(fn, *args) -> float:
    """Best of 3 calls of fn(*args)."""
    return min(_ms(fn, *args) for _ in range(3))


def verify_checks(host):
    return {f"verify.{check.__name__}.ms":
            host.scaled(_ms, check, random.Random(verify.SEED))
            for check in verify.CHECKS}


def scaling(host):
    out = {}
    for m_max in (100, 1000, 10000):
        out[f"classify.enumerate_congruences.ms.m{m_max}"] = host.scaled(
            _ms if m_max > 1000 else _best_ms,
            classify.enumerate_congruences, m_max)
    for n_max in (10, 20, 40):
        out[f"classify.enumerate_type_D.ms.n{n_max}"] = host.scaled(
            _best_ms, classify.enumerate_type_D, n_max)
    for n in (8, 12, 16, 20):
        ctx = chow.RingCtx(n, ("L", "H"), Fraction(-1), Fraction(-1, 3),
                           Fraction(18))
        out[f"chow.reduce.raw_ms.n{n}"] = host.scaled(
            _best_ms, chow.reduce, {(n + 1, 0): Fraction(1)}, ctx)
    w36 = chow.load_context(common.CONTEXTS / "w36.ctx")
    l_plus_h = w36.gen1 + w36.gen2
    for k in (10, 100, 1000):
        out[f"chow.RingElem.pow.ms.k{k}"] = host.scaled(
            _best_ms, l_plus_h.__pow__, k)
    return out


def interpreter(host):
    bare = host.scaled(common.median_child_seconds,
                       [sys.executable, "-c", "pass"], 5)
    cli = host.scaled(common.median_child_seconds,
                      [sys.executable, "-c", "import fanocalc.cli"], 5)
    return {"cli.interpreter_ms": bare * 1000,
            "cli.import_ms": (cli - bare) * 1000}


def _per_call_us(stmt) -> float:
    timer = timeit.Timer(stmt)
    number, _ = timer.autorange()
    return min(timer.repeat(3, number)) / number * 1e6


def baseline(host):
    """The operations of the ROADMAP Baseline, timed the same way:
    timeit autorange, best of 3, per call."""
    z = exact.quad(1, 1, Fraction(-1, 3))
    w = exact.quad(Fraction(3, 2), Fraction(-2, 5), Fraction(-1, 3))
    w36 = chow.load_context(common.CONTEXTS / "w36.ctx")
    names = {"L": w36.gen1, "H": w36.gen2}
    kp = w36.element({(1, 0): Fraction(4), (0, 1): Fraction(3)})
    hp5 = (w36.gen1 + w36.gen2) ** 5
    text = "(4*L+3*H)*(L+H)^5"
    ast = expr.parse_text(text)
    row = dict(n=2, kind="C", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=1,
               tau=2, tau_prime=1, rho=2, i=3, i_prime=3, c1=0,
               delta=Fraction(-12), c2_over_d=Fraction(3))
    cases = {
        "baseline.QuadNum_mul.us": lambda: z * w,
        "baseline.quad_pow_12.us": lambda: exact.quad_pow(z, 12),
        "baseline.check_rho_tau_n5.us":
            lambda: slope.check_rho_tau(5, 1, 1, Fraction(-1, 3)),
        "baseline.RingElem_mul.us": lambda: kp * hp5,
        "baseline.parse_text.us": lambda: expr.parse_text(text),
        "baseline.evaluate.us": lambda: expr.evaluate(ast, w36, names),
        "baseline.InvariantTuple.us": lambda: slope.InvariantTuple(**row),
        "baseline.enumerate_type_C_5.us":
            lambda: classify.enumerate_type_C(5),
        "baseline.enumerate_type_D.us": lambda: classify.enumerate_type_D(),
    }
    return {name: host.scaled(_per_call_us, fn) for name, fn in cases.items()}

"""Command-line surface: verify, enumerate, eval, exclusions, family-table.

All output is deterministic: fixed column order, rationals printed as
"p/q", LF line endings.  Exit codes: 0 success, 1 failed verification,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import chow, classify
from .slope import CSV_COLUMNS, InvariantTuple, tuple_to_row, tuples_to_csv

FORMATS = ("table", "csv", "json")


@dataclass
class RunConfig:
    command: str
    kind: Optional[str] = None
    n: Optional[int] = None
    n_max: int = classify.DEFAULT_N_MAX
    tau_prime_max: int = classify.DEFAULT_TAU_PRIME_MAX
    m_max: int = classify.DEFAULT_M_MAX
    ctx_path: Optional[str] = None
    expression: Optional[str] = None
    case: Optional[str] = None
    fmt: str = "table"


def _frac(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _print_table(header: Sequence[str], rows: List[Tuple[str, ...]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    print(fmt(header))
    for row in rows:
        print(fmt(row))


def _emit_tuples(tuples: Sequence[InvariantTuple], fmt: str,
                 header_lines: Sequence[str] = ()) -> None:
    if fmt == "csv":
        for line in header_lines:
            print(f"# {line}")
        sys.stdout.write(tuples_to_csv(tuples))
    elif fmt == "json":
        payload = [dict(zip(CSV_COLUMNS, tuple_to_row(t))) for t in tuples]
        print(json.dumps({"header": list(header_lines), "rows": payload},
                         indent=2))
    else:
        for line in header_lines:
            print(f"# {line}")
        _print_table(CSV_COLUMNS, [tuple_to_row(t) for t in tuples])


def _witness_str(value) -> str:
    if isinstance(value, Fraction):
        return _frac(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {_witness_str(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_witness_str(v) for v in value) + ")"
    return str(value)


def _print_report(rep: classify.ExclusionReport) -> None:
    print(f"rule: {rep.rule}")
    if rep.candidate is not None:
        c = rep.candidate
        print(f"candidate: n={c.n} kind={c.kind} tau={_frac(c.tau)} "
              f"tau'={_frac(c.tau_prime)}")
    for key, value in rep.witness.items():
        print(f"  {key} = {_witness_str(value)}")
    print(f"why: {rep.citation}")


def cmd_verify(cfg: RunConfig) -> int:
    # verify and expr are imported by the one command that needs each:
    # every other command then skips compiling and running them.
    from . import verify
    results = verify.run_all()
    failures = 0
    for res in results:
        mark = "ok" if res.ok else "FAIL"
        print(f"[{mark}] {res.name}")
        if not res.ok:
            failures += 1
            print(f"       {res.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def cmd_enumerate(cfg: RunConfig) -> int:
    if cfg.kind == "P":
        ns = [cfg.n] if cfg.n is not None else [2, 3, 5]
        rows: List[InvariantTuple] = []
        for n in ns:
            rows.extend(classify.enumerate_type_P(n))
        _emit_tuples(rows, cfg.fmt)
        return 0
    if cfg.kind == "C":
        ns = [cfg.n] if cfg.n is not None else [2, 3, 5]
        rows = []
        reports: List[classify.ExclusionReport] = []
        for n in ns:
            r, reps = classify.enumerate_type_C(n)
            rows.extend(r)
            reports.extend(reps)
        _emit_tuples(rows, cfg.fmt)
        if cfg.fmt == "table" and reports:
            print()
            print(f"{len(reports)} exclusion dossier(s); "
                  "see the exclusions command for details")
        return 0
    if cfg.kind == "D":
        result = classify.enumerate_type_D(cfg.n_max, cfg.tau_prime_max)
        header = [f"bounds: n_max={cfg.n_max} tau_prime_max={cfg.tau_prime_max}"]
        _emit_tuples(result.tuples, cfg.fmt, header)
        if cfg.fmt == "table":
            print()
            print("raw table (n, i, tau, c1, c2, d, d', tau', i'):")
            for row in classify.type_d_raw_table(result):
                print("  " + ", ".join(str(x) for x in row))
            fin = result.fin
            print(f"finite-fiber branch: tau'={fin.vanishing_tau_prime}, "
                  f"n in {sorted(fin.rational_cases)}, "
                  + ", ".join(f"Delta={_frac(d)} at n={n}"
                              for n, d in sorted(fin.rational_cases.items())))
            for label, desc in fin.outcomes:
                print(f"  {label}: {desc}")
        return 0
    if cfg.kind == "congruence":
        tuples = classify.enumerate_congruences(cfg.m_max)
        header = f"bounds: m_max={cfg.m_max}"
        if cfg.fmt == "json":
            print(json.dumps({
                "header": [header],
                "rows": [{"alpha": t.alpha, "z": t.z, "m": t.m}
                         for t in tuples],
            }, indent=2))
        else:
            print(f"# {header}")
            print("alpha,z,m" if cfg.fmt == "csv" else "alpha  z  m")
            for t in tuples:
                if cfg.fmt == "csv":
                    print(f"{t.alpha},{t.z},{t.m}")
                else:
                    print(f"{t.alpha:<5}  {t.z}  {t.m}")
        return 0
    raise AssertionError(f"unhandled kind {cfg.kind}")


def _eval_bindings(ctx: chow.RingCtx) -> Dict[str, object]:
    bindings: Dict[str, object] = {}
    g1, g2 = ctx.gen_names
    bindings[g1] = ctx.gen1
    bindings[g2] = ctx.gen2
    # Canonical divisor and discriminant for (L, H)-style contexts,
    # where the relation encodes c1 and -c2/d.
    bindings.setdefault("K", ctx.gen1.scale(-2) + ctx.gen2.scale(ctx.rel_a))
    bindings.setdefault("D", ctx.rel_a ** 2 + 4 * ctx.rel_b)
    for name in list(bindings):
        if "'" in name:
            bindings.setdefault(name.replace("'", "p"), bindings[name])
    return bindings


def cmd_eval(cfg: RunConfig) -> int:
    from . import expr
    try:
        ctx = chow.load_context(cfg.ctx_path)
    except OSError as err:
        print(f"cannot read context {cfg.ctx_path}: {err}", file=sys.stderr)
        return 2
    try:
        result = expr.evaluate_text(cfg.expression, ctx, _eval_bindings(ctx))
    except expr.ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if result.degree is not None:
        print(_frac(result.degree))
    else:
        print(result.element)
    if result.note:
        print(f"note: {result.note}")
    return 0


def cmd_exclusions(cfg: RunConfig) -> int:
    if cfg.case == "1-4":
        _print_report(classify.exclude_1_4())
    elif cfg.case == "2-1":
        _print_report(classify.exclude_2_1())
    else:
        print(f"unknown case {cfg.case}", file=sys.stderr)
        return 2
    return 0


def cmd_family_table(cfg: RunConfig) -> int:
    header = ("X_prime", "family_space", "tau_family", "X", "tau", "factor")
    rows = [(r.x_prime, r.moduli, str(r.tau_moduli), r.x, str(r.tau),
             _frac(r.pullback_factor)) for r in classify.family_table()]
    if cfg.fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join('"' + c + '"' if "," in c else c for c in row))
    elif cfg.fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows], indent=2))
    else:
        _print_table(header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description=("Exact intersection-theory kernel and finite case "
                     "analysis for rank-two Fano bundles"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the full invariant suite")
    enum = sub.add_parser("enumerate", help="regenerate a classification table")
    enum.add_argument("--type", required=True, dest="kind",
                      choices=("P", "D", "C", "congruence"))
    enum.add_argument("--n", type=int)
    enum.add_argument("--n-max", type=int, default=classify.DEFAULT_N_MAX)
    enum.add_argument("--tau-prime-max", type=int,
                      default=classify.DEFAULT_TAU_PRIME_MAX)
    enum.add_argument("--m-max", type=int, default=classify.DEFAULT_M_MAX)
    enum.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    ev = sub.add_parser("eval", help="evaluate a ring expression")
    ev.add_argument("--ctx", required=True, dest="ctx_path")
    ev.add_argument("expression")
    exc = sub.add_parser("exclusions", help="print an exclusion dossier")
    exc.add_argument("--case", required=True, choices=("1-4", "2-1"))
    fam = sub.add_parser("family-table", help="print the conic family table")
    fam.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    cfg = RunConfig(
        command=ns.command,
        kind=getattr(ns, "kind", None),
        n=getattr(ns, "n", None),
        n_max=getattr(ns, "n_max", classify.DEFAULT_N_MAX),
        tau_prime_max=getattr(ns, "tau_prime_max",
                              classify.DEFAULT_TAU_PRIME_MAX),
        m_max=getattr(ns, "m_max", classify.DEFAULT_M_MAX),
        ctx_path=getattr(ns, "ctx_path", None),
        expression=getattr(ns, "expression", None),
        case=getattr(ns, "case", None),
        fmt=getattr(ns, "fmt", "table"),
    )
    try:
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "enumerate":
            if cfg.kind in ("P", "C") and cfg.n is not None \
                    and cfg.n not in (2, 3, 5):
                print(f"--n must be 2, 3 or 5 for type {cfg.kind}",
                      file=sys.stderr)
                return 2
            return cmd_enumerate(cfg)
        if cfg.command == "eval":
            return cmd_eval(cfg)
        if cfg.command == "exclusions":
            return cmd_exclusions(cfg)
        if cfg.command == "family-table":
            return cmd_family_table(cfg)
    except (OSError, ValueError) as err:
        # Unreadable files, and contexts, bounds or datasets the library
        # rejects.
        print(f"input error: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {cfg.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

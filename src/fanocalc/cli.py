"""Command-line surface: verify, enumerate, eval, exclusions, family-table.

All output is deterministic: fixed column order, rationals printed as
"p/q", LF line endings.  Exit codes: 0 success, 1 failed verification,
2 usage or input errors.  A reader that closes stdout early, such as
`head`, ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from . import chow, classify

# Each command imports the modules it runs, and no fanocalc module is
# imported here: with no cached bytecode, every module loaded is compiled
# from source on each start.

FORMATS = ("table", "csv", "json")
# "tau-tau'" of each n = 5 dossier in classify._DOSSIERS, spelled out so
# that building the parser imports nothing.
EXCLUSION_CASES = ("1-2", "1-4", "2-1")


def emit(columns: Sequence[str], rows: Sequence[Sequence], fmt: str,
         notes: Optional[Sequence[str]] = None) -> None:
    """Print rows under `columns` as a padded table, CSV or JSON.

    Table and CSV put each note first as a "# " line.  JSON is an object
    {"header": notes, "rows": [...]} when notes are given (possibly
    none), and a bare list of rows when `notes` is None; its cells keep
    their Python type, where table and CSV print str(cell).
    """
    if fmt == "json":
        import json
        payload = [dict(zip(columns, row)) for row in rows]
        if notes is not None:
            payload = {"header": list(notes), "rows": payload}
        print(json.dumps(payload, indent=2))
        return
    for note in notes or ():
        print(f"# {note}")
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return
    cells = [[str(c) for c in row] for row in rows]
    widths = [max([len(h)] + [len(row[k]) for row in cells])
              for k, h in enumerate(columns)]
    for row in [columns, *cells]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _witness_str(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {_witness_str(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_witness_str(v) for v in value) + ")"
    return str(value)


def _print_report(rep: classify.ExclusionReport) -> None:
    print(f"rule: {rep.rule}")
    for key, value in rep.witness.items():
        print(f"  {key} = {_witness_str(value)}")
    print(f"why: {rep.citation}")


def cmd_verify(ns: argparse.Namespace) -> int:
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


# The types whose enumeration reads each bound; it is refused elsewhere.
ENUMERATE_BOUNDS = {"n": ("P", "C"), "n_max": ("D",), "m_max": ("congruence",)}


def cmd_enumerate(ns: argparse.Namespace) -> int:
    kind, fmt = ns.kind, ns.fmt
    for dest, kinds in ENUMERATE_BOUNDS.items():
        if getattr(ns, dest) is not None and kind not in kinds:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply "
                             f"to --type {kind}")
    if kind == "congruence":
        from . import families
        m_max = families.DEFAULT_M_MAX if ns.m_max is None else ns.m_max
        rows = [(t.alpha, t.z, t.m)
                for t in families.enumerate_congruences(m_max)]
        emit(("alpha", "z", "m"), rows, fmt, [f"bounds: m_max={m_max}"])
        return 0
    from . import classify
    from .slope import ADMISSIBLE_N, CSV_COLUMNS, tuple_to_row
    if kind == "D":
        n_max = classify.DEFAULT_N_MAX if ns.n_max is None else ns.n_max
        result = classify.enumerate_type_D(n_max)
        emit(CSV_COLUMNS, [tuple_to_row(t) for t in result[0]], fmt,
             [f"bounds: n_max={n_max} tau_prime_max={classify.TAU_PRIME_MAX}"])
        if fmt == "table":
            print()
            print("raw table (n, i, tau, c1, c2, d, d', tau', i'):")
            for row in classify.type_d_raw_table(result):
                print("  " + ", ".join(str(x) for x in row))
            fin = classify.type_D_fin_analysis()
            print(f"finite-fiber branch: tau'={fin.vanishing_tau_prime}, "
                  f"n in {sorted(fin.rational_cases)}, "
                  + ", ".join(f"Delta={d} at n={n}"
                              for n, d in sorted(fin.rational_cases.items())))
            for label, desc in fin.outcomes:
                print(f"  {label}: {desc}")
        return 0
    tuples = []
    reports: List[classify.ExclusionReport] = []
    for n in ADMISSIBLE_N if ns.n is None else [ns.n]:
        if kind == "P":
            tuples.extend(classify.enumerate_type_P(n))
        else:
            rows, reps = classify.enumerate_type_C(n)
            tuples.extend(rows)
            reports.extend(reps)
    emit(CSV_COLUMNS, [tuple_to_row(t) for t in tuples], fmt, [])
    if fmt == "table" and reports:
        print()
        print(f"{len(reports)} excluded row(s):")
        for rep in reports:
            c = rep.candidate
            why = (f"see exclusions --case {c.tau}-{c.tau_prime}"
                   if (c.n, c.tau, c.tau_prime) in classify._DOSSIERS else
                   ", ".join(f"{k} = {_witness_str(v)}"
                             for k, v in rep.witness.items()))
            print(f"  n={c.n} tau={c.tau} tau'={c.tau_prime}: {rep.rule}; "
                  f"{why}")
    return 0


def _eval_bindings(ctx: chow.RingCtx) -> Dict[str, object]:
    from .chow import linear_combination
    g1, g2 = ctx.gen_names
    # Canonical divisor and discriminant for (L, H)-style contexts, where
    # the relation encodes c1 and -c2/d; a generator named K or D wins.
    return {"K": linear_combination(ctx, ((-2, ctx.gen1),
                                          (ctx.rel_a, ctx.gen2))),
            "D": ctx.rel_a ** 2 + 4 * ctx.rel_b, g1: ctx.gen1, g2: ctx.gen2}


def cmd_eval(ns: argparse.Namespace) -> int:
    from . import chow, expr
    ctx = chow.load_context(ns.ctx_path)
    result = expr.evaluate_text(ns.expression, ctx, _eval_bindings(ctx))
    value = result.element if result.degree is None else result.degree
    try:
        text = str(value)
    except ValueError:
        # The interpreter's limit on int-to-decimal conversion, which is
        # far below chow.MAX_POW_BITS.
        raise ValueError("the result has too many digits to print (limit: "
                         f"{sys.get_int_max_str_digits()} digits per "
                         "integer)") from None
    print(text)
    if result.note:
        print(f"note: {result.note}")
    return 0


def cmd_exclusions(ns: argparse.Namespace) -> int:
    from . import classify
    tau, tau_prime = map(int, ns.case.split("-"))
    _print_report(getattr(classify, classify._DOSSIERS[5, tau, tau_prime])())
    return 0


def cmd_family_table(ns: argparse.Namespace) -> int:
    from .families import family_table
    rows = [(r.x_prime, r.moduli, str(r.tau_moduli), r.x, str(r.tau),
             str(r.pullback_factor)) for r in family_table()]
    emit(("X_prime", "family_space", "tau_family", "X", "tau", "factor"),
         rows, ns.fmt)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description=("Exact intersection-theory kernel and finite case "
                     "analysis for rank-two Fano bundles"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run the full invariant suite")
    ver.set_defaults(func=cmd_verify)
    enum = sub.add_parser("enumerate", help="regenerate a classification table")
    enum.set_defaults(func=cmd_enumerate)
    enum.add_argument("--type", required=True, dest="kind",
                      choices=("P", "D", "C", "congruence"))
    enum.add_argument("--n", type=int)
    # The bounds default to None, which cmd_enumerate reads as the
    # enumerator's own default constant: building the parser imports
    # neither classify nor families.
    enum.add_argument("--n-max", type=int)
    enum.add_argument("--m-max", type=int)
    enum.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    ev = sub.add_parser("eval", help="evaluate a ring expression")
    ev.set_defaults(func=cmd_eval)
    ev.add_argument("--ctx", required=True, dest="ctx_path")
    ev.add_argument("expression")
    exc = sub.add_parser("exclusions", help="print an exclusion dossier")
    exc.set_defaults(func=cmd_exclusions)
    exc.add_argument("--case", required=True, choices=EXCLUSION_CASES)
    fam = sub.add_parser("family-table", help="print the conic family table")
    fam.set_defaults(func=cmd_family_table)
    fam.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    return parser


def _dispatch(argv: Optional[List[str]]) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except BrokenPipeError:
        raise  # not an input error; see run
    except (OSError, ValueError) as err:
        # Unreadable files, and contexts, bounds, datasets, expressions or
        # results the library rejects.
        print(f"input error: {err}", file=sys.stderr)
        return 2


def run(argv: Optional[List[str]] = None) -> int:
    try:
        code = _dispatch(argv)
        # Flushed here, so that a reader gone early is seen below and not
        # at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: a quiet exit.
        # stdout is pointed at devnull so that the interpreter's own flush
        # at exit does not fail again (the SIGPIPE note in the docs of the
        # signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Test oracle for fanocalc.cli.parse_args: the argparse parser that the
command line ran before it read a table of its own.

It is build_parser as it was, with its choices spelled out and without
the set_defaults(func=...) that named each command's function, so it
imports nothing from fanocalc.  A namespace it returns holds the
command name as `command` and one attribute per option.
"""

import argparse


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
    enum.add_argument("--n-max", type=int)
    enum.add_argument("--m-max", type=int)
    enum.add_argument("--format", dest="fmt", choices=("table", "csv", "json"),
                      default="table")
    ev = sub.add_parser("eval", help="evaluate a ring expression")
    ev.add_argument("--ctx", required=True, dest="ctx_path")
    ev.add_argument("expression")
    exc = sub.add_parser("exclusions", help="print an exclusion dossier")
    exc.add_argument("--case", required=True, choices=("1-2", "1-4", "2-1"))
    fam = sub.add_parser("family-table", help="print the conic family table")
    fam.add_argument("--format", dest="fmt", choices=("table", "csv", "json"),
                     default="table")
    return parser

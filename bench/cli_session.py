"""cli-session workload: the README command set, one fresh interpreter per
op.

Each op starts a new interpreter that runs fanocalc.cli.main from src,
one child at a time.  The ops follow a seeded order over verify, every
enumerate type and format, congruences at m_max 19 and at seeded
bounds near 2000, eval of seeded top-degree products in the five shipped
contexts, both exclusion dossiers and the family table.  Interpreter
start and import are a large share of a small command, and verify sets
the tail, so this workload shows changes to import, verify and output
and not deep-kernel scaling.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction

import common
import ring_eval

FORMATS = ("table", "csv", "json")
# The child's peak RSS is read from its own VmHWM at exit: the
# ru_maxrss that wait4 reports keeps the parent's peak across exec.
BOOT = """\
import atexit, sys
def peak():
    with open("/proc/self/status") as fh:
        kb = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    sys.stderr.write(f"\\nVmHWM_kB {kb[0]}\\n")
atexit.register(peak)
from fanocalc.cli import main
sys.argv[0] = "fanocalc"
main()
"""
PEAK = re.compile(rb"VmHWM_kB (\d+)")
# Inputs whose contract exit code is 2 but that exit 1 with a traceback
# at the seed.  They run once per traced run, off the clock, and are
# counted in cli.contract_violations; as ops they would make every run
# fail.  "(1+L)^3000000" and "2^30000000" are left out: they do not end
# in bounded time.
BAD_CTX_TEXT = "n=x\ngen_names=L,H\nrel_a=0\nrel_b=-3\ndegree_s=1\n"
EXPECTED = common.BENCH / "expected"

Op = namedtuple("Op", "kind argv extra")


class State:
    def __init__(self, contexts):
        self.contexts = contexts
        self.max_rss_mb = 0.0
        self.stdout_bytes = 0
        self.outputs = 0
        self.evals = []
        self.expected = {}
        self.golden = {}


def setup(seed: int) -> State:
    """Harness state only: the shipped contexts, read here to generate
    eval expressions.  The program's own set-up is timed in children."""
    from fanocalc import chow
    rings = [chow.load_context(common.CONTEXTS / f"{name}.ctx")
             for name in common.SHIPPED_CONTEXTS]
    return State([ring_eval.Ctx(r, ring_eval.bindings(r)) for r in rings])


def prepare_checks(state: State) -> None:
    for path in EXPECTED.glob("*.out"):
        state.expected[path.stem] = path.read_bytes()
    for path in common.GOLDEN.glob("*.csv"):
        state.golden[path.stem] = path.read_text()


def bad_inputs():
    common.WORK.mkdir(exist_ok=True)
    bad_ctx = common.WORK / "bad_n.ctx"
    bad_ctx.write_text(BAD_CTX_TEXT)
    return (["enumerate", "--type", "congruence", "--m-max", "2"],
            ["enumerate", "--type", "D", "--n-max", "1"],
            ["eval", "--ctx", str(bad_ctx), "L*H"])


def contract_violations() -> int:
    """Bad inputs that do not exit 2 cleanly."""
    count = 0
    for argv in bad_inputs():
        _, code, _, err = common.spawn([sys.executable, "-c", BOOT, *argv])
        if code != 2 or b"Traceback" in err:
            count += 1
    return count


def make_deck(state: State, rng: random.Random):
    ops = [Op("verify", ["verify"], None)] * 2
    for n in (2, 3, 5, None):
        for fmt in FORMATS:
            n_args = ["--n", str(n)] if n else []
            ops.append(Op("C", ["enumerate", "--type", "C", *n_args,
                                "--format", fmt], (n, fmt)))
    for fmt in FORMATS:
        ops.append(Op("P", ["enumerate", "--type", "P", "--format", fmt], fmt))
    for fmt in FORMATS:
        n_max = 6 if fmt == "table" else rng.randint(2, 40)
        ops.append(Op("D", ["enumerate", "--type", "D", "--n-max", str(n_max),
                            "--format", fmt], (n_max, fmt)))
    # Bulk bounds in one narrow band, once per format: op latencies fall
    # into three clusters (verify > bulk > the rest), so that op_ms.p99
    # lies inside the verify cluster and op_ms.p90 inside the bulk
    # cluster, not on an edge between two clusters.
    bounds = [(19, fmt) for fmt in FORMATS]
    bounds += [(rng.randint(1950, 2050), fmt) for fmt in FORMATS]
    for m_max, fmt in bounds:
        ops.append(Op("congruence", ["enumerate", "--type", "congruence",
                                     "--m-max", str(m_max), "--format", fmt],
                      (m_max, fmt)))
    for k, name in enumerate(common.SHIPPED_CONTEXTS):
        op = ring_eval.make_op("product", k, state.contexts[k], rng, True)
        ops.append(Op("eval", ["eval", "--ctx",
                               str(common.CONTEXTS / f"{name}.ctx"), op.text],
                      op))
    for case in ("1-4", "2-1"):
        ops.append(Op("exclusions", ["exclusions", "--case", case],
                      f"exclusions-{case}"))
    for fmt in FORMATS:
        ops.append(Op("family", ["family-table", "--format", fmt],
                      f"family-table.{fmt}"))
    rng.shuffle(ops)
    return ops


def run_op(state: State, op: Op):
    _, code, out, err = common.spawn([sys.executable, "-c", BOOT, *op.argv])
    state.max_rss_mb = max(state.max_rss_mb,
                           int(PEAK.search(err).group(1)) / 1024)
    return code, out, err


def run_op_in_process(state: State, op: Op):
    """The same command through cli.run, with stdout and stderr captured."""
    from fanocalc import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(op.argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _csv_rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _golden_c(state: State, n):
    names = [f"type_C_n{k}" for k in ((n,) if n else (2, 3, 5))]
    texts = [state.golden[name] for name in names]
    header = texts[0].splitlines(True)[0]
    return header + "".join(t.split("\n", 1)[1] for t in texts)


def _golden_d(state: State, n_max: int):
    rows = [r for r in _csv_rows(state.golden["type_D_raw"])
            if int(r["n"]) <= n_max]
    # Columns the enumerate output carries: c2 = (c2/d)*d, no d'.
    keys = ("n", "i", "tau", "c1", "c2", "d", "tau_prime", "i_prime")
    return [tuple(r[k] for k in keys) for r in rows], rows


def _d_projection(rows):
    out = []
    for r in rows:
        c2 = Fraction(r["c2_over_d"]) * int(r["d"])
        out.append((r["n"], r["i"], r["tau"], r["c1"], str(c2), r["d"],
                    r["tau_prime"], r["i_prime"]))
    return out


def congruences(m_max: int):
    """(alpha, z, m) by divisors of m-1: t = m-z-1 divides m-1 with
    alpha = (m-1)/t >= 3 and 0 < 3z <= 2m."""
    out = []
    for m in range(3, m_max + 1):
        t = 1
        while t * t <= m - 1:
            if (m - 1) % t == 0:
                for d in {t, (m - 1) // t}:
                    alpha, z = (m - 1) // d, m - 1 - d
                    if alpha >= 3 and 0 < 3 * z <= 2 * m:
                        out.append((alpha, z, m))
            t += 1
    return sorted(out)


def _congruence_rows(text: str, fmt: str):
    if fmt == "json":
        return [(r["alpha"], r["z"], r["m"]) for r in json.loads(text)["rows"]]
    sep = "," if fmt == "csv" else None
    return [tuple(int(x) for x in line.split(sep))
            for line in text.splitlines()[2:]]


def check_op(state: State, op: Op, result) -> bool:
    code, out, err = result
    state.stdout_bytes += len(out)
    state.outputs += 1
    if code != 0 or b"Traceback" in err:
        return False
    text = out.decode()
    kind = op.kind
    if kind == "verify":
        return out == state.expected["verify"]
    if kind in ("exclusions", "family"):
        return out == state.expected[op.extra]
    if kind in ("C", "P"):
        if kind == "C":
            want = _golden_c(state, op.extra[0])
            fmt = op.extra[1]
        else:
            want, fmt = state.golden["type_P"], op.extra
        if fmt == "csv":
            return text == want
        if fmt == "json":
            payload = json.loads(text)
            return payload["header"] == [] and payload["rows"] == _csv_rows(want)
        return text.startswith("n  kind")
    if kind == "D":
        n_max, fmt = op.extra
        want, raw = _golden_d(state, n_max)
        header = f"bounds: n_max={n_max} tau_prime_max=8"
        if fmt == "json":
            payload = json.loads(text)
            return payload["header"] == [header] \
                and _d_projection(payload["rows"]) == want
        if fmt == "csv":
            first, rest = text.split("\n", 1)
            return first == f"# {header}" and _d_projection(_csv_rows(rest)) == want
        listed = [line.strip() for line in text.splitlines()
                  if line.startswith("  ") and line[2:3].isdigit()]
        return listed == [", ".join(r.values()) for r in raw]
    if kind == "congruence":
        m_max, fmt = op.extra
        if m_max == 19 and fmt == "csv":
            return text == state.golden["congruences_m19"]
        if fmt != "json" and not text.startswith(f"# bounds: m_max={m_max}\n"):
            return False
        return _congruence_rows(text, fmt) == congruences(m_max)
    if kind == "eval":
        state.evals.append((op.extra, text))
        return True
    return False


def final_checks(state: State, tally: common.Tally) -> None:
    """sympy on the degree that every eval op printed."""
    from oracles import RingOracle
    oracle = RingOracle()
    for op, text in state.evals:
        ring = state.contexts[op.ctx].ring
        want = oracle.normal_form(oracle.build(op.spec), ring.n,
                                  ring.rel_a, ring.rel_b)
        first = text.splitlines()[0]
        expected = ring_eval.ftext(oracle.degree(want, ring.n, ring.degree_s)) \
            if want else "0"
        if first != expected:
            tally.fail(f"eval {op.text!r}: printed {first}, sympy {expected}")


def peak_rss_mb(state: State) -> float:
    return state.max_rss_mb

import contextlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fanocalc import chow, cli, expr, families
from fanocalc.slope import CSV_COLUMNS

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI = GOLDEN / "cli"
EXPECTED = GOLDEN.parent.parent / "bench" / "expected"
CONTEXTS = (pathlib.Path(__file__).parent.parent / "src" / "fanocalc"
            / "data" / "contexts")


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Every pinned output, once: the argv of a command and the file that
# holds its stdout, byte for byte.  The test id is the file name.
PINNED = {
    "enumerate --type C --n 2 --format csv": GOLDEN / "type_C_n2.csv",
    "enumerate --type C --n 3 --format csv": GOLDEN / "type_C_n3.csv",
    "enumerate --type C --n 5 --format csv": GOLDEN / "type_C_n5.csv",
    "enumerate --type P --format csv": GOLDEN / "type_P.csv",
    "enumerate --type congruence --m-max 19 --format csv":
        GOLDEN / "congruences_m19.csv",
    "enumerate --type C --format table": CLI / "enumerate-C.table.out",
    "enumerate --type C --format json": CLI / "enumerate-C.json.out",
    "enumerate --type P --format table": CLI / "enumerate-P.table.out",
    "enumerate --type P --format json": CLI / "enumerate-P.json.out",
    "enumerate --type D --format table": CLI / "enumerate-D.table.out",
    "enumerate --type D --format json": CLI / "enumerate-D.json.out",
    "enumerate --type D --format csv": CLI / "enumerate-D.csv.out",
    "enumerate --type D --n-max 2 --format table":
        CLI / "enumerate-D-n-max-2.table.out",
    "enumerate --type congruence --format table":
        CLI / "enumerate-congruence.table.out",
    "enumerate --type congruence --format json":
        CLI / "enumerate-congruence.json.out",
    "exclusions --case 1-2": CLI / "exclusions-1-2.out",
    "exclusions --case 1-4": EXPECTED / "exclusions-1-4.out",
    "exclusions --case 2-1": EXPECTED / "exclusions-2-1.out",
    "family-table --format csv": EXPECTED / "family-table.csv.out",
    "family-table --format json": EXPECTED / "family-table.json.out",
    "family-table --format table": EXPECTED / "family-table.table.out",
    "verify": EXPECTED / "verify.out",
    "--help": CLI / "help.out",
    "enumerate --help": CLI / "enumerate-help.out",
}


@pytest.mark.parametrize("argv, path", [
    pytest.param(argv, path, id=path.name) for argv, path in PINNED.items()])
def test_pinned_output(capsys, argv, path):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.encode() == path.read_bytes()


def test_enumerate_json_mirrors_csv_fields(capsys):
    # The JSON rows carry the CSV columns, in order, as the code names
    # them: a renamed column would change both goldens together.
    code, out, _ = run(capsys, "enumerate", "--type", "C", "--n", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["rows"][0]) == list(CSV_COLUMNS)
    assert payload["rows"][0]["Delta"] == "-12"


def test_eval_output_matches_golden(capsys):
    # Each expression of eval.in in each shipped context, under a "# "
    # line that names both.
    corpus = (CLI / "eval.in").read_text().splitlines()
    printed = []
    for path in sorted(CONTEXTS.glob("*.ctx")):
        for text in corpus:
            code, out, err = run(capsys, "eval", "--ctx", str(path), text)
            assert (code, err) == (0, "")
            printed.append(f"# {path.name}: {text}\n{out}")
    assert "".join(printed) == (CLI / "eval.out").read_text()


def run_quietly(*argv):
    """Exit code and stderr of cli.run, with both streams captured.  For
    hypothesis tests, which cannot take the function-scoped capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, err.getvalue()


@contextlib.contextmanager
def input_file(data: bytes):
    """A fresh file holding `data`, for one hypothesis example."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_bytes(data)
        yield path


@settings(max_examples=300, deadline=None)
@given(st.text("LHKDx'0123456789/+-*^() ", max_size=40))
def test_eval_fuzz_exits_0_or_2_and_round_trips(text):
    code, err = run_quietly("eval", "--ctx", str(CONTEXTS / "w36.ctx"), "--",
                            text)
    assert code in (0, 2) and "Traceback" not in err
    try:
        ast = expr.parse_text(text)
    except expr.ExprError:
        return
    assert expr.parse_text(expr.to_text(ast)) == ast


@st.composite
def mutated(draw, lines, line):
    """`lines` with up to three of them replaced by, or followed by, a
    line drawn from `line`, as UTF-8; or else any bytes."""
    lines = list(lines)
    for k, new in draw(st.lists(st.tuples(st.integers(0, len(lines)), line),
                                max_size=3)):
        lines[k:k + 1] = [new]
    text = "\n".join(lines).encode("utf-8")
    return draw(st.just(text) | st.binary(max_size=60))


_CTX_LINE = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(("n", "gen_names", "rel_a", "rel_b",
                               "degree_s", " n ", "x", "")),
              st.text("0123456789-/LH,. x#=", max_size=8)),
    st.text(max_size=12))
_NAMES = st.sampled_from(("L,H", "H,L", "L,L", "L,", "K',H"))
_RATIONAL = st.fractions(-9, 9, max_denominator=9)


@settings(max_examples=300, deadline=None)
@given(st.builds("n={}\ngen_names={}\nrel_a={}\nrel_b={}\ndegree_s={}\n"
                 .format, st.integers(0, 1001), _NAMES, _RATIONAL,
                 _RATIONAL, _RATIONAL).map(str.encode)
       | mutated((CONTEXTS / "w36.ctx").read_text().splitlines(), _CTX_LINE))
def test_eval_context_fuzz_exits_0_or_2(data):
    with input_file(data) as path:
        code, err = run_quietly("eval", "--ctx", str(path), "L*H")
    assert code in (0, 2) and "Traceback" not in err


_DATASET = CONTEXTS.parent / "fano_manifolds.csv"
_CELLS = ("", "0", "1", "2", "3", "4", "5", "6", "18", "-1", "x", "P2", "Q4",
          "V_4^5", "K(G2)_H", '"a,b"', '"')
_CSV_LINE = st.one_of(
    st.lists(st.sampled_from(_CELLS), max_size=8).map(",".join),
    st.text(max_size=12))


@settings(max_examples=100, deadline=None)
@given(mutated(_DATASET.read_text().splitlines(), _CSV_LINE),
       st.sampled_from((("C", "--n", "5"), ("D",), ("P",))),
       st.sampled_from(cli.FORMATS))
def test_dataset_fuzz_exits_0_or_2(data, kind, fmt):
    with input_file(data) as path, \
            mock.patch.dict(os.environ, {"FANOCALC_DATA": str(path)}):
        code, err = run_quietly("enumerate", "--type", *kind, "--format", fmt)
    assert code in (0, 2) and "Traceback" not in err


# Every command but verify, every option, format and case, and small
# numbers only, so that each example runs in milliseconds.
_OPTIONS = ("--type", "--n", "--n-max", "--m-max", "--format", "--case",
            "--ctx", "--help", "--")
_VALUES = ("P", "C", "D", "congruence", "table", "csv", "json", "1-2", "1-4",
           "2-1", str(CONTEXTS / "w36.ctx"), str(CONTEXTS), "L*H", "L^H",
           "-1", "0", "1", "2", "3", "4", "5", "20")
_COMMANDS = ("enumerate", "eval", "exclusions", "family-table")
_WORD = st.sampled_from(_COMMANDS + _OPTIONS + _VALUES)


@settings(max_examples=300, deadline=None)
@given(st.builds(
    lambda command, options, noise: [command, *sum(options, ()), *noise],
    st.sampled_from(_COMMANDS),
    st.lists(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
             max_size=3),
    st.lists(_WORD, max_size=2)) | st.lists(_WORD, max_size=8))
def test_argv_fuzz_exits_0_1_or_2(argv):
    code, err = run_quietly(*argv)
    assert code in (0, 1, 2) and "Traceback" not in err


def _parse(command, **given):
    """The parse of a command line of `command` that gives `given`."""
    return command, {dest: given.get(dest, default) for dest, _, default, _
                     in cli.COMMANDS[command][2].values()}


def _eval(ctx_path, expression):
    return _parse("eval", ctx_path=ctx_path, expression=expression)


# The grammar, rule by rule: each argv and what parse_args makes of it,
# "help", the last line of a usage error, or the parse.
_GRAMMAR = [
    # -h or --help prints help, and takes no value.
    ([], "missing command"),
    (["--help"], "help"),
    (["verify", "-h"], "help"),
    (["--help=x"], "--help takes no value"),
    (["enumerate", "--help="], "--help takes no value"),
    (["-h=h"], "-h takes no value"),
    (["enumerate", "-h=h"], "-h takes no value"),
    # Flag names match exactly: no prefix stands for a flag.
    (["enumerate", "--type", "C"], _parse("enumerate", kind="C")),
    (["enumerate", "--ty", "C"], "unrecognized: --ty"),
    (["enumerate", "--h"], "unrecognized: --h"),
    (["enumerate", "--=C"], "unrecognized: --=C"),
    (["enumerate", "-h", "--=C"], "help"),
    (["enumerate", "-hx"], "unrecognized: -hx"),
    # A flag's value follows "=", or is the next word, whatever it is;
    # the last one given wins.
    (["enumerate", "--type=C", "--n=5", "--format=json"],
     _parse("enumerate", kind="C", n=5, fmt="json")),
    (["enumerate", "--type", "C", "--type", "P"],
     _parse("enumerate", kind="P")),
    (["enumerate", "--type", "D", "--n-max", " 7"],
     _parse("enumerate", kind="D", n_max=7)),
    (["enumerate", "--type", "D", "--n-max", "-5\n"],
     _parse("enumerate", kind="D", n_max=-5)),
    (["enumerate", "--type", "D", "--n-max", "-\u0663"],
     _parse("enumerate", kind="D", n_max=-3)),
    (["enumerate", "--type", "X", "-h"], "invalid --type value: 'X'"),
    (["enumerate", "-h", "--type", "X"], "help"),
    (["enumerate", "--type", "--help"], "invalid --type value: '--help'"),
    (["enumerate", "--type=--"], "invalid --type value: '--'"),
    (["enumerate", "--type", "C", "--n", "x"], "invalid --n value: 'x'"),
    (["eval", "x", "--ctx"], "--ctx expects a value"),
    (["eval", "--ctx", "-L", "x"], _eval("-L", "x")),
    (["eval", "--ctx", "--", "x"], _eval("--", "x")),
    (["eval", "--ctx=--", "L"], _eval("--", "L")),
    (["eval", "--ctx=", ""], _eval("", "")),
    # "--" ends the options, and is dropped.
    (["--", "verify"], _parse("verify")),
    (["verify", "--"], _parse("verify")),
    (["eval", "x", "--ctx", "f", "--"], _eval("f", "x")),
    (["eval", "--ctx", "f", "x", "--"], _eval("f", "x")),
    (["eval", "--ctx", "f", "--", "--"], _eval("f", "--")),
    (["eval", "--ctx", "f", "--", "-h"], _eval("f", "-h")),
    # Any other word fills the positional, and is refused where it stands
    # when there is none, or it is taken.
    (["eval", "--ctx", "F", "-L"], _eval("F", "-L")),
    (["eval", "--ctx", "f", "-1.5"], _eval("f", "-1.5")),
    (["eval", "--ctx", "f", "-"], _eval("f", "-")),
    (["eval", "--ctx", "f", "-(L) + H"], _eval("f", "-(L) + H")),
    (["eval", "--ctx", "f", "x", "y"], "unrecognized: y"),
    (["verify", "-x", "-h"], "unrecognized: -x"),
    (["enumerate", "json", "--type", "C"], "unrecognized: json"),
    (["nope"], "invalid command value: 'nope'"),
    (["-L", "verify"], "invalid command value: '-L'"),
    (["-1"], "invalid command value: '-1'"),
    (["-hx"], "invalid command value: '-hx'"),
    (["-hh"], "invalid command value: '-hh'"),
    # A required option still missing is refused at the end.
    (["enumerate"], "missing --type"),
    (["eval"], "missing --ctx, expression"),
]


@pytest.mark.parametrize("argv, want", _GRAMMAR,
                         ids=[repr(argv) for argv, _ in _GRAMMAR])
def test_grammar(capsys, argv, want):
    try:
        got = cli.parse_args(argv)
    except SystemExit as err:
        out, text = capsys.readouterr()
        if err.code == 0:
            assert (out.startswith("usage: fanocalc"), text) == (True, "")
            got = "help"
        else:
            assert (err.code, out) == (2, "")
            got = text.splitlines()[-1].removeprefix("fanocalc: error: ")
    assert got == want


@st.composite
def command_line(draw):
    """A command, a valid value for each option it is given, and a
    command line that gives them: each option as "--f v" or "--f=v", in
    any order, and the positional anywhere or after "--"."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    table = cli.COMMANDS[command][2]
    given, words, positional = {}, [], []
    for flag, (dest, kind, _, required) in table.items():
        if not (required or draw(st.booleans())):
            continue
        value = draw(st.sampled_from(kind) if type(kind) is tuple else
                     st.integers() if kind is int else st.text())
        given[dest] = value
        if flag[0] != "-":
            positional = [value]
        elif draw(st.booleans()):
            words.append([f"{flag}={value}"])
        else:
            words.append([flag, str(value)])
    words = draw(st.permutations(words))
    # A positional among the options must not read as one of them.
    if positional and (draw(st.booleans()) or positional[0] == "--" or
                       positional[0].partition("=")[0] in ("-h", "--help",
                                                           *table)):
        words.append(["--", *positional])
    elif positional:
        words.insert(draw(st.integers(0, len(words))), positional)
    return [command, *sum(words, [])], _parse(command, **given)


@settings(max_examples=500, deadline=None)
@given(command_line())
def test_parse_args_round_trips(case):
    argv, want = case
    assert cli.parse_args(argv) == want


def test_usage_error_prints_usage_and_one_error_line(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "X")
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: fanocalc enumerate [-h] --type ")
    assert error == "fanocalc: error: invalid --type value: 'X'"
    code, out, err = run(capsys, "nope")
    assert (code, out) == (2, "")
    assert err.startswith("usage: fanocalc [-h] {verify,enumerate,")
    assert err.count("\n") == 2


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_has_help(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fanocalc {command} [-h]")
    assert cli.COMMANDS[command][1] in out


def test_eval_bad_expression_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--ctx", str(CONTEXTS / "w36.ctx"),
                         "L^H")
    assert (code, out) == (2, "")
    assert err.startswith("input error: column 3: ")
    assert "integer literal" in err


def test_eval_missing_context_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.ctx"
    code, out, err = run(capsys, "eval", "--ctx", str(missing), "H")
    assert (code, out) == (2, "")
    assert err == ("input error: [Errno 2] No such file or directory: "
                   f"{str(missing)!r}\n")


def test_eval_power_far_beyond_nilpotency_is_fast_and_binomial(capsys):
    # (1 + L)^k = sum over j <= n+1 of C(k, j) L^j in the w36 ring.
    path = CONTEXTS / "w36.ctx"
    k = 3_000_000
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--ctx", str(path), f"(1+L)^{k}")
    elapsed = time.perf_counter() - start
    assert code == 0
    ctx = chow.load_context(path)
    want = ctx.scalar(0)
    for j in range(ctx.n + 2):
        want = want + (ctx.gen1 ** j).scale(math.comb(k, j))
    assert out == f"{want!r}\n"
    assert elapsed < 10.0


def test_eval_folds_a_scalar_factor_into_the_power(capsys):
    # 2 is folded into L before the power, so (2*L)^k vanishes by
    # nilpotency and 2^k is never computed.
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--ctx", str(CONTEXTS / "w36.ctx"),
                         "(2*L)^1000000000")
    assert (code, out, err) == (
        0, "0\nnote: result vanishes in the truncated ring\n", "")
    assert time.perf_counter() - start < 10.0


def test_eval_result_past_the_print_limit_exits_2(capsys):
    limit = sys.get_int_max_str_digits()
    path = str(CONTEXTS / "w36.ctx")
    code, out, _ = run(capsys, "eval", "--ctx", path, "2^14000")
    assert code == 0
    assert out == f"({2 ** 14000})*1\n"
    code, out, err = run(capsys, "eval", "--ctx", path, "2^20000")
    assert (code, out) == (2, "")
    assert err == ("input error: the result has too many digits to print "
                   f"(limit: {limit} digits per integer)\n")


def test_eval_oversized_power_exits_2_fast():
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fanocalc", "eval", "--ctx",
                           str(CONTEXTS / "w36.ctx"), "2^30000000"],
                          env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: column 3: power too large")
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("digits", [1000, 4000])
def test_eval_power_with_a_huge_exponent_exits_2_fast(digits):
    # The result is small enough, but a bound that missed the log2(k)
    # squarings let the 1000-digit exponent run for 6 s and the 4000-digit
    # one for over a minute; in a child process, so that they fail by the
    # timeout instead of hanging the suite.
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fanocalc", "eval", "--ctx",
                           str(CONTEXTS / "w36.ctx"), "(1+L)^" + "9" * digits],
                          env=env, capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error: column 7: power too large")
    assert elapsed < 1.0


def test_eval_power_filling_a_large_context_exits_2_fast(tmp_path):
    # In a child process, so that a bound that misses these powers fails
    # by the timeout instead of hanging the suite: (3/2+L)^1001 took 17 s
    # and printed 4.3 MB that way, and (3/2+L)^4000 did not end in 90 s.
    path = tmp_path / "big.ctx"
    path.write_text("n=1000\ngen_names=L,H\nrel_a=1/3\nrel_b=-2/7\n"
                    "degree_s=5\n")
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def child(text):
        return subprocess.run([sys.executable, "-m", "fanocalc", "eval",
                               "--ctx", str(path), text], env=env,
                              capture_output=True, text=True, timeout=10)

    for text in ("(3/2+L)^1001", "(3/2+L)^4000"):
        proc = child(text)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(
            "input error: column 9: power too large")
    # A homogeneous power fills one slot and is computed.
    ctx = chow.load_context(path)
    want = chow.intersection_degree((ctx.gen1 + ctx.gen2) ** 1001)
    proc = child("(L+H)^1001")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{want}\n", "")


def test_eval_product_chain_filling_a_large_context_exits_2_fast(tmp_path):
    # In a child process, so that a bound that misses this chain fails by
    # the timeout instead of hanging the suite: 999 distinct rational
    # linear factors took 18.5 s that way, and 1999 more than 100 s.
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def child(ctx_text, text):
        path = tmp_path / "chain.ctx"
        path.write_text(ctx_text)
        return subprocess.run([sys.executable, "-m", "fanocalc", "eval",
                               "--ctx", str(path), text], env=env,
                              capture_output=True, text=True, timeout=10)

    text = "*".join(f"({k}+1/{k + 2}*L+H)" for k in range(1, 2000))
    assert len(text) == 33_773
    proc = child("n=1000\ngen_names=L,H\nrel_a=1/3\nrel_b=-2/7\n"
                 "degree_s=5\n", text)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"input error: column \d+: product too large: "
                        r"about \d+ bits, above the limit of 1048576\n",
                        proc.stderr)
    # Twenty linear forms reach the top degree at n = 19, and the chain
    # prints the degree that sympy gives.
    sp = pytest.importorskip("sympy")
    from test_chow_oracle import SympyRing
    ctx = chow.RingCtx(19, ("L", "H"), Fraction(1, 3), Fraction(-2, 7),
                       Fraction(5))
    forms = [(Fraction(k, k + 1), Fraction(k + 2, 3)) for k in range(1, 21)]
    ring = SympyRing(sp, ctx)
    top = ring.normal_form(math.prod(
        ring.q(a) * ring.g1 - ring.q(b) * ring.g2 for a, b in forms))
    proc = child(chow.dumps_context(ctx),
                 "*".join(f"({a}*L - {b}*H)" for a, b in forms))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{top[1, 19] * ctx.degree_s}\n"


@pytest.mark.parametrize("text, message", [
    ("n=x\ngen_names=L,H\nrel_a=0\nrel_b=-3\ndegree_s=1\n",
     "line 1: field n: 'x' is not an integer"),
    ("n=3\ngen_names=L,H\nrel_a=0\nrel_b=1/0\ndegree_s=1\n",
     "line 4: field rel_b: '1/0' is not a rational p/q"),
    # Elements are dense in n, so n is bounded.
    ("n=1000000\ngen_names=L,H\nrel_a=0\nrel_b=-3\ndegree_s=1\n",
     "base dimension n must be from 2 to 1000"),
    # A repeated field is refused, not read as its last value.
    ("n=3\ngen_names=L,H\nrel_a=0\nrel_b=-3\ndegree_s=1\nn=5\n",
     "line 6: field n is set twice (first on line 1)"),
    ("n=3\ngen_names=L,L\nrel_a=0\nrel_b=-3\ndegree_s=1\n",
     "line 2: field gen_names must hold exactly two distinct non-empty "
     "labels"),
    ("n=3\ngen_names=L,\nrel_a=0\nrel_b=-3\ndegree_s=1\n",
     "line 2: field gen_names must hold exactly two distinct non-empty "
     "labels"),
    # Written as Latin-1, \xff is a byte that UTF-8 does not allow.
    ("n=3\ngen_names=L,H\nrel_a=0\nrel_b=-3\ndegree_s=1\n\xff\n",
     "'utf-8' codec can't decode byte 0xff in position 46: invalid start "
     "byte"),
])
def test_eval_bad_context_value_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.ctx"
    path.write_text(text, encoding="latin-1")
    code, out, err = run(capsys, "eval", "--ctx", str(path), "L*H")
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("argv, bound", [
    (("enumerate", "--type", "congruence", "--m-max", "2"), "m_max"),
    (("enumerate", "--type", "D", "--n-max", "1"), "n_max"),
])
def test_enumerate_bound_below_minimum_exits_2(capsys, argv, bound):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and bound in err


def test_enumerate_m_max_above_cap_exits_2(capsys):
    # The list grows linearly in m_max; past the cap it is refused at once.
    code, out, err = run(capsys, "enumerate", "--type", "congruence",
                         "--m-max", str(families.MAX_M_MAX + 1))
    assert (code, out) == (2, "")
    assert err == "input error: m_max must be at most 1000000\n"


@pytest.mark.parametrize("module", ["fanocalc", "fanocalc.cli"])
def test_python_m_entry_points(capsys, module):
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["exclusions", "--case", "2-1"]
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]
    bad = subprocess.run([sys.executable, "-m", module, "enumerate"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2


def test_usage_error_exits_2(capsys):
    assert run(capsys, "enumerate")[0] == 2
    assert run(capsys, "enumerate", "--type", "X")[0] == 2
    assert run(capsys, "enumerate", "--type", "C", "--n", "4")[0] == 2
    for kind, n in (("P", "4"), ("C", "1")):
        code, out, err = run(capsys, "enumerate", "--type", kind, "--n", n)
        assert (code, out) == (2, "")
        assert err == "input error: n must be 2, 3 or 5\n"
    assert run(capsys, "enumerate", "--type", "D",
               "--tau-prime-max", "3")[0] == 2
    # A bound that another type reads is refused, by name.
    for argv, option, kind in (
            (("--type", "D", "--n", "4"), "--n", "D"),
            (("--type", "P", "--n-max", "1", "--m-max", "1"), "--n-max", "P"),
            (("--type", "C", "--m-max", "3"), "--m-max", "C"),
            (("--type", "congruence", "--n", "2"), "--n", "congruence")):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out) == (2, "")
        assert err == \
            f"input error: {option} does not apply to --type {kind}\n"


def test_enumerate_type_D_time_does_not_depend_on_n_max():
    # In a child process, so that a scan up to n_max fails the test by
    # the timeout instead of hanging the suite.
    n_max = 10 ** 18
    src = pathlib.Path(cli.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "fanocalc", "enumerate", "--type", "D",
         "--n-max", str(n_max), "--format", "csv"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, rows = proc.stdout.split("\n", 1)
    assert header == f"# bounds: n_max={n_max} tau_prime_max=8"
    default = (CLI / "enumerate-D.csv.out").read_text(encoding="utf-8")
    assert rows == default.split("\n", 1)[1]


def test_eval_time_is_bounded_at_the_token_limit(capsys):
    # A flat sum of exactly MAX_TOKENS tokens, in a child process, so that
    # a slow parse or evaluation fails the test by the timeout.
    text = "+".join(["1/2*L^2*H", "3*L*H^2"] * 3124
                    + ["1/2*L^2*H", "-(L^2*H)"])
    assert len(expr.tokenize(text)) == expr.MAX_TOKENS
    src = pathlib.Path(cli.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "fanocalc", "eval", "--ctx",
         str(CONTEXTS / "p2.ctx"), text],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, "eval", "--ctx",
                              str(CONTEXTS / "p2.ctx"),
                              "3123/2*L^2*H + 9372*L*H^2")[1]


def test_exclusion_cases_are_the_dossiers():
    from fanocalc import classify
    assert sorted(cli.EXCLUSION_CASES) == sorted(
        f"{tau}-{tau_prime}" for _, tau, tau_prime in classify._DOSSIERS)


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    # A stand-in under the name of one check fails in its place.
    from fanocalc import verify

    def failing(rng):
        raise verify.CheckFailed("n=2 tau=1")

    failing.check_name = verify.check_exact_angle.check_name
    monkeypatch.setattr(verify, "CHECKS", tuple(
        failing if fn is verify.check_exact_angle else fn
        for fn in verify.CHECKS))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[ok] norm multiplicative\n[FAIL] exact angle powers\n" \
        "       n=2 tau=1\n[ok] arg_less_than antitone\n" in out
    assert out.endswith("19/20 checks passed\n")


def test_verify_reports_an_exception_as_a_failed_check(capsys, monkeypatch):
    # A dossier that raises AssertionError does so inside the four checks
    # that call it; each is a [FAIL] line, and the run goes on.
    from fanocalc import classify

    def broken():
        raise AssertionError("broken dossier")

    monkeypatch.setattr(classify, "exclude_1_4", broken)
    code, out, err = run(capsys, "verify")
    assert code == 1 and "Traceback" not in err
    detail = "       AssertionError: broken dossier\n"
    for name in ("cross-basis degrees", "classification tables",
                 "deterministic output", "perturbed thresholds fail"):
        assert f"[FAIL] {name}\n{detail}" in out
    assert out.count("[FAIL]") == 4
    assert out.endswith("16/20 checks passed\n")


def test_dataset_env_override(capsys, tmp_path, monkeypatch):
    src = (pathlib.Path(__file__).parent.parent / "src" / "fanocalc"
           / "data" / "fano_manifolds.csv")
    copy = tmp_path / "manifolds.csv"
    shutil.copy(src, copy)
    monkeypatch.setenv("FANOCALC_DATA", str(copy))
    code, out, _ = run(capsys, "enumerate", "--type", "C", "--n", "5",
                       "--format", "csv")
    assert code == 0
    assert out == (GOLDEN / "type_C_n5.csv").read_text()
    # Dropping the degree-four del Pezzo removes one survivor.
    trimmed = [line for line in src.read_text().splitlines()
               if not line.startswith("5,4,4,")]
    copy.write_text("\n".join(trimmed) + "\n")
    code, out, _ = run(capsys, "enumerate", "--type", "C", "--n", "5",
                       "--format", "csv")
    assert code == 0
    assert "V_4^5" not in out


@pytest.mark.parametrize("text, message", [
    ("dim,index,degree\n5,4,4\n",
     "missing column(s) name, b4_rank, source_note"),
    ("dim,index,degree,name,b4_rank,source_note\n2,3,1,P2,,plane\n5,4\n",
     "line 3: invalid literal for int() with base 10: ''"),
    ("dim,index,degree,name,b4_rank,source_note\n2,4,1,P2,,plane\n",
     "line 2: index must lie between 1 and dim+1"),
    ("dim,index,degree,name,b4_rank,source_note\n2,3,1,P2,,plane\n"
     "2,3,1,P2,," + "x" * 131073 + "\n",
     "line 3: field larger than field limit (131072)"),
    ("dim,index,degree,name,b4_rank,source_note\n2,3,1,P2,,plane\n"
     "5,4,4,V_4^5,,note,EXTRA,MORE\n",
     "line 3: 2 cell(s) more than the header"),
    # Written as Latin-1, \xff is a byte that UTF-8 does not allow.
    ("dim,index,degree,name,b4_rank,source_note\n2,3,1,P\xff,,plane\n",
     "'utf-8' codec can't decode byte 0xff in position 49: invalid start "
     "byte"),
], ids=["missing-columns", "short-row", "bad-index", "oversized-field",
        "extra-cells", "not-utf-8"])
def test_dataset_bad_file_exits_2(capsys, tmp_path, monkeypatch, text,
                                  message):
    path = tmp_path / "manifolds.csv"
    path.write_text(text, encoding="latin-1")
    monkeypatch.setenv("FANOCALC_DATA", str(path))
    code, out, err = run(capsys, "enumerate", "--type", "C", "--n", "5")
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: {message}\n"


# Each command imports only the modules it runs: with no cached bytecode
# every module loaded is compiled from source on each start.  The probe
# runs a command, or with "import" imports one module, and prints the exit
# code, which of dataclasses, inspect, ast, argparse, gettext and locale
# (costly to import, and needed by none) were loaded, the fanocalc modules
# loaded, and whether importlib.resources, typing, shutil, re and fractions
# were loaded.
_IMPORT_PROBE = """\
import contextlib, importlib, io, sys
from fanocalc import cli
if sys.argv[1] == "import":
    importlib.import_module("fanocalc." + sys.argv[2])
    code = 0
else:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
print(code, *[m for m in ("dataclasses", "inspect", "ast", "argparse",
                          "gettext", "locale") if m in sys.modules])
print(*sorted(m.partition(".")[2] for m in sys.modules
              if m.startswith("fanocalc.")))
print(*[m in sys.modules for m in ("importlib.resources", "typing",
                                   "shutil", "re", "fractions")])
"""
_ENUMERATE = "classify cli dataset exact families slope"
_DOSSIERS = "chow " + _ENUMERATE
_ALL = "chow classify cli dataset exact expr families slope verify"
# Help and the table output of the commands that compute no rational
# load neither re nor fractions.
_PLAIN = {("--help",), ("family-table",),
          ("enumerate", "--type", "congruence"),
          *((command, "--help") for command in cli.COMMANDS)}


@pytest.mark.parametrize("argv, modules", [
    pytest.param(("--help",), "cli", id="help"),
    *(pytest.param((command, "--help"), "cli", id=f"help-{command}")
      for command in cli.COMMANDS),
    pytest.param(("family-table",), "cli families", id="family-table"),
    pytest.param(("enumerate", "--type", "congruence"), "cli families",
                 id="enumerate-congruence"),
    pytest.param(("enumerate", "--type", "P"), _ENUMERATE, id="enumerate-P"),
    pytest.param(("enumerate", "--type", "D"), _ENUMERATE, id="enumerate-D"),
    pytest.param(("enumerate", "--type", "C", "--n", "2"), _ENUMERATE,
                 id="enumerate-C-n2"),
    pytest.param(("enumerate", "--type", "C", "--n", "3"), _ENUMERATE,
                 id="enumerate-C-n3"),
    pytest.param(("enumerate", "--type", "C", "--n", "5"), _DOSSIERS,
                 id="enumerate-C-n5"),
    pytest.param(("enumerate", "--type", "C"), _DOSSIERS, id="enumerate-C"),
    pytest.param(("exclusions", "--case", "1-4"), _DOSSIERS,
                 id="exclusions-1-4"),
    pytest.param(("exclusions", "--case", "1-2"), _ENUMERATE,
                 id="exclusions-1-2"),
    pytest.param(("exclusions", "--case", "2-1"), _ENUMERATE,
                 id="exclusions-2-1"),
    pytest.param(("eval", "--ctx", str(CONTEXTS / "w36.ctx"), "L*H^5"),
                 "chow cli expr", id="eval"),
    pytest.param(("verify",), _ALL, id="verify"),
    *(pytest.param(("import", module), modules, id=f"import-{module}")
      for module, modules in [
          ("chow", "chow cli"), ("classify", _ENUMERATE),
          ("cli", "cli"), ("dataset", "cli dataset"),
          ("exact", "cli exact"), ("expr", "chow cli expr"),
          ("families", "cli families"), ("slope", "cli exact slope"),
          ("verify", _ALL)]),
])
def test_commands_import_only_what_they_run(argv, modules):
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    # A site hook may load importlib.resources, and with it typing, or
    # shutil before fanocalc does; under -S none runs, so there no command
    # may load them.
    for flags in ((), ("-S",)):
        proc = subprocess.run([sys.executable, *flags, "-c", _IMPORT_PROBE,
                               *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["0", modules], proc.stderr
        if flags:
            loaded = lines[2].split()
            assert loaded[:3] == ["False"] * 3
            if argv in _PLAIN:
                assert loaded[3:] == ["False"] * 2


def test_closed_stdout_is_a_quiet_exit():
    # The output, about 1.3 MB, is larger than a pipe buffer can be, so the
    # command is still writing when the reader goes.
    src = pathlib.Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "fanocalc", "enumerate",
                             "--type", "congruence", "--m-max", "200000"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert first == b"# bounds: m_max=200000\n"


@pytest.mark.parametrize("text, want", [
    pytest.param("+".join(["L"] * 2000), "(2000)*L", id="sum"),
    pytest.param("*".join(["2"] * 2000), f"({2 ** 2000})*1", id="product"),
])
def test_eval_flat_chain(capsys, text, want):
    # A walk that recursed once per term would pass the interpreter's
    # recursion limit.
    code, out, err = run(capsys, "eval", "--ctx", str(CONTEXTS / "w36.ctx"),
                         text)
    assert (code, out, err) == (0, want + "\n", "")


def test_eval_past_the_token_cap_exits_2(capsys):
    from fanocalc.expr import MAX_TOKENS
    text = "+".join(["L"] * (MAX_TOKENS // 2 + 1))  # MAX_TOKENS + 1 tokens
    code, out, err = run(capsys, "eval", "--ctx", str(CONTEXTS / "w36.ctx"),
                         text)
    assert (code, out) == (2, "")
    assert err == (f"input error: column {MAX_TOKENS + 1}: "
                   f"more than {MAX_TOKENS} tokens\n")


def test_output_byte_stable(capsys):
    first = run(capsys, "enumerate", "--type", "C", "--format", "csv")
    second = run(capsys, "enumerate", "--type", "C", "--format", "csv")
    assert first == second

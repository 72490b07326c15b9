"""The package's public surface, which is imported lazily (PEP 562)."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fanocalc

SRC = pathlib.Path(fanocalc.__file__).parent.parent
EXPECTED_ALL = [
    "QuadNum", "quad", "quad_pow", "arg_less_than",
    "RingCtx", "RingElem", "BasisMap", "reduce", "intersection_degree",
    "InvariantTuple", "check_rho_tau", "solve_nu_prime",
    "__version__",
]


def fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_unchanged():
    assert fanocalc.__all__ == EXPECTED_ALL


def test_every_name_resolves_in_a_fresh_interpreter():
    out = fresh("import fanocalc, sys\n"
                "for name in fanocalc.__all__:\n"
                "    value = getattr(fanocalc, name)\n"
                "    home = getattr(value, '__module__', 'fanocalc')\n"
                "    print(name, home.rpartition('.')[2])\n")
    homes = dict(line.split() for line in out.splitlines())
    assert list(homes) == EXPECTED_ALL
    assert {homes[n] for n in EXPECTED_ALL[:4]} == {"exact"}
    assert {homes[n] for n in EXPECTED_ALL[4:9]} == {"chow"}
    assert {homes[n] for n in EXPECTED_ALL[9:12]} == {"slope"}


def test_star_import_in_a_fresh_interpreter():
    out = fresh("from fanocalc import *\n"
                "from fanocalc import chow, exact, slope\n"
                "print(QuadNum is exact.QuadNum, reduce is chow.reduce,\n"
                "      solve_nu_prime is slope.solve_nu_prime, __version__)\n")
    assert out == "True True True 0.1.0\n"


def test_names_match_their_modules():
    from fanocalc import chow, exact, slope
    assert fanocalc.RingElem is chow.RingElem
    assert fanocalc.quad_pow is exact.quad_pow
    assert fanocalc.InvariantTuple is slope.InvariantTuple
    assert set(EXPECTED_ALL) <= set(dir(fanocalc))


def test_readme_names_resolve():
    # Each backticked `module.name` of the README whose module is fanocalc
    # or one of its modules names an attribute of that module, so a name
    # the code drops cannot stay in the docs.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    modules = {path.stem for path in (SRC / "fanocalc").glob("[!_]*.py")}
    names = {(module, name) for module, name
             in re.findall(r"`(\w+)\.(\w+)`", readme)
             if module in modules or module == "fanocalc"}
    assert len(names) >= 25
    for module, name in sorted(names):
        if module == "fanocalc" and name in modules:
            continue
        owner = importlib.import_module(
            "fanocalc" if module == "fanocalc" else f"fanocalc.{module}")
        assert hasattr(owner, name), f"README names {module}.{name}"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fanocalc.no_such_name
    assert not hasattr(fanocalc, "enumerate_type_C")


def test_package_source_holds_no_floating_point():
    """No float or complex literal; the name float only in the one
    isinstance gate of the package root, fanocalc.refuse_float, whose
    message is written once; and math imported only as its gcd and lcm,
    never as the whole module."""
    found, gates, messages = [], [], []
    for path in sorted((SRC / "fanocalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        isinstance_types = {id(call.args[1]) for call in ast.walk(tree)
                            if isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                            and call.func.id == "isinstance"
                            and len(call.args) == 2}
        in_gate = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("__init__.py", "refuse_float")
                   for node in ast.walk(fn)}
        math_names = set()
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) \
                    and type(node.value) in (float, complex):
                found.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.Constant) \
                    and node.value == "exact numbers only, not float":
                messages.append((where, id(node) in in_gate))
            elif isinstance(node, ast.Name) and node.id == "float":
                if id(node) in isinstance_types:
                    gates.append((where, id(node) in in_gate))
                else:
                    found.append(f"{where}: float")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                math_names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                math_names.update("math" for alias in node.names
                                  if alias.name == "math")
        if math_names - {"gcd", "lcm"}:
            found.append(f"{path.name}: math supplies "
                         f"{sorted(math_names - {'gcd', 'lcm'})}")
    assert not found
    # Exactly one isinstance(..., float) and one copy of its message.
    assert [home for _, home in gates] == [True], gates
    assert [home for _, home in messages] == [True], messages


def test_package_source_tests_integrality_once():
    """The only `... % 1` in the source is in fanocalc.integer, which
    every count, bound and multiplicity goes through."""
    found = []
    for path in sorted((SRC / "fanocalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_reader = {id(node) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     and (path.name, fn.name) == ("__init__.py", "integer")
                     for node in ast.walk(fn)}
        found += [(f"{path.name}:{node.lineno}", id(node) in in_reader)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Mod)
                  and isinstance(node.right, ast.Constant)
                  and node.right.value == 1]
    assert [home for _, home in found] == [True], found


def test_package_source_has_one_record_idiom():
    """Records are named tuples: no slot is set one at a time, nor
    restored by hand for copy and pickle."""
    found = [f"{path.name}:{lineno}: {word}"
             for path in sorted((SRC / "fanocalc").glob("*.py"))
             for lineno, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             for word in ("object.__setattr__", "_fill", "__setstate__")
             if word in line]
    assert found == []


def test_integer_reads_a_whole_number():
    from fractions import Fraction
    for x in (3, Fraction(3), Fraction(6, 2), True):
        assert type(fanocalc.integer(x, "k")) is int
    assert fanocalc.integer(Fraction(-4), "k") == -4
    assert fanocalc.integer(2, "k", least=2) == 2
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        fanocalc.integer(3.0, "k")
    with pytest.raises(ValueError, match="^k must be an integer$"):
        fanocalc.integer(Fraction(7, 2), "k", least=5)
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        fanocalc.integer(Fraction(1), "k", least=2)

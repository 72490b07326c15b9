"""The records keep their value semantics: every instance is immutable,
and == and hash read every field except a source column or a value that
another field determines."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from fanocalc import Record, chow, classify, dataset, exact, expr, slope, verify

# The fields that == and hash do not read.
IGNORED = {("QuadNum", "D"), ("RingCtx", "_rel"), ("Lit", "pos"),
           ("Sym", "pos"), ("Pow", "pos")}


def w36():
    return chow.RingCtx(5, ("L", "H"), F(-1), F(-1, 3), F(18))


RECORDS = {
    "QuadNum": lambda: exact.quad(F(1, 2), 3, F(-1, 3)),
    "RingCtx": w36,
    "BasisMap": lambda: chow.BasisMap(((1, 2), (3, 4))),
    "BReport": lambda: chow.basis_map_B(2, 1, 1, 0, F(-4), 1, 1, 2)[1],
    "InvariantTuple": lambda: slope.InvariantTuple(
        n=2, kind="C", lam=1, mu=1, mu_prime=1, nu=2, nu_prime=1, tau=2,
        tau_prime=1, rho=2, i=3, i_prime=3, c1=0, delta=F(-12),
        c2_over_d=F(3), d=1, name_x="P2"),
    "FanoEntry": lambda: dataset.load_dataset()[0],
    "ExclusionReport": lambda: classify.ExclusionReport(
        "rule", (("m", F(4, 3)),), "why"),
    "FinAnalysis": lambda: classify.FinAnalysis(2, ((2, F(-1)),), ()),
    "Lit": lambda: expr.Lit(F(5, 3)),
    "Sym": lambda: expr.Sym("K'", 2),
    "Neg": lambda: expr.Neg(expr.Sym("L")),
    "Add": lambda: expr.Add((expr.Sym("L"), expr.Lit(F(1)))),
    "Mul": lambda: expr.Mul((expr.Lit(F(2)), expr.Sym("H"))),
    "Pow": lambda: expr.Pow(expr.Sym("L"), (2, 3), (3, 5)),
    "EvalResult": lambda: expr.EvalResult(w36().gen1, None),
    "CheckResult": lambda: verify.CheckResult("check", True),
}


def fields_of(record):
    return record.__slots__ if isinstance(record, Record) else record._fields


def with_field(record, name, value):
    """A copy of `record` with one field set to `value`, unvalidated."""
    if not isinstance(record, Record):
        return record._replace(**{name: value})
    out = object.__new__(type(record))
    out._fill(*(value if f == name else getattr(record, f)
                for f in fields_of(record)))
    return out


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in fields_of(record):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_read_the_compared_fields(name):
    record = RECORDS[name]()
    same = RECORDS[name]()
    assert record == same and hash(record) == hash(same)
    for field in fields_of(record):
        changed = with_field(record, field, "changed")
        if (name, field) in IGNORED:
            assert changed == record and hash(changed) == hash(record)
        else:
            assert changed != record and hash(changed) != hash(record)


@pytest.mark.parametrize("name", [n for n in RECORDS
                                  if isinstance(RECORDS[n](), Record)])
def test_slotted_record_equals_no_other_type(name):
    record = RECORDS[name]()
    assert record != tuple(getattr(record, f) for f in fields_of(record))
    assert record != object()


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_copy_and_pickle(name):
    record = RECORDS[name]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record

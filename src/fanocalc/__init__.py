"""Exact intersection-theory kernel and finite case analysis for
rank-two Fano bundles on manifolds with cyclic second and fourth
cohomology."""

from operator import attrgetter

__version__ = "0.1.0"

# Each re-export is imported from its module on first access (PEP 562),
# so that a command loads only the modules it runs.
_EXPORTS = {
    "QuadNum": "exact", "quad": "exact", "quad_pow": "exact",
    "arg_less_than": "exact",
    "RingCtx": "chow", "RingElem": "chow", "BasisMap": "chow",
    "reduce": "chow", "intersection_degree": "chow",
    "InvariantTuple": "slope", "check_rho_tau": "slope",
    "solve_nu_prime": "slope",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS])


def refuse_float(*values):
    """TypeError on a float: no float enters fanocalc's arithmetic."""
    for x in values:
        if isinstance(x, float):
            raise TypeError("exact numbers only, not float")


def integer(x, name, least=None):
    """int(x) for a whole number x, such as 3 or Fraction(3): TypeError on
    a float, and ValueError naming `name` when x is not integral or is
    below `least`."""
    if type(x) is not int:
        refuse_float(x)
        if x % 1:
            raise ValueError(f"{name} must be an integer")
        x = int(x)
    if least is not None and x < least:
        raise ValueError(f"{name} must be at least {least}")
    return x


class Record:
    """Mixin, listed before the named tuple base, for the records that
    validate their fields in __new__ or must not equal a plain tuple; the
    others are plain named tuples.  == and hash read the fields named in
    _compare (all by default), as the class's _key(record) returns them,
    and a record equals only records of its own type, in both directions.
    _make and _replace build unvalidated copies, and so do copy and
    pickle."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__dict__.get("_compare", cls._fields))

    def __eq__(self, other):
        # False, not NotImplemented, so that tuple's == cannot answer.
        return (type(other) is type(self)
                and self._key(self) == other._key(other))

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self._make, (tuple(self),)

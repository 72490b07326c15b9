"""Exact intersection-theory kernel and finite case analysis for
rank-two Fano bundles on manifolds with cyclic second and fourth
cohomology."""

from itertools import repeat
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
    """Base of the records that validate their fields or must not equal a
    plain tuple; the others are named tuples.  A subclass lists its fields
    in __slots__ and fills them in __init__ through _fill or
    object.__setattr__, since assigning or deleting an attribute raises
    AttributeError.  == and hash read the fields named in _compare (all
    by default), as the class's _key(record) returns them, and a record
    equals only records of its own type."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__dict__.get("_compare", cls.__slots__))

    def _fill(self, *values):
        """Set the fields to `values`, in the order of __slots__."""
        # map loops in C, and any runs it through: each call returns None.
        any(map(object.__setattr__, repeat(self), self.__slots__, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # for copy and pickle
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"

"""Exact intersection-theory kernel and finite case analysis for
rank-two Fano bundles on manifolds with cyclic second and fourth
cohomology."""

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

"""Line congruences and the conic family table.

The congruence enumerator solves the counting problem for line
congruences whose variety of minimal rational tangents splits into
linear pieces; the family table lists the admissible conic pairs with
the parameter space of their conic family.  Both need only integers, so
this module imports no `fractions` at import time: `family-table` and
`enumerate --type congruence` load it and the command line alone.
Its records are named tuples, so a record equals the plain tuple of its
fields.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import integer

DEFAULT_M_MAX = 19
# The list grows linearly in m_max, so the bound is capped like chow.MAX_N.
MAX_M_MAX = 1_000_000


class CongruenceTuple(namedtuple("CongruenceTuple", "alpha z m")):
    """A solution (alpha, z, m), validated when it is built."""

    __slots__ = ()

    def __new__(cls, alpha: int, z: int, m: int) -> "CongruenceTuple":
        # alpha = 2 would force the two linear pieces to meet; ruled out.
        alpha = integer(alpha, "alpha", 3)
        z, m = integer(z, "z"), integer(m, "m")
        if m - z - 1 <= 0 or alpha * (m - z - 1) != m - 1:
            raise ValueError("alpha must equal (m-1)/(m-z-1) exactly")
        if not (0 < 3 * z <= 2 * m):
            raise ValueError("z must satisfy 0 < z <= 2m/3")
        return super().__new__(cls, alpha, z, m)


class FamilyRow(namedtuple("FamilyRow", "x_prime moduli tau_moduli x tau")):
    __slots__ = ()

    @property
    def factor(self) -> str:
        """tau_moduli/tau in lowest terms, printed as str(Fraction) prints
        it, from the ints alone: `family-table` loads no `fractions`."""
        g = gcd(self.tau_moduli, self.tau)
        p, q = self.tau_moduli // g, self.tau // g
        return f"{p}" if q == 1 else f"{p}/{q}"


# -- family table ------------------------------------------------------------

_FAMILY_ROWS = (
    FamilyRow("P2", "P2", 2, "P2", 1),
    FamilyRow("P3", "G(1,3)", 1, "V_4^3", 1),
    FamilyRow("Q3", "P3", 2, "Q3", 2),
    FamilyRow("K(G2)", "Q5", 3, "V_4^5", 3),
    FamilyRow("Q5", "G(1,6)_Q5", 1, "W_36^5", 1),
)


def family_table() -> list[FamilyRow]:
    """Admissible conic pairs with the parameter space of the conic
    family and the pullback factor of its ample generator."""
    return list(_FAMILY_ROWS)


# -- congruences -------------------------------------------------------------

def enumerate_congruences(m_max: int = DEFAULT_M_MAX) -> list[CongruenceTuple]:
    """All (alpha, z, m) with m <= m_max, alpha = (m-1)/(m-z-1) an integer
    >= 3 and 0 < z <= 2m/3, in (alpha, z, m) order.  With t = m-1-z,
    m = alpha*t + 1 and z = (alpha-1)*t, and 3z <= 2m becomes
    (alpha-3)*t <= 2: every t >= 1 gives a solution with alpha = 3, alpha = 4
    allows t <= 2, alpha = 5 allows t = 1, and no alpha >= 6 is possible."""
    m_max = integer(m_max, "m_max", 3)
    if m_max > MAX_M_MAX:
        raise ValueError(f"m_max must be at most {MAX_M_MAX}")
    out = []
    for alpha in (3, 4, 5):
        t_max = (m_max - 1) // alpha
        if alpha > 3:
            t_max = min(t_max, 2 // (alpha - 3))
        out.extend(CongruenceTuple(alpha, (alpha - 1) * t, alpha * t + 1)
                   for t in range(1, t_max + 1))
    return out

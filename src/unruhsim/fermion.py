"""Fermionic reference forms: closed-form negativities of the GHZ
partitions and W reductions, and the W RS disentanglement curve.

The numeric route (traced state, partial transpose, eigensolve) is
``pipeline``; this module keeps the fermionic entry points to it.  The
reference closed forms are kept verbatim; where they disagree with the
numeric route the comparison helpers in ``diagnostics`` report both
values, and nothing is reconciled silently.
"""

from __future__ import annotations

import math

from .measures import BIPARTITE, NegativityResult, TRIPARTITE
from .pipeline import Scenario, evaluate_point, reduced_density
from .states import AccelParam, U_MAX

__all__ = [
    "FermionScenario",
    "reduced_density",
    "numeric_log_negativity",
    "ghz_closed_negativity",
    "w_bipartite_closed_negativity",
    "closed_log_negativity",
    "rs_zero_curve",
    "rs_smallest_pt_eigenvalue",
]


def _angle(u) -> float:
    return AccelParam.of("fermion", u).value


class FermionScenario(Scenario):
    """A fermionic :class:`~unruhsim.pipeline.Scenario`; ``u1``/``u2`` name its parameters."""

    def __init__(self, state: str, u1, u2):
        super().__init__("fermion", state, u1, u2)

    u1 = property(lambda self: self.p1)
    u2 = property(lambda self: self.p2)


def numeric_log_negativity(s: FermionScenario, quantity: str) -> NegativityResult:
    """Partial-transpose eigensolve for any 1-vs-2 partition or pair."""
    return evaluate_point("fermion", s.state, s.p1, s.p2, (quantity,))[quantity]


def ghz_closed_negativity(partition: str, u1, u2) -> float:
    """Closed-form negative eigenvalue for a GHZ 1-vs-2 partition.

    A-RS:  (1/4) sin^2(u1) sin^2(u2) - (1/4) sqrt(sin^4 u1 sin^4 u2 + 4 cos^2 u1 cos^2 u2)
    R-AS / S-AR use the corresponding sin^2 * cos^2 variants.
    """
    u1, u2 = _angle(u1), _angle(u2)
    s1, c1 = math.sin(u1) ** 2, math.cos(u1) ** 2
    s2, c2 = math.sin(u2) ** 2, math.cos(u2) ** 2
    if partition == "A-RS":
        x = s1 * s2
    elif partition == "R-AS":
        x = s1 * c2
    elif partition == "S-AR":
        x = s2 * c1
    else:
        raise ValueError(f"unknown partition {partition!r}; expected one of {TRIPARTITE}")
    return 0.25 * x - 0.25 * math.sqrt(x * x + 4.0 * c1 * c2)


def w_bipartite_closed_negativity(pair: str, u1, u2) -> float:
    """Reference closed-form negativity of a W bipartite reduction.

    The reference AR form depends only on u2 and the AS form only on u1.
    The numeric pipeline shows the opposite dependence (AR on u1, AS on
    u2); the diagnostics module surfaces that disagreement rather than
    patching the formula.
    """
    u1, u2 = _angle(u1), _angle(u2)
    c1, c2 = math.cos(u1) ** 2, math.cos(u2) ** 2
    if pair == "RS":
        cc = c1 * c2
        rad = 9.0 - 12.0 * (c1 + c2) + 12.0 * cc + 4.0 * (c1 * c1 + c2 * c2)
        return 0.5 - (c1 + c2) / 3.0 + cc / 3.0 - math.sqrt(rad) / 6.0
    if pair == "AR":
        return (1.0 - math.sqrt(1.0 + 4.0 * c2 * c2)) / 6.0
    if pair == "AS":
        return (1.0 - math.sqrt(1.0 + 4.0 * c1 * c1)) / 6.0
    raise ValueError(f"unknown pair {pair!r}; expected one of {BIPARTITE}")


def closed_log_negativity(state: str, quantity: str, u1, u2) -> float | None:
    """Reference closed form as a log-negativity, or None when none exists.

    No closed forms exist for the W 1-vs-2 partitions or the GHZ
    bipartite reductions (the latter are identically disentangled).
    """
    if state == "ghz" and quantity in TRIPARTITE:
        return math.log2(1.0 - 2.0 * ghz_closed_negativity(quantity, u1, u2))
    if state == "w" and quantity in BIPARTITE:
        n = w_bipartite_closed_negativity(quantity, u1, u2)
        return math.log2(1.0 - 2.0 * min(n, 0.0))
    return None


def rs_zero_curve(u1) -> float | None:
    """Solve cos(u2) = sqrt(2) sin(u1) / sqrt(2 - cos^2 u1) for u2.

    Returns None when the implied u2 leaves the representable range, as
    happens for small u1 where the W RS reduction never disentangles.
    """
    u1 = _angle(u1)
    c2 = math.sqrt(2.0) * math.sin(u1) / math.sqrt(2.0 - math.cos(u1) ** 2)
    if c2 > 1.0:
        return None
    u2 = math.acos(c2)
    return u2 if u2 <= U_MAX else None


def rs_smallest_pt_eigenvalue(u1, u2) -> float:
    """Smallest eigenvalue of the partially transposed W RS reduction.

    Unlike the clamped negativity this crosses zero transversally, which
    is what the zero-curve bisection needs.
    """
    return evaluate_point("fermion", "w", u1, u2, ("RS",))["RS"].spectrum[0]

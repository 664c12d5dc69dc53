"""The numeric route both fields share: traced state, partial transpose,
eigensolve.

A parameter point is traced once.  rho(A, I, I'), the state left once the
hidden wedges are traced out, is built a single time straight from the
branch table (:func:`states.traced_density`); each 1-vs-2 partition is a
partial transpose of that matrix, and each bipartite reduction is a
partial trace of it.  The five-partite ket (:func:`rindler_ket`) is kept
as the oracle of that build.  Fermions are the d = 2 case of the
same route.  This module owns the tables every caller uses to turn a
quantity name into factors, and the one :class:`Scenario` record of both
fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, SubsystemLayout, hermitian_eigenvalues, partial_trace, partial_transpose
from .measures import BIPARTITE, NegativityResult, QUANTITIES, TRIPARTITE, from_spectrum
from .states import _BRANCHES, AccelParam, Truncation, _tail, build_ghz, build_w, traced_density

__all__ = [
    "Scenario",
    "STATES",
    "HIDDEN_WEDGES",
    "PT_FACTOR",
    "DROP_FOR_PAIR",
    "EIG_CLAMP_SCALE",
    "MATRIX_DIM_CEILING",
    "MatrixCeilingError",
    "rindler_ket",
    "reduced_density",
    "evaluate_point",
]

STATES = tuple(_BRANCHES)

#: Wedges no observer can reach, traced out of every ket.
HIDDEN_WEDGES = ("II", "II'")

#: Factor whose indices get transposed for each quantity.
PT_FACTOR = {"A-RS": "A", "R-AS": "I", "S-AR": "I'", "RS": "I", "AR": "A", "AS": "A"}

#: Factor traced out of rho(A, I, I') to form each bipartite reduction.
DROP_FOR_PAIR = {"RS": "A", "AR": "I'", "AS": "I"}

#: Eigenvalues within EIG_CLAMP_SCALE * dimension of zero are treated as
#: zero before negativity summation, so roundoff cannot masquerade as
#: entanglement.
EIG_CLAMP_SCALE = 1e-12

#: Reject bosonic truncations whose (A, I, I') matrix would exceed this dimension.
MATRIX_DIM_CEILING = 512


class MatrixCeilingError(RuntimeError):
    """Requested truncation needs a matrix above the dimension ceiling."""


def _check_ceiling(field: str, trunc: Truncation):
    dim = 2 * (trunc.n_max + 2) ** 2
    if field == "boson" and dim > MATRIX_DIM_CEILING:
        raise MatrixCeilingError(
            f"n_max={trunc.n_max} needs matrix dimension {dim}, above the ceiling "
            f"{MATRIX_DIM_CEILING}; raise unruhsim.pipeline.MATRIX_DIM_CEILING to at least {dim} to proceed"
        )


def _checked(field: str, state: str, p1, p2, trunc) -> tuple[str, AccelParam, AccelParam, Truncation]:
    """``(state, p1, p2, trunc)`` checked and coerced, for :class:`Scenario` and
    :func:`evaluate_point` alike: the state name lower-cased and known, both
    parameters :class:`AccelParam` of the field's kind, the truncation a
    :class:`Truncation` (an int is its n_max, None the default)."""
    name = str(state).lower()
    if name not in STATES:
        raise ValueError(f"unknown state {state!r}; expected one of {STATES}")
    return name, AccelParam.of(field, p1), AccelParam.of(field, p2), Truncation.of(trunc)


@dataclass(frozen=True)
class Scenario:
    """A GHZ or W state of one field shared with two accelerated observers.

    Checked and coerced by the same rules as :func:`evaluate_point`'s
    arguments; the truncation applies to bosons only.
    """

    field: str
    state: str
    p1: AccelParam
    p2: AccelParam
    trunc: Truncation | int | None = None

    def __post_init__(self):
        checked = _checked(self.field, self.state, self.p1, self.p2, self.trunc)
        for name, value in zip(("state", "p1", "p2", "trunc"), checked):
            object.__setattr__(self, name, value)


def rindler_ket(field: str, state: str, p1, p2, trunc: Truncation | None = None) -> Ket:
    """Five-partite GHZ or W ket over (A, I, II, I', II').

    ``p1`` and ``p2`` are :class:`AccelParam` values or plain numbers of
    the field's kind; ``trunc`` applies to bosons only.  The numeric route
    never builds it: it is the oracle for :func:`states.traced_density`.
    """
    state, p1, p2, trunc = _checked(field, state, p1, p2, trunc)
    _check_ceiling(field, trunc)
    return (build_ghz if state == "ghz" else build_w)(field, p1, p2, trunc)


def reduced_density(s: Scenario, pair: str | None = None) -> tuple[np.ndarray, SubsystemLayout]:
    """rho(A, I, I') or, given a pair, its partial trace to that pair, as :func:`evaluate_point` takes it."""
    if pair is not None and pair not in BIPARTITE:
        raise ValueError(f"unknown pair {pair!r}; expected one of {BIPARTITE}")
    _check_ceiling(s.field, s.trunc)
    rho, lay = traced_density(s.state, s.field, s.p1, s.p2, s.trunc)
    return (rho, lay) if pair is None else partial_trace(rho, lay, DROP_FOR_PAIR[pair])


def evaluate_point(field: str, state: str, p1, p2, quantities=QUANTITIES,
                   trunc: Truncation | None = None) -> dict[str, NegativityResult]:
    """Numeric negativity of each named quantity at one parameter point.

    The only route from a point to a quantity's spectrum.  Builds
    rho(A, I, I') once, whatever the quantities.  Bosonic results carry
    the state's discarded Fock weight (:func:`states._tail`) as their
    tail bound; fermionic ones carry zero.
    """
    for q in quantities:
        if q not in QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; expected one of {QUANTITIES}")
    state, p1, p2, trunc = _checked(field, state, p1, p2, trunc)
    _check_ceiling(field, trunc)
    rho, lay = traced_density(state, field, p1, p2, trunc)
    tail = _tail(state, p1, p2, trunc.n_max) if field == "boson" else 0.0
    out = {}
    for q in quantities:
        m, m_lay = (rho, lay) if q in TRIPARTITE else partial_trace(rho, lay, DROP_FOR_PAIR[q])
        eigs = hermitian_eigenvalues(partial_transpose(m, m_lay, PT_FACTOR[q]))
        res = from_spectrum(eigs, clamp=EIG_CLAMP_SCALE * m.shape[0])
        out[q] = dataclasses.replace(res, tail_bound=tail) if field == "boson" else res
    return out

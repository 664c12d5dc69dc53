"""The numeric route both fields share: ket, wedge trace, partial
transpose, eigensolve.

A parameter point is traced once.  Its five-partite ket is built and
reduced over the hidden wedges to rho(A, I, I') a single time; each 1-vs-2
partition is a partial transpose of that matrix, and each bipartite
reduction is a partial trace of it.  Fermions are the d = 2 case of the
same route.  This module owns the tables every caller uses to turn a
quantity name into factors, and the one :class:`Scenario` record of both
fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, SubsystemLayout, hermitian_eigenvalues, ket_partial_trace, partial_trace, partial_transpose
from .measures import BIPARTITE, NegativityResult, QUANTITIES, TRIPARTITE, from_spectrum
from .states import AccelParam, Truncation, build_ghz, build_w

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
    "pair_partial_transpose",
    "evaluate_point",
]

STATES = ("ghz", "w")

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


def _check_ceiling(n_max: int):
    dim = 2 * (n_max + 2) ** 2
    if dim > MATRIX_DIM_CEILING:
        raise MatrixCeilingError(
            f"n_max={n_max} needs matrix dimension {dim}, above the ceiling "
            f"{MATRIX_DIM_CEILING}; raise unruhsim.pipeline.MATRIX_DIM_CEILING to at least {dim} to proceed"
        )


@dataclass(frozen=True)
class Scenario:
    """A GHZ or W state of one field shared with two accelerated observers.

    ``p1``/``p2`` are coerced to :class:`AccelParam` of the field's kind
    and ``trunc`` to a :class:`Truncation` (an int is its n_max, None the
    default); the truncation applies to bosons only.
    """

    field: str
    state: str
    p1: AccelParam
    p2: AccelParam
    trunc: Truncation | int | None = None

    def __post_init__(self):
        state = str(self.state).lower()
        if state not in STATES:
            raise ValueError(f"unknown state {self.state!r}; expected one of {STATES}")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "p1", AccelParam.of(self.field, self.p1))
        object.__setattr__(self, "p2", AccelParam.of(self.field, self.p2))
        if not isinstance(self.trunc, Truncation):
            trunc = Truncation() if self.trunc is None else Truncation(n_max=int(self.trunc))
            object.__setattr__(self, "trunc", trunc)


def rindler_ket(field: str, state: str, p1, p2, trunc: Truncation | None = None) -> Ket:
    """Five-partite GHZ or W ket over (A, I, II, I', II').

    ``p1`` and ``p2`` are :class:`AccelParam` values or plain numbers of
    the field's kind; ``trunc`` applies to bosons only.
    """
    if state not in STATES:
        raise ValueError(f"unknown state {state!r}; expected one of {STATES}")
    p1, p2 = AccelParam.of(field, p1), AccelParam.of(field, p2)
    if field == "boson":
        trunc = trunc if trunc is not None else Truncation()
        _check_ceiling(trunc.n_max)
    build = build_ghz if state == "ghz" else build_w
    return build(field, p1, p2, trunc)


def reduced_density(s: Scenario, pair: str | None = None) -> tuple[np.ndarray, SubsystemLayout]:
    """rho(A, I, I') or, given a pair, that pair's reduction, traced from the ket.

    A pair is traced straight from the ket, dropping its third factor with
    the hidden wedges; this is not bit-identical to a partial trace of
    rho(A, I, I'), which :func:`evaluate_point` takes instead.
    """
    drop = HIDDEN_WEDGES
    if pair is not None:
        if pair not in BIPARTITE:
            raise ValueError(f"unknown pair {pair!r}; expected one of {BIPARTITE}")
        drop += (DROP_FOR_PAIR[pair],)
    return ket_partial_trace(rindler_ket(s.field, s.state, s.p1, s.p2, s.trunc), drop)


def pair_partial_transpose(s: Scenario, pair: str) -> np.ndarray:
    """Partial transpose of one pair's reduction (see :func:`reduced_density`)."""
    rho, lay = reduced_density(s, pair)
    return partial_transpose(rho, lay, PT_FACTOR[pair])


def evaluate_point(field: str, state: str, p1, p2, quantities=QUANTITIES,
                   trunc: Truncation | None = None) -> dict[str, NegativityResult]:
    """Numeric negativity of each named quantity at one parameter point.

    Builds and traces the ket once, whatever the quantities.  Bosonic
    results carry the trace deficit of the matrix diagonalized as their
    tail bound; fermionic ones carry zero.
    """
    for q in quantities:
        if q not in QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; expected one of {QUANTITIES}")
    rho, lay = ket_partial_trace(rindler_ket(field, state, p1, p2, trunc), HIDDEN_WEDGES)
    out = {}
    for q in quantities:
        m, m_lay = (rho, lay) if q in TRIPARTITE else partial_trace(rho, lay, DROP_FOR_PAIR[q])
        eigs = hermitian_eigenvalues(partial_transpose(m, m_lay, PT_FACTOR[q]))
        res = from_spectrum(eigs, clamp=EIG_CLAMP_SCALE * m.shape[0])
        if field == "boson":
            res = dataclasses.replace(res, tail_bound=max(1.0 - float(np.trace(m).real), 0.0))
        out[q] = res
    return out

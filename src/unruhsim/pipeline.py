"""The numeric route both fields share: ket, wedge trace, partial
transpose, eigensolve.

A parameter point is traced once.  Its five-partite ket is built and
reduced over the hidden wedges to rho(A, I, I') a single time; each 1-vs-2
partition is a partial transpose of that matrix, and each bipartite
reduction is a partial trace of it.  Fermions are the d = 2 case of the
same route.  This module owns the tables every caller uses to turn a
quantity name into factors.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import Ket, hermitian_eigenvalues, ket_partial_trace, partial_trace, partial_transpose
from .measures import NegativityResult, QUANTITIES, TRIPARTITE, from_spectrum
from .states import AccelParam, Truncation, build_ghz, build_w

__all__ = [
    "STATES",
    "HIDDEN_WEDGES",
    "PT_FACTOR",
    "DROP_FOR_PAIR",
    "EIG_CLAMP_SCALE",
    "MATRIX_DIM_CEILING",
    "MatrixCeilingError",
    "rindler_ket",
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


def rindler_ket(field: str, state: str, p1, p2, trunc: Truncation | None = None) -> Ket:
    """Five-partite GHZ or W ket over (A, I, II, I', II').

    ``p1`` and ``p2`` are :class:`AccelParam` values or plain numbers of
    the field's kind; ``trunc`` applies to bosons only.
    """
    if state not in STATES:
        raise ValueError(f"unknown state {state!r}; expected one of {STATES}")
    p1, p2 = (p if isinstance(p, AccelParam) else AccelParam(field, p) for p in (p1, p2))
    if field == "boson":
        trunc = trunc if trunc is not None else Truncation()
        _check_ceiling(trunc.n_max)
    build = build_ghz if state == "ghz" else build_w
    return build(field, p1, p2, trunc)


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

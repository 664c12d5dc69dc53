"""Closed-form versus numeric-pipeline comparisons.

The reference closed forms are kept verbatim, defects included; the
numeric route (traced state, partial transpose, eigensolve) is the
ground truth.  These helpers put both
values side by side so a disagreement is reported, never reconciled.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import boson, fermion
from .measures import NegativityResult
from .states import Truncation

__all__ = ["OracleRecord", "fermion_record", "boson_record"]

FERMION_TOL = 1e-9
BOSON_TOL_BASE = 1e-6


@dataclass(frozen=True)
class OracleRecord:
    """One closed-form / numeric comparison at a parameter point."""

    field: str
    state: str
    quantity: str
    p1: float
    p2: float
    closed_form: float
    numeric: float
    tolerance: float

    @property
    def delta(self) -> float:
        return self.numeric - self.closed_form

    @property
    def agrees(self) -> bool:
        return abs(self.delta) <= self.tolerance

    def describe(self) -> str:
        verdict = "ok" if self.agrees else "MISMATCH"
        return (
            f"{self.field} {self.state} {self.quantity} at ({self.p1:.6g}, {self.p2:.6g}): "
            f"closed={self.closed_form:.12g} numeric={self.numeric:.12g} "
            f"delta={self.delta:.3e} tol={self.tolerance:.3e} [{verdict}]"
        )


def fermion_record(
    state: str,
    quantity: str,
    u1: float,
    u2: float,
    tol: float = FERMION_TOL,
    numeric: NegativityResult | None = None,
) -> OracleRecord | None:
    """Compare the reference fermionic closed form against the pipeline.

    ``numeric`` is the pipeline's result for this point when the caller
    already holds it; otherwise the pipeline is run.
    """
    closed = fermion.closed_log_negativity(state, quantity, u1, u2)
    if closed is None:
        return None
    return _record(fermion.FermionScenario(state, u1, u2), quantity, closed, 0.0, tol, numeric)


def boson_record(
    state: str,
    quantity: str,
    r1: float,
    r2: float,
    trunc: Truncation | None = None,
    tol_base: float = BOSON_TOL_BASE,
    numeric: NegativityResult | None = None,
) -> OracleRecord | None:
    """Compare the reference block series against the truncated-matrix pipeline.

    The series is summed over the same index square the matrix holds
    (adaptivity off), and the tolerance is tol_base plus the discarded
    Fock weight, the honest truncation bound.  ``numeric`` is as for
    :func:`fermion_record`.
    """
    s = boson.BosonScenario(state, r1, r2, trunc)
    closed = boson.series_log_negativity(state, quantity, r1, r2, dataclasses.replace(s.trunc, adaptive=False))
    if closed is None:
        return None
    return _record(s, quantity, closed.log_negativity, closed.tail_bound, tol_base, numeric)


def _record(s, quantity: str, closed: float, closed_tail: float, tol: float,
            numeric: NegativityResult | None) -> OracleRecord:
    """The record of scenario ``s``; its tolerance adds both routes' tail bounds to ``tol``."""
    if numeric is None:
        numeric = (fermion if s.field == "fermion" else boson).numeric_log_negativity(s, quantity)
    return OracleRecord(s.field, s.state, quantity, s.p1.value, s.p2.value, closed, numeric.log_negativity,
                        tol + numeric.tail_bound + closed_tail)

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (Ket, SubsystemLayout, _blocks, _check_hermitian, _edge_components, hermitian_eigenvalues,
                     partial_trace, partial_transpose)
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


_FACTORS = ("A", "I", "I'")


@dataclass(frozen=True)
class _BlockPlan:
    """Where each branch-pair product of one quantity lands in the block
    stacks of its partial transpose.

    The k-th product the quantity keeps is w[left[k]] w[right[k]], with w
    the amplitudes of :func:`_branch_amplitudes`, and ``slot[k]`` is its flat
    position in the stacks laid end to end; ``shapes`` holds each stack's
    (blocks, size), block size ascending.  ``mirror`` maps each stack
    position to its transpose's.
    """

    left: np.ndarray
    right: np.ndarray
    slot: np.ndarray
    mirror: np.ndarray
    shapes: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=32)
def _block_plan(state: str, quantity: str, d: int, complete: bool = False) -> _BlockPlan:
    """The cached, read-only :class:`_BlockPlan` of a bosonic ``quantity`` at wedge dimension ``d``.

    Product (b, b', n, m) is w_b w_b' at hidden pair (n, m); it sits at
    (x_b, x_b') of rho(A, I, I') (see :func:`states._pair_index`).  The
    pair reductions keep the products whose :data:`DROP_FOR_PAIR` coordinate
    agrees, and the partial transpose swaps the :data:`PT_FACTOR` coordinate
    between row and column.  The hidden indices run over 0..d-2 only: index
    d-1 is the zero that pads every bosonic :func:`states._mode` vector, and
    kept as an exact 0.0 on the edge it would join blocks.  With ``complete``
    the matrix is the principal submatrix on the Fock indices 0..d-2 of each
    wedge, the entries the cutoff leaves complete.  The blocks are the
    connected components of the products' (row, column) pairs; a matrix
    index that no product reaches is a block of its own, holding 0.
    """
    rows = _BRANCHES[state]
    n = np.arange(d - 1)
    # (A, I, I') coordinates of x_b, shape (branch, n, m, 3)
    x = np.array([np.stack(np.broadcast_arrays(alice, n[:, None] + rob, n + steven), -1)
                  for alice, rob, steven in rows])
    shape = (len(rows),) + x.shape
    row = np.broadcast_to(x[:, None], shape).reshape(-1, 3)
    col = np.broadcast_to(x[None, :], shape).reshape(-1, 3)
    axes = [0, 1, 2]
    keep = np.ones(len(row), dtype=bool)
    if quantity in DROP_FOR_PAIR:
        k = _FACTORS.index(DROP_FOR_PAIR[quantity])
        keep = row[:, k] == col[:, k]
        axes.remove(k)
    swap = np.arange(3) == _FACTORS.index(PT_FACTOR[quantity])
    row, col = np.where(swap, col, row), np.where(swap, row, col)
    dims = [2 if a == 0 else d - 1 if complete else d for a in axes]
    row, col = row[:, axes], col[:, axes]
    keep &= np.all((row < dims) & (col < dims), axis=1)
    kept = np.flatnonzero(keep)
    i = np.ravel_multi_index(row[kept].T, dims)
    j = np.ravel_multi_index(col[kept].T, dims)
    dim = math.prod(dims)
    base, pos, width_of = (np.zeros(dim, dtype=np.intp) for _ in range(3))
    shapes, mirror = [], []
    size = 0
    for idx in _blocks(_edge_components(i, j, dim)):
        count, width = idx.shape
        base[idx] = size + width * width * np.arange(count)[:, None]
        pos[idx] = np.arange(width)
        width_of[idx] = width
        shapes.append((count, width))
        mirror.append(size + np.arange(count * width * width).reshape(count, width, width).swapaxes(1, 2).ravel())
        size += count * width * width
    b, b2, nm = np.unravel_index(kept, (len(rows), len(rows), (d - 1) ** 2))
    plan = _BlockPlan(b * (d - 1) ** 2 + nm, b2 * (d - 1) ** 2 + nm, base[i] + pos[i] * width_of[i] + pos[j],
                      np.concatenate(mirror), tuple(shapes))
    for a in (plan.left, plan.right, plan.slot, plan.mirror):
        a.flags.writeable = False
    return plan


def _branch_amplitudes(state: str, rob: np.ndarray, steven: np.ndarray) -> np.ndarray:
    """Amplitudes w_b = c_n c'_m / sqrt(row count) in the flat (b, n, m)
    layout of :func:`_block_plan`, one row per sample.

    ``rob`` and ``steven`` are ``[..., occupation, n]`` amplitudes of the two
    modes (see :func:`states._mode`), broadcast against each other over the
    leading sample axes; the padded index d-1 is left out.
    """
    rows = _BRANCHES[state]
    _, rob_occ, steven_occ = zip(*rows)
    w = rob[..., rob_occ, :-1, None] * steven[..., steven_occ, None, :-1] * (1.0 / math.sqrt(len(rows)))
    return w.reshape(*w.shape[:-3], -1)


def _plan_spectra(plan: _BlockPlan, w: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Ascending partial-transpose spectrum of each row of amplitudes ``w``.

    One bincount with a sample axis fills every block, then one stacked
    ``eigvalsh`` runs per block size.  Above ``tol``, the largest
    ``|B - B^T|`` over the stacks is a ValueError, as in
    :func:`linalg.hermitian_eigenvalues`.
    """
    count, size = len(w), len(plan.mirror)
    index = (np.arange(count)[:, None] * size + plan.slot).ravel()
    products = (w[:, plan.left] * w[:, plan.right]).ravel()
    flat = np.bincount(index, products, minlength=count * size).reshape(count, size)
    _check_hermitian(float(np.max(np.abs(flat - flat[:, plan.mirror]))), tol)
    parts, start = [], 0
    for blocks, width in plan.shapes:
        b = flat[:, start:start + blocks * width * width].reshape(count, blocks, width, width)
        parts.append(b[:, :, 0, 0] if width == 1 else np.linalg.eigvalsh(b).reshape(count, -1))
        start += blocks * width * width
    return np.sort(np.concatenate(parts, axis=1), axis=1)


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

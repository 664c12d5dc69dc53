"""Plain-numpy reference route and the output checks built on it.

Nothing here imports the program's numeric code.  Each observer's
Minkowski mode is written out over its two Rindler wedges as a d x d
amplitude matrix over (I, II); a GHZ or W state is a short sum of product
branches (Alice vector, Rob matrix, Steven matrix).  The reduced density
matrix is the branch-by-branch outer product with the dropped wedges
traced out by matrix products, the partial transpose is a reshape plus
swapaxes, and the spectrum comes from numpy's ``eigvalsh``.  All
amplitudes are real, so no conjugation appears.

Negativities follow the program's documented convention: N sums the
eigenvalues below -1e-12 * dim, and the log-negativity is log2(1 - 2N).
"""

from __future__ import annotations

import math

import numpy as np

CLAMP_SCALE = 1e-12

#: Observer whose indices the partial transpose flips: 0 Alice, 1 Rob, 2 Steven.
PT_OBSERVER = {"A-RS": 0, "R-AS": 1, "S-AR": 2, "RS": 1, "AR": 0, "AS": 0}

#: Observers whose accessible factor stays in each reduction.
KEPT = {
    "A-RS": (0, 1, 2),
    "R-AS": (0, 1, 2),
    "S-AR": (0, 1, 2),
    "RS": (1, 2),
    "AR": (0, 1),
    "AS": (0, 2),
}

#: Cutoff that makes the bosonic W AR/AS reductions exact to ~1e-17 for
#: r <= 1.5 (the discarded weight is tanh(r)^(2 (cutoff + 1))).
EXACT_CUTOFF = 200


def mode_matrices(field: str, p: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum and one-particle amplitude matrices over (wedge I, wedge II)."""
    if field == "fermion":
        vac = np.zeros((2, 2))
        vac[0, 0], vac[1, 1] = math.cos(p), math.sin(p)
        one = np.zeros((2, 2))
        one[1, 0] = 1.0
        return vac, one
    d = n_max + 2
    n = np.arange(n_max + 1)
    t = math.tanh(p)
    vac = np.zeros((d, d))
    vac[n, n] = t**n / math.cosh(p)
    one = np.zeros((d, d))
    one[n + 1, n] = t**n * np.sqrt(n + 1.0) / math.cosh(p) ** 2
    return vac, one


def branches(field: str, state: str, p1: float, p2: float, n_max: int):
    """(coefficient, Alice vector, Rob matrix, Steven matrix) per branch."""
    rob0, rob1 = mode_matrices(field, p1, n_max)
    ste0, ste1 = mode_matrices(field, p2, n_max)
    a0, a1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if state == "ghz":
        c = 1.0 / math.sqrt(2.0)
        return [(c, a0, rob0, ste0), (c, a1, rob1, ste1)]
    c = 1.0 / math.sqrt(3.0)
    return [(c, a1, rob0, ste0), (c, a0, rob1, ste0), (c, a0, rob0, ste1)]


def _reduce(x: np.ndarray, y: np.ndarray, kept: bool):
    """Partial trace of |x><y| for one observer.

    Alice (a vector) keeps her factor or traces it.  An accelerated
    observer (a matrix over wedges I, II) always loses wedge II and keeps
    wedge I only when ``kept``.
    """
    if x.ndim == 1:
        return np.outer(x, y) if kept else float(x @ y)
    return x @ y.T if kept else float(np.sum(x * y))


def reduced_density(field: str, state: str, quantity: str, p1: float, p2: float, n_max: int):
    """Reduced density matrix of ``quantity``, its factor dims and PT axis."""
    kept = KEPT[quantity]
    terms = branches(field, state, p1, p2, n_max)
    rho = 0.0
    for ck, *xs in terms:
        for cl, *ys in terms:
            block = ck * cl
            for obs in range(3):
                part = _reduce(xs[obs], ys[obs], obs in kept)
                block = np.kron(block, part) if obs in kept else block * part
            rho = rho + block
    dims = [2 if obs == 0 else terms[0][obs + 1].shape[0] for obs in kept]
    return rho, dims, kept.index(PT_OBSERVER[quantity])


def partial_transpose(rho: np.ndarray, dims: list[int], axis: int) -> np.ndarray:
    n = len(dims)
    return rho.reshape(dims + dims).swapaxes(axis, axis + n).reshape(rho.shape)


def log_negativity(field: str, state: str, quantity: str, p1: float, p2: float, n_max: int) -> float:
    rho, dims, axis = reduced_density(field, state, quantity, p1, p2, n_max)
    eigs = np.linalg.eigvalsh(partial_transpose(rho, dims, axis))
    neg = math.fsum(e for e in eigs if e < -CLAMP_SCALE * rho.shape[0])
    return math.log2(1.0 - 2.0 * neg)


def rs_smallest_pt_eigenvalue(r1: float, r2: float, n_max: int) -> float:
    """Smallest eigenvalue of the partially transposed bosonic W RS reduction.

    Restricted, as the program documents, to the Fock indices 0..n_max of
    each accessible wedge, whose entries are complete at this cutoff.
    """
    rho, dims, axis = reduced_density("boson", "w", "RS", r1, r2, n_max)
    pt = partial_transpose(rho, dims, axis)
    d, k = n_max + 2, np.arange(n_max + 1)
    keep = (k[:, None] * d + k[None, :]).ravel()
    return float(np.linalg.eigvalsh(pt[np.ix_(keep, keep)])[0])


def probe() -> None:
    """Fixed work, independent of the program, timed between its calls.

    Three fermionic values (interpreter-bound, like the program's d=2 path)
    and one bosonic value at cutoff 6 (numpy- and LAPACK-bound, like its
    matrix route).  The benchmark scales each call's time by this work's
    time next to it; see ``run.py``.
    """
    for quantity in ("A-RS", "R-AS", "S-AR"):
        log_negativity("fermion", "w", quantity, 0.3, 0.4, 0)
    log_negativity("boson", "w", "A-RS", 0.5, 0.7, 6)

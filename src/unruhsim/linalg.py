"""Dense linear algebra over labeled tensor factors.

Kets and matrices are plain numpy arrays (float64 or complex128,
row-major), and kets, traces and transposes keep a real input real.  The
leftmost factor of a :class:`SubsystemLayout` owns the most significant
index block, so ``np.kron(a, b)`` realizes the layout ``(a-factor, b-factor)``.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubsystemLayout",
    "Ket",
    "partial_trace",
    "ket_partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "DENSE_EIG_MAX_DIM",
]

@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tuple of ``(label, dimension)`` tensor factors.

    Fixes the index arithmetic for every operation below: the composite
    index of a basis state is ``sum_k i_k * prod(dims[k+1:])``, i.e. the
    first factor is the most significant.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        for lab, dim in self.factors:
            if dim < 1:
                raise ValueError(f"factor {lab!r} has non-positive dimension {dim}")

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "SubsystemLayout":
        return cls(tuple((str(lab), int(dim)) for lab, dim in factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValueError(f"unknown subsystem label {label!r}; layout has {self.labels}")

    def drop(self, labels) -> "SubsystemLayout":
        gone = {labels} if isinstance(labels, str) else set(labels)
        for lab in gone:
            self.axis(lab)
        return SubsystemLayout(tuple(f for f in self.factors if f[0] not in gone))

    def keep(self, labels) -> "SubsystemLayout":
        want = {labels} if isinstance(labels, str) else set(labels)
        return self.drop([lab for lab in self.labels if lab not in want])


@dataclass(frozen=True, eq=False)
class Ket:
    """State vector over a layout; real amplitudes stay float64.

    Truncated bosonic kets are deliberately not renormalized, so the
    squared norm may fall short of one by the truncation tail.
    """

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _inexact(self.amplitudes).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _inexact(m) -> np.ndarray:
    """``m`` as an array of its own float or complex dtype; integers become float64."""
    m = np.asarray(m)
    return m if np.iscomplexobj(m) else m.astype(float, copy=False)


def _check_square(rho: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    rho = _inexact(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] != layout.dim:
        raise ValueError(f"matrix dimension {rho.shape[0]} does not match layout dimension {layout.dim}")
    return rho


def partial_trace(rho: np.ndarray, layout: SubsystemLayout, drop) -> tuple[np.ndarray, SubsystemLayout]:
    """Trace out the factors named in ``drop``.

    Returns the reduced matrix over the kept factors (original relative
    order) together with the reduced layout.  Tracing all factors yields
    a 1x1 matrix holding the trace.  Real input gives real output.
    """
    rho = _check_square(rho, layout)
    names = (drop,) if isinstance(drop, str) else tuple(drop)
    axes = sorted(layout.axis(lab) for lab in names)
    dims = list(layout.dims)
    t = rho.reshape(dims + dims)
    for ax in reversed(axes):
        t = np.trace(t, axis1=ax, axis2=ax + len(dims))
        del dims[ax]
    kept = layout.drop(names)
    return t.reshape(kept.dim, kept.dim), kept


def ket_partial_trace(ket: Ket, drop) -> tuple[np.ndarray, SubsystemLayout]:
    """Reduced density matrix of ``|psi><psi|`` over the kept factors.

    Permutes the amplitudes into a (kept, dropped) matrix psi and returns
    the product psi psi^dagger, one GEMM, without forming the full outer
    product.  A real ket, which every ket this package builds is, gives a
    float64 matrix; a complex one a complex matrix.
    """
    names = (drop,) if isinstance(drop, str) else tuple(drop)
    lay = ket.layout
    gone = sorted({lay.axis(lab) for lab in names})
    kept = lay.drop(names)
    order = [i for i in range(len(lay.dims)) if i not in gone] + gone
    psi = ket.tensor().transpose(order).reshape(kept.dim, -1)
    return psi @ psi.conj().T, kept


def partial_transpose(rho: np.ndarray, layout: SubsystemLayout, target: str) -> np.ndarray:
    """Transpose the indices of the ``target`` factor only.

    A pure index permutation, hence a bit-exact involution that keeps the
    dtype of its input.
    """
    rho = _check_square(rho, layout)
    k = layout.axis(target)
    n = len(layout.factors)
    t = rho.reshape(layout.dims + layout.dims)
    t = np.swapaxes(t, k, k + n)
    return np.ascontiguousarray(t.reshape(rho.shape))


#: Matrices up to this dimension go straight to one dense ``eigvalsh``.
#: Set by timing both routes on every partial transpose the pipeline makes
#: (2-core x86, numpy 2.4, OpenBLAS): finding the blocks costs 50-120 us,
#: about ten dense 8x8 solves, so the block route loses below dimension 50,
#: breaks even at 64-72 and wins from 98 up (7-20x at 392).
DENSE_EIG_MAX_DIM = 72


def _components(m: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of ``m``'s nonzero pattern (see :func:`_edge_components`)."""
    n = m.shape[0]
    # flatnonzero plus divmod is several times faster than a 2-D nonzero
    return _edge_components(*np.divmod(np.flatnonzero(m != 0), n), n)


def _edge_components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected-component label of each of ``n`` indices under the edges ``(rows[k], cols[k])``.

    Label propagation over the edge list: every edge pulls both ends to the
    smaller label, then labels jump to their label's label, until nothing
    changes.  Each component ends labelled by its smallest index; an index
    on no edge is its own component.
    """
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[rows], labels[cols])
        new = labels.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _check_hermitian(asym: float, tol: float):
    if asym > tol:
        raise ValueError(f"matrix is not Hermitian within {tol:g}: max asymmetry {asym:.3e}")


def _blocks(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each component of ``labels``, as one ``(blocks, size)``
    array per block size, ascending, each block in ascending index order."""
    n = labels.size
    _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    size_of = sizes[comp]
    perm = np.argsort(size_of * n + comp, kind="stable")
    size_of = size_of[perm]
    out = []
    start = 0
    for size, count in zip(*np.unique(size_of, return_counts=True)):
        out.append(perm[start:start + count].reshape(-1, size))
        start += count
    return out


def _block_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, one stacked solve per block size.

    A zero entry couples nothing, so the spectrum is exactly the union of
    the spectra of the diagonal blocks the nonzero pattern splits into.
    Every nonzero entry and its mirror fall in one block, so the largest
    ``|B - B^dagger|`` over the gathered blocks, size-1 blocks included, is
    that of the whole matrix; above ``tol`` it is a ValueError.
    """
    stacks = [m[idx[:, :, None], idx[:, None, :]] for idx in _blocks(_components(m))]
    asym = np.concatenate([(b - b.conj().swapaxes(1, 2)).ravel() for b in stacks])
    _check_hermitian(float(np.max(np.abs(asym))), tol)
    parts = [b[:, 0, 0].real if b.shape[1] == 1 else np.linalg.eigvalsh(b).ravel() for b in stacks]
    return np.sort(np.concatenate(parts))


def hermitian_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending.

    Rejects inputs whose max asymmetry ``|m - m^dagger|`` exceeds ``tol``.
    Matrices up to ``DENSE_EIG_MAX_DIM`` are checked whole and solved by one
    dense ``eigvalsh``; larger ones are split into the blocks of their exact
    nonzero pattern first and checked block by block, which gives the same
    maximum.  Real matrices are solved in real arithmetic.
    """
    m = _inexact(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > DENSE_EIG_MAX_DIM:
        return _block_eigenvalues(m, tol)
    _check_hermitian(float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0, tol)
    return np.linalg.eigvalsh(m)

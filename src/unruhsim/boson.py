"""Bosonic reference forms: analytic block negativities, their adaptive
series with certified tail bounds, and the truncation trace deficit.

The numeric route (ket, wedge trace, partial transpose, eigensolve) on
the truncated Fock space is ``pipeline``; this module keeps the bosonic
entry points to it.  The reference per-block closed forms are evaluated
verbatim and checked against that numeric route by the diagnostics
module.  Every result carries an honest truncation bound: the discarded
Fock weight for matrix results, a certified geometric bound on the
unsummed blocks for series results.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SubsystemLayout, hermitian_eigenvalues
from .measures import NegativityResult, TRIPARTITE, from_block_sum
from .pipeline import (
    MATRIX_DIM_CEILING,
    MatrixCeilingError,
    Scenario,
    evaluate_point,
    pair_partial_transpose,
    reduced_density,
)
from .states import _BRANCHES, AccelParam, Truncation

__all__ = [
    "AR_ZERO",
    "MATRIX_DIM_CEILING",
    "SERIES_INDEX_CEILING",
    "BosonScenario",
    "MatrixCeilingError",
    "SeriesConvergenceError",
    "rindler_density_truncated",
    "reduced_density",
    "numeric_log_negativity",
    "truncation_trace_deficit",
    "ghz_block_negativity",
    "ghz_log_negativity_series",
    "series_log_negativity",
    "w_rs_block_negativity",
    "w_rs_log_negativity_series",
    "w_ar_block_negativity",
    "w_ar_log_negativity_series",
    "w_ar_crossing_function",
    "rs_smallest_pt_eigenvalue",
]

#: Squeezing at which the W AR/AS block negativities vanish for every
#: block index: sinh(r) = 1, i.e. r = ln(1 + sqrt(2)).
AR_ZERO = math.asinh(1.0)

#: Reject adaptive series that have not converged by this block index.
SERIES_INDEX_CEILING = 4096

_SERIES_STEP = 4

PSD_CLAMP = 1e-10


class SeriesConvergenceError(RuntimeError):
    """Adaptive block series hit the index ceiling before converging."""

    def __init__(self, message: str, partial_sum: float, tail_bound: float, n_reached: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound
        self.n_reached = n_reached


def _radius(r) -> float:
    return AccelParam.of("boson", r).value


class BosonScenario(Scenario):
    """A bosonic :class:`~unruhsim.pipeline.Scenario`; ``r1``/``r2`` name its parameters."""

    def __init__(self, state: str, r1, r2, trunc: Truncation = Truncation()):
        super().__init__("boson", state, r1, r2, trunc)

    r1 = property(lambda self: self.p1)
    r2 = property(lambda self: self.p2)


def rindler_density_truncated(s: BosonScenario, check_psd: bool = False) -> tuple[np.ndarray, SubsystemLayout]:
    """Truncated density matrix over (A, I, I'), dimension 2 (n_max+2)^2.

    Hermitian with trace 1 - tail, where the tail is the discarded Fock
    weight (see :func:`truncation_trace_deficit` for its closed form).
    With ``check_psd`` the spectrum is verified to sit above -1e-10.
    """
    rho, lay = reduced_density(s)
    if check_psd:
        low = float(hermitian_eigenvalues(rho)[0])
        if low < -PSD_CLAMP:
            raise RuntimeError(f"truncated density matrix has eigenvalue {low:.3e} below -{PSD_CLAMP:g}")
    return rho, lay


def truncation_trace_deficit(s: BosonScenario) -> float:
    """Closed-form discarded Fock weight of the truncated state.

    Per mode the vacuum branch keeps 1 - t^(M+1) of its weight and the
    one-particle branch 1 - (M+2) t^(M+1) + (M+1) t^(M+2), with
    t = tanh^2(r) and M the cutoff; the state's branches weigh them equally.
    """
    m = s.trunc.n_max
    t1, t2 = math.tanh(s.p1.value) ** 2, math.tanh(s.p2.value) ** 2
    rob, steven = (_kept0(t1, m), _kept1(t1, m)), (_kept0(t2, m), _kept1(t2, m))
    rows = _BRANCHES[s.state]
    return 1.0 - sum(rob[i] * steven[j] for _, i, j in rows) / len(rows)


def numeric_log_negativity(s: BosonScenario, quantity: str) -> NegativityResult:
    """Partial-transpose eigensolve on the truncated matrix.

    The reported tail bound is the trace deficit of the matrix actually
    diagonalized.  For the W 1-vs-2 partitions this is the only route;
    n_max = 1 gives the smallest nontrivial construction, an 18x18 matrix,
    trustworthy only at small accelerations.
    """
    return evaluate_point("boson", s.state, s.p1, s.p2, (quantity,), s.trunc)[quantity]


# ---------------------------------------------------------------------------
# analytic block negativities, evaluated verbatim


def _hyper(r: float) -> tuple[float, float, float]:
    t = math.tanh(r)
    return t * t, math.cosh(r) ** 2, math.sinh(r) ** 2


def _ratio(num, den: float):
    """num/den, inf where it overflows, with the zero-index convention 0/0 -> 0 and k/0 -> inf."""
    num = np.asarray(num, dtype=float)
    if den > 0.0:
        with np.errstate(over="ignore"):
            return num / den
    return np.where(num == 0.0, 0.0, np.inf)


def _bracket(x, a):
    """x - sqrt(x^2 + a), elementwise, with the x -> inf limit of 0.

    The limit is taken wherever x^2 overflows, even for a finite x.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = x * x
        out = x - np.sqrt(sq + a)
    return np.where(np.isfinite(sq), out, 0.0)


def _ghz_blocks(partition, n, m, r1: float, r2: float):
    if partition == "R-AS":
        return _ghz_blocks("S-AR", n, m, r2, r1)
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    tsq1, csq1, ssq1 = _hyper(r1)
    tsq2, csq2, ssq2 = _hyper(r2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = tsq1**n * tsq2**m / (4.0 * csq1 * csq2)
    if partition == "A-RS":
        x = tsq1 * tsq2 + _ratio(n * m, ssq1 * ssq2)
        a = 4.0 * (n + m + 1.0) / (csq1 * csq2)
    elif partition == "S-AR":
        x = tsq2 + _ratio((n + 1.0) * m, ssq1 * ssq2)
        a = 4.0 * (n + 1.0) / (csq1 * csq2)
    else:
        raise ValueError(f"unknown partition {partition!r}; expected one of {TRIPARTITE}")
    return np.minimum(w * _bracket(x, a), 0.0)


def ghz_block_negativity(partition: str, n: int, m: int, r1, r2) -> float:
    """Reference negative eigenvalue of one GHZ partial-transpose block.

    A-RS block: weight tanh^2n(r1) tanh^2m(r2) / (4 cosh^2 r1 cosh^2 r2)
    times x - sqrt(x^2 + 4(n+m+1)/(cosh^2 r1 cosh^2 r2)) with
    x = tanh^2 r1 tanh^2 r2 + nm/(sinh^2 r1 sinh^2 r2).  The S-AR form
    uses x = tanh^2 r2 + (n+1)m/(sinh^2 r1 sinh^2 r2) and 4(n+1) in the
    root; R-AS is S-AR with r1 and r2 interchanged.  Zero-index factors
    evaluate to 0 by limit, and blocks whose bracket is non-negative
    contribute nothing.
    """
    if n < 0 or m < 0:
        raise ValueError(f"block indices must be >= 0, got ({n}, {m})")
    return float(_ghz_blocks(partition, n, m, _radius(r1), _radius(r2)))


def _w_rs_blocks(n, m, r1: float, r2: float):
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    tsq1, csq1, _ = _hyper(r1)
    tsq2, csq2, _ = _hyper(r2)
    c1, c2 = math.cosh(r1), math.cosh(r2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = tsq1**n * tsq2**m / (6.0 * csq1 * csq2)
    a = 1.0 + _ratio(n, tsq1 * c1) + _ratio(m, tsq2 * c2)
    b = 2.0 * tsq1 * tsq2 + (n + 1.0) * tsq2 / csq1 + (m + 1.0) * tsq1 / csq2
    q2 = 4.0 * (n + 1.0) * (m + 1.0) / (csq1 * csq2)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (a + b) ** 2
        disc = sq - 4.0 * a * b + q2
        val = (a + b) - np.sqrt(disc)
    # where (a + b)^2 overflows, a dominates and the block clamps to 0
    val = np.where(np.isfinite(sq), val, 0.0)
    return np.minimum(w * val, 0.0)


def w_rs_block_negativity(n: int, m: int, r1, r2) -> float:
    """Reference (n, m) block negativity of the W RS reduction.

    Uses the reference coefficients verbatim:
      a = 1 + n/(tanh^2 r1 cosh r1) + m/(tanh^2 r2 cosh r2)
      b = 2 tanh^2 r1 tanh^2 r2 + (n+1) tanh^2 r2 / cosh^2 r1
                                + (m+1) tanh^2 r1 / cosh^2 r2
    The numeric pipeline disagrees with these coefficients away from
    r = 0 (see diagnostics); the value is still evaluated verbatim.
    """
    if n < 0 or m < 0:
        raise ValueError(f"block indices must be >= 0, got ({n}, {m})")
    return float(_w_rs_blocks(n, m, _radius(r1), _radius(r2)))


def _w_ar_brackets(n, r: float):
    """Unclamped per-block bracket of the W AR reduction; sign flips at AR_ZERO."""
    n = np.asarray(n, dtype=float)
    tsq, csq, ssq = _hyper(r)
    x = 1.0 + _ratio(n, ssq) + tsq
    with np.errstate(over="ignore", invalid="ignore"):
        sq = x * x
        val = x - np.sqrt(sq - 4.0 * tsq + 4.0 / csq)
    return np.where(np.isfinite(sq), val, 0.0)


def _w_ar_blocks(n, r: float):
    n = np.asarray(n, dtype=float)
    tsq, csq, _ = _hyper(r)
    with np.errstate(over="ignore", invalid="ignore"):
        w = tsq**n / (6.0 * csq)
    return np.minimum(w * _w_ar_brackets(n, r), 0.0)


def w_ar_block_negativity(n: int, r1) -> float:
    """Reference n-th block negativity of the W AR reduction.

    weight tanh^2n(r1)/(6 cosh^2 r1) times
    x - sqrt(x^2 - 4 tanh^2 r1 + 4/cosh^2 r1), x = 1 + n/sinh^2 r1 + tanh^2 r1,
    clamped to zero once the bracket turns non-negative, which happens at
    sinh(r1) = 1 independently of n.  The AS reduction has the same form
    in r2.
    """
    if n < 0:
        raise ValueError(f"block index must be >= 0, got {n}")
    return float(_w_ar_blocks(n, _radius(r1)))


def w_ar_crossing_function(r1, n_terms: int = 64) -> float:
    """Weighted sum of unclamped AR brackets; its root is the AR/AS zero."""
    r = _radius(r1)
    n = np.arange(n_terms, dtype=float)
    tsq, csq, _ = _hyper(r)
    with np.errstate(over="ignore", invalid="ignore"):
        w = tsq**n / (6.0 * csq)
    return float(np.sum(w * _w_ar_brackets(n, r)))


def rs_smallest_pt_eigenvalue(r1, r2, trunc: Truncation | None = None) -> float:
    """Smallest eigenvalue of the partially transposed W RS reduction.

    Restricted to the Fock indices whose matrix entries are complete at
    this truncation; the edge row left half-filled by the cutoff would
    otherwise contribute an artificial negative eigenvalue that never
    crosses zero.  The restriction is a principal submatrix of the exact
    untruncated partial transpose, so its smallest eigenvalue crosses
    zero where the residual RS entanglement actually dies.
    """
    s = BosonScenario("w", r1, r2, trunc)
    pt = pair_partial_transpose(s, "RS")
    n_max = s.trunc.n_max
    keep = [i * (n_max + 2) + j for i in range(n_max + 1) for j in range(n_max + 1)]
    return float(hermitian_eigenvalues(pt[np.ix_(keep, keep)])[0])


# ---------------------------------------------------------------------------
# series summation with certified geometric tail bounds


def _kept0(t: float, upto: int) -> float:
    """sum_{n<=upto} (1-t) t^n: kept weight of the vacuum branch."""
    return 1.0 - t ** (upto + 1)


def _kept1(t: float, upto: int) -> float:
    """Kept weight of the one-particle branch."""
    return 1.0 - (upto + 2) * t ** (upto + 1) + (upto + 1) * t ** (upto + 2)


def _g0(t: float) -> float:
    return 1.0 / (1.0 - t)


def _g1(t: float) -> float:
    return 1.0 / (1.0 - t) ** 2


def _g0_in(t: float, n: int) -> float:
    return (1.0 - t ** (n + 1)) / (1.0 - t)


def _g1_in(t: float, n: int) -> float:
    return (1.0 - (n + 2) * t ** (n + 1) + (n + 1) * t ** (n + 2)) / (1.0 - t) ** 2


def _out00(t1: float, t2: float, n: int) -> float:
    """sum of t1^i t2^j over (i, j) outside the [0..n]^2 square."""
    return max(_g0(t1) * _g0(t2) - _g0_in(t1, n) * _g0_in(t2, n), 0.0)


def _out10(t1: float, t2: float, n: int) -> float:
    """Same with an extra (i+1) factor on the first index."""
    return max(_g1(t1) * _g0(t2) - _g1_in(t1, n) * _g0_in(t2, n), 0.0)


def _out11(t1: float, t2: float, n: int) -> float:
    """Same with (i+1)(j+1)."""
    return max(_g1(t1) * _g1(t2) - _g1_in(t1, n) * _g1_in(t2, n), 0.0)


def _ghz_series_tail_bound(partition: str, r1: float, r2: float, n: int) -> float:
    """Certified bound on the GHZ blocks outside the [0..n]^2 square.

    Every block obeys |w b(x, a)| <= w sqrt(a) and, since x stays above
    its n = m = 0 value, |w b| <= w a / (2 x_min); both sides sum to
    closed geometric forms, and the smaller wins.
    """
    if partition == "R-AS":
        return _ghz_series_tail_bound("S-AR", r2, r1, n)
    tsq1, csq1, _ = _hyper(r1)
    tsq2, csq2, _ = _hyper(r2)
    c3 = math.cosh(r1) ** 3 * math.cosh(r2) ** 3
    if partition == "A-RS":
        # sqrt(n+m+1) <= (n+m+2)/2
        b_sqrt = (_out10(tsq1, tsq2, n) + _out10(tsq2, tsq1, n)) / (4.0 * c3)
        bounds = [b_sqrt]
        if tsq1 * tsq2 > 0.0:
            s = _out10(tsq1, tsq2, n) + _out10(tsq2, tsq1, n) - _out00(tsq1, tsq2, n)
            bounds.append(s / (2.0 * tsq1 * tsq2 * csq1**2 * csq2**2))
        return min(bounds)
    if partition == "S-AR":
        b_sqrt = (_out10(tsq1, tsq2, n) + _out00(tsq1, tsq2, n)) / (4.0 * c3)
        bounds = [b_sqrt]
        if tsq2 > 0.0:
            bounds.append(_out10(tsq1, tsq2, n) / (2.0 * tsq2 * csq1**2 * csq2**2))
        return min(bounds)
    raise ValueError(f"unknown partition {partition!r}; expected one of {TRIPARTITE}")


def _w_rs_series_tail_bound(r1: float, r2: float, n: int) -> float:
    tsq1, csq1, _ = _hyper(r1)
    tsq2, csq2, _ = _hyper(r2)
    return _out11(tsq1, tsq2, n) / (3.0 * csq1**2 * csq2**2)


def _w_ar_series_tail_bound(r: float, n: int) -> float:
    tsq, csq, ssq = _hyper(r)
    if ssq >= 1.0:
        # every block bracket is non-negative here, so all blocks clamp to 0
        return 0.0
    return (_g0(tsq) - _g0_in(tsq, n)) * 2.0 * abs(1.0 / csq - tsq) / (6.0 * csq)


def _sum_rect(fn, n_lo: int, n_hi: int, m_lo: int, m_hi: int) -> float:
    if n_hi < n_lo or m_hi < m_lo:
        return 0.0
    n = np.arange(n_lo, n_hi + 1, dtype=float)[:, None]
    m = np.arange(m_lo, m_hi + 1, dtype=float)[None, :]
    return float(np.sum(fn(n, m)))


def _square_shell(fn):
    """Shell sum of 2-D blocks fn(n, m): every block whose larger index lies in (lo, hi]."""
    return lambda lo, hi: _sum_rect(fn, lo + 1, hi, 0, hi) + _sum_rect(fn, 0, lo, lo + 1, hi)


def _series(shell, bound_fn, trunc: Truncation | None) -> NegativityResult:
    """Sum a block series shell by shell, starting with the shell (-1, n_max].

    ``shell(lo, hi)`` sums the blocks whose largest index lies in (lo, hi]
    and ``bound_fn(n)`` bounds every block beyond index n.  When adaptive,
    shells of width four are added until one contributes less than
    series_tol in absolute value; the result reports the index reached, the
    last shell and the certified bound there.
    """
    trunc = Truncation.of(trunc)
    n = trunc.n_max
    total = shell(-1, n)
    last = None
    while trunc.adaptive:
        hi = n + _SERIES_STEP
        if hi > SERIES_INDEX_CEILING:
            raise SeriesConvergenceError(
                f"block series not converged by N={n}: partial sum {total:.9e}, "
                f"certified tail bound {bound_fn(n):.3e}",
                partial_sum=total,
                tail_bound=bound_fn(n),
                n_reached=n,
            )
        part = shell(n, hi)
        total += part
        n, last = hi, abs(part)
        if last < trunc.series_tol:
            break
    return from_block_sum([total], tail=bound_fn(n), n_reached=n, last_shell=last)


def ghz_log_negativity_series(partition: str, r1, r2, trunc: Truncation | None = None) -> NegativityResult:
    """Sum the reference GHZ block negativities over growing squares.

    When adaptive, the square [0..N]^2 grows in steps of four until the
    added shell contributes less than series_tol in absolute value; the
    result reports N, the last shell, and a certified bound on all
    unsummed blocks.  Beyond r of roughly 2.5 the shells go small before
    the geometric weights have decayed, so the certified bound is the
    quantity to trust there.
    """
    r1, r2 = _radius(r1), _radius(r2)
    if partition not in TRIPARTITE:
        raise ValueError(f"unknown partition {partition!r}; expected one of {TRIPARTITE}")
    return _series(
        _square_shell(lambda n_, m_: _ghz_blocks(partition, n_, m_, r1, r2)),
        lambda n_: _ghz_series_tail_bound(partition, r1, r2, n_),
        trunc,
    )


def w_rs_log_negativity_series(r1, r2, trunc: Truncation | None = None) -> NegativityResult:
    """Sum the reference W RS block negativities (verbatim coefficients)."""
    r1, r2 = _radius(r1), _radius(r2)
    return _series(
        _square_shell(lambda n_, m_: _w_rs_blocks(n_, m_, r1, r2)),
        lambda n_: _w_rs_series_tail_bound(r1, r2, n_),
        trunc,
    )


def w_ar_log_negativity_series(r1, trunc: Truncation | None = None) -> NegativityResult:
    """Sum the W AR block negativities over n; identical in form for AS with r2."""
    r = _radius(r1)
    return _series(
        lambda lo, hi: float(np.sum(_w_ar_blocks(np.arange(lo + 1, hi + 1, dtype=float), r))),
        lambda n_: _w_ar_series_tail_bound(r, n_),
        trunc,
    )


def series_log_negativity(state: str, quantity: str, r1, r2, trunc: Truncation | None = None) -> NegativityResult | None:
    """Reference analytic route for any quantity, or None when none exists.

    GHZ 1-vs-2 partitions and W pairs have block series; the W 1-vs-2
    partitions and the (identically disentangled) GHZ pairs do not.
    """
    if state == "ghz" and quantity in TRIPARTITE:
        return ghz_log_negativity_series(quantity, r1, r2, trunc)
    if state == "w" and quantity == "RS":
        return w_rs_log_negativity_series(r1, r2, trunc)
    if state == "w" and quantity == "AR":
        return w_ar_log_negativity_series(r1, trunc)
    if state == "w" and quantity == "AS":
        return w_ar_log_negativity_series(r2, trunc)
    return None

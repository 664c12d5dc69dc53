"""Minkowski GHZ/W kets and their accelerated-observer mode expansions.

One inertial observer (Alice) and two uniformly accelerated observers
(Rob, Steven) each couple to a single field mode.  For an accelerated
observer the Minkowski vacuum and one-particle states are rewritten over
the two causally disconnected wedge spaces; the inaccessible wedge
carries the labels II / II'.  Composite kets are ordered
(A, I, II, I', II') with unprimed wedges belonging to Rob.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, SubsystemLayout

__all__ = [
    "C_LIGHT",
    "U_MAX",
    "AccelParam",
    "PhysicalAccel",
    "Truncation",
    "accel_to_param",
    "fermion_mode_expansion",
    "boson_mode_expansion",
    "build_ghz",
    "build_w",
    "traced_density",
]

C_LIGHT = 299_792_458.0

#: Largest representable fermionic wedge angle.  float(pi)/4 is itself
#: strictly below the exact supremum, so the closed float interval
#: [0, U_MAX] realizes the half-open mathematical range.
U_MAX = math.pi / 4

_STATS = ("fermion", "boson")


def _check_stats(stats: str) -> str:
    if stats not in _STATS:
        raise ValueError(f"unknown field statistics {stats!r}; expected one of {_STATS}")
    return stats


@dataclass(frozen=True)
class AccelParam:
    """Unruh parameter: wedge angle u (fermion) or squeezing r (boson)."""

    kind: str
    value: float

    def __post_init__(self):
        _check_stats(self.kind)
        v = float(self.value)
        if self.kind == "fermion":
            if not 0.0 <= v <= U_MAX:
                raise ValueError(f"fermionic parameter u={v!r} outside [0, pi/4) (pi/4 = {U_MAX!r})")
        else:
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"bosonic parameter r={v!r} outside [0, inf)")
        object.__setattr__(self, "value", v)

    @classmethod
    def of(cls, kind: str, p) -> "AccelParam":
        """``p`` as a parameter of ``kind``: an AccelParam must already be of
        that kind, and anything else is range-checked as a plain number."""
        if not isinstance(p, AccelParam):
            return cls(kind, p)
        if p.kind != kind:
            raise ValueError(f"expected a {kind} parameter, got kind {p.kind!r}")
        return p

    @classmethod
    def fermionic(cls, u: float) -> "AccelParam":
        return cls("fermion", u)

    @classmethod
    def bosonic(cls, r: float) -> "AccelParam":
        return cls("boson", r)


@dataclass(frozen=True)
class PhysicalAccel:
    """Proper acceleration (m/s^2) and detector mode frequency (rad/s)."""

    a: float
    omega: float
    c: float = C_LIGHT

    def __post_init__(self):
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise ValueError(f"proper acceleration must be finite and >= 0, got {self.a!r}")
        if not self.omega > 0.0:
            raise ValueError(f"mode frequency must be > 0, got {self.omega!r}")
        if not self.c > 0.0:
            raise ValueError(f"speed of light must be > 0, got {self.c!r}")


@dataclass(frozen=True)
class Truncation:
    """Per-mode Fock cutoff plus the convergence policy for block series."""

    n_max: int = 12
    series_tol: float = 1e-8
    adaptive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_max", _whole("n_max", self.n_max, 1))
        if not self.series_tol > 0.0:
            raise ValueError(f"series_tol must be > 0, got {self.series_tol!r}")

    @classmethod
    def of(cls, x) -> "Truncation":
        """``x`` as a truncation: None is the default, an integer its n_max."""
        if isinstance(x, Truncation):
            return x
        return cls() if x is None else cls(n_max=x)


def _whole(name: str, n, low: int) -> int:
    """``n`` as an int of at least ``low``; a non-integral ``n`` is a ValueError."""
    if not isinstance(n, numbers.Integral) or n < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {n!r}")
    return int(n)


def accel_to_param(p: PhysicalAccel, stats: str) -> AccelParam:
    """Map a physical acceleration to its Unruh parameter.

    tan u = exp(-pi omega c / a) for fermions, tanh r = same for bosons;
    a = 0 maps to u = r = 0 by the continuous limit.
    """
    _check_stats(stats)
    x = 0.0 if p.a == 0.0 else math.exp(-math.pi * p.omega * p.c / p.a)
    if stats == "fermion":
        return AccelParam.fermionic(math.atan(x))
    ceiling = 1.0 - 1e-15
    if x >= ceiling:
        a_bound = math.pi * p.omega * p.c / -math.log(ceiling)
        raise ValueError(
            f"r overflow: exp(-pi*omega*c/a) = {x!r} >= {ceiling!r}; "
            f"requires a < {a_bound:.6e} m/s^2 for these omega, c"
        )
    return AccelParam.bosonic(math.atanh(x))


#: Branches of each state, each (Alice's bit, Rob's occupation, Steven's
#: occupation), summed with equal weight.
_BRANCHES = {
    "ghz": ((0, 0, 0), (1, 1, 1)),
    "w": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def _mode(occupation: int, p: AccelParam, n_max: int) -> np.ndarray:
    """Real amplitudes c_0 .. c_{d-1} of one Minkowski mode over (I, II), c_n on |n + occupation, n>.

    Fermions have d = 2 and stop at n = 1 by exclusion: the vacuum has
    c = (cos u, sin u) and the particle c = (1, 0).  Bosons have
    d = n_max + 2, so the particle's edge term |n_max + 1, n_max> stays
    representable, and are cut after n = n_max: c_n = tanh^n r sech r and
    sqrt(n+1) tanh^n r sech^2 r, then 0 (:func:`_mode_tail` is the weight
    cut).  At large r sech r is formed from e^-r, so it underflows to 0
    instead of overflowing.
    """
    if occupation not in (0, 1):
        raise ValueError(f"occupation must be 0 or 1, got {occupation!r}")
    if p.kind == "fermion":
        return np.array((math.cos(p.value), math.sin(p.value)) if occupation == 0 else (1.0, 0.0))
    r, k = p.value, 1 + occupation
    # cosh^k r overflows from r ~ 355; from r = 350 on e^-2r < 1e-304, so
    # sech r = 2 e^-r / (1 + e^-2r) is 2 e^-r in float, and it underflows
    pref = 1.0 / math.cosh(r) ** k if r < 350.0 else (2.0 * math.exp(-r)) ** k
    t = math.tanh(r)
    return np.array([pref * t**n * math.sqrt(n + 1) ** occupation for n in range(n_max + 1)] + [0.0])


def _mode_tail(occupation: int, p: AccelParam, n_max: int) -> float:
    """Squared weight :func:`_mode` cuts from a bosonic mode: the sum of c_n^2 over n > n_max.

    With t = tanh^2 r and M = n_max that is t^(M+1) for the vacuum and
    t^(M+1) ((M+2) - (M+1) t) for the particle.  Both are formed from the
    tail itself, never as 1 minus the kept weight, so a tail far below
    the float epsilon keeps its relative precision.
    """
    t = math.tanh(p.value)
    t *= t
    x = t ** (n_max + 1)
    return x if occupation == 0 else x * ((n_max + 2) - (n_max + 1) * t)


def _tail(state: str, param1: AccelParam, param2: AccelParam, n_max: int) -> float:
    """Discarded Fock weight of a truncated bosonic state, the trace rho(A, I, I') lacks.

    A branch keeps (1 - a)(1 - b) of its weight, with a and b the
    :func:`_mode_tail` of Rob's and Steven's modes, so it drops a + b - ab;
    the branches of :data:`_BRANCHES` weigh equally.
    """
    rows = _BRANCHES[state]
    lost = 0.0
    for _, rob, steven in rows:
        a, b = _mode_tail(rob, param1, n_max), _mode_tail(steven, param2, n_max)
        lost += a + b - a * b
    return lost / len(rows)


def _ladder(occupation: int, c: np.ndarray) -> np.ndarray:
    """d x d amplitudes over (I, II) with c_n at |n + occupation, n>; the c_n
    pushed past the edge is always one of the zeros that end c."""
    return np.diag(c[:len(c) - occupation], -occupation)


def fermion_mode_expansion(occupation: int, u: AccelParam) -> Ket:
    """Single fermionic Minkowski mode over (wedge I particle, wedge II antiparticle).

    |0>_M -> cos(u) |0,0> + sin(u) |1,1>;  |1>_M -> |1,0>.  Unit norm for
    every u.
    """
    c = _mode(occupation, AccelParam.of("fermion", u), 0)
    return Ket(SubsystemLayout.of(("I", 2), ("II", 2)), _ladder(occupation, c))


def boson_mode_expansion(occupation: int, r: AccelParam, cutoff) -> tuple[Ket, float]:
    """Truncated two-mode squeezed expansion of a bosonic Minkowski mode.

    |0>_M -> (1/cosh r) sum_n tanh^n r |n,n>
    |1>_M -> (1/cosh^2 r) sum_n tanh^n r sqrt(n+1) |n+1,n>

    Both wedge factors get dimension cutoff+2 so the edge term of the
    one-particle branch stays representable; a cutoff of 0 is allowed.
    The ket is not renormalized; the returned tail is the discarded
    squared weight in closed form (see :func:`_mode_tail`).
    """
    r = AccelParam.of("boson", r)
    n_max = cutoff.n_max if isinstance(cutoff, Truncation) else _whole("cutoff", cutoff, 0)
    amps = _ladder(occupation, _mode(occupation, r, n_max))
    return Ket(SubsystemLayout.of(("I", n_max + 2), ("II", n_max + 2)), amps), _mode_tail(occupation, r, n_max)


def _modes(stats: str, param1: AccelParam, param2: AccelParam, cutoff) -> np.ndarray:
    """Amplitudes ``[observer, occupation, n]`` of Rob's and Steven's modes (see :func:`_mode`).

    Checks the statistics and that both parameters are of that kind.
    """
    _check_stats(stats)
    for p in (param1, param2):
        if p.kind != stats:
            raise ValueError(
                f"mixed field statistics: parameter kind {p.kind!r} under {stats!r} state construction"
            )
    n_max = Truncation.of(cutoff).n_max if stats == "boson" else 0
    return np.array([[_mode(occ, p, n_max) for occ in (0, 1)] for p in (param1, param2)])


def _build(state: str, stats: str, param1: AccelParam, param2: AccelParam, cutoff) -> Ket:
    """The ket of one row of :data:`_BRANCHES`, each branch weighted 1/sqrt(row count)."""
    modes = _modes(stats, param1, param2, cutoff)
    d = modes.shape[-1]
    ladders = [[_ladder(occ, c) for occ, c in enumerate(pair)] for pair in modes]
    psi = np.zeros((2, d, d, d, d))
    rows = _BRANCHES[state]
    for alice, rob, steven in rows:
        psi[alice] += np.multiply.outer(ladders[0][rob], ladders[1][steven])
    layout = SubsystemLayout.of(("A", 2), ("I", d), ("II", d), ("I'", d), ("II'", d))
    return Ket(layout, psi * (1.0 / math.sqrt(len(rows))))


def build_ghz(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite GHZ ket (1/sqrt2)(|0>_A E0 E0 + |1>_A E1 E1) over (A, I, II, I', II')."""
    return _build("ghz", stats, param1, param2, cutoff)


def build_w(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite W ket (1/sqrt3)(|1>_A E0 E0 + |0>_A E1 E0 + |0>_A E0 E1)."""
    return _build("w", stats, param1, param2, cutoff)


@functools.lru_cache(maxsize=32)
def _pair_index(state: str, d: int) -> np.ndarray:
    """Flat index into rho(A, I, I') of (x_b, x_b') for every branch pair
    b, b' of ``state`` and hidden pair (n, m), n, m < d.

    x_b = (Alice's bit, n + Rob's occupation, m + Steven's occupation).
    Where n + occupation reaches d the amplitude is one of the zeros that
    end c (see :func:`_mode`), so that cell is clipped onto the edge, where
    it adds 0.0.  Cached and read-only: it depends on the state and d alone,
    and building it costs more than the fermionic trace it serves.
    """
    n = np.arange(d)
    x = np.array([alice * d * d + np.minimum(n + rob, d - 1)[:, None] * d + np.minimum(n + steven, d - 1)
                  for alice, rob, steven in _BRANCHES[state]])
    index = (x[:, None] * (2 * d * d) + x[None, :]).ravel()
    index.flags.writeable = False
    return index


def traced_density(state: str, stats: str, param1: AccelParam, param2: AccelParam,
                   cutoff=None) -> tuple[np.ndarray, SubsystemLayout]:
    """rho(A, I, I') of one row of :data:`_BRANCHES`, wedges II and II' traced out, without the ket.

    At each hidden pair (n, m) of wedge II and II' occupations the ket is a
    vector v_nm over (A, I, I') with one entry per branch b: the ket's
    amplitude w_b = c_n c'_m / sqrt(row count) at x_b = (Alice's bit,
    n + Rob's occupation, m + Steven's occupation).  So rho is
    sum_nm v_nm v_nm^T, and one bincount adds every product w_b w_b' at
    (x_b, x_b').  These are the terms of the ket's wedge trace, so the two
    agree to roundoff and have the same exact zeros.
    """
    modes = _modes(stats, param1, param2, cutoff)
    d = modes.shape[-1]
    rows = _BRANCHES[state]
    _, rob, steven = zip(*rows)
    w = modes[0, rob, :, None] * modes[1, steven, None, :] * (1.0 / math.sqrt(len(rows)))
    dim = 2 * d * d
    rho = np.bincount(_pair_index(state, d), (w[:, None] * w[None, :]).ravel(), minlength=dim * dim)
    return rho.reshape(dim, dim), SubsystemLayout.of(("A", 2), ("I", d), ("I'", d))

"""Minkowski GHZ/W kets and their accelerated-observer mode expansions.

One inertial observer (Alice) and two uniformly accelerated observers
(Rob, Steven) each couple to a single field mode.  For an accelerated
observer the Minkowski vacuum and one-particle states are rewritten over
the two causally disconnected wedge spaces; the inaccessible wedge
carries the labels II / II'.  Composite kets are ordered
(A, I, II, I', II') with unprimed wedges belonging to Rob.
"""

from __future__ import annotations

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
    """Real d x d amplitudes of one Minkowski mode over (I, II): c_n on |n + occupation, n>.

    Fermions stop at n = 1 by exclusion, so d = 2: the vacuum has
    c = (cos u, sin u) and the particle c = (1,).  Bosons are cut at n_max
    with d = n_max + 2, so the particle's edge term stays representable:
    c_n = tanh^n r / cosh r and sqrt(n+1) tanh^n r / cosh^2 r.
    """
    if occupation not in (0, 1):
        raise ValueError(f"occupation must be 0 or 1, got {occupation!r}")
    if p.kind == "fermion":
        d = 2
        c = (math.cos(p.value), math.sin(p.value)) if occupation == 0 else (1.0,)
    else:
        d = n_max + 2
        t = math.tanh(p.value)
        pref = 1.0 / math.cosh(p.value) ** (1 + occupation)
        c = [pref * t**n * math.sqrt(n + 1) ** occupation for n in range(n_max + 1)]
    amps = np.zeros((d, d))
    n = np.arange(len(c))
    amps[n + occupation, n] = c
    return amps


def fermion_mode_expansion(occupation: int, u: AccelParam) -> Ket:
    """Single fermionic Minkowski mode over (wedge I particle, wedge II antiparticle).

    |0>_M -> cos(u) |0,0> + sin(u) |1,1>;  |1>_M -> |1,0>.  Unit norm for
    every u.
    """
    return Ket(SubsystemLayout.of(("I", 2), ("II", 2)), _mode(occupation, AccelParam.of("fermion", u), 0))


def boson_mode_expansion(occupation: int, r: AccelParam, cutoff) -> tuple[Ket, float]:
    """Truncated two-mode squeezed expansion of a bosonic Minkowski mode.

    |0>_M -> (1/cosh r) sum_n tanh^n r |n,n>
    |1>_M -> (1/cosh^2 r) sum_n tanh^n r sqrt(n+1) |n+1,n>

    Both wedge factors get dimension cutoff+2 so the edge term of the
    one-particle branch stays representable; a cutoff of 0 is allowed.
    The ket is not renormalized; the returned tail is the discarded
    squared weight, which for the geometric sums above has the closed
    forms t^(cutoff+1) and (cutoff+2) t^(cutoff+1) - (cutoff+1) t^(cutoff+2)
    with t = tanh^2 r.
    """
    r = AccelParam.of("boson", r)
    n_max = cutoff.n_max if isinstance(cutoff, Truncation) else _whole("cutoff", cutoff, 0)
    amps = _mode(occupation, r, n_max)
    t = math.tanh(r.value)
    tsq, m = t * t, n_max + 1
    tail = tsq**m if occupation == 0 else (m + 1) * tsq**m - m * tsq ** (m + 1)
    return Ket(SubsystemLayout.of(("I", n_max + 2), ("II", n_max + 2)), amps), tail


def _build(state: str, stats: str, param1: AccelParam, param2: AccelParam, cutoff) -> Ket:
    """The ket of one row of :data:`_BRANCHES`, each branch weighted 1/sqrt(row count)."""
    _check_stats(stats)
    for p in (param1, param2):
        if p.kind != stats:
            raise ValueError(
                f"mixed field statistics: parameter kind {p.kind!r} under {stats!r} state construction"
            )
    n_max = Truncation.of(cutoff).n_max if stats == "boson" else 0
    modes = [[_mode(occ, p, n_max) for occ in (0, 1)] for p in (param1, param2)]
    d = modes[0][0].shape[0]
    psi = np.zeros((2, d, d, d, d))
    rows = _BRANCHES[state]
    for alice, rob, steven in rows:
        psi[alice] += np.multiply.outer(modes[0][rob], modes[1][steven])
    layout = SubsystemLayout.of(("A", 2), ("I", d), ("II", d), ("I'", d), ("II'", d))
    return Ket(layout, psi * (1.0 / math.sqrt(len(rows))))


def build_ghz(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite GHZ ket (1/sqrt2)(|0>_A E0 E0 + |1>_A E1 E1) over (A, I, II, I', II')."""
    return _build("ghz", stats, param1, param2, cutoff)


def build_w(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite W ket (1/sqrt3)(|1>_A E0 E0 + |0>_A E1 E0 + |0>_A E0 E1)."""
    return _build("w", stats, param1, param2, cutoff)

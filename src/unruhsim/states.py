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
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not self.series_tol > 0.0:
            raise ValueError(f"series_tol must be > 0, got {self.series_tol!r}")


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


def _check_occupation(occupation: int) -> int:
    if occupation not in (0, 1):
        raise ValueError(f"occupation must be 0 or 1, got {occupation!r}")
    return occupation


def fermion_mode_expansion(occupation: int, u: AccelParam) -> Ket:
    """Single fermionic Minkowski mode over (wedge I particle, wedge II antiparticle).

    |0>_M -> cos(u) |0,0> + sin(u) |1,1>;  |1>_M -> |1,0>.  Unit norm for
    every u.
    """
    _check_occupation(occupation)
    if u.kind != "fermion":
        raise ValueError(f"expected a fermionic parameter, got kind {u.kind!r}")
    amps = np.zeros(4, dtype=complex)
    if occupation == 0:
        amps[0] = math.cos(u.value)
        amps[3] = math.sin(u.value)
    else:
        amps[2] = 1.0
    return Ket(SubsystemLayout.of(("I", 2), ("II", 2)), amps)


def boson_mode_expansion(occupation: int, r: AccelParam, cutoff) -> tuple[Ket, float]:
    """Truncated two-mode squeezed expansion of a bosonic Minkowski mode.

    |0>_M -> (1/cosh r) sum_n tanh^n r |n,n>
    |1>_M -> (1/cosh^2 r) sum_n tanh^n r sqrt(n+1) |n+1,n>

    Both wedge factors get dimension cutoff+2 so the edge term of the
    one-particle branch stays representable.  The ket is not
    renormalized; the returned tail is the discarded squared weight,
    which for the geometric sums above has the closed forms
    t^(cutoff+1) and (cutoff+2) t^(cutoff+1) - (cutoff+1) t^(cutoff+2)
    with t = tanh^2 r.
    """
    _check_occupation(occupation)
    if r.kind != "boson":
        raise ValueError(f"expected a bosonic parameter, got kind {r.kind!r}")
    n_max = cutoff.n_max if isinstance(cutoff, Truncation) else int(cutoff)
    if n_max < 0:
        raise ValueError(f"cutoff must be >= 0, got {n_max}")
    d = n_max + 2
    t = math.tanh(r.value)
    tsq = t * t
    amps = np.zeros(d * d, dtype=complex)
    if occupation == 0:
        pref = 1.0 / math.cosh(r.value)
        for n in range(n_max + 1):
            amps[n * d + n] = pref * t**n
        tail = tsq ** (n_max + 1)
    else:
        pref = 1.0 / math.cosh(r.value) ** 2
        for n in range(n_max + 1):
            amps[(n + 1) * d + n] = pref * t**n * math.sqrt(n + 1)
        tail = (n_max + 2) * tsq ** (n_max + 1) - (n_max + 1) * tsq ** (n_max + 2)
    return Ket(SubsystemLayout.of(("I", d), ("II", d)), amps), tail


def _expansions(stats, param1, param2, cutoff):
    for p in (param1, param2):
        if p.kind != stats:
            raise ValueError(
                f"mixed field statistics: parameter kind {p.kind!r} under {stats!r} state construction"
            )
    if stats == "fermion":
        modes = {
            (occ, i): fermion_mode_expansion(occ, p).amplitudes
            for occ in (0, 1)
            for i, p in ((1, param1), (2, param2))
        }
        d = 2
    else:
        trunc = cutoff if cutoff is not None else Truncation()
        n_max = trunc.n_max if isinstance(trunc, Truncation) else int(trunc)
        modes = {
            (occ, i): boson_mode_expansion(occ, p, n_max)[0].amplitudes
            for occ in (0, 1)
            for i, p in ((1, param1), (2, param2))
        }
        d = n_max + 2
    layout = SubsystemLayout.of(("A", 2), ("I", d), ("II", d), ("I'", d), ("II'", d))
    alice0 = np.array([1.0, 0.0], dtype=complex)
    alice1 = np.array([0.0, 1.0], dtype=complex)
    return modes, layout, alice0, alice1


def build_ghz(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite GHZ ket (1/sqrt2)(|0>_A E0 E0 + |1>_A E1 E1) over (A, I, II, I', II')."""
    _check_stats(stats)
    modes, layout, a0, a1 = _expansions(stats, param1, param2, cutoff)
    amps = (
        np.kron(a0, np.kron(modes[(0, 1)], modes[(0, 2)]))
        + np.kron(a1, np.kron(modes[(1, 1)], modes[(1, 2)]))
    ) / math.sqrt(2.0)
    return Ket(layout, amps)


def build_w(stats: str, param1: AccelParam, param2: AccelParam, cutoff=None) -> Ket:
    """Five-partite W ket (1/sqrt3)(|1>_A E0 E0 + |0>_A E1 E0 + |0>_A E0 E1)."""
    _check_stats(stats)
    modes, layout, a0, a1 = _expansions(stats, param1, param2, cutoff)
    amps = (
        np.kron(a1, np.kron(modes[(0, 1)], modes[(0, 2)]))
        + np.kron(a0, np.kron(modes[(1, 1)], modes[(0, 2)]))
        + np.kron(a0, np.kron(modes[(0, 1)], modes[(1, 2)]))
    ) / math.sqrt(3.0)
    return Ket(layout, amps)

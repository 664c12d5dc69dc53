"""Seeded workloads: the CLI argv each one sends, round after round.

A workload is an endless sequence of rounds and a round is a fixed list
of CLI calls.  The seed picks parameter values (and, for boson-point,
the call order) but never the amount of work: for every seed, each round
of a workload has the same subcommands, point counts, quantities and
n_max mix.  The same seed always yields the same argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

QUANTITIES = ("A-RS", "R-AS", "S-AR", "RS", "AR", "AS")

WHY = {
    "boson-w-sweep": "cost centre: n_max 12 W sweep, 4 quantities per point, dominated by the wedge trace then the eigensolve",
    "boson-w-zero-curve": "serial RS root search at n_max 8: one quantity per new point, so a per-point cache cannot help",
    "fermion-sweep": "8x8 matrices, so Python overhead dominates; guards the d=2 case against a costlier merged pipeline",
    "boson-point": "closed loop of single calls over n_max 4-14, half with --oracle; the only user of the block series and diagnostics",
}

#: Rounds a run makes at least, whatever ``--seconds`` says: 5 boson-point
#: rounds are 240 calls, which leaves at least 12 calls beyond the p95 latency.
MIN_ROUNDS = {"boson-point": 5}

#: n_max of the W RS zero-curve.  At 12 one call takes 5-9 s, so a run holds
#: only 3-5 calls and each spans seconds of host speed swings (see run.py);
#: at 8 a call takes about 1 s.
ZERO_CURVE_NMAX = 8
#: Upper end of the zero-curve axis.  At n_max 8, for r1 in [0, 0.28] every
#: axis point has a root and the bisection stops after the same two steps,
#: so each axis point costs 64 + 2 root evaluations whatever the seed.
ZERO_CURVE_R1_MAX = 0.25


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the work it represents."""

    argv: tuple[str, ...]
    values: int  # numeric values the call emits
    points: int | None  # parameter points requested; None when the program decides
    nmax: int | None  # bosonic cutoff, None for fermions
    field: str
    state: str
    quantities: tuple[str, ...]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _axis(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float], steps: int) -> str:
    return f"{_num(rng.uniform(*lo))}:{_num(rng.uniform(*hi))}:{steps}"


def _sweep(field, state, quantities, axis1, axis2, steps, nmax, out) -> Call:
    argv = ["sweep", "--field", field, "--state", state, "--quantities", ",".join(quantities),
            "--axis1", axis1, "--axis2", axis2, "--out", out]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    return Call(tuple(argv), steps * steps * len(quantities), steps * steps, nmax, field, state, tuple(quantities))


def _boson_w_sweep(rng, out, smoke):
    nmax = 4 if smoke else 12
    quantities = ("A-RS", "R-AS", "S-AR", "RS")
    axes = [_axis(rng, (0.0, 0.8), (1.2, 2.0), 2) for _ in range(2)]
    return [_sweep("boson", "w", quantities, *axes, 2, nmax, out)]


def _fermion_sweep(rng, out, smoke):
    steps = 3 if smoke else 12
    calls = []
    for state in ("ghz", "w"):
        axes = [_axis(rng, (0.0, 0.15), (0.6, 0.78), steps) for _ in range(2)]
        calls.append(_sweep("fermion", state, QUANTITIES, *axes, steps, None, out))
    return calls


def _boson_w_zero_curve(rng, out, smoke):
    nmax = 4 if smoke else ZERO_CURVE_NMAX
    axis = _axis(rng, (0.0, 0.12), (0.13, ZERO_CURVE_R1_MAX), 2)
    argv = ("zero-curve", "--field", "boson", "--state", "w", "--pair", "RS",
            "--nmax", str(nmax), "--axis", axis, "--out", out)
    return [Call(argv, 2, None, nmax, "boson", "w", ("RS",))]


def _boson_point(rng, out, smoke):
    nmaxes = (2, 4) if smoke else (4, 8, 12, 14)
    calls = []
    for state in ("ghz", "w"):
        for i, nmax in enumerate(nmaxes):
            for j, q in enumerate(QUANTITIES):
                argv = ["point", "--field", "boson", "--state", state, "--quantity", q,
                        "--nmax", str(nmax), "--r1", _num(rng.uniform(0.0, 1.5)),
                        "--r2", _num(rng.uniform(0.0, 1.5))]
                if (i + j) % 2 == 0:
                    argv.append("--oracle")
                calls.append(Call(tuple(argv), 1, 1, nmax, "boson", state, (q,)))
    rng.shuffle(calls)
    return calls


_ROUNDS = {
    "boson-w-sweep": _boson_w_sweep,
    "boson-w-zero-curve": _boson_w_zero_curve,
    "fermion-sweep": _fermion_sweep,
    "boson-point": _boson_point,
}


def rounds(workload: str, seed: int, out: str, smoke: bool = False):
    """Endless generator of rounds (lists of :class:`Call`) for one workload."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield make(rng, out, smoke)


def warmup_argv(workload: str, smoke: bool = False) -> list[str]:
    """One untimed call that imports every module and spins up BLAS at the workload's size."""
    if workload == "fermion-sweep":
        return ["point", "--field", "fermion", "--state", "w", "--quantity", "A-RS", "--u1", "0.3", "--u2", "0.4"]
    nmax = "4" if smoke else {"boson-point": "14", "boson-w-zero-curve": str(ZERO_CURVE_NMAX)}.get(workload, "12")
    return ["point", "--field", "boson", "--state", "w", "--quantity", "A-RS", "--nmax", nmax,
            "--r1", "0.5", "--r2", "0.7", "--oracle"]

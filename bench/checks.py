"""Output checks, run in the parent after the worker has exited.

Every check recomputes the expected value without the program's numeric
code, except the fermionic GHZ tripartite values, which are compared with
the program's closed form ``fermion.ghz_closed_negativity``.  Nothing is
compared byte for byte against a stored file.  A call fails on a non-zero
exit or on any failed check.
"""

from __future__ import annotations

import math
import random

import reference

#: Numeric-route values: nine printed significant digits plus roundoff.
NUMERIC_TOL = 1e-8
#: Bosonic W AR/AS values come from the block series, which stops once a
#: shell of blocks adds less than 1e-8; the exact reference differs by that tail.
SERIES_TOL = 1e-7
#: Fermionic GHZ tripartite values against the closed form.
CLOSED_TOL = 1e-9
#: The CLI's zero-curve floor, scan range and scan step.
ROOT_FLOOR = 1e-10
ROOT_SCAN_STEP = 3.0 / 63
#: Offset of the strict sign-change probe reported next to the check.
ROOT_PROBE = 1e-6
#: Share of boson-point calls recomputed by the reference route.
POINT_SAMPLE = 0.25

TRIPARTITE = ("A-RS", "R-AS", "S-AR")


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _grid(axis: str) -> list[float]:
    """The CLI's documented axis rule: start + i (stop - start) / (steps - 1)."""
    start, stop, steps = axis.split(":")
    start, stop, steps = float(start), float(stop), int(steps)
    vals = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    vals[-1] = stop
    return vals


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


class Checker:
    """Checks one workload's records; ``problems`` holds one line per failed call."""

    def __init__(self, workload: str, seed: int, ghz_closed_negativity):
        self.rng = random.Random(f"check/{workload}/{seed}")
        self.ghz_closed = ghz_closed_negativity
        self.problems: list[str] = []
        self.values_checked = 0
        self.roots = 0
        self.roots_strict = 0

    def check(self, rec: dict) -> bool:
        call, argv = rec["call"], rec["call"]["argv"]
        if rec["rc"] != 0:
            problem = f"exit {rec['rc']}: {(rec['stderr'].strip().splitlines() or [''])[-1]}"
        else:
            kind = {"sweep": self._sweep, "point": self._point, "zero-curve": self._zero_curve}[argv[0]]
            problem = kind(call, argv, rec["output"])
        if problem:
            self.problems.append(f"{' '.join(argv)}: {problem}")
        return not problem

    def _value(self, field, state, q, p1, p2, nmax, got) -> str | None:
        if field == "boson" and state == "w" and q in ("AR", "AS"):
            want = reference.log_negativity(field, state, q, p1, p2, reference.EXACT_CUTOFF)
            tol = SERIES_TOL
        else:
            want = reference.log_negativity(field, state, q, p1, p2, nmax or 0)
            tol = NUMERIC_TOL
        self.values_checked += 1
        if not _close(got, want, tol):
            return f"{q} at ({p1!r}, {p2!r}) = {got!r}, reference {want!r}"
        return None

    def _sweep(self, call, argv, text) -> str | None:
        grid = [(p1, p2) for p1 in _grid(_flag(argv, "--axis1")) for p2 in _grid(_flag(argv, "--axis2"))]
        rows = _rows(text)
        qs = call["quantities"]
        if len(rows) != len(grid) or any(len(r) != 2 + len(qs) for r in rows):
            return f"expected {len(grid)} rows of {2 + len(qs)} columns"
        values = [[float(v) for v in row] for row in rows]
        for (p1, p2), row in zip(grid, values):
            if not (_close(row[0], p1, NUMERIC_TOL) and _close(row[1], p2, NUMERIC_TOL)):
                return f"row axis ({row[0]}, {row[1]}) differs from grid point ({p1}, {p2})"
        if call["field"] == "fermion" and call["state"] == "ghz":
            for (p1, p2), row in zip(grid, values):
                for q, got in zip(qs, row[2:]):
                    if q in TRIPARTITE:
                        want = math.log2(1.0 - 2.0 * self.ghz_closed(q, p1, p2))
                        self.values_checked += 1
                        if not _close(got, want, CLOSED_TOL):
                            return f"{q} at ({p1!r}, {p2!r}) = {got!r}, closed form {want!r}"
        i = self.rng.randrange(len(grid))
        for q, got in zip(qs, values[i][2:]):
            bad = self._value(call["field"], call["state"], q, *grid[i], call["nmax"], got)
            if bad:
                return bad
        return None

    def _point(self, call, argv, text) -> str | None:
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        if "log-negativity" not in lines:
            return "no log-negativity line"
        if "--oracle" in argv and "oracle-delta" not in lines:
            return "--oracle given but no oracle-delta line"
        if self.rng.random() >= POINT_SAMPLE:
            return None
        p1, p2 = float(_flag(argv, "--r1")), float(_flag(argv, "--r2"))
        q = call["quantities"][0]
        return self._value(call["field"], call["state"], q, p1, p2, call["nmax"], float(lines["log-negativity"]))

    def _zero_curve(self, call, argv, text) -> str | None:
        """Each root must exist and sit where the RS reduction stops being entangled.

        Checked at the CLI's own resolution: genuinely negative (below the
        floor) one scan step before the root, not genuinely negative at the
        root or one scan step after it.  Whether the sign also flips within
        +-ROOT_PROBE is counted, not failed.
        """
        axis, nmax = _grid(_flag(argv, "--axis")), call["nmax"]
        rows = _rows(text)
        if len(rows) != len(axis):
            return f"expected {len(axis)} rows"
        for r1, (printed_r1, root) in zip(axis, rows):
            if not _close(float(printed_r1), r1, NUMERIC_TOL):
                return f"axis value {printed_r1} differs from {r1}"
            if root == "none":
                return f"no root at r1={r1!r}"
            x = float(root)

            def f(r2):
                return reference.rs_smallest_pt_eigenvalue(r1, r2, nmax)

            self.roots += 1
            if not (f(x - ROOT_SCAN_STEP) < -ROOT_FLOOR and f(x) >= -10 * ROOT_FLOOR
                    and f(x + ROOT_SCAN_STEP) >= -ROOT_FLOOR):
                return f"root r2={x!r} at r1={r1!r} does not bound the entangled region"
            if f(x - ROOT_PROBE) < 0.0 <= f(x + ROOT_PROBE):
                self.roots_strict += 1
        return None

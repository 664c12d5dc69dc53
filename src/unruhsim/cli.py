"""Command-line front end: point evaluation, 2-D parameter sweeps, and
zero-curve tracing, with deterministic CSV/JSON emission.

Sweep and point values come from the numeric partial-transpose pipeline;
the reference closed forms are available for comparison via --oracle.
Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import boson, diagnostics, fermion
from .measures import BIPARTITE, QUANTITIES
from .pipeline import evaluate_point
from .states import AccelParam, PhysicalAccel, Truncation, U_MAX, accel_to_param

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: Upper end of the scan range when solving bosonic zero curves.
BOSON_SCAN_MAX = 3.0

_ZERO_SCAN_POINTS = 64
#: Interior points of the bracket that each round of the bosonic RS root
#: search evaluates as one batch: 15 rounds take it from a scan step to 1e-14.
_ZERO_SPLIT_POINTS = 7
_ZERO_VALUE_TOL = 1e-10
#: Bracket width at which the root search stops.
_ZERO_BRACKET = 1e-14


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    """Shortest decimal capped at nine significant digits; -0 folds to 0."""
    if x == 0.0:
        return "0"
    s = format(x, ".9g")
    return "0" if s in ("-0", "-0.0") else s


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    vals = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    vals[-1] = stop
    return vals


def _parse_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"axis must be start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad axis {text!r}: {exc}") from exc
    if steps < 2:
        raise UsageError(f"axis steps must be >= 2, got {steps}")
    if stop < start:
        raise UsageError(f"axis stop {stop} below start {start}")
    return start, stop, steps


def _check_range(field: str, name: str, value: float) -> float:
    """``value`` if it is a valid parameter of ``field``, else a usage error naming ``name``."""
    try:
        return AccelParam(field, value).value
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _resolve_params(args) -> tuple[float, float]:
    field = args.field
    native = ("u1", "u2") if field == "fermion" else ("r1", "r2")
    foreign = ("r1", "r2") if field == "fermion" else ("u1", "u2")
    for name in foreign:
        if getattr(args, name, None) is not None:
            raise UsageError(f"--{name} is not valid for --field {field}")
    phys = [getattr(args, n, None) for n in ("a1", "a2")]
    nat = [getattr(args, n, None) for n in native]
    if any(p is not None for p in phys):
        if any(v is not None for v in nat):
            raise UsageError(f"give either --{native[0]}/--{native[1]} or --a1/--a2, not both")
        if args.omega is None:
            raise UsageError("--a1/--a2 require --omega")
        out = []
        for p in phys:
            if p is None:
                out.append(0.0)
            else:
                out.append(accel_to_param(PhysicalAccel(p, args.omega), field).value)
        return out[0], out[1]
    p1 = nat[0] if nat[0] is not None else 0.0
    p2 = nat[1] if nat[1] is not None else 0.0
    return (
        _check_range(field, native[0], p1),
        _check_range(field, native[1], p2),
    )


def _truncation(args) -> Truncation:
    return Truncation(n_max=args.nmax, series_tol=args.tol)


def _evaluate(field: str, state: str, quantities, p1: float, p2: float, trunc: Truncation) -> dict:
    """Most accurate available route per quantity, one traced state per point.

    Everything runs through the numeric partial-transpose pipeline,
    except the bosonic W AR/AS reductions: their per-block closed forms
    are exact (confirmed against the pipeline) and free of the spurious
    edge negativity a finite Fock cutoff leaves in the matrix route, so
    the series route is used there.  The rest share one traced state.
    """
    series = ("AR", "AS") if field == "boson" and state == "w" else ()
    out = {q: boson.series_log_negativity(state, q, p1, p2, trunc) for q in quantities if q in series}
    numeric = [q for q in quantities if q not in series]
    if numeric:
        out.update(evaluate_point(field, state, p1, p2, numeric, trunc))
    return out


def cmd_point(args) -> int:
    """Evaluate everything first, so a failed call prints nothing on stdout."""
    p1, p2 = _resolve_params(args)
    trunc = _truncation(args)
    q = args.quantity
    res = _evaluate(args.field, args.state, [q], p1, p2, trunc)[q]
    lines = [
        f"quantity: {q}",
        f"log-negativity: {_fmt(res.log_negativity)}",
        f"negativity: {_fmt(res.negativity_sum)}",
        f"tail-bound: {_fmt(res.tail_bound)}",
    ]
    if args.oracle:
        # a series result carries no spectrum; the record then runs the matrix route
        numeric = res if res.spectrum is not None else None
        if args.field == "fermion":
            rec = diagnostics.fermion_record(args.state, q, p1, p2, numeric=numeric)
        else:
            rec = diagnostics.boson_record(args.state, q, p1, p2, trunc, numeric=numeric)
        if rec is None:
            lines.append("oracle-delta: n/a (no closed form for this quantity)")
        else:
            lines.append(f"oracle-delta: {_fmt(rec.delta)}")
            if not rec.agrees:
                lines.append(f"oracle-note: {rec.describe()}")
    print("\n".join(lines))
    return EXIT_OK


def _axis_names(field: str) -> tuple[str, str]:
    return ("u1", "u2") if field == "fermion" else ("r1", "r2")


def _write_lines(path: str, lines: list[str]):
    try:
        with open(path, "w", newline="\n", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    if not quantities:
        raise UsageError("--quantities must name at least one quantity")
    for q in quantities:
        if q not in QUANTITIES:
            raise UsageError(f"unknown quantity {q!r}; expected from {QUANTITIES}")
    a1 = _parse_axis(args.axis1)
    a2 = _parse_axis(args.axis2)
    name1, name2 = _axis_names(args.field)
    for name, (start, stop, _) in ((name1, a1), (name2, a2)):
        _check_range(args.field, name, start)
        _check_range(args.field, name, stop)
    trunc = _truncation(args)
    grid1 = _linspace(*a1)
    grid2 = _linspace(*a2)
    rows = []
    for p1 in grid1:
        for p2 in grid2:
            res = _evaluate(args.field, args.state, quantities, p1, p2, trunc)
            rows.append((p1, p2, [res[q].log_negativity for q in quantities]))
    header = {
        "field": args.field,
        "state": args.state,
        "quantities": ",".join(quantities),
        "axis1": f"{name1} {_fmt(a1[0])} {_fmt(a1[1])} {a1[2]}",
        "axis2": f"{name2} {_fmt(a2[0])} {_fmt(a2[1])} {a2[2]}",
        "nmax": str(args.nmax),
        "tol": _fmt(args.tol),
    }
    if args.format == "csv":
        lines = ["# unruhsim sweep"]
        lines += [f"# {k}: {v}" for k, v in header.items()]
        lines.append(f"# columns: {name1},{name2},{','.join(quantities)}")
        for p1, p2, vals in rows:
            lines.append(",".join([_fmt(p1), _fmt(p2)] + [_fmt(v) for v in vals]))
        _write_lines(args.out, lines)
    else:
        doc = dict(header)
        doc["columns"] = [name1, name2] + quantities
        doc["rows"] = [
            [float(_fmt(p1)), float(_fmt(p2))] + [float(_fmt(v)) for v in vals]
            for p1, p2, vals in rows
        ]
        _write_lines(args.out, [json.dumps(doc, sort_keys=True, separators=(",", ":"))])
    return EXIT_OK


def _scan_and_bisect(f, lo: float, hi: float, split: int = 1, floor: float = _ZERO_VALUE_TOL) -> float | None:
    """Find where f exits genuine negativity (f < -floor), by scan plus sign bisection.

    ``f`` maps a list of points to their values, one batch per call.
    Scans _ZERO_SCAN_POINTS samples for the last one genuinely negative;
    returns None when no sample is (nothing to disentangle) or when the
    negativity survives to the end of the range.  Otherwise each round
    splits the bracket after that sample at ``split`` interior points and
    keeps the last genuinely negative point and the one after it, until the
    bracket is under _ZERO_BRACKET; the root is its midpoint.  Only the
    sign decides: past the crossing f may be exactly 0.
    """
    xs = _linspace(lo, hi, _ZERO_SCAN_POINTS)
    neg = [i for i, v in enumerate(f(xs)) if v < -floor]
    if not neg or neg[-1] == len(xs) - 1:
        return None
    a, b = xs[neg[-1]], xs[neg[-1] + 1]
    while b - a >= _ZERO_BRACKET:
        points = [a] + [a + (b - a) * k / (split + 1) for k in range(1, split + 1)] + [b]
        last = max((k for k, v in enumerate(f(points[1:-1]), 1) if v < -floor), default=0)
        a, b = points[last], points[last + 1]
    return 0.5 * (a + b)


def _zero_curve_solver(field: str, state: str, pair: str, trunc: Truncation):
    """Root at each axis value, and the axis/solve variable names.

    RS and AS solve the second parameter against the first; AR solves
    the first against the second.  Fermionic roots come from the
    smallest eigenvalue of the numerically partial-transposed reduction;
    bosonic AR/AS roots from the analytic block brackets (exact in the
    truncation), bosonic RS from the truncated-matrix eigensolve.
    """
    name1, name2 = _axis_names(field)
    if pair == "AR":
        axis_name, solve_name = name2, name1
    else:
        axis_name, solve_name = name1, name2

    if field == "fermion":
        def root_at(axis_value: float) -> float | None:
            def smallest(x: float) -> float:
                u1, u2 = (x, axis_value) if pair == "AR" else (axis_value, x)
                return evaluate_point("fermion", state, u1, u2, (pair,))[pair].spectrum[0]

            return _scan_and_bisect(lambda xs: [smallest(x) for x in xs], 0.0, U_MAX)

    elif pair == "RS":
        def root_at(axis_value: float) -> float | None:
            return _scan_and_bisect(lambda xs: boson.rs_smallest_pt_eigenvalue(axis_value, xs, trunc),
                                    0.0, BOSON_SCAN_MAX, _ZERO_SPLIT_POINTS)

    else:
        # the AR/AS brackets do not depend on the axis value: one root serves every row
        @functools.cache
        def root() -> float | None:
            return _scan_and_bisect(lambda xs: [boson.w_ar_crossing_function(x, n_terms=trunc.n_max + 1) for x in xs],
                                    0.0, BOSON_SCAN_MAX)

        def root_at(axis_value: float) -> float | None:
            return root()

    return root_at, axis_name, solve_name


def cmd_zero_curve(args) -> int:
    if args.pair not in BIPARTITE:
        raise UsageError(f"--pair must be one of {BIPARTITE}, got {args.pair!r}")
    if args.state != "w":
        raise UsageError("zero curves exist only for the W state bipartite reductions")
    start, stop, steps = _parse_axis(args.axis)
    trunc = _truncation(args)
    root_at, axis_name, solve_name = _zero_curve_solver(args.field, args.state, args.pair, trunc)
    _check_range(args.field, axis_name, start)
    _check_range(args.field, axis_name, stop)
    rows = []
    for p in _linspace(start, stop, steps):
        root = root_at(p)
        if root is not None and args.field == "fermion" and args.pair == "RS":
            analytic = fermion.rs_zero_curve(p)
            if analytic is None or abs(analytic - root) > 1e-8:
                raise RuntimeError(
                    f"zero-curve cross-validation failed at {axis_name}={p!r}: "
                    f"bisected {root!r} vs analytic {analytic!r}"
                )
        rows.append((p, root))
    lines = ["# unruhsim zero-curve"]
    lines += [
        f"# field: {args.field}",
        f"# state: {args.state}",
        f"# pair: {args.pair}",
        f"# axis: {axis_name} {_fmt(start)} {_fmt(stop)} {steps}",
        f"# nmax: {args.nmax}",
        f"# columns: {axis_name},{solve_name}",
    ]
    for p, root in rows:
        lines.append(f"{_fmt(p)},{'none' if root is None else _fmt(root)}")
    _write_lines(args.out, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruhsim",
        description="Entanglement degradation of GHZ/W states seen by accelerated observers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", required=True, choices=("fermion", "boson"))
        p.add_argument("--state", required=True, choices=("ghz", "w"))
        p.add_argument("--nmax", type=int, default=12, help="bosonic Fock cutoff per mode")
        p.add_argument("--tol", type=float, default=1e-8, help="bosonic series tolerance")

    def params(p):
        p.add_argument("--u1", type=float, default=None)
        p.add_argument("--u2", type=float, default=None)
        p.add_argument("--r1", type=float, default=None)
        p.add_argument("--r2", type=float, default=None)
        p.add_argument("--a1", type=float, default=None, help="proper acceleration (m/s^2)")
        p.add_argument("--a2", type=float, default=None)
        p.add_argument("--omega", type=float, default=None, help="mode frequency (rad/s), required with --a1/--a2")

    p_point = sub.add_parser("point", help="evaluate one quantity at one parameter point")
    common(p_point)
    params(p_point)
    p_point.add_argument("--quantity", required=True, choices=QUANTITIES)
    p_point.add_argument("--oracle", action="store_true", help="also print the closed-form delta")
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="2-D parameter sweep to CSV/JSON")
    common(p_sweep)
    p_sweep.add_argument("--quantities", required=True, help="comma-separated quantity names")
    p_sweep.add_argument("--axis1", required=True, help="start:stop:steps for the first parameter")
    p_sweep.add_argument("--axis2", required=True, help="start:stop:steps for the second parameter")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_zero = sub.add_parser("zero-curve", help="trace where a W bipartite reduction disentangles")
    common(p_zero)
    p_zero.add_argument("--pair", required=True, choices=BIPARTITE)
    p_zero.add_argument("--axis", required=True, help="start:stop:steps for the sampled parameter")
    p_zero.add_argument("--out", required=True)
    p_zero.set_defaults(func=cmd_zero_curve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        # series non-convergence, matrix ceiling, cross-validation failure,
        # and overflow or division by zero at extreme parameters
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

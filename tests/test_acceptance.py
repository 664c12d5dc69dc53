"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 6 asserts only the W orderings that hold: exact equality
of A-RS with R-AS (S-AR) when the first (second) observer is inertial, S-AR
(R-AS) strictly below A-RS on that edge, and every 1-vs-2 negativity at
least that of each pair it contains.  The older clause, A-RS below both
R-AS and S-AR everywhere, is false; the test prints how often it breaks.
"""

import math

import numpy as np
import pytest

from unruhsim import boson, fermion, pipeline
from unruhsim.boson import BosonScenario
from unruhsim.cli import main
from unruhsim.fermion import FermionScenario
from unruhsim.linalg import ket_partial_trace, partial_trace
from unruhsim.measures import BIPARTITE, QUANTITIES, TRIPARTITE
from unruhsim.pipeline import DROP_FOR_PAIR, HIDDEN_WEDGES
from unruhsim.states import Truncation, U_MAX

CONTAINED_PAIRS = {"A-RS": ("AR", "AS"), "R-AS": ("AR", "RS"), "S-AR": ("AS", "RS")}

W_TRIPARTITE_ORACLE = math.log2(1.0 + 2.0 * math.sqrt(2.0) / 3.0)
W_PAIR_ORACLE = math.log2((2.0 + math.sqrt(5.0)) / 3.0)
GHZ_TOP_ORACLE = math.log2(1.0 - 2.0 * (1.0 - math.sqrt(17.0)) / 16.0)

FERMION_GRID = [float(u) for u in np.linspace(0.0, U_MAX - 1e-6, 17)]
BOSON_GRID = [0.25 * i for i in range(9)]
BOSON_TRUNC = Truncation(n_max=12)


def report(num, name, ok, detail=""):
    line = f"acceptance {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def evaluate_point(field, state, p1, p2, trunc=None):
    """Numeric values for all six quantities from the shared evaluator, plus
    the trace deficit of rho(A, I, I') and the largest off-diagonal entry of
    each pair reduction, taken by partial trace of rho(A, I, I') as the
    evaluator takes it."""
    out = {("num", q): r.log_negativity
           for q, r in pipeline.evaluate_point(field, state, p1, p2, QUANTITIES, trunc).items()}
    rho, lay = ket_partial_trace(pipeline.rindler_ket(field, state, p1, p2, trunc), HIDDEN_WEDGES)
    out["deficit"] = max(1.0 - float(np.trace(rho).real), 0.0)
    for pair in BIPARTITE:
        red, _ = partial_trace(rho, lay, DROP_FOR_PAIR[pair])
        out[("off", pair)] = float(np.max(np.abs(red - np.diag(np.diag(red)))))
    return out


@pytest.fixture(scope="module")
def fermion_grid_data():
    data = {}
    for state in ("ghz", "w"):
        for u1 in FERMION_GRID:
            for u2 in FERMION_GRID:
                data[(state, u1, u2)] = evaluate_point("fermion", state, u1, u2)
    return data


@pytest.fixture(scope="module")
def boson_grid_data():
    matched = Truncation(n_max=BOSON_TRUNC.n_max, adaptive=False)
    data = {}
    for state in ("ghz", "w"):
        for r1 in BOSON_GRID:
            for r2 in BOSON_GRID:
                point = evaluate_point("boson", state, r1, r2, BOSON_TRUNC)
                for q in TRIPARTITE + BIPARTITE:
                    series = boson.series_log_negativity(state, q, r1, r2, matched)
                    if series is not None:
                        point[("series", q)] = (series.log_negativity, series.tail_bound)
                data[(state, r1, r2)] = point
    return data


def test_acceptance_1_inertial_limits():
    errs = []
    f_ghz = fermion.numeric_log_negativity(FermionScenario("ghz", 0.0, 0.0), "A-RS").log_negativity
    small = Truncation(n_max=4)
    b_ghz = boson.numeric_log_negativity(BosonScenario("ghz", 0.0, 0.0, small), "A-RS").log_negativity
    b_ghz_series = boson.ghz_log_negativity_series("A-RS", 0.0, 0.0, small).log_negativity
    for name, val in (("fermion GHZ", f_ghz), ("boson GHZ", b_ghz), ("boson GHZ series", b_ghz_series)):
        if abs(val - 1.0) >= 1e-10:
            errs.append(f"{name} {val!r} != 1")
    for q in TRIPARTITE:
        v = fermion.numeric_log_negativity(FermionScenario("w", 0.0, 0.0), q).log_negativity
        vb = boson.numeric_log_negativity(BosonScenario("w", 0.0, 0.0, small), q).log_negativity
        for name, val in ((f"fermion W {q}", v), (f"boson W {q}", vb)):
            if abs(val - W_TRIPARTITE_ORACLE) >= 1e-8:
                errs.append(f"{name} {val!r} off oracle {W_TRIPARTITE_ORACLE!r}")
            if abs(val - 0.958110) >= 1e-4:
                errs.append(f"{name} {val!r} far from quoted 0.958110")
    for pair in BIPARTITE:
        v = fermion.numeric_log_negativity(FermionScenario("w", 0.0, 0.0), pair).log_negativity
        vb = boson.numeric_log_negativity(BosonScenario("w", 0.0, 0.0, small), pair).log_negativity
        for name, val in ((f"fermion W {pair}", v), (f"boson W {pair}", vb)):
            if abs(val - W_PAIR_ORACLE) >= 1e-8:
                errs.append(f"{name} {val!r} off oracle {W_PAIR_ORACLE!r}")
            if abs(val - 0.5) >= 0.01:
                errs.append(f"{name} {val!r} not within 0.01 of 0.5")
            if abs(val - 0.497800) >= 1e-4:
                errs.append(f"{name} {val!r} far from quoted 0.497800")
    ok = report(1, "inertial limits", not errs, f"W tripartite {W_TRIPARTITE_ORACLE:.9f}, pairs {W_PAIR_ORACLE:.9f}")
    assert ok, errs


def test_acceptance_2_closed_form_oracle_equivalence(fermion_grid_data, boson_grid_data):
    """Exact closed forms must track the numeric pipeline; transcription
    defects must be detected and reported with both values."""
    failures = []
    flagged = []

    exact_fermion = {("ghz", q) for q in TRIPARTITE} | {("w", "RS")}
    swapped_fermion = {("w", "AR"), ("w", "AS")}
    for (state, u1, u2), point in fermion_grid_data.items():
        for q in TRIPARTITE + BIPARTITE:
            closed = fermion.closed_log_negativity(state, q, u1, u2)
            if closed is None:
                continue
            delta = point[("num", q)] - closed
            if (state, q) in exact_fermion:
                if abs(delta) > 1e-9:
                    failures.append(f"fermion {state} {q} at ({u1:.4f},{u2:.4f}): delta {delta:.3e}")
            elif abs(delta) > 1e-9:
                swapped = fermion.closed_log_negativity(state, q, u2, u1)
                flagged.append(
                    f"fermion {state} {q} at ({u1:.4f},{u2:.4f}): closed={closed:.9f} "
                    f"numeric={point[('num', q)]:.9f} (matches swapped-angle form to "
                    f"{abs(point[('num', q)] - swapped):.1e})"
                )
                if abs(point[("num", q)] - swapped) > 1e-9:
                    failures.append(f"fermion {state} {q}: swapped-angle form does not explain mismatch")
    if not any("fermion w AR" in f for f in flagged):
        # the defect is real; the survey must notice it somewhere
        if not any("AR" in f for f in flagged):
            failures.append("fermion W AR symbol swap went undetected")

    exact_boson = {("ghz", "A-RS"), ("w", "AR"), ("w", "AS")}
    defective_boson = {("ghz", "R-AS"), ("ghz", "S-AR"), ("w", "RS")}
    defect_seen = set()
    for (state, r1, r2), point in boson_grid_data.items():
        for q in TRIPARTITE + BIPARTITE:
            if ("series", q) not in point:
                continue
            series_val, series_tail = point[("series", q)]
            tol = 1e-6 + point["deficit"] + series_tail
            delta = point[("num", q)] - series_val
            if (state, q) in exact_boson:
                if abs(delta) > tol:
                    failures.append(f"boson {state} {q} at ({r1},{r2}): delta {delta:.3e} > tol {tol:.3e}")
            elif (state, q) in defective_boson and abs(delta) > tol:
                defect_seen.add((state, q))
                if len(flagged) < 40:
                    flagged.append(
                        f"boson {state} {q} at ({r1},{r2}): closed={series_val:.9f} "
                        f"numeric={point[('num', q)]:.9f} delta={delta:.3e} tol={tol:.3e}"
                    )
    missing = defective_boson - defect_seen
    if missing:
        failures.append(f"expected transcription defects not detected: {missing}")

    print(f"  reported {len(flagged)} closed-form/numeric mismatches (both values shown):")
    for line in flagged[:12]:
        print(f"    {line}")
    ok = report(2, "closed-form vs numeric oracle", not failures,
                f"{len(flagged)} defects reported, exact forms all within tolerance")
    assert ok, failures[:10]


def test_acceptance_3_fermionic_survival():
    u = math.pi / 4 - 1e-6
    s = FermionScenario("ghz", u, u)
    num = fermion.numeric_log_negativity(s, "A-RS").log_negativity
    closed_here = math.log2(1 - 2 * fermion.ghz_closed_negativity("A-RS", u, u))
    errs = []
    if abs(num - closed_here) >= 1e-6:
        errs.append(f"numeric {num!r} vs closed form {closed_here!r}")
    if abs(num - GHZ_TOP_ORACLE) >= 3e-6:
        errs.append(f"numeric {num!r} drifted from limit value {GHZ_TOP_ORACLE!r}")
    if abs(GHZ_TOP_ORACLE - 0.4755) >= 5e-4:
        errs.append("limit constant off its quoted digits")
    lows = {
        q: fermion.numeric_log_negativity(s, q).log_negativity for q in TRIPARTITE
    }
    for q, v in lows.items():
        if v <= 0.4:
            errs.append(f"{q} fell to {v!r}")
    ok = report(3, "fermionic survival at extreme acceleration", not errs,
                f"A-RS={num:.9f} (limit {GHZ_TOP_ORACLE:.9f}), all > 0.4")
    assert ok, errs


def test_acceptance_4_disentanglement_curves(tmp_path):
    out = tmp_path / "curve.csv"
    lo, hi = 0.63, U_MAX - 1e-9
    rc = main(["zero-curve", "--field", "fermion", "--state", "w", "--pair", "RS",
               "--axis", f"{lo}:{hi}:16", "--out", str(out)])
    errs = []
    if rc != 0:
        errs.append(f"zero-curve exit code {rc}")
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == 16
    worst = 0.0
    for row in rows:
        p1, p2 = row.split(",")
        analytic = fermion.rs_zero_curve(float(p1))
        if p2 == "none" or analytic is None:
            errs.append(f"no root at u1={p1}")
            continue
        worst = max(worst, abs(float(p2) - analytic))
    if worst >= 1e-8:
        errs.append(f"fermionic curve deviation {worst:.3e}")

    target = math.log(1 + math.sqrt(2))
    worst_b = 0.0
    for n in range(21):
        a, b = 0.5, 1.2
        for _ in range(60):
            mid = 0.5 * (a + b)
            if boson.w_ar_block_negativity(n, mid) < 0.0:
                a = mid
            else:
                b = mid
        worst_b = max(worst_b, abs(0.5 * (a + b) - target))
    if worst_b >= 1e-6:
        errs.append(f"bosonic AR zero deviation {worst_b:.3e}")
    ok = report(4, "disentanglement curves", not errs,
                f"fermionic dev {worst:.2e}, bosonic dev {worst_b:.2e} (n=0..20)")
    assert ok, errs


def test_acceptance_5_ghz_reduction_diagonality(fermion_grid_data, boson_grid_data):
    errs = []
    worst = 0.0
    for data in (fermion_grid_data, boson_grid_data):
        for (state, p1, p2), point in data.items():
            if state != "ghz":
                continue
            for pair in BIPARTITE:
                worst = max(worst, point[("off", pair)])
                if point[("off", pair)] >= 1e-10:
                    errs.append(f"off-diagonal {point[('off', pair)]:.2e} at {state} ({p1},{p2}) {pair}")
                if point[("num", pair)] != 0.0:
                    errs.append(f"nonzero pair negativity at ({p1},{p2}) {pair}")
    ok = report(5, "GHZ reductions diagonal and disentangled", not errs, f"max off-diagonal {worst:.2e}")
    assert ok, errs[:5]


def test_acceptance_6_ordering_and_swap_symmetry(fermion_grid_data, boson_grid_data):
    """GHZ dominance, swap symmetry, and the W orderings that hold.

    With the first observer inertial (p1 = 0) Rob's mode is untouched, the
    W and GHZ kets are symmetric under exchanging Alice with Rob, and the
    Unruh map and the wedge trace act on Steven's modes only; so the traced
    state is invariant under that exchange and A-RS = R-AS exactly.  Likewise
    A-RS = S-AR at p2 = 0.  On those edges the W state's remaining partition
    lies strictly below A-RS once the other observer accelerates.  At every
    point each 1-vs-2 negativity is at least that of each pair it contains,
    since a partial trace on one side cannot raise negativity.

    The older clause A-RS <= min(R-AS, S-AR) for W at every point is false:
    for bosons at p1 = 0, A-RS = R-AS >= AR = W_PAIR_ORACLE for every r2,
    while S-AR -> 0 as r2 grows.  The number of points breaking it is
    printed for the record only.
    """
    errs = []
    edge_errs = []
    order_errs = []
    pair_errs = []
    old_clause_breaks = 0
    for data, grid, label in (
        (fermion_grid_data, FERMION_GRID, "fermion"),
        (boson_grid_data, BOSON_GRID, "boson"),
    ):
        for p1 in grid:
            for p2 in grid:
                g = data[("ghz", p1, p2)]
                if g[("num", "A-RS")] < max(g[("num", "R-AS")], g[("num", "S-AR")]) - 1e-12:
                    errs.append(f"{label} GHZ dominance fails at ({p1},{p2})")
                for state in ("ghz", "w"):
                    a = data[(state, p1, p2)]
                    b = data[(state, p2, p1)]
                    if abs(a[("num", "R-AS")] - b[("num", "S-AR")]) >= 1e-12:
                        errs.append(f"{label} {state} swap symmetry fails at ({p1},{p2})")
                    if abs(a[("num", "A-RS")] - b[("num", "A-RS")]) >= 1e-12:
                        errs.append(f"{label} {state} A-RS swap invariance fails at ({p1},{p2})")
                    for inertial, other in ((p1, "R-AS"), (p2, "S-AR")):
                        if inertial == 0.0 and abs(a[("num", "A-RS")] - a[("num", other)]) >= 1e-12:
                            edge_errs.append(f"{label} {state} A-RS != {other} at ({p1},{p2})")
                    for part, pairs in CONTAINED_PAIRS.items():
                        for pair in pairs:
                            if a[("num", part)] < a[("num", pair)] - 1e-12:
                                pair_errs.append(f"{label} {state} {part} below {pair} at ({p1},{p2})")
                w = data[("w", p1, p2)]
                for inertial, moving, below in ((p1, p2, "S-AR"), (p2, p1, "R-AS")):
                    if inertial == 0.0 and moving > 0.0 and w[("num", "A-RS")] - w[("num", below)] <= 1e-12:
                        order_errs.append(f"{label} W {below} not below A-RS at ({p1},{p2})")
                if w[("num", "A-RS")] - min(w[("num", "R-AS")], w[("num", "S-AR")]) > 1e-12:
                    old_clause_breaks += 1
    checks = {"dominance/swap": errs, "edge equality": edge_errs, "W edge order": order_errs,
              "pair monotonicity": pair_errs}
    broken = ", ".join(f"{n} fails at {len(v)}" for n, v in checks.items() if v)
    report(6, "ordering and swap symmetry", not broken,
           (broken or "GHZ dominance, swap symmetry, edge equalities, W edge order and pair "
            "monotonicity hold")
           + f"; old W clause A-RS <= min(R-AS, S-AR) broken at {old_clause_breaks} grid points (information)")
    assert not edge_errs, edge_errs[:5]
    assert not errs, errs[:5]
    assert not order_errs, (
        "With p1 = 0 the traced state is invariant under exchanging Alice with Rob, so "
        "A-RS = R-AS; S-AR then lies strictly below A-RS once Steven accelerates (for bosons "
        "A-RS >= AR = log2((2+sqrt5)/3) at every r2, while S-AR -> 0 as r2 grows). The mirror "
        f"statement holds at p2 = 0 with R-AS. Broken at: {order_errs[:5]}"
    )
    assert not pair_errs, pair_errs[:5]


def test_acceptance_7_bosonic_asymptotic_erasure():
    trunc = Truncation(n_max=12, series_tol=1e-8)
    far = boson.ghz_log_negativity_series("A-RS", 5.0, 5.0, trunc)
    errs = []
    if far.log_negativity >= 0.01:
        errs.append(f"value at r=5 is {far.log_negativity!r}")
    if far.log_negativity + far.tail_bound >= 0.01:
        errs.append(f"value plus certified bound {far.tail_bound!r} not below 0.01")
    vals = np.array(
        [[boson.ghz_log_negativity_series("A-RS", r1, r2, trunc).log_negativity for r2 in BOSON_GRID]
         for r1 in BOSON_GRID]
    )
    if not (np.all(np.diff(vals, axis=0) <= 1e-12) and np.all(np.diff(vals, axis=1) <= 1e-12)):
        errs.append("sweep not monotone non-increasing")
    if far.log_negativity > vals[-1, -1] + 1e-12:
        errs.append("r=5 value above the r=2 corner")
    ok = report(7, "bosonic asymptotic erasure", not errs,
                f"A-RS(5,5)={far.log_negativity:.2e} (+bound {far.tail_bound:.2e}), sweep monotone")
    assert ok, errs


def test_acceptance_8_bosonic_w_small_r_regime():
    small = [0.0, 0.1, 0.2, 0.3]
    coarse, fine = Truncation(n_max=1), Truncation(n_max=6)
    worst = 0.0
    errs = []
    vals6 = {}
    for q in TRIPARTITE:
        for r1 in small:
            for r2 in small:
                v1 = boson.numeric_log_negativity(BosonScenario("w", r1, r2, coarse), q).log_negativity
                v6 = boson.numeric_log_negativity(BosonScenario("w", r1, r2, fine), q).log_negativity
                vals6[(q, r1, r2)] = v6
                worst = max(worst, abs(v1 - v6))
    if worst >= 0.05:
        errs.append(f"coarse truncation error {worst:.4f}")
    for q in TRIPARTITE:
        arr = np.array([[vals6[(q, r1, r2)] for r2 in small] for r1 in small])
        if not (np.all(np.diff(arr, axis=0) <= 1e-10) and np.all(np.diff(arr, axis=1) <= 1e-10)):
            errs.append(f"{q} surface not decreasing at small r")
    ok = report(8, "bosonic W small-r regime", not errs, f"18x18 route within {worst:.4f} of n_max=6")
    assert ok, errs


def test_acceptance_9_determinism(tmp_path):
    jobs = [
        ["sweep", "--field", "fermion", "--state", "w", "--quantities", "RS,AR,AS",
         "--axis1", "0:0.78:5", "--axis2", "0:0.78:5"],
        ["sweep", "--field", "boson", "--state", "ghz", "--quantities", "A-RS,S-AR",
         "--axis1", "0:1.5:3", "--axis2", "0:1.5:3", "--nmax", "4"],
        ["zero-curve", "--field", "boson", "--state", "w", "--pair", "AS", "--axis", "0:2:4"],
    ]
    errs = []
    for i, job in enumerate(jobs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        rc1 = main(job + ["--out", str(a)])
        rc2 = main(job + ["--out", str(b)])
        if rc1 != 0 or rc2 != 0:
            errs.append(f"job {i} exit codes {rc1}/{rc2}")
        elif a.read_bytes() != b.read_bytes():
            errs.append(f"job {i} not byte-identical")
    ok = report(9, "deterministic emission", not errs, f"{len(jobs)} jobs byte-identical on rerun")
    assert ok, errs

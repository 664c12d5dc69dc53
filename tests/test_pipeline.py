"""The shared numeric route against a dense complex oracle.

The oracle builds each reduced matrix with ``np.tensordot`` on the complex
ket, transposes it by explicit axis swaps and solves it with one dense
``np.linalg.eigvalsh``; the pipeline builds rho(A, I, I') in float64 from
the branch table, takes pairs by partial trace of it and uses the block
eigensolve.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhsim import boson, linalg, pipeline
from unruhsim.boson import BosonScenario, ghz_block_negativity, w_ar_log_negativity_series
from unruhsim.cli import EXIT_USAGE, main
from unruhsim.fermion import FermionScenario, ghz_closed_negativity, rs_zero_curve
from unruhsim.measures import QUANTITIES, TRIPARTITE, from_spectrum
from unruhsim.pipeline import DROP_FOR_PAIR, EIG_CLAMP_SCALE, HIDDEN_WEDGES, PT_FACTOR, evaluate_point, rindler_ket
from unruhsim.states import U_MAX, AccelParam, Truncation, _mode

#: Squeezing values; fermions get the wedge angle of the same acceleration,
#: tan u = tanh r.
RADII = (0.0, 0.75, 2.0)

CASES = [("fermion", state, None) for state in ("ghz", "w")] + [
    ("boson", state, n_max) for state in ("ghz", "w") for n_max in (1, 4, 8, 12, 14)
]


def dense_oracle(ket, quantity):
    """Ascending spectrum of the quantity's partial transpose and the matrix dimension."""
    lay = ket.layout
    drop = HIDDEN_WEDGES + (() if quantity in TRIPARTITE else (DROP_FOR_PAIR[quantity],))
    axes = [lay.axis(lab) for lab in drop]
    psi = ket.tensor().astype(complex)
    rho = np.tensordot(psi, psi.conj(), axes=(axes, axes))
    kept = lay.drop(drop)
    k, n = kept.axis(PT_FACTOR[quantity]), len(kept.dims)
    pt = np.swapaxes(rho, k, k + n).reshape(kept.dim, kept.dim)
    return np.linalg.eigvalsh(pt), kept.dim


@pytest.mark.parametrize("field,state,n_max", CASES)
def test_pipeline_matches_dense_oracle(field, state, n_max):
    trunc = Truncation(n_max=n_max) if n_max is not None else None
    params = RADII if field == "boson" else tuple(math.atan(math.tanh(r)) for r in RADII)
    for p1 in params:
        for p2 in params:
            results = evaluate_point(field, state, p1, p2, QUANTITIES, trunc)
            ket = rindler_ket(field, state, p1, p2, trunc)
            for q in QUANTITIES:
                want, dim = dense_oracle(ket, q)
                got = np.array(results[q].spectrum)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-12, (field, state, n_max, p1, p2, q)
                oracle = from_spectrum(want, clamp=EIG_CLAMP_SCALE * dim).log_negativity
                assert abs(results[q].log_negativity - oracle) < 1e-12, (field, state, n_max, p1, p2, q)


@pytest.mark.parametrize("field,state,n_max", [(f, s, n) for f, s, n in CASES if n in (None, 1, 12)])
def test_real_amplitudes_from_ket_to_eigensolve(monkeypatch, field, state, n_max):
    """The ket is float64 and so is every matrix the evaluator builds, traces, transposes and solves."""
    trunc = Truncation(n_max=n_max) if n_max is not None else None
    assert rindler_ket(field, state, 0.3, 0.6, trunc).amplitudes.dtype == np.float64
    seen = {}

    def spy(name):
        fn = getattr(pipeline, name)

        def wrapped(*args):
            out = fn(*args)
            arrays = ([] if name == "traced_density" else [args[0]]) + [out[0] if isinstance(out, tuple) else out]
            seen.setdefault(name, set()).update(a.dtype for a in arrays)
            return out

        return wrapped

    names = ("traced_density", "partial_trace", "partial_transpose", "hermitian_eigenvalues")
    for name in names:
        monkeypatch.setattr(pipeline, name, spy(name))
    evaluate_point(field, state, 0.3, 0.6, QUANTITIES, trunc)
    assert seen == {name: {np.dtype(np.float64)} for name in names}


def plan_spectra(state, quantity, n_max, points, complete=False):
    """Spectra from the block plan, every point in one batch."""
    modes = np.array([[[_mode(occ, AccelParam.of("boson", p), n_max) for occ in (0, 1)] for p in point]
                      for point in points])
    w = pipeline._branch_amplitudes(state, modes[:, 0], modes[:, 1])
    return pipeline._plan_spectra(pipeline._block_plan(state, quantity, n_max + 2, complete), w)


def dense_pt(state, quantity, n_max, r1, r2):
    """The quantity's partial transpose on the dense route."""
    s = pipeline.Scenario("boson", state, r1, r2, n_max)
    m, lay = pipeline.reduced_density(s, None if quantity in TRIPARTITE else quantity)
    return linalg.partial_transpose(m, lay, PT_FACTOR[quantity])


def complete_indices(n_max):
    """Indices of the RS matrix whose Fock indices are both at most n_max."""
    k = np.arange(n_max + 1)
    return (k[:, None] * (n_max + 2) + k[None, :]).ravel()


PLAN_RADII = (0.0, 1e-300, 0.7, 3.0, 400.0)


@pytest.mark.parametrize("state", ["ghz", "w"])
@pytest.mark.parametrize("n_max", [1, 4, 8, 12])
def test_block_plan_matches_dense_route(state, n_max):
    """Every bosonic quantity's plan gives the dense spectrum, and at a generic
    point its blocks are the dense matrix's nonzero-pattern blocks."""
    points = [(r1, r2) for r1 in PLAN_RADII for r2 in PLAN_RADII]
    for q in QUANTITIES:
        got = plan_spectra(state, q, n_max, points)
        for (r1, r2), spectrum in zip(points, got):
            want = linalg.hermitian_eigenvalues(dense_pt(state, q, n_max, r1, r2))
            assert np.max(np.abs(spectrum - want)) < 1e-12, (state, q, n_max, r1, r2)
        blocks = linalg._blocks(linalg._components(dense_pt(state, q, n_max, 0.7, 0.3)))
        assert pipeline._block_plan(state, q, n_max + 2).shapes == tuple(idx.shape for idx in blocks)


@pytest.mark.parametrize("n_max", [1, 4, 8, 12])
def test_restricted_rs_plan_matches_principal_submatrix(n_max):
    points = [(r1, r2) for r1 in (0.0, 0.05, 0.2, 0.7) for r2 in (0.0, 0.3, 0.88, 1.5, 3.0)]
    got = plan_spectra("w", "RS", n_max, points, complete=True)
    keep = complete_indices(n_max)
    for (r1, r2), spectrum in zip(points, got):
        want = linalg.hermitian_eigenvalues(dense_pt("w", "RS", n_max, r1, r2)[np.ix_(keep, keep)])
        assert np.max(np.abs(spectrum - want)) < 1e-14, (n_max, r1, r2)
    for r1 in (0.0, 0.2):
        r2s = [r2 for p1, r2 in points if p1 == r1]
        smallest = boson.rs_smallest_pt_eigenvalue(r1, r2s, n_max)
        assert list(smallest) == [boson.rs_smallest_pt_eigenvalue(r1, r2, n_max) for r2 in r2s]
        assert np.max(np.abs(smallest - got[[p1 == r1 for p1, _ in points], 0])) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    state=st.sampled_from(["ghz", "w"]),
    quantity=st.sampled_from(QUANTITIES),
    n_max=st.integers(1, 12),
    r1=st.floats(0.0, 5.0),
    r2=st.floats(0.0, 5.0),
)
def test_block_plan_matches_dense_route_anywhere(state, quantity, n_max, r1, r2):
    got = plan_spectra(state, quantity, n_max, [(r1, r2)])[0]
    want = linalg.hermitian_eigenvalues(dense_pt(state, quantity, n_max, r1, r2))
    assert np.max(np.abs(got - want)) < 1e-12


def test_block_plan_hermitian_check_rejects_planted_product():
    """A product added to one off-diagonal slot but not to its mirror is a
    ValueError naming the largest |B - B^T| over the stacks."""
    plan = pipeline._block_plan("w", "RS", 10, complete=True)
    w = pipeline._branch_amplitudes("w", np.array([_mode(occ, AccelParam.of("boson", 0.4), 8) for occ in (0, 1)]),
                                    np.array([[_mode(occ, AccelParam.of("boson", 0.6), 8) for occ in (0, 1)]]))
    k = int(np.flatnonzero(plan.slot != plan.mirror[plan.slot])[0])
    planted = dataclasses.replace(plan, left=np.append(plan.left, plan.left[k]),
                                  right=np.append(plan.right, plan.right[k]), slot=np.append(plan.slot, plan.slot[k]))
    pipeline._plan_spectra(plan, w)
    want = abs(w[0, plan.left[k]] * w[0, plan.right[k]])
    assert want > 1e-3
    with pytest.raises(ValueError, match=f"max asymmetry {want:.3e}"):
        pipeline._plan_spectra(planted, w)


def test_block_plan_is_cached_and_read_only():
    plan = pipeline._block_plan("w", "A-RS", 14)
    assert pipeline._block_plan("w", "A-RS", 14) is plan
    for a in (plan.left, plan.right, plan.slot, plan.mirror):
        with pytest.raises(ValueError):
            a[0] = 0


def mode_tail_by_summation(occupation, r, n_max):
    """Sum of the squared amplitudes past the cutoff, term by term: (1 - t) t^n
    for the vacuum and (n + 1) (1 - t)^2 t^n for the particle, n > n_max."""
    t = math.tanh(r) ** 2
    terms = []
    for n in range(n_max + 1, n_max + 5000):
        term = (1.0 - t) * t**n if occupation == 0 else (n + 1) * (1.0 - t) ** 2 * t**n
        terms.append(term)
        if term < 1e-20 * terms[0]:
            break
    return math.fsum(terms)


def state_tail_by_summation(state, r1, r2, n_max):
    """Each branch keeps (1 - a)(1 - b) of its weight, so it drops a + b - ab."""
    branches = {"ghz": ((0, 0), (1, 1)), "w": ((0, 0), (1, 0), (0, 1))}[state]
    lost = []
    for rob, steven in branches:
        a, b = mode_tail_by_summation(rob, r1, n_max), mode_tail_by_summation(steven, r2, n_max)
        lost.append(a + b - a * b)
    return math.fsum(lost) / len(lost)


@pytest.mark.parametrize("state", ["ghz", "w"])
@pytest.mark.parametrize("n_max", [1, 4, 14])
@pytest.mark.parametrize("r1,r2", [(0.034181, 0.238659), (0.01, 0.02), (0.0, 0.3), (0.5, 0.7), (1.2, 0.9)])
def test_tail_bound_is_the_discarded_weight(state, n_max, r1, r2):
    """The bosonic tail bound is the weight past the cutoff to 1e-12 relative,
    also where it lies far below the float epsilon and 1 - tr rho is roundoff."""
    want = state_tail_by_summation(state, r1, r2, n_max)
    results = evaluate_point("boson", state, r1, r2, QUANTITIES, Truncation(n_max=n_max))
    for q, res in results.items():
        assert abs(res.tail_bound - want) <= 1e-12 * want, (q, res.tail_bound, want)


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "ghz", "--quantity", "S-AR", "--nmax", "14", "--r1", "0.034181", "--r2", "0.238659"],
        ["--state", "ghz", "--quantity", "A-RS", "--nmax", "14", "--r1", "0.01", "--r2", "0.02"],
    ],
    ids=["ghz-S-AR", "ghz-A-RS"],
)
def test_point_prints_the_discarded_weight(capsys, argv):
    assert main(["point", "--field", "boson"] + argv) == 0
    printed = float(dict(line.split(": ") for line in capsys.readouterr().out.splitlines())["tail-bound"])
    want = state_tail_by_summation("ghz", float(argv[-3]), float(argv[-1]), 14)
    assert want < 1e-18
    assert abs(printed - want) <= 1e-8 * want


def test_scenario_and_evaluate_point_fold_state_case_alike():
    assert pipeline.Scenario("fermion", "GHZ", 0.1, 0.2).state == "ghz"
    assert evaluate_point("fermion", "GHZ", 0.1, 0.2) == evaluate_point("fermion", "ghz", 0.1, 0.2)
    assert evaluate_point("boson", "W", 0.1, 0.2, ("RS",), 2) == evaluate_point("boson", "w", 0.1, 0.2, ("RS",), 2)


def test_evaluate_point_rejects_unknown_names():
    with pytest.raises(ValueError, match="quantity"):
        evaluate_point("fermion", "w", 0.1, 0.2, ("A-RS", "XY"))
    with pytest.raises(ValueError, match="state"):
        evaluate_point("fermion", "cluster", 0.1, 0.2, ("A-RS",))


#: Every entry that takes a raw parameter, by field; each gets the bad value.
RANGE_ENTRIES = {
    "fermion": {
        "FermionScenario": lambda v: FermionScenario("w", v, 0.1),
        "ghz_closed_negativity": lambda v: ghz_closed_negativity("A-RS", v, 0.1),
        "rs_zero_curve": rs_zero_curve,
        "evaluate_point": lambda v: evaluate_point("fermion", "w", v, 0.1),
        "cli point": lambda v: ["point", "--field", "fermion", "--state", "w", "--quantity", "RS", f"--u1={v!r}"],
        "cli sweep": lambda v: ["sweep", "--field", "fermion", "--state", "w", "--quantities", "RS",
                                f"--axis1=0:{v!r}:3", "--axis2=0:0.5:3"],
        "cli zero-curve": lambda v: ["zero-curve", "--field", "fermion", "--state", "w", "--pair", "RS",
                                     f"--axis=0:{v!r}:3"],
    },
    "boson": {
        "BosonScenario": lambda v: BosonScenario("w", 0.1, v, Truncation(n_max=2)),
        "ghz_block_negativity": lambda v: ghz_block_negativity("A-RS", 0, 0, v, 0.1),
        "w_ar_log_negativity_series": w_ar_log_negativity_series,
        "evaluate_point": lambda v: evaluate_point("boson", "w", 0.1, v, trunc=Truncation(n_max=2)),
        "cli point": lambda v: ["point", "--field", "boson", "--state", "w", "--quantity", "RS", f"--r2={v!r}"],
        "cli sweep": lambda v: ["sweep", "--field", "boson", "--state", "w", "--quantities", "RS",
                                "--axis1=0:0.5:3", f"--axis2={v!r}:0.5:3"],
        "cli zero-curve": lambda v: ["zero-curve", "--field", "boson", "--state", "w", "--pair", "RS",
                                     f"--axis={v!r}:0.5:3"],
    },
}

BAD_VALUES = {"fermion": (U_MAX + 1e-9,), "boson": (-0.1, math.nan)}


@pytest.mark.parametrize(
    "field,entry,value",
    [(f, e, v) for f, entries in RANGE_ENTRIES.items() for e in entries for v in BAD_VALUES[f]],
)
def test_out_of_range_parameter_rejected_everywhere(capsys, tmp_path, field, entry, value):
    """One range rule: every entry raises ValueError, or exits 2, naming the range."""
    span = "[0, pi/4)" if field == "fermion" else "[0, inf)"
    call = RANGE_ENTRIES[field][entry]
    if entry.startswith("cli"):
        argv = call(value)
        rc = main(argv + (["--out", str(tmp_path / "o.csv")] if argv[0] != "point" else []))
        assert rc == EXIT_USAGE
        assert span in capsys.readouterr().err
    else:
        with pytest.raises(ValueError, match=re.escape(span)):
            call(value)

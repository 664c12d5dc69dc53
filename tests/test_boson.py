"""Bosonic pipeline: truncated densities, block series, convergence."""

import math

import numpy as np
import pytest

from unruhsim import boson, diagnostics
from unruhsim.boson import (
    AR_ZERO,
    BosonScenario,
    MatrixCeilingError,
    SeriesConvergenceError,
    ghz_block_negativity,
    ghz_log_negativity_series,
    numeric_log_negativity,
    reduced_density,
    rs_smallest_pt_eigenvalue,
    truncation_trace_deficit,
    w_ar_block_negativity,
    w_ar_log_negativity_series,
    w_rs_block_negativity,
    w_rs_log_negativity_series,
)
from unruhsim.linalg import hermitian_eigenvalues
from unruhsim.states import Truncation

W_BASE = (1.0 - math.sqrt(5.0)) / 6.0


def test_truncated_density_at_rest_is_pure():
    for state in ("ghz", "w"):
        s = BosonScenario(state, 0.0, 0.0, Truncation(n_max=3))
        rho, lay = reduced_density(s)
        assert hermitian_eigenvalues(rho)[0] >= -1e-10
        assert lay.labels == ("A", "I", "I'")
        assert rho.shape == (50, 50)
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-13


def test_truncated_density_dimension_and_hermiticity():
    s = BosonScenario("ghz", 0.7, 0.4, Truncation(n_max=5))
    rho, lay = reduced_density(s)
    assert rho.shape == (2 * 7 * 7, 2 * 7 * 7)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_trace_deficit_matches_closed_form():
    s = BosonScenario("ghz", 1.0, 1.0, Truncation(n_max=12))
    rho, _ = reduced_density(s)
    assert abs((1.0 - np.trace(rho).real) - truncation_trace_deficit(s)) < 1e-12
    sw = BosonScenario("w", 0.8, 1.3, Truncation(n_max=9))
    rhow, _ = reduced_density(sw)
    assert abs((1.0 - np.trace(rhow).real) - truncation_trace_deficit(sw)) < 1e-12


def test_matrix_ceiling_reports_requirement():
    s = BosonScenario("ghz", 0.2, 0.2, Truncation(n_max=40))
    with pytest.raises(MatrixCeilingError, match="3528"):
        reduced_density(s)


def test_ghz_block_values_at_rest():
    assert ghz_block_negativity("A-RS", 0, 0, 0.0, 0.0) == -0.5
    assert ghz_block_negativity("S-AR", 0, 0, 0.0, 0.0) == -0.5
    assert ghz_block_negativity("A-RS", 1, 0, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="indices"):
        ghz_block_negativity("A-RS", -1, 0, 0.1, 0.1)


def test_ghz_series_inertial_limit():
    for q in ("A-RS", "R-AS", "S-AR"):
        res = ghz_log_negativity_series(q, 0.0, 0.0)
        assert res.log_negativity == 1.0
        assert res.tail_bound == 0.0


def test_ghz_series_swap_identity():
    a = ghz_log_negativity_series("R-AS", 1.0, 0.5)
    b = ghz_log_negativity_series("S-AR", 0.5, 1.0)
    assert abs(a.log_negativity - b.log_negativity) < 1e-14


def test_ghz_series_reports_shells_and_bound():
    res = ghz_log_negativity_series("A-RS", 2.0, 2.0, Truncation(n_max=12, series_tol=1e-8))
    assert res.n_reached > 100
    assert res.last_shell < 1e-8
    assert res.tail_bound < 1e-6
    assert abs(res.log_negativity - 0.10240603142813087) < 1e-9


def test_ghz_series_asymptotic_erasure():
    res = ghz_log_negativity_series("A-RS", 5.0, 5.0, Truncation(n_max=12, series_tol=1e-8))
    assert res.log_negativity < 0.01
    # far into the geometric regime the certified bound, not the shell
    # heuristic, carries the honesty
    assert res.log_negativity + res.tail_bound < 0.01


def test_series_non_convergence_raises_with_partial_sum():
    # slow geometric decay keeps shells above an impossible tolerance
    trunc = Truncation(n_max=12, series_tol=1e-300)
    with pytest.raises(SeriesConvergenceError, match="partial sum") as info:
        ghz_log_negativity_series("A-RS", 3.0, 3.0, trunc)
    assert info.value.partial_sum < 0.0
    assert info.value.n_reached == boson.SERIES_INDEX_CEILING
    assert str(info.value) == (
        "block series not converged by N=4096: partial sum -5.066969963e-03, certified tail bound 2.250e-18"
    )
    assert (info.value.partial_sum, info.value.tail_bound) == (-0.005066969962880518, 2.250210837493832e-18)


#: Exact (log_negativity, n_reached, last_shell, tail_bound) of the adaptive
#: series at a few points; any change to the shell bounds, the summation
#: order or the stopping rule shows here.
SERIES_PINS = [
    ("A-RS", 0.3, 0.9, 4, 1e-8, (0.8924520407005094, 32, 6.180363900369247e-09, 1.646865466802691e-09)),
    ("A-RS", 2.0, 1.6, 8, 1e-6, (0.1593817184842957, 148, 9.623051403158943e-07, 2.0625224301828006e-05)),
    ("S-AR", 1.2, 0.5, 12, 1e-10, (0.6751996286766676, 68, 6.354320113843889e-11, 1.1194500197293825e-10)),
    ("RS", 0.1, 0.15, 2, 1e-9, (0.45905743036904967, 6, 0.0, 6.901915599130532e-12)),
    ("AR", 0.3, 0.9, 4, 1e-8, (0.400315111713317, 12, 6.378774075804081e-13, 3.2617784507881014e-15)),
    ("AR", 0.88, 0.0, 12, 1e-300, (0.0009212321380612387, 980, 7.233442270703678e-302, 0.0)),
]


@pytest.mark.parametrize("quantity,r1,r2,n_max,tol,expected", SERIES_PINS)
def test_adaptive_series_values_are_pinned(quantity, r1, r2, n_max, tol, expected):
    state = "w" if quantity in ("RS", "AR") else "ghz"
    res = boson.series_log_negativity(state, quantity, r1, r2, Truncation(n_max=n_max, series_tol=tol))
    assert (res.log_negativity, res.n_reached, res.last_shell, res.tail_bound) == expected


#: Squeezings whose square, or x^2 in a block bracket, underflows or overflows.
TINY_R = (1e-300, 1e-160, 1e-100, 1e-82, 1e-77)

SERIES_ROUTES = [("ghz", "A-RS"), ("ghz", "R-AS"), ("ghz", "S-AR"), ("w", "RS"), ("w", "AR"), ("w", "AS")]


@pytest.mark.parametrize("state,quantity", SERIES_ROUTES)
def test_series_at_tiny_r_equals_rest_value(state, quantity):
    """A tiny positive r on either parameter is finite and equals r = 0 to 1e-12.

    With the other parameter at 1e-20, sinh^2 r1 sinh^2 r2 is tiny as well.
    """
    for other in (0.0, 1e-20, 0.5):
        for r in TINY_R:
            for tiny, rest in (((r, other), (0.0, other)), ((other, r), (other, 0.0))):
                got = boson.series_log_negativity(state, quantity, *tiny).log_negativity
                want = boson.series_log_negativity(state, quantity, *rest).log_negativity
                assert math.isfinite(got) and abs(got - want) < 1e-12, (state, quantity, tiny, got, want)


def test_w_rs_block_values():
    assert abs(w_rs_block_negativity(0, 0, 0.0, 0.0) - W_BASE) < 1e-15
    assert w_rs_block_negativity(1, 0, 0.0, 0.5) == 0.0
    res = w_rs_log_negativity_series(0.0, 0.0)
    assert abs(res.log_negativity - 0.4977632401706957) < 1e-12


def test_w_ar_block_values():
    assert abs(w_ar_block_negativity(0, 0.0) - W_BASE) < 1e-15
    for n in range(21):
        assert abs(w_ar_block_negativity(n, AR_ZERO)) < 1e-10
    for n in (0, 1, 7):
        assert w_ar_block_negativity(n, 1.2) == 0.0
        assert w_ar_block_negativity(n, AR_ZERO - 1e-6) < 0.0


def test_w_ar_series_zero_beyond_threshold():
    assert w_ar_log_negativity_series(1.0).log_negativity == 0.0
    res = w_ar_log_negativity_series(0.0)
    assert abs(res.log_negativity - 0.4977632401706957) < 1e-12
    assert w_ar_log_negativity_series(1.0).tail_bound == 0.0


def test_w_reductions_at_rest():
    s = BosonScenario("w", 0.0, 0.0, Truncation(n_max=4))
    expect = math.log2((2 + math.sqrt(5)) / 3)
    for pair in ("RS", "AR", "AS"):
        res = numeric_log_negativity(s, pair)
        assert abs(res.log_negativity - expect) < 1e-12


def test_w_ar_reduction_only_depends_on_first_parameter():
    t = Truncation(n_max=8)
    a = numeric_log_negativity(BosonScenario("w", 0.4, 0.0, t), "AR").log_negativity
    b = numeric_log_negativity(BosonScenario("w", 0.4, 0.9, t), "AR").log_negativity
    # the traced mode's truncation perturbs the value only within the tail
    assert abs(a - b) < truncation_trace_deficit(BosonScenario("w", 0.4, 0.9, t)) + 1e-10


def test_ghz_reductions_diagonal_and_disentangled():
    for r1 in (0.0, 0.6, 1.7):
        for r2 in (0.0, 1.2):
            s = BosonScenario("ghz", r1, r2, Truncation(n_max=6))
            for pair in ("RS", "AR", "AS"):
                rho, _ = reduced_density(s, pair)
                off = rho - np.diag(np.diag(rho))
                assert np.max(np.abs(off)) < 1e-10
                assert numeric_log_negativity(s, pair).log_negativity == 0.0


def test_w_tripartite_numeric_dimensions_and_inertial_value():
    s = BosonScenario("w", 0.0, 0.0, Truncation(n_max=1))
    rho, _ = reduced_density(s)
    assert rho.shape == (18, 18)
    res = numeric_log_negativity(s, "A-RS")
    assert abs(res.log_negativity - 0.9581441056060679) < 1e-10


def test_w_tripartite_small_truncation_agrees_at_small_r():
    for r1 in (0.0, 0.15, 0.3):
        for r2 in (0.0, 0.3):
            for q in ("A-RS", "R-AS", "S-AR"):
                v1 = numeric_log_negativity(BosonScenario("w", r1, r2, Truncation(n_max=1)), q).log_negativity
                v6 = numeric_log_negativity(BosonScenario("w", r1, r2, Truncation(n_max=6)), q).log_negativity
                assert abs(v1 - v6) < 0.05


def test_exact_series_match_numeric_within_tails():
    """A-RS and the W AR/AS series agree with the matrix route everywhere."""
    trunc = Truncation(n_max=10)
    for r1 in (0.0, 0.4, 1.1):
        for r2 in (0.0, 0.8):
            for state, q in (("ghz", "A-RS"), ("w", "AR"), ("w", "AS")):
                rec = diagnostics.boson_record(state, q, r1, r2, trunc)
                assert rec.agrees, rec.describe()


def test_w_rs_reference_series_flagged_against_oracle():
    """The reference RS block coefficients disagree with the pipeline away
    from zero acceleration; the diagnostics record reports both values."""
    rec = diagnostics.boson_record("w", "RS", 0.4, 0.4, Truncation(n_max=10))
    assert not rec.agrees
    assert abs(rec.delta) > 1e-3
    assert "MISMATCH" in rec.describe()
    # at rest the transcription defects vanish
    rec0 = diagnostics.boson_record("w", "RS", 0.0, 0.0, Truncation(n_max=10))
    assert rec0.agrees


def test_ghz_sar_reference_series_flagged_against_oracle():
    rec = diagnostics.boson_record("ghz", "S-AR", 0.0, 1.0, Truncation(n_max=12))
    assert not rec.agrees
    assert abs(rec.delta) > 1e-2
    rec_sym = diagnostics.boson_record("ghz", "R-AS", 1.0, 0.0, Truncation(n_max=12))
    assert not rec_sym.agrees
    assert abs(rec.delta - rec_sym.delta) < 1e-12


def test_numeric_negativity_carries_trace_deficit():
    s = BosonScenario("ghz", 1.0, 1.0, Truncation(n_max=12))
    res = numeric_log_negativity(s, "A-RS")
    assert abs(res.tail_bound - truncation_trace_deficit(s)) < 1e-12


def test_increasing_truncation_never_hurts():
    ref = {}
    for r1, r2 in ((0.5, 0.5), (1.0, 1.5)):
        ref[(r1, r2)] = numeric_log_negativity(
            BosonScenario("ghz", r1, r2, Truncation(n_max=14)), "A-RS"
        ).log_negativity
    for r1, r2 in ref:
        errs = [
            abs(
                numeric_log_negativity(BosonScenario("ghz", r1, r2, Truncation(n_max=nm)), "A-RS").log_negativity
                - ref[(r1, r2)]
            )
            for nm in (4, 8, 12)
        ]
        assert errs[0] >= errs[1] >= errs[2]


def test_rs_restricted_smallest_eigenvalue_crossing():
    trunc = Truncation(n_max=10)
    assert rs_smallest_pt_eigenvalue(0.3, 0.2, trunc) < -1e-3
    assert rs_smallest_pt_eigenvalue(0.3, 2.0, trunc) > -1e-10
    # beyond the AR threshold nothing is left to disentangle
    assert rs_smallest_pt_eigenvalue(1.0, 0.0, trunc) > -1e-10


def test_all_log_negativities_finite_and_nonnegative():
    trunc = Truncation(n_max=6)
    for state in ("ghz", "w"):
        for q in ("A-RS", "RS", "AR"):
            res = numeric_log_negativity(BosonScenario(state, 0.9, 1.4, trunc), q)
            assert math.isfinite(res.log_negativity)
            assert res.log_negativity >= 0.0

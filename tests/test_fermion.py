"""Fermionic pipeline: densities, closed forms, reductions, zero curve."""

import math

import numpy as np
import pytest

import pauli_forms
from unruhsim import diagnostics, fermion
from unruhsim.fermion import (
    FermionScenario,
    ghz_closed_negativity,
    numeric_log_negativity,
    reduced_density,
    rs_smallest_pt_eigenvalue,
    rs_zero_curve,
    w_bipartite_closed_negativity,
)
from unruhsim.linalg import partial_transpose
from unruhsim.states import U_MAX

GRID = np.linspace(0.0, U_MAX - 1e-6, 17)
COARSE = np.linspace(0.0, U_MAX - 1e-6, 5)


def test_scenario_coerces_and_validates():
    s = FermionScenario("GHZ", 0.1, 0.2)
    assert s.state == "ghz"
    assert s.u1.kind == "fermion"
    with pytest.raises(ValueError, match="state"):
        FermionScenario("bell", 0.0, 0.0)
    with pytest.raises(ValueError, match="fermionic"):
        FermionScenario("w", -0.1, 0.0)


def test_ghz_density_matches_minkowski_form_at_rest():
    rho, lay = reduced_density(FermionScenario("ghz", 0.0, 0.0))
    assert lay.labels == ("A", "I", "I'")
    assert np.max(np.abs(rho - pauli_forms.ghz_minkowski())) < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_w_density_matches_minkowski_form_at_rest():
    rho, _ = reduced_density(FermionScenario("w", 0.0, 0.0))
    assert np.max(np.abs(rho - pauli_forms.w_minkowski())) < 1e-14


@pytest.mark.parametrize("u1", COARSE)
@pytest.mark.parametrize("u2", COARSE)
def test_ghz_density_matches_traced_form(u1, u2):
    rho, _ = reduced_density(FermionScenario("ghz", u1, u2))
    assert np.max(np.abs(rho - pauli_forms.ghz_rindler(u1, u2))) < 1e-12


@pytest.mark.parametrize("u1", COARSE)
@pytest.mark.parametrize("u2", COARSE)
def test_w_density_matches_traced_form(u1, u2):
    rho, _ = reduced_density(FermionScenario("w", u1, u2))
    assert np.max(np.abs(rho - pauli_forms.w_rindler(u1, u2))) < 1e-12


@pytest.mark.parametrize("target", ["A", "I", "I'"])
def test_ghz_partial_transpose_matches_sign_flipped_form(target):
    u1, u2 = 0.31, 0.54
    rho, lay = reduced_density(FermionScenario("ghz", u1, u2))
    pt = partial_transpose(rho, lay, target)
    assert np.max(np.abs(pt - pauli_forms.ghz_rindler_pt(target, u1, u2))) < 1e-12


def test_w_reductions_match_closed_forms():
    u1, u2 = 0.45, 0.22
    s = FermionScenario("w", u1, u2)
    for pair, form in (
        ("RS", pauli_forms.w_reduced_rs),
        ("AR", pauli_forms.w_reduced_ar),
        ("AS", pauli_forms.w_reduced_as),
    ):
        rho, _ = reduced_density(s, pair)
        assert np.max(np.abs(rho - form(u1, u2))) < 1e-12


def test_ghz_closed_negativity_values():
    assert abs(ghz_closed_negativity("A-RS", 0.0, 0.0) + 0.5) < 1e-15
    top = (1.0 - math.sqrt(17.0)) / 16.0
    assert abs(ghz_closed_negativity("A-RS", math.pi / 4, math.pi / 4) - top) < 1e-15
    assert abs(
        ghz_closed_negativity("R-AS", 0.3, 0.3) - ghz_closed_negativity("S-AR", 0.3, 0.3)
    ) < 1e-15


def test_w_closed_negativity_values():
    base = (1.0 - math.sqrt(5.0)) / 6.0
    assert abs(w_bipartite_closed_negativity("RS", 0.0, 0.0) - base) < 1e-15
    assert abs(w_bipartite_closed_negativity("AR", 0.3, 0.0) - base) < 1e-15
    logneg = math.log2(1 - 2 * base)
    assert abs(logneg - 0.4977632401706957) < 1e-12
    # reference AR depends on the second angle only, AS on the first only
    assert w_bipartite_closed_negativity("AR", 0.1, 0.4) == w_bipartite_closed_negativity("AR", 0.7, 0.4)
    assert w_bipartite_closed_negativity("AS", 0.4, 0.1) == w_bipartite_closed_negativity("AS", 0.4, 0.7)


def test_w_rs_closed_negativity_vanishes_on_curve():
    for u1 in (0.63, 0.70, math.pi / 4):
        u2 = rs_zero_curve(u1)
        assert u2 is not None
        assert abs(w_bipartite_closed_negativity("RS", u1, u2)) < 1e-12


def test_rs_zero_curve_endpoints():
    assert abs(rs_zero_curve(math.pi / 4) - math.acos(math.sqrt(2.0 / 3.0))) < 1e-12
    assert abs(rs_zero_curve(math.pi / 4) - 0.6154797086703874) < 1e-10
    assert rs_zero_curve(0.0) is None
    assert rs_zero_curve(0.3) is None


def test_ghz_reductions_are_diagonal():
    for u1 in COARSE:
        for u2 in COARSE:
            s = FermionScenario("ghz", u1, u2)
            for pair in ("RS", "AR", "AS"):
                rho, _ = reduced_density(s, pair)
                off = rho - np.diag(np.diag(rho))
                assert np.max(np.abs(off)) < 1e-12
                assert numeric_log_negativity(s, pair).log_negativity == 0.0


def test_numeric_ghz_inertial_limit():
    res = numeric_log_negativity(FermionScenario("ghz", 0.0, 0.0), "A-RS")
    assert abs(res.log_negativity - 1.0) < 1e-12
    assert abs(res.negativity_sum + 0.5) < 1e-12


def test_numeric_w_inertial_limit():
    res = numeric_log_negativity(FermionScenario("w", 0.0, 0.0), "A-RS")
    assert abs(res.log_negativity - math.log2(1 + 2 * math.sqrt(2) / 3)) < 1e-12
    assert abs(res.log_negativity - 0.9581441056060679) < 1e-12


def test_numeric_matches_closed_form_spot():
    s = FermionScenario("ghz", 0.4, 0.7)
    closed = math.log2(1 - 2 * ghz_closed_negativity("R-AS", 0.4, 0.7))
    assert abs(numeric_log_negativity(s, "R-AS").log_negativity - closed) < 1e-9


def test_closed_forms_match_oracle_on_grid():
    """GHZ partitions and the W RS reduction agree with the pipeline at 1e-9."""
    for state, quantities in (("ghz", ("A-RS", "R-AS", "S-AR")), ("w", ("RS",))):
        for u1 in GRID:
            for u2 in GRID:
                for q in quantities:
                    rec = diagnostics.fermion_record(state, q, float(u1), float(u2))
                    assert rec.agrees, rec.describe()


def test_w_ar_as_closed_forms_carry_swapped_symbols():
    """The reference AR/AS expressions reproduce the pipeline only after
    exchanging the two angles; the diagnostics records flag them, never patch them."""
    flagged = 0
    for u1 in COARSE:
        for u2 in COARSE:
            for q in ("AR", "AS"):
                rec = diagnostics.fermion_record("w", q, float(u1), float(u2))
                swapped = fermion.closed_log_negativity("w", q, float(u2), float(u1))
                assert abs(rec.numeric - swapped) < 1e-9
                if not rec.agrees:
                    flagged += 1
    assert flagged > 0


def test_swap_symmetry_on_grid():
    for state in ("ghz", "w"):
        for u1 in COARSE:
            for u2 in COARSE:
                s12 = FermionScenario(state, u1, u2)
                s21 = FermionScenario(state, u2, u1)
                ras = numeric_log_negativity(s12, "R-AS").log_negativity
                sar = numeric_log_negativity(s21, "S-AR").log_negativity
                assert abs(ras - sar) < 1e-12
                a12 = numeric_log_negativity(s12, "A-RS").log_negativity
                a21 = numeric_log_negativity(s21, "A-RS").log_negativity
                assert abs(a12 - a21) < 1e-12


def test_ghz_monotone_and_dominant_on_grid():
    vals = {
        q: np.array(
            [[numeric_log_negativity(FermionScenario("ghz", u1, u2), q).log_negativity for u2 in GRID] for u1 in GRID]
        )
        for q in ("A-RS", "R-AS", "S-AR")
    }
    for q, arr in vals.items():
        assert np.all(np.diff(arr, axis=0) <= 1e-12), q
        assert np.all(np.diff(arr, axis=1) <= 1e-12), q
    assert np.all(vals["A-RS"] >= np.maximum(vals["R-AS"], vals["S-AR"]) - 1e-12)


def test_ghz_survives_infinite_acceleration():
    top = U_MAX - 1e-6
    s = FermionScenario("ghz", top, top)
    for q in ("A-RS", "R-AS", "S-AR"):
        assert numeric_log_negativity(s, q).log_negativity > 0.4


def test_single_negative_eigenvalue_where_closed_forms_exist():
    clamp = 1e-10
    for u1 in COARSE:
        for u2 in COARSE:
            for state, qs in (("ghz", ("A-RS", "R-AS", "S-AR")), ("w", ("RS", "AR", "AS"))):
                for q in qs:
                    res = numeric_log_negativity(FermionScenario(state, u1, u2), q)
                    count = sum(1 for e in res.spectrum if e < -clamp)
                    assert count <= 1, (state, q, u1, u2, res.spectrum)


def test_w_tripartite_negativity_nonnegative_with_full_spectrum_sum():
    for u1 in COARSE:
        for u2 in COARSE:
            for q in ("A-RS", "R-AS", "S-AR"):
                res = numeric_log_negativity(FermionScenario("w", u1, u2), q)
                assert res.log_negativity >= 0.0
                assert res.negativity_sum <= 0.0


def test_rs_smallest_pt_eigenvalue_crosses_zero():
    u1 = 0.7
    u2_star = rs_zero_curve(u1)
    assert rs_smallest_pt_eigenvalue(u1, u2_star - 0.05) < -1e-4
    assert rs_smallest_pt_eigenvalue(u1, min(u2_star + 0.05, U_MAX)) > 1e-6
    assert abs(rs_smallest_pt_eigenvalue(u1, u2_star)) < 1e-10

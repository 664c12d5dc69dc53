"""State construction: parameter maps, mode expansions, GHZ/W kets."""

import itertools
import math

import numpy as np
import pytest

from unruhsim.boson import BosonScenario
from unruhsim.states import (
    AccelParam,
    PhysicalAccel,
    Truncation,
    U_MAX,
    accel_to_param,
    boson_mode_expansion,
    build_ghz,
    build_w,
    fermion_mode_expansion,
    traced_density,
)
from unruhsim.linalg import ket_partial_trace
from unruhsim.pipeline import HIDDEN_WEDGES


def test_accel_param_ranges():
    AccelParam.fermionic(0.0)
    AccelParam.fermionic(U_MAX)
    with pytest.raises(ValueError, match="fermionic"):
        AccelParam.fermionic(U_MAX + 1e-12)
    with pytest.raises(ValueError, match="bosonic"):
        AccelParam.bosonic(-0.1)
    with pytest.raises(ValueError, match="bosonic"):
        AccelParam.bosonic(math.inf)


def test_accel_to_param_infinite_acceleration_limit():
    # huge a maps to the top of the fermionic range
    p = PhysicalAccel(a=1e308, omega=1.0, c=1.0)
    u = accel_to_param(p, "fermion")
    assert abs(u.value - U_MAX) < 1e-12


def test_accel_to_param_zero_acceleration():
    p = PhysicalAccel(a=0.0, omega=2.5)
    assert accel_to_param(p, "fermion").value == 0.0
    assert accel_to_param(p, "boson").value == 0.0


def test_accel_to_param_boson_value():
    # pi*omega*c/a = ln 2 gives tanh r = 1/2
    omega, c = 3.0, 2.0
    a = math.pi * omega * c / math.log(2.0)
    r = accel_to_param(PhysicalAccel(a=a, omega=omega, c=c), "boson")
    assert abs(r.value - math.atanh(0.5)) < 1e-14
    assert abs(r.value - 0.5493061443340548) < 1e-12
    assert abs(math.tanh(r.value) - 0.5) < 1e-15


def test_accel_to_param_boson_overflow_reports_bound():
    p = PhysicalAccel(a=1e30, omega=1.0, c=1.0)
    with pytest.raises(ValueError, match="r overflow"):
        accel_to_param(p, "boson")


def test_accel_to_param_monotone_in_acceleration():
    omega = 1.0
    for stats in ("fermion", "boson"):
        prev = -1.0
        for a in (0.0, 1e8, 1e9, 1e10, 1e11):
            v = accel_to_param(PhysicalAccel(a=a, omega=omega), stats).value
            assert v > prev or (a == 0.0 and v == 0.0)
            prev = v


def test_fermion_mode_expansion_vacuum_at_rest():
    ket = fermion_mode_expansion(0, AccelParam.fermionic(0.0))
    assert np.allclose(ket.amplitudes, [1, 0, 0, 0])


def test_fermion_mode_expansion_particle_is_acceleration_independent():
    for u in (0.0, 0.3, U_MAX):
        ket = fermion_mode_expansion(1, AccelParam.fermionic(u))
        assert np.allclose(ket.amplitudes, [0, 0, 1, 0])


def test_fermion_mode_expansion_maximal_mixing():
    ket = fermion_mode_expansion(0, AccelParam.fermionic(math.pi / 4))
    s = 1 / math.sqrt(2)
    assert np.allclose(ket.amplitudes, [s, 0, 0, s], atol=1e-15)


def test_fermion_mode_expansion_unit_norm():
    for u in np.linspace(0, U_MAX, 9):
        for occ in (0, 1):
            ket = fermion_mode_expansion(occ, AccelParam.fermionic(float(u)))
            assert abs(ket.norm() - 1.0) < 1e-15


def test_boson_mode_expansion_at_rest():
    ket0, tail0 = boson_mode_expansion(0, AccelParam.bosonic(0.0), 5)
    ket1, tail1 = boson_mode_expansion(1, AccelParam.bosonic(0.0), 5)
    assert tail0 == 0.0 and tail1 == 0.0
    d = 7
    assert ket0.amplitudes[0] == 1.0
    assert ket1.amplitudes[1 * d + 0] == 1.0
    assert ket0.norm() == 1.0 and ket1.norm() == 1.0


def test_boson_mode_expansion_tail_is_geometric():
    r = AccelParam.bosonic(1.0)
    for occ in (0, 1):
        ket, tail = boson_mode_expansion(occ, r, 20)
        deficit = 1.0 - ket.norm() ** 2
        assert abs(deficit - tail) < 1e-12
    _, tail0 = boson_mode_expansion(0, r, 20)
    assert abs(tail0 - math.tanh(1.0) ** 42) < 1e-15


def test_boson_mode_expansion_edge_term_representable():
    ket, _ = boson_mode_expansion(1, AccelParam.bosonic(0.8), 4)
    d = 6
    assert ket.amplitudes[5 * d + 4] != 0.0


def test_build_ghz_inertial_limits():
    for stats, cutoff in (("fermion", None), ("boson", Truncation(n_max=3))):
        zero = AccelParam("fermion" if stats == "fermion" else "boson", 0.0)
        ket = build_ghz(stats, zero, zero, cutoff)
        t = ket.tensor()
        d = t.shape[1]
        expect = np.zeros_like(t)
        expect[0, 0, 0, 0, 0] = 1 / math.sqrt(2)
        expect[1, 1, 0, 1, 0] = 1 / math.sqrt(2)
        assert np.allclose(t, expect, atol=1e-15)


def test_build_w_inertial_limits():
    for stats, cutoff in (("fermion", None), ("boson", Truncation(n_max=3))):
        zero = AccelParam("fermion" if stats == "fermion" else "boson", 0.0)
        ket = build_w(stats, zero, zero, cutoff)
        t = ket.tensor()
        expect = np.zeros_like(t)
        expect[1, 0, 0, 0, 0] = 1 / math.sqrt(3)
        expect[0, 1, 0, 0, 0] = 1 / math.sqrt(3)
        expect[0, 0, 0, 1, 0] = 1 / math.sqrt(3)
        assert np.allclose(t, expect, atol=1e-15)


def test_build_ghz_one_observer_maximally_accelerated():
    ket = build_ghz("fermion", AccelParam.fermionic(math.pi / 4), AccelParam.fermionic(0.0))
    t = ket.tensor()
    nonzero = np.argwhere(np.abs(t) > 1e-14)
    assert len(nonzero) == 3
    assert abs(t[0, 0, 0, 0, 0] - 0.5) < 1e-15
    assert abs(t[0, 1, 1, 0, 0] - 0.5) < 1e-15
    assert abs(t[1, 1, 0, 1, 0] - 1 / math.sqrt(2)) < 1e-15


def test_build_w_fermion_unit_norm_everywhere():
    for u1 in (0.0, 0.2, 0.7):
        for u2 in (0.0, 0.5):
            ket = build_w("fermion", AccelParam.fermionic(u1), AccelParam.fermionic(u2))
            assert abs(ket.norm() - 1.0) < 1e-14


def test_build_ghz_boson_norm_deficit_matches_tails():
    r1, r2 = AccelParam.bosonic(0.9), AccelParam.bosonic(0.4)
    trunc = Truncation(n_max=8)
    ket = build_ghz("boson", r1, r2, trunc)
    _, t0a = boson_mode_expansion(0, r1, 8)
    _, t0b = boson_mode_expansion(0, r2, 8)
    _, t1a = boson_mode_expansion(1, r1, 8)
    _, t1b = boson_mode_expansion(1, r2, 8)
    expect = 0.5 * ((1 - t0a) * (1 - t0b) + (1 - t1a) * (1 - t1b))
    assert abs(ket.norm() ** 2 - expect) < 1e-12


def test_build_rejects_mixed_statistics():
    with pytest.raises(ValueError, match="mixed"):
        build_ghz("fermion", AccelParam.bosonic(0.1), AccelParam.fermionic(0.1))
    with pytest.raises(ValueError, match="mixed"):
        build_w("boson", AccelParam.bosonic(0.1), AccelParam.fermionic(0.1), Truncation(n_max=2))


@pytest.mark.parametrize("builder", [build_ghz, build_w])
def test_build_swap_symmetry(builder):
    """Swapping the two observers equals swapping their wedge factors."""
    for stats, p1, p2, cutoff in (
        ("fermion", 0.3, 0.6, None),
        ("boson", 0.8, 0.2, Truncation(n_max=4)),
    ):
        a = AccelParam(stats, p1)
        b = AccelParam(stats, p2)
        direct = builder(stats, b, a, cutoff).tensor()
        swapped = builder(stats, a, b, cutoff).tensor().transpose(0, 3, 4, 1, 2)
        assert np.allclose(direct, swapped, atol=1e-15)


def test_truncation_validation():
    with pytest.raises(ValueError, match="n_max"):
        Truncation(n_max=0)
    with pytest.raises(ValueError, match="series_tol"):
        Truncation(series_tol=0.0)


def test_truncation_rejects_non_integral_cutoff():
    for bad in (2.5, 2.7, math.nan, "3"):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            Truncation(n_max=bad)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        BosonScenario("w", 0.3, 0.4, 2.7)
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        boson_mode_expansion(0, AccelParam.bosonic(0.3), 2.5)
    for good in (3, np.int64(3), np.int32(3)):
        t = Truncation(n_max=good)
        assert t.n_max == 3 and type(t.n_max) is int
    assert BosonScenario("w", 0.3, 0.4, np.int64(2)).trunc.n_max == 2
    ket, tail = boson_mode_expansion(1, AccelParam.bosonic(0.3), 0)
    assert ket.layout.dims == (2, 2)
    assert abs(tail - (2 * math.tanh(0.3) ** 2 - math.tanh(0.3) ** 4)) < 1e-15


def test_truncation_of():
    assert Truncation.of(None) == Truncation()
    assert Truncation.of(5) == Truncation(n_max=5)
    t = Truncation(n_max=7, series_tol=1e-3, adaptive=False)
    assert Truncation.of(t) is t
    with pytest.raises(ValueError, match="n_max"):
        Truncation.of(1.5)


# ---------------------------------------------------------------------------
# independent ket oracle: the paper's expansions, entry by entry


def ladder(coeffs, occupation):
    """One accelerated mode, sum_n c_n |n + occupation, n>, as {(n_I, n_II): c_n}."""
    return {(n + occupation, n): c for n, c in enumerate(coeffs)}


def paper_coeffs(field, occupation, p, n_max):
    """c_n of the paper's expansion; Pauli exclusion stops the fermionic series at n = 1."""
    if field == "fermion":
        return [math.cos(p), math.sin(p)] if occupation == 0 else [1.0]
    if occupation == 0:
        return [math.tanh(p) ** n / math.cosh(p) for n in range(n_max + 1)]
    return [math.sqrt(n + 1) * math.tanh(p) ** n / math.cosh(p) ** 2 for n in range(n_max + 1)]


#: (Alice's bit, Rob's occupation, Steven's occupation) of each branch.
PAPER_BRANCHES = {
    "ghz": [(0, 0, 0), (1, 1, 1)],
    "w": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


def paper_ket(field, state, p1, p2, n_max, d):
    """Five-factor tensor over (A, I, II, I', II'), filled one entry at a time."""
    psi = np.zeros((2, d, d, d, d))
    branches = PAPER_BRANCHES[state]
    norm = 1.0 / math.sqrt(len(branches))
    for alice, occ_rob, occ_steven in branches:
        for (i, ii), c_rob in ladder(paper_coeffs(field, occ_rob, p1, n_max), occ_rob).items():
            for (j, jj), c_steven in ladder(paper_coeffs(field, occ_steven, p2, n_max), occ_steven).items():
                psi[alice, i, ii, j, jj] += norm * c_rob * c_steven
    return psi


ORACLE_CASES = [("fermion", None, (0.0, 0.3, U_MAX))] + [
    ("boson", n_max, (0.0, 0.5, 3.0)) for n_max in (1, 4, 14)
]


@pytest.mark.parametrize("builder", [build_ghz, build_w])
@pytest.mark.parametrize("field,n_max,params", ORACLE_CASES)
def test_built_ket_matches_paper_expansion(builder, field, n_max, params):
    state = "ghz" if builder is build_ghz else "w"
    d = 2 if field == "fermion" else n_max + 2
    for p1, p2 in itertools.product(params, params):
        ket = builder(field, AccelParam(field, p1), AccelParam(field, p2), n_max)
        assert ket.amplitudes.dtype == np.float64
        assert ket.layout.dims == (2, d, d, d, d)
        want = paper_ket(field, state, p1, p2, n_max, d)
        assert np.max(np.abs(ket.tensor() - want)) < 1e-15, (field, state, n_max, p1, p2)


@pytest.mark.parametrize("state", ["ghz", "w"])
def test_fermionic_ket_is_the_d2_ladder(state):
    """Both fields put c_n on |n + occupation, n>; fermions are its d = 2 member.

    Every nonzero entry of either ket sits where each wedge pair's
    n_I - n_II is the occupation its branch gives that observer, and the
    fermionic ket is the ladder with d = 2 and c = (cos u, sin u) or (1,).
    """
    builder = build_ghz if state == "ghz" else build_w
    for field, n_max in (("fermion", None), ("boson", 3)):
        t = builder(field, AccelParam(field, 0.5), AccelParam(field, 0.2), n_max).tensor()
        for alice, i, ii, j, jj in np.argwhere(t != 0.0):
            assert (alice, i - ii, j - jj) in PAPER_BRANCHES[state], (field, alice, i, ii, j, jj)
    u1, u2 = 0.5, 0.2
    fermion = builder("fermion", AccelParam.fermionic(u1), AccelParam.fermionic(u2))
    assert fermion.layout.dims == (2, 2, 2, 2, 2)
    assert np.max(np.abs(fermion.tensor() - paper_ket("fermion", state, u1, u2, None, 2))) < 1e-15


#: Squeezing values of the traced-density oracle; fermions get the wedge
#: angle of the same acceleration, tan u = tanh r.
TRACED_RADII = (0.0, 1e-300, 0.5, 3.0)


@pytest.mark.parametrize("state", ["ghz", "w"])
@pytest.mark.parametrize("field,n_max", [("fermion", None), ("boson", 1), ("boson", 4), ("boson", 14)])
def test_traced_density_matches_ket_wedge_trace(field, n_max, state):
    """rho(A, I, I') from the branch table equals the ket's wedge trace, exact zeros included."""
    builder = build_ghz if state == "ghz" else build_w
    params = TRACED_RADII if field == "boson" else tuple(math.atan(math.tanh(r)) for r in TRACED_RADII)
    for p1, p2 in itertools.product(params, params):
        a1, a2 = AccelParam(field, p1), AccelParam(field, p2)
        rho, lay = traced_density(state, field, a1, a2, n_max)
        want, want_lay = ket_partial_trace(builder(field, a1, a2, n_max), HIDDEN_WEDGES)
        assert rho.dtype == np.float64
        assert lay == want_lay
        assert np.max(np.abs(rho - want)) < 1e-15, (field, state, n_max, p1, p2)
        assert np.array_equal(rho != 0.0, want != 0.0), (field, state, n_max, p1, p2)

"""Tensor-factor linear algebra: kron, traces, transposes, eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_forms import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, kron
from unruhsim import linalg
from unruhsim.linalg import Ket, SubsystemLayout, hermitian_eigenvalues, ket_partial_trace, partial_trace, partial_transpose


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_ket(rng, layout):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return Ket(layout, amps / np.linalg.norm(amps))


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex))


def test_kron_pauli_z_pair_is_diagonal():
    assert np.array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_kron_xy_corner_entry():
    assert kron(PAULI_X, PAULI_Y)[0, 3] == -1j


def test_kron_associative_bit_exact_on_sign_patterns():
    # unit-entry operands make both association orders exact, pinning the
    # index convention itself
    rng = np.random.default_rng(7)
    mats = [
        rng.choice([0.0, 1.0, -1.0, 1.0j, -1.0j], size=(d, d)).astype(complex)
        for d in (2, 3, 2)
    ]
    a, b, c = mats
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron(kron(PAULI_X, PAULI_Y), PAULI_Z), kron(PAULI_X, kron(PAULI_Y, PAULI_Z)))


def test_kron_associative_for_general_entries():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), rtol=1e-15, atol=0.0)


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        SubsystemLayout.of(("A", 2), ("A", 3))


def test_layout_unknown_label_named_in_error():
    lay = SubsystemLayout.of(("A", 2), ("I", 2))
    with pytest.raises(ValueError, match="'II'"):
        lay.axis("II")


def test_partial_trace_bell_state():
    bell = Ket(SubsystemLayout.of(("A", 2), ("I", 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
    reduced, lay = partial_trace(bell.density(), bell.layout, "I")
    assert lay.labels == ("A",)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_all_factors_gives_trace():
    rng = np.random.default_rng(3)
    lay = SubsystemLayout.of(("A", 2), ("I", 3))
    rho = random_hermitian(rng, lay.dim)
    out, kept = partial_trace(rho, lay, ("A", "I"))
    assert out.shape == (1, 1)
    assert kept.labels == ()
    assert abs(out[0, 0] - np.trace(rho)) < 1e-14


def test_partial_trace_unknown_label_rejected():
    lay = SubsystemLayout.of(("A", 2), ("I", 2))
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError, match="'II'"):
        partial_trace(rho, lay, "II")


@pytest.mark.parametrize(
    "factors,drop",
    [
        ((("A", 2), ("I", 2), ("I'", 2)), ("I",)),
        ((("A", 4), ("I", 4), ("II", 4)), ("A", "II")),
        ((("A", 2), ("I", 4), ("II", 2), ("I'", 4)), ("II", "I'")),
        ((("A", 8), ("I", 8)), ("I",)),
    ],
)
def test_partial_trace_preserves_trace(factors, drop):
    rng = np.random.default_rng(11)
    lay = SubsystemLayout.of(*factors)
    rho = random_hermitian(rng, lay.dim)
    reduced, _ = partial_trace(rho, lay, drop)
    assert abs(np.trace(reduced) - np.trace(rho)) < 1e-14


def test_ket_partial_trace_matches_outer_product_route():
    rng = np.random.default_rng(5)
    lay = SubsystemLayout.of(("A", 2), ("I", 3), ("II", 2), ("I'", 3))
    ket = random_ket(rng, lay)
    direct, lay_a = ket_partial_trace(ket, ("II", "I'"))
    via_outer, lay_b = partial_trace(ket.density(), lay, ("II", "I'"))
    assert lay_a == lay_b
    assert np.allclose(direct, via_outer, atol=1e-14)
    # five factors, real kets (float64 GEMM) and complex kets (complex GEMM),
    # dropping adjacent, non-adjacent, interleaved and all factors
    lay5 = SubsystemLayout.of(("A", 2), ("I", 3), ("II", 2), ("I'", 3), ("II'", 2))
    drops = [("II", "II'"), ("A", "II'"), ("II'", "A"), ("I", "II", "I'"), "I'", lay5.labels]
    for _ in range(3):
        complex_ket = random_ket(rng, lay5)
        real_amps = rng.standard_normal(lay5.dim)
        real_ket = Ket(lay5, real_amps / np.linalg.norm(real_amps))
        for k, dtype in ((complex_ket, np.complex128), (real_ket, np.float64)):
            for drop in drops:
                direct, lay_a = ket_partial_trace(k, drop)
                via_outer, lay_b = partial_trace(k.density(), lay5, drop)
                assert lay_a == lay_b
                assert direct.dtype == dtype
                assert np.max(np.abs(direct - via_outer)) < 1e-14


def test_partial_transpose_leaves_diagonal_untouched():
    lay = SubsystemLayout.of(("A", 2), ("I", 3))
    rho = np.diag(np.arange(6, dtype=complex))
    assert np.array_equal(partial_transpose(rho, lay, "A"), rho)


def test_partial_transpose_is_bit_exact_involution():
    rng = np.random.default_rng(13)
    lay = SubsystemLayout.of(("A", 2), ("I", 4), ("I'", 3))
    rho = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    for label in lay.labels:
        once = partial_transpose(rho, lay, label)
        twice = partial_transpose(once, lay, label)
        assert np.array_equal(twice, rho)


def test_partial_transpose_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(17)
    lay = SubsystemLayout.of(("A", 4), ("I", 4))
    rho = random_hermitian(rng, 16)
    pt = partial_transpose(rho, lay, "I")
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
    assert abs(np.trace(pt) - np.trace(rho)) < 1e-14


def test_hermitian_eigenvalues_sorted_examples():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
    assert np.allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0])


def test_hermitian_eigenvalues_antidiagonal_unit_block():
    # the zero-index transpose block at zero acceleration
    block = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(block), [-1.0, 1.0], atol=1e-14)


def test_hermitian_eigenvalues_rejects_asymmetry_with_magnitude():
    m = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="5.000e-01"):
        hermitian_eigenvalues(m)


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_hermitian_eigenvalues_moment_identities(dim):
    rng = np.random.default_rng(dim)
    m = random_hermitian(rng, dim)
    eigs = hermitian_eigenvalues(m)
    assert np.all(np.diff(eigs) >= 0)
    assert abs(np.sum(eigs) - np.trace(m).real) < 1e-10
    assert abs(np.sum(eigs**2) - np.trace(m @ m).real) < 1e-8 * max(1.0, np.sum(eigs**2))


def test_pt_spectrum_sums_to_trace():
    rng = np.random.default_rng(23)
    lay = SubsystemLayout.of(("A", 4), ("I", 4))
    rho = random_hermitian(rng, 16)
    pt = partial_transpose(rho, lay, "A")
    assert abs(np.sum(hermitian_eigenvalues(rho)) - np.trace(rho).real) < 1e-10
    assert abs(np.sum(hermitian_eigenvalues(pt)) - np.trace(rho).real) < 1e-10


def test_real_input_stays_real():
    rng = np.random.default_rng(19)
    lay = SubsystemLayout.of(("A", 2), ("I", 3), ("I'", 2))
    m = rng.standard_normal((12, 12))
    rho = m + m.T
    assert partial_trace(rho, lay, "I")[0].dtype == np.float64
    assert partial_transpose(rho, lay, "I'").dtype == np.float64
    assert np.array_equal(partial_transpose(rho, lay, "A"), partial_transpose(rho.astype(complex), lay, "A").real)


def planted_blocks(rng, sizes, zeros, real, density=1.0):
    """Hermitian matrix of random blocks of the given sizes plus ``zeros``
    all-zero rows and columns, under a random symmetric permutation.

    Each block keeps its first off-diagonals, so it stays connected, and
    each other entry with probability ``density``; a sparse block is a long
    chain, which label propagation needs several rounds to cross.
    """
    n = sum(sizes) + zeros
    m = np.zeros((n, n), dtype=float if real else complex)
    start = 0
    for size in sizes:
        block = rng.standard_normal((size, size))
        if not real:
            block = block + 1j * rng.standard_normal((size, size))
        keep = rng.random((size, size)) < density
        keep |= np.abs(np.subtract.outer(np.arange(size), np.arange(size))) <= 1
        block = np.where(keep | keep.T, block, 0.0)
        m[start:start + size, start:start + size] = (block + block.conj().T) / 2
        start += size
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=0, max_size=10),
    zeros=st.integers(0, 4),
    real=st.booleans(),
    density=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_eigenvalues_match_dense_on_planted_blocks(sizes, zeros, real, density, seed):
    m = planted_blocks(np.random.default_rng(seed), sizes, zeros, real, density)
    if m.shape[0] == 0:
        return
    dense = np.linalg.eigvalsh(m.astype(complex))
    assert np.max(np.abs(linalg._block_eigenvalues(m) - dense)) < 1e-12
    assert np.max(np.abs(hermitian_eigenvalues(m) - dense)) < 1e-12


@pytest.mark.parametrize("real", [True, False])
def test_block_eigenvalues_edge_patterns(real):
    rng = np.random.default_rng(31)
    dim = linalg.DENSE_EIG_MAX_DIM + 9
    # all-zero rows and columns only, one fully dense matrix, and a dense
    # matrix with one all-zero row and column
    dense = planted_blocks(rng, [dim], 0, real)
    holed = planted_blocks(rng, [dim - 1], 1, real)
    for m in (np.zeros((dim, dim)), dense, holed):
        want = np.linalg.eigvalsh(m.astype(complex))
        assert np.max(np.abs(hermitian_eigenvalues(m) - want)) < 1e-12
        assert np.max(np.abs(linalg._block_eigenvalues(m) - want)) < 1e-12
    labels = linalg._components(dense)
    assert np.all(labels == 0)
    assert len(set(linalg._components(holed))) == 2


def test_density_matrices_are_psd():
    rng = np.random.default_rng(29)
    lay = SubsystemLayout.of(("A", 2), ("I", 3), ("I'", 2))
    for _ in range(10):
        ket = random_ket(rng, lay)
        reduced, _ = ket_partial_trace(ket, "I")
        assert hermitian_eigenvalues(reduced)[0] >= -1e-10


def test_ket_norm_and_shape_validation():
    lay = SubsystemLayout.of(("A", 2), ("I", 2))
    with pytest.raises(ValueError, match="amplitude count"):
        Ket(lay, np.ones(3))
    ket = Ket(lay, np.array([1.0, 0.0, 0.0, 0.0]))
    assert ket.norm() == 1.0


@pytest.mark.parametrize("defect", ["one-sided", "unequal-pair", "imaginary-diagonal"])
def test_block_route_hermitian_check_rejects(defect):
    """Above DENSE_EIG_MAX_DIM the check runs on the gathered blocks and
    reports the whole-matrix max |m - m^dagger|."""
    rng = np.random.default_rng(37)
    m = planted_blocks(rng, [30, 25, 20, 5], 3, real=defect != "imaginary-diagonal")
    assert m.shape[0] > linalg.DENSE_EIG_MAX_DIM
    zero = np.flatnonzero(~m.any(axis=0))
    if defect == "one-sided":
        m[zero[0], 7] = 0.3
    elif defect == "unequal-pair":
        i, j = np.argwhere(np.triu(m, 1) != 0)[0]
        m[i, j] += 0.25
    else:
        m[zero[0], zero[0]] = 1.0 + 0.2j
    want = float(np.max(np.abs(m - m.conj().T)))
    assert want > 0.1
    for solve in (hermitian_eigenvalues, linalg._block_eigenvalues):
        with pytest.raises(ValueError, match=f"max asymmetry {want:.3e}"):
            solve(m)

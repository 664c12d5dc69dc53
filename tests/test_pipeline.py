"""The shared numeric route against a dense complex oracle.

The oracle builds each reduced matrix with ``np.tensordot`` on the complex
ket, transposes it by explicit axis swaps and solves it with one dense
``np.linalg.eigvalsh``; the pipeline uses the float64 GEMM trace, pairs
taken by partial trace of rho(A, I, I') and the block eigensolve.
"""

import math

import numpy as np
import pytest

from unruhsim.measures import QUANTITIES, TRIPARTITE, from_spectrum
from unruhsim.pipeline import DROP_FOR_PAIR, EIG_CLAMP_SCALE, HIDDEN_WEDGES, PT_FACTOR, evaluate_point, rindler_ket
from unruhsim.states import Truncation

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


def test_evaluate_point_rejects_unknown_names():
    with pytest.raises(ValueError, match="quantity"):
        evaluate_point("fermion", "w", 0.1, 0.2, ("A-RS", "XY"))
    with pytest.raises(ValueError, match="state"):
        evaluate_point("fermion", "cluster", 0.1, 0.2, ("A-RS",))

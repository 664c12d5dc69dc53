"""The shared numeric route against a dense complex oracle.

The oracle builds each reduced matrix with ``np.tensordot`` on the complex
ket, transposes it by explicit axis swaps and solves it with one dense
``np.linalg.eigvalsh``; the pipeline uses the float64 GEMM trace, pairs
taken by partial trace of rho(A, I, I') and the block eigensolve.
"""

import math
import re

import numpy as np
import pytest

from unruhsim import pipeline
from unruhsim.boson import BosonScenario, ghz_block_negativity, w_ar_log_negativity_series
from unruhsim.cli import EXIT_USAGE, main
from unruhsim.fermion import FermionScenario, ghz_closed_negativity, rs_zero_curve
from unruhsim.measures import QUANTITIES, TRIPARTITE, from_spectrum
from unruhsim.pipeline import DROP_FOR_PAIR, EIG_CLAMP_SCALE, HIDDEN_WEDGES, PT_FACTOR, evaluate_point, rindler_ket
from unruhsim.states import U_MAX, Truncation

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
    """The ket is float64 and so is every matrix the evaluator traces, transposes and solves."""
    trunc = Truncation(n_max=n_max) if n_max is not None else None
    assert rindler_ket(field, state, 0.3, 0.6, trunc).amplitudes.dtype == np.float64
    seen = {}

    def spy(name):
        fn = getattr(pipeline, name)

        def wrapped(*args):
            out = fn(*args)
            arrays = ([] if name == "ket_partial_trace" else [args[0]]) + [out[0] if isinstance(out, tuple) else out]
            seen.setdefault(name, set()).update(a.dtype for a in arrays)
            return out

        return wrapped

    names = ("ket_partial_trace", "partial_trace", "partial_transpose", "hermitian_eigenvalues")
    for name in names:
        monkeypatch.setattr(pipeline, name, spy(name))
    evaluate_point(field, state, 0.3, 0.6, QUANTITIES, trunc)
    assert seen == {name: {np.dtype(np.float64)} for name in names}


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

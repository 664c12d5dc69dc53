"""Unruh-effect degradation of tripartite GHZ/W entanglement.

Library plus CLI for one inertial and two uniformly accelerated
observers sharing GHZ or W states of fermionic or bosonic field modes.
Logarithmic negativity is computed both from reference closed forms and
from an independent numeric partial-transpose pipeline.
"""

from .linalg import (
    Ket,
    SubsystemLayout,
    hermitian_eigenvalues,
    ket_partial_trace,
    partial_trace,
    partial_transpose,
)
from .measures import BIPARTITE, QUANTITIES, TRIPARTITE, NegativityResult, from_block_sum, from_spectrum
from .states import (
    C_LIGHT,
    U_MAX,
    AccelParam,
    PhysicalAccel,
    Truncation,
    accel_to_param,
    boson_mode_expansion,
    build_ghz,
    build_w,
    fermion_mode_expansion,
    traced_density,
)
from .fermion import FermionScenario
from .boson import AR_ZERO, BosonScenario, SeriesConvergenceError

__version__ = "0.1.0"

__all__ = [
    "AR_ZERO",
    "AccelParam",
    "BIPARTITE",
    "BosonScenario",
    "C_LIGHT",
    "FermionScenario",
    "Ket",
    "NegativityResult",
    "PhysicalAccel",
    "QUANTITIES",
    "SeriesConvergenceError",
    "SubsystemLayout",
    "TRIPARTITE",
    "Truncation",
    "U_MAX",
    "accel_to_param",
    "boson_mode_expansion",
    "build_ghz",
    "build_w",
    "fermion_mode_expansion",
    "from_block_sum",
    "from_spectrum",
    "hermitian_eigenvalues",
    "ket_partial_trace",
    "partial_trace",
    "partial_transpose",
    "traced_density",
    "__version__",
]

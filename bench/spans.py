"""Layer spans recorded from outside the program.

Each layer is a set of public functions.  The modules bind those
functions by name (``fermion``, ``boson``, ``cli`` and ``diagnostics``
import ``ket_partial_trace``, ``build_w`` and the rest), so a function is
wrapped in every loaded ``unruhsim`` namespace that holds it; patching the
defining module alone would catch nothing.  A span records its layer,
start, end, parent span and a work count computed from the call's shapes.
"""

from __future__ import annotations

import functools
import sys
import time


def _trace_gmac(args, kwargs, result) -> float:
    """Complex multiply-accumulates of the contraction, kept^2 x dropped, in 1e9."""
    rho, _ = result
    kept = rho.shape[0]
    dropped = args[0].layout.dim // kept
    return kept * kept * dropped / 1e9


def _eig_n3(args, kwargs, result) -> float:
    return float(result.shape[0]) ** 3


def _series_blocks(args, kwargs, result) -> float:
    """Blocks summed: n_reached + 1 for the 1-D W AR/AS series, its square otherwise."""
    if result is None or result.n_reached is None:
        return 0.0
    state, quantity = args[0], args[1]
    n = result.n_reached + 1
    return float(n if state == "w" and quantity in ("AR", "AS") else n * n)


#: (layer, defining module, function names, work counter or None).
LAYERS = (
    ("cli", "unruhsim.cli", ("main",), None),
    ("diagnostics.record", "unruhsim.diagnostics", ("fermion_record", "boson_record"), None),
    ("fermion.numeric", "unruhsim.fermion", ("numeric_log_negativity",), None),
    ("boson.numeric", "unruhsim.boson", ("numeric_log_negativity",), None),
    ("boson.series", "unruhsim.boson", ("series_log_negativity",), _series_blocks),
    ("boson.rs_eig", "unruhsim.boson", ("rs_smallest_pt_eigenvalue",), None),
    ("states.ket", "unruhsim.states", ("build_ghz", "build_w"), None),
    ("linalg.trace", "unruhsim.linalg", ("ket_partial_trace",), _trace_gmac),
    ("linalg.pt", "unruhsim.linalg", ("partial_transpose",), None),
    ("linalg.eig", "unruhsim.linalg", ("hermitian_eigenvalues",), _eig_n3),
    ("measures.spectrum", "unruhsim.measures", ("from_spectrum",), None),
)

LAYER_NAMES = tuple(layer for layer, *_ in LAYERS)


class Tracer:
    """Wraps every layer function; ``install``/``remove`` swap the bindings.

    Spans are kept in memory as ``[layer, start, end, parent, work]`` until
    :meth:`take` folds them into per-layer totals for one CLI call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for layer, module, names, work in LAYERS:
            for name in names:
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(layer, original, work)
                for mod in _program_modules():
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))
        if not self._bindings:
            raise RuntimeError("no layer function found to trace")

    def _wrap(self, layer, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def take(self) -> dict[str, list[float]]:
        """Per-layer ``[calls, inclusive ms, self ms, work]`` since the last take.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (layer, start, end, _, work) in enumerate(self.spans):
            agg = out.setdefault(layer, [0, 0.0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) * 1e3
            agg[2] += (end - start - child[i]) * 1e3
            agg[3] += work
        self.spans.clear()
        return out


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "unruhsim" or name.startswith("unruhsim."))]

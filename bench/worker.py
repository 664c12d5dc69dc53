"""Run one workload in this fresh process and write what the calls emitted.

Drives ``unruhsim.cli.main(argv)`` in-process as a closed loop with one
client: each call starts when the previous one has returned.  One untimed
warm-up call comes first.  Whole rounds run until ``--seconds`` have
passed.  With ``--trace 1`` every call runs twice, untraced and traced,
in alternating order, so the traced run also yields the tracing overhead.
Outputs are read after each call, outside the timed region, and checked
by the parent process.  Without tracing, the fixed probe of
``reference.py`` is timed before the first call and after every call;
each record carries the two probe times around it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBE_REPEATS = 3


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import unruhsim
    from unruhsim import cli

    expected = (ROOT / "src" / "unruhsim").resolve()
    if Path(unruhsim.__file__).resolve().parent != expected:
        raise SystemExit(f"imported unruhsim from {unruhsim.__file__}, expected {expected}")
    return cli


def run_call(cli, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            # a traceback is what a shell user would see: exit code 1
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def time_probe() -> float:
    """Wall seconds of the fixed probe: the median of three, so one interrupt does not count."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        reference.probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_facts() -> dict:
    """BLAS library and the thread count in effect, read from the loaded library."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:  # no /proc: leave the thread count unknown
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True, help="directory for output files and result.json")
    args = parser.parse_args()

    cli = import_cli()
    out_path = str(Path(args.work) / "out.csv")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    warm = run_call(cli, workloads.warmup_argv(args.workload, args.smoke))
    if warm[0] != 0:
        raise SystemExit(f"warm-up call failed with exit {warm[0]}: {warm[3]}")

    records = []
    n_calls = 0
    probe = time_probe() if tracer is None else None
    start = time.perf_counter()
    for round_no, calls in enumerate(workloads.rounds(args.workload, args.seed, out_path, args.smoke)):
        for call in calls:
            order = (False,) if tracer is None else (n_calls % 2 == 1, n_calls % 2 == 0)
            n_calls += 1
            for traced in order:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out_path)
                if traced:
                    tracer.install()
                try:
                    rc, seconds, stdout, stderr = run_call(cli, call.argv)
                finally:
                    if traced:
                        tracer.remove()
                output = stdout
                if call.argv[0] != "point" and rc == 0:
                    output = Path(out_path).read_text(encoding="ascii")
                probe_around = None
                if tracer is None:
                    probe_around = (probe, time_probe())
                    probe = probe_around[1]
                records.append({
                    "round": round_no,
                    "call": dataclasses.asdict(call),
                    "traced": traced,
                    "rc": rc,
                    "seconds": seconds,
                    "probe_s": probe_around,
                    "output": output,
                    "stderr": stderr[-2000:],
                    "layers": tracer.take() if traced else None,
                })
        enough = tracer is not None or round_no + 1 >= workloads.MIN_ROUNDS.get(args.workload, 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"records": records, "peak_rss_mb": peak_rss_mb, "machine": blas_facts()}
    (Path(args.work) / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

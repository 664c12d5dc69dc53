"""unruhsim benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload boson-w-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones, each from its own fresh worker process.  The set-up time is the
median of several cold ``python -m unruhsim.cli point`` processes.

Other tenants of the host slow every process on it, Python and BLAS
alike, by 1.5-2.5x for seconds to minutes at a time.  So each end-to-end
time is taken in reference seconds: its wall time times ``PROBE_REF_S``
over the wall time of a fixed, program-independent probe
(``reference.probe``) timed right before and after it.  A reference second
is a second of the reference machine when its host is quiet.  Every
call's output is checked after the worker exits.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same numbers for
people, with the machine facts and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_ARGV = ["-m", "unruhsim.cli", "point", "--field", "fermion", "--state", "ghz", "--quantity", "A-RS"]
SETUP_RUNS = 9
#: Wall seconds of ``reference.probe`` on the reference machine (bench/README.md)
#: when its host is quiet.  Only a unit: every end-to-end time scales with it.
PROBE_REF_S = 0.004
WORKER_TIMEOUT_S = 150
NMAX_SPLIT = (4, 8, 12, 14)

#: Per-layer metrics: name -> (layer, field of the per-call totals, unit).
#: Fields: 0 calls, 1 inclusive ms, 2 self ms, 3 work count.
LAYER_METRICS = {
    "states.ket.calls": ("states.ket", 0, "count/call"),
    "states.ket.ms": ("states.ket", 1, "ms/call"),
    "linalg.trace.calls": ("linalg.trace", 0, "count/call"),
    "linalg.trace.ms": ("linalg.trace", 1, "ms/call"),
    "linalg.trace.gmac": ("linalg.trace", 3, "GMAC/call"),
    "linalg.pt.calls": ("linalg.pt", 0, "count/call"),
    "linalg.pt.ms": ("linalg.pt", 1, "ms/call"),
    "linalg.eig.calls": ("linalg.eig", 0, "count/call"),
    "linalg.eig.ms": ("linalg.eig", 1, "ms/call"),
    "linalg.eig.n3": ("linalg.eig", 3, "dim3/call"),
    "measures.spectrum.calls": ("measures.spectrum", 0, "count/call"),
    "measures.spectrum.ms": ("measures.spectrum", 1, "ms/call"),
    "fermion.numeric.calls": ("fermion.numeric", 0, "count/call"),
    "fermion.numeric.self_ms": ("fermion.numeric", 2, "ms/call"),
    "boson.numeric.calls": ("boson.numeric", 0, "count/call"),
    "boson.numeric.self_ms": ("boson.numeric", 2, "ms/call"),
    "boson.series.calls": ("boson.series", 0, "count/call"),
    "boson.series.ms": ("boson.series", 1, "ms/call"),
    "boson.series.blocks": ("boson.series", 3, "blocks/call"),
    "boson.rs_eig.calls": ("boson.rs_eig", 0, "count/call"),
    "diagnostics.record.calls": ("diagnostics.record", 0, "count/call"),
    "diagnostics.record.self_ms": ("diagnostics.record", 2, "ms/call"),
    "cli.self_ms": ("cli", 2, "ms/call"),
}


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(runs: int) -> tuple[list[float], list[float], list[str]]:
    """Reference and wall seconds of cold CLI processes, and a problem line for each that failed."""
    import worker

    times, wall, problems = [], [], []
    probe = worker.time_probe()
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=program_env(),
                              capture_output=True, text=True, timeout=60)
        wall.append(time.perf_counter() - start)
        probe_before, probe = probe, worker.time_probe()
        times.append(wall[-1] * 2 * PROBE_REF_S / (probe_before + probe))
        # GHZ A-RS at u1 = u2 = 0 is the undegraded state: log-negativity 1
        if proc.returncode != 0 or "log-negativity: 1\n" not in proc.stdout:
            problems.append(f"set-up call: exit {proc.returncode}, output {proc.stdout!r}")
    return times, wall, problems


def run_worker(args, work: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=program_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def reference_seconds(rec: dict) -> float:
    """A call's wall time in reference seconds, scaled by the mean of the probes around it."""
    return rec["seconds"] * 2 * PROBE_REF_S / sum(rec["probe_s"])


def end_to_end(records: list[dict], peak_rss_mb: float, setup: list[float]) -> dict:
    """Metrics from reference seconds (see the module docstring); ``setup`` is in them already."""
    ref_s = [reference_seconds(r) for r in records]
    rounds: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        rounds.setdefault(rec["round"], []).append(i)
    rates = [sum(records[i]["call"]["values"] for i in idx) / sum(ref_s[i] for i in idx) for idx in rounds.values()]
    latency_ms = [s * 1e3 for s in ref_s]
    return {
        "values_per_s": (statistics.median(rates), "values/s"),
        "call_p50_ms": (statistics.median(latency_ms), "ms"),
        "call_p95_ms": (statistics.quantiles(latency_ms, n=100, method="inclusive")[94], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(records: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics averaged per traced CLI call, and layer totals for the table."""
    traced = [r for r in records if r["traced"]]
    totals: dict[str, list[float]] = {}
    for rec in traced:
        for layer, agg in rec["layers"].items():
            tot = totals.setdefault(layer, [0.0, 0.0, 0.0, 0.0])
            for i, v in enumerate(agg):
                tot[i] += v
    n = len(traced)
    metrics = {}
    for name, (layer, field, unit) in LAYER_METRICS.items():
        metrics[name] = (totals.get(layer, [0.0] * 4)[field] / n, unit)

    def layer_of(rec, layer, field):
        return rec["layers"].get(layer, [0.0] * 4)[field]

    points = sum(rec["call"]["points"] or layer_of(rec, "boson.rs_eig", 0) for rec in traced)
    for layer in ("states.ket", "linalg.trace"):
        metrics[f"{layer}.per_point"] = (totals.get(layer, [0.0] * 4)[0] / points, "count/point")
    for layer in ("linalg.trace", "linalg.eig"):
        for nmax in NMAX_SPLIT:
            at = [layer_of(r, layer, 1) for r in traced if r["call"]["nmax"] == nmax]
            metrics[f"{layer}.ms.n{nmax}"] = (sum(at) / len(at) if at else 0.0, "ms/call")
    untraced = sum(r["seconds"] for r in records if not r["traced"])
    metrics["trace_overhead"] = (sum(r["seconds"] for r in traced) / untraced, "ratio")
    return metrics, totals


def print_layer_table(totals: dict, n_calls: int):
    import spans

    cli_ms = totals.get("cli", [0.0, 1.0])[1]
    print(f"layers, per traced call (n={n_calls}); share = self time / cli time")
    print(f"  {'layer':20s} {'calls':>9s} {'incl_ms':>10s} {'self_ms':>10s} {'share':>7s}")
    for layer in spans.LAYER_NAMES:
        c, incl, own, _ = totals.get(layer, [0.0] * 4)
        print(f"  {layer:20s} {c / n_calls:9.2f} {incl / n_calls:10.3f} {own / n_calls:10.3f} {own / cli_ms:7.1%}")
    top = max(spans.LAYER_NAMES, key=lambda layer: totals.get(layer, [0.0] * 4)[2])
    print(f"largest self-time layer: {top}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced problem sizes, for bench/smoke.py")
    args = parser.parse_args()

    if not (ROOT / "src" / "unruhsim" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'unruhsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from unruhsim import fermion

    import checks

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        setup, setup_wall, problems = ([], [], []) if args.trace else measure_setup(1 if args.smoke else SETUP_RUNS)
        result = run_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (ROOT / ".bench_work").rmdir()

    records = result["records"]
    checker = checks.Checker(args.workload, args.seed, fermion.ghz_closed_negativity)
    failed = len(problems) + sum(not checker.check(rec) for rec in records)
    attempted = len(records) + len(setup)
    problems += checker.problems

    machine = result["machine"]
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {machine['numpy']}, "
          f"blas {machine['blas']}, blas threads {machine['blas_threads']}")
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print(f"calls: {len(records)} in {records[-1]['round'] + 1} rounds; values checked: {checker.values_checked}")
    if checker.roots:
        print(f"zero-curve roots checked: {checker.roots}; sign flips within +-{checks.ROOT_PROBE:g}: "
              f"{checker.roots_strict}")
    print(f"fail_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for line in problems[:10]:
        print(f"FAILED {line}")

    if args.trace:
        metrics, totals = per_layer(records)
        print_layer_table(totals, sum(r["traced"] for r in records))
    else:
        metrics = end_to_end(records, result["peak_rss_mb"], setup)
        p95_s = metrics["call_p95_ms"][0] / 1e3
        beyond = sum(reference_seconds(r) > p95_s for r in records)
        print(f"latency samples: {len(records)}, {beyond} beyond p95")
        probes = [r["probe_s"][1] for r in records]
        print(f"host speed: probe median {statistics.median(probes) * 1e3:.3f} ms "
              f"(range {min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f}), reference {PROBE_REF_S * 1e3:g} ms")
        wall = sum(r["seconds"] for r in records)
        print(f"wall clock: {sum(r['call']['values'] for r in records) / wall:.6g} values/s, "
              f"call p50 {statistics.median(r['seconds'] for r in records) * 1e3:.6g} ms, "
              f"setup {statistics.median(setup_wall):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

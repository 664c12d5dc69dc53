"""Command-line interface: flags, formats, determinism, exit codes."""

import contextlib
import importlib.util
import io
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unruhsim
from unruhsim import diagnostics, fermion, linalg, states
from unruhsim.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _fmt, main
from unruhsim.fermion import FermionScenario
from unruhsim.measures import QUANTITIES
from unruhsim.states import U_MAX


def run(args):
    return main(args)


def read(path):
    return path.read_text(encoding="ascii")


def data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_fmt_nine_significant_digits():
    assert _fmt(0.5) == "0.5"
    assert _fmt(1.0) == "1"
    assert _fmt(-0.0) == "0"
    assert _fmt(1 / 3) == "0.333333333"
    assert _fmt(1e-7) == "1e-07"


def test_point_inertial_ghz(capsys):
    rc = run(["point", "--field", "fermion", "--state", "ghz", "--u1", "0", "--u2", "0", "--quantity", "A-RS"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "log-negativity: 1" in out
    assert "negativity: -0.5" in out


def test_point_boson_ar_zero(capsys):
    rc = run(["point", "--field", "boson", "--state", "w", "--r1", "0.8813736", "--quantity", "AR"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "log-negativity: 0" in out


def test_point_oracle_delta(capsys):
    rc = run(
        ["point", "--field", "fermion", "--state", "ghz", "--u1", "0.3", "--u2", "0.2",
         "--quantity", "A-RS", "--oracle"]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    delta = [l for l in out.splitlines() if l.startswith("oracle-delta")][0]
    assert abs(float(delta.split(":")[1])) < 1e-9


def test_point_range_error(capsys):
    rc = run(["point", "--field", "fermion", "--state", "w", "--u1", "0.7853982", "--quantity", "RS"])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "[0, pi/4)" in err


def test_point_mixed_flags_rejected(capsys):
    rc = run(["point", "--field", "fermion", "--state", "w", "--r1", "0.2", "--quantity", "RS"])
    assert rc == EXIT_USAGE
    rc = run(["point", "--field", "boson", "--state", "w", "--u1", "0.2", "--quantity", "RS"])
    assert rc == EXIT_USAGE


def test_point_physical_acceleration_flags(capsys):
    omega = 1.0
    a = math.pi * omega * 299792458.0 / math.log(2.0)
    rc = run(
        ["point", "--field", "boson", "--state", "w", "--a1", str(a), "--omega", str(omega), "--quantity", "AR"]
    )
    assert rc == EXIT_OK
    rc = run(["point", "--field", "boson", "--state", "w", "--a1", "1.0", "--quantity", "AR"])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "--omega" in err


def test_point_ceiling_is_numeric_failure(capsys):
    rc = run(["point", "--field", "boson", "--state", "w", "--r1", "0.2", "--quantity", "A-RS", "--nmax", "40"])
    err = capsys.readouterr().err
    assert rc == EXIT_NUMERIC
    assert "ceiling" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "ghz", "--r1", "20", "--quantity", "R-AS", "--oracle"],
        ["--state", "ghz", "--r1", "800", "--quantity", "A-RS"],
        ["--state", "w", "--r1", "400", "--quantity", "AR"],
    ],
)
def test_point_arithmetic_failure_is_numeric_failure(capsys, argv):
    rc = run(["point", "--field", "boson"] + argv)
    out, err = capsys.readouterr()
    assert rc == EXIT_NUMERIC
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err
    assert out == ""


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


#: Parameter values at and beyond the edges of both ranges.
EDGE_PARAMS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -0.1, -1e3, U_MAX,
                               math.nextafter(U_MAX, 1.0), U_MAX + 1e-9, 19.5, 20.0, 400.0, 1e3])


#: Squeezings whose square, or x^2 in a block bracket, underflows or overflows.
TINY_R = (1e-300, 1e-160, 1e-82, 1e-77)


def tiny_r_examples(test):
    """The W AS series and the GHZ S-AR oracle at a tiny r, always drawn."""
    for r in TINY_R:
        test = example(field="boson", state="w", quantity="AS", nmax=4, oracle=False, params=[None, r])(test)
        test = example(field="boson", state="ghz", quantity="S-AR", nmax=4, oracle=True, params=[r, 0.5])(test)
    return test


@settings(max_examples=150, deadline=None)
@tiny_r_examples
@given(
    field=st.sampled_from(("fermion", "boson")),
    state=st.sampled_from(("ghz", "w")),
    quantity=st.sampled_from(QUANTITIES),
    nmax=st.integers(1, 4),
    oracle=st.booleans(),
    params=st.lists(st.none() | EDGE_PARAMS | st.floats(-10.0, 1e3), min_size=2, max_size=2),
)
def test_point_exit_code_contract(field, state, quantity, nmax, oracle, params):
    """Exit 0 prints a finite, non-negative log-negativity; 2 and 3 print nothing on stdout."""
    names = ("--u1", "--u2") if field == "fermion" else ("--r1", "--r2")
    argv = ["point", "--field", field, "--state", state, "--quantity", quantity, "--nmax", str(nmax)]
    argv += [f"{name}={value!r}" for name, value in zip(names, params) if value is not None]
    if oracle:
        argv.append("--oracle")
    rc, out, err = run_captured(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (argv, rc, err)
    assert "Traceback" not in err
    if rc == EXIT_OK:
        value = float(re.search(r"^log-negativity: (\S+)$", out, re.M).group(1))
        assert math.isfinite(value) and value >= 0.0, (argv, out)
    else:
        assert out == "", (argv, out, err)


@pytest.mark.parametrize(
    "argv,rest",
    [
        (["--state", "w", "--quantity", "AS", "--r2=1.2e-82"], ["--state", "w", "--quantity", "AS", "--r2=0"]),
        (["--state", "ghz", "--quantity", "S-AR", "--r1=1e-150", "--r2=0.5", "--oracle"],
         ["--state", "ghz", "--quantity", "S-AR", "--r1=0", "--r2=0.5", "--oracle"]),
    ],
)
def test_point_tiny_r_prints_its_rest_value(argv, rest):
    """A tiny positive r prints the values of r = 0, not nan or a numeric failure."""
    rc, out, err = run_captured(["point", "--field", "boson"] + argv)
    assert rc == EXIT_OK, err
    _, want, _ = run_captured(["point", "--field", "boson"] + rest)
    values = [line for line in out.splitlines() if not line.startswith("oracle-note")]
    assert values == [line for line in want.splitlines() if not line.startswith("oracle-note")]
    assert "nan" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "boson", "--state", "ghz", "--quantity", "A-RS", "--r1", "0.5", "--r2", "0.7"],
        ["--field", "boson", "--state", "w", "--quantity", "RS", "--r1", "0.5", "--r2", "0.7"],
        ["--field", "boson", "--state", "w", "--quantity", "AR", "--r1", "0.5", "--r2", "0.7"],
        ["--field", "boson", "--state", "ghz", "--quantity", "S-AR", "--r1", "0", "--r2", "1"],
        ["--field", "fermion", "--state", "w", "--quantity", "AR", "--u1", "0.5", "--u2", "0.7"],
    ],
    ids=["boson-ghz-A-RS", "boson-w-RS", "boson-w-AR", "boson-ghz-S-AR", "fermion-w-AR"],
)
def test_point_oracle_traces_once(monkeypatch, argv):
    """--oracle reuses the point's numeric result; its lines match a fresh record."""
    traces = count_calls(monkeypatch, linalg.ket_partial_trace)
    rc, out, _ = run_captured(["point", "--nmax", "6"] + argv + ["--oracle"])
    assert rc == EXIT_OK
    assert len(traces) == 1
    monkeypatch.undo()
    field, state, quantity, p1, p2 = argv[1], argv[3], argv[5], float(argv[7]), float(argv[9])
    if field == "fermion":
        rec = diagnostics.fermion_record(state, quantity, p1, p2)
    else:
        rec = diagnostics.boson_record(state, quantity, p1, p2, states.Truncation(n_max=6))
    want = [f"oracle-delta: {_fmt(rec.delta)}"] + ([] if rec.agrees else [f"oracle-note: {rec.describe()}"])
    assert [line for line in out.splitlines() if line.startswith("oracle-")] == want


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every loaded unruhsim module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "unruhsim" or name.startswith("unruhsim.")):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "field,state,quantities,axis,extra",
    [
        ("boson", "w", "A-RS,R-AS,S-AR,RS", "0:1.5:2", ["--nmax", "4"]),
        ("boson", "ghz", ",".join(QUANTITIES), "0:1.5:2", ["--nmax", "4"]),
        ("fermion", "w", ",".join(QUANTITIES), "0:0.7:3", []),
        ("fermion", "ghz", ",".join(QUANTITIES), "0:0.7:3", []),
    ],
    ids=["boson-w", "boson-ghz", "fermion-w", "fermion-ghz"],
)
def test_sweep_traces_each_point_once(monkeypatch, tmp_path, field, state, quantities, axis, extra):
    builds = count_calls(monkeypatch, states.build_ghz if state == "ghz" else states.build_w)
    traces = count_calls(monkeypatch, linalg.ket_partial_trace)
    rc = run(["sweep", "--field", field, "--state", state, "--quantities", quantities,
              "--axis1", axis, "--axis2", axis, "--out", str(tmp_path / "o.csv")] + extra)
    assert rc == EXIT_OK
    points = int(axis.split(":")[2]) ** 2
    assert len(builds) == points
    assert len(traces) == points


def test_bench_layers_exist_after_cli_import():
    """Every function the benchmark's layer tracer wraps exists under its module and name."""
    spans_path = Path(unruhsim.__file__).resolve().parents[2] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = ("import json, sys, unruhsim.cli; layers = json.loads(sys.argv[1]); "
            "print(json.dumps([[m, n] for m, n in layers if not callable(getattr(sys.modules.get(m), n, None))]))")
    layers = [[module, name] for _, module, names, _ in spans.LAYERS for name in names]
    src = str(Path(unruhsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, json.dumps(layers)], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert json.loads(out) == []


def test_cli_import_loads_numpy_only():
    code = "import sys, unruhsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(unruhsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
    pyproject = Path(src).parent / "pyproject.toml"
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject.read_text(encoding="utf-8"), re.M | re.S).group(1)
    assert re.findall(r'"([^"]+)"', deps) == ["numpy>=1.24"]


def test_sweep_rejects_bad_axis_and_quantities(tmp_path):
    out = str(tmp_path / "o.csv")
    base = ["sweep", "--field", "fermion", "--state", "ghz", "--out", out]
    assert run(base + ["--quantities", "A-RS", "--axis1", "0:0.7:1", "--axis2", "0:0.7:3"]) == EXIT_USAGE
    assert run(base + ["--quantities", "", "--axis1", "0:0.7:3", "--axis2", "0:0.7:3"]) == EXIT_USAGE
    assert run(base + ["--quantities", "bogus", "--axis1", "0:0.7:3", "--axis2", "0:0.7:3"]) == EXIT_USAGE
    assert run(base + ["--quantities", "A-RS", "--axis1", "0:0.8:3", "--axis2", "0:0.7:3"]) == EXIT_USAGE


def test_sweep_csv_layout_and_swap_symmetry(tmp_path):
    out = tmp_path / "ghz.csv"
    rc = run(
        ["sweep", "--field", "fermion", "--state", "ghz", "--quantities", "A-RS,R-AS,S-AR",
         "--axis1", f"0:{U_MAX - 1e-6}:17", "--axis2", f"0:{U_MAX - 1e-6}:17", "--out", str(out)]
    )
    assert rc == EXIT_OK
    text = read(out)
    assert text.endswith("\n") and "\r" not in text
    rows = data_rows(text)
    assert len(rows) == 17 * 17
    table = {}
    for row in rows:
        parts = row.split(",")
        table[(parts[0], parts[1])] = (float(parts[2]), float(parts[3]), float(parts[4]))
    axis_vals = sorted({k[0] for k in table}, key=float)
    assert len(axis_vals) == 17
    for p1, p2 in table:
        ars, ras, sar = table[(p1, p2)]
        _, ras_swap, sar_swap = table[(p2, p1)]
        assert abs(sar - ras_swap) < 1e-9
        assert abs(ras - sar_swap) < 1e-9


def test_sweep_grid_order_is_axis1_major(tmp_path):
    out = tmp_path / "o.csv"
    run(["sweep", "--field", "fermion", "--state", "ghz", "--quantities", "A-RS",
         "--axis1", "0:0.6:3", "--axis2", "0:0.6:2", "--out", str(out)])
    firsts = [row.split(",")[0] for row in data_rows(read(out))]
    assert firsts == ["0", "0", "0.3", "0.3", "0.6", "0.6"]


def test_sweep_boson_monotone_rows(tmp_path):
    out = tmp_path / "b.csv"
    rc = run(
        ["sweep", "--field", "boson", "--state", "ghz", "--quantities", "A-RS,R-AS,S-AR",
         "--axis1", "0:2:5", "--axis2", "0:2:5", "--out", str(out), "--nmax", "8"]
    )
    assert rc == EXIT_OK
    rows = [list(map(float, r.split(","))) for r in data_rows(read(out))]
    for q in (2, 3, 4):
        grid = {}
        for r in rows:
            grid[(r[0], r[1])] = r[q]
        axis = sorted({r[0] for r in rows})
        for a in axis:
            col = [grid[(a, b)] for b in axis]
            assert all(x >= y - 1e-10 for x, y in zip(col, col[1:]))
            row_vals = [grid[(b, a)] for b in axis]
            assert all(x >= y - 1e-10 for x, y in zip(row_vals, row_vals[1:]))


def test_sweep_w_rs_zero_crossings_on_curve(tmp_path):
    out = tmp_path / "wrs.csv"
    run(["sweep", "--field", "fermion", "--state", "w", "--quantities", "RS",
         "--axis1", f"0:{U_MAX - 1e-9}:17", "--axis2", f"0:{U_MAX - 1e-9}:17", "--out", str(out)])
    grid = {}
    for row in data_rows(read(out)):
        p = row.split(",")
        grid[(float(p[0]), float(p[1]))] = float(p[2])
    u_vals = sorted({k[0] for k in grid})
    crossings = 0
    for u1 in u_vals:
        col = [(u2, grid[(u1, u2)]) for u2 in u_vals]
        for (u2a, va), (u2b, vb) in zip(col, col[1:]):
            if va > 1e-9 and vb <= 1e-9:
                crossings += 1
                analytic = fermion.rs_zero_curve(u1)
                assert analytic is not None
                assert u2a - 1e-9 <= analytic <= u2b + 1e-9
    assert crossings >= 3


def test_sweep_byte_identical_reruns(tmp_path):
    args = ["sweep", "--field", "boson", "--state", "w", "--quantities", "RS,AR",
            "--axis1", "0:1:3", "--axis2", "0:1:3", "--nmax", "4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "o.json"
    rc = run(["sweep", "--field", "fermion", "--state", "ghz", "--quantities", "A-RS",
              "--axis1", "0:0.7:3", "--axis2", "0:0.7:3", "--out", str(out), "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(read(out))
    assert doc["columns"] == ["u1", "u2", "A-RS"]
    assert len(doc["rows"]) == 9
    assert doc["rows"][0][2] == 1.0


def test_csv_roundtrip_reevaluation(tmp_path):
    out = tmp_path / "r.csv"
    run(["sweep", "--field", "fermion", "--state", "w", "--quantities", "RS,AR",
         "--axis1", "0:0.78:5", "--axis2", "0:0.78:5", "--out", str(out)])
    rows = data_rows(read(out))
    rng = random.Random(0)
    for row in rng.sample(rows, 5):
        p1, p2, rs, ar = row.split(",")
        s = FermionScenario("w", float(p1), float(p2))
        assert _fmt(fermion.numeric_log_negativity(s, "RS").log_negativity) == rs
        assert _fmt(fermion.numeric_log_negativity(s, "AR").log_negativity) == ar


def test_zero_curve_fermion_rs(tmp_path):
    out = tmp_path / "z.csv"
    rc = run(["zero-curve", "--field", "fermion", "--state", "w", "--pair", "RS",
              "--axis", f"0:{U_MAX - 1e-9}:16", "--out", str(out)])
    assert rc == EXIT_OK
    rows = data_rows(read(out))
    assert len(rows) == 16
    assert rows[0] == "0,none"
    last_p1, last_u2 = rows[-1].split(",")
    assert abs(float(last_u2) - 0.6154797086703874) < 1e-7


def test_zero_curve_boson_ar_constant(tmp_path):
    out = tmp_path / "z.csv"
    rc = run(["zero-curve", "--field", "boson", "--state", "w", "--pair", "AR",
              "--axis", "0:2:6", "--out", str(out)])
    assert rc == EXIT_OK
    for row in data_rows(read(out)):
        _, r1 = row.split(",")
        assert abs(float(r1) - math.log(1 + math.sqrt(2))) < 1e-6


def test_zero_curve_fermion_ar_has_no_zero(tmp_path):
    out = tmp_path / "z.csv"
    rc = run(["zero-curve", "--field", "fermion", "--state", "w", "--pair", "AR",
              "--axis", "0:0.78:4", "--out", str(out)])
    assert rc == EXIT_OK
    assert all(row.endswith(",none") for row in data_rows(read(out)))


def test_zero_curve_requires_w_state(tmp_path):
    rc = run(["zero-curve", "--field", "fermion", "--state", "ghz", "--pair", "RS",
              "--axis", "0:0.7:4", "--out", str(tmp_path / "z.csv")])
    assert rc == EXIT_USAGE


def test_zero_curve_byte_identical_reruns(tmp_path):
    args = ["zero-curve", "--field", "boson", "--state", "w", "--pair", "AR", "--axis", "0:2:4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_unwritable_output_reports_path(capsys, tmp_path):
    bad = tmp_path / "missing" / "o.csv"
    rc = run(["sweep", "--field", "fermion", "--state", "ghz", "--quantities", "A-RS",
              "--axis1", "0:0.7:3", "--axis2", "0:0.7:3", "--out", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "o.csv" in err


def test_unknown_subcommand_is_usage_error():
    assert run(["fly"]) == EXIT_USAGE

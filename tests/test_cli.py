"""CLI surface: subcommands, wire formats, exit codes, determinism."""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import gkpphase
from gkpphase import NumericFailure, cli, polyalg


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = cli.dispatch([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_synth_level_4(tmp_path):
    code, text = run(tmp_path, "synth", "--level", "4")
    assert code == 0
    data = json.loads(text)
    assert data["schema_version"] == 1
    assert data["gate"] == "T^(1/2)"
    assert data["polynomial"]["coefficients"] == ["0/1", "0/1", "1/12", "0/1", "-1/48"]
    assert data["degree"] == 4
    # same polynomial over the half number operator: the Hadamard-family gate
    assert data["number_operator_alias"] == "H^(1/8)"


def test_synth_level_3_contains_table_entry(tmp_path):
    code, text = run(tmp_path, "synth", "--level", "3")
    data = json.loads(text)
    assert code == 0
    assert data["tied"]
    prettys = [m["pretty"] for m in data["minima"]]
    assert "x^3/12 + x^2/8 - x/12" in prettys
    # the log is the printed polynomial's: from x^4/8 it takes -2·L_3 at the
    # degree-3 boundary, where -1 would reach the mirror -x^3/12 + x^2/8 + x/12
    assert data["polynomial"]["pretty"] == "x^3/12 + x^2/8 - x/12"
    assert [s["multiplier"] for s in data["branch_log"] if s["degree"] == 3] == [-2]


def test_synth_multiqubit_cs(tmp_path):
    code, text = run(tmp_path, "synth", "--level", "2", "--qubits", "2")
    data = json.loads(text)
    assert code == 0
    assert data["gate"] == "CS"
    assert data["polynomial"] == {"1,1": "-1/4", "1,2": "-1/4", "2,1": "-1/4"}
    assert data["degree"] == 3
    assert data["tied"] and len(data["minima"]) == 4 and data["minima"][0] == data["polynomial"]
    steps = data["branch_log"]
    assert steps[0] == {"monomial": [2, 2], "multiplier": 1, "boundary": False}
    assert [s["monomial"] for s in steps if s["boundary"]] == [[2, 1], [1, 2]]


def test_synth_controlled_t_prints_an_enumerated_minimum(tmp_path):
    code, text = run(tmp_path, "synth", "--level", "3", "--qubits", "2")
    assert code == 0
    data = json.loads(text)
    assert data["polynomial"] == {"1,3": "-1/12", "2,2": "1/8", "3,1": "1/12"}
    printed = polyalg.RationalPolynomial.from_terms(
        2, {tuple(map(int, k.split(","))): v for k, v in data["polynomial"].items()})
    assert printed in oracles.multivariate_minima(polyalg.control_gate_start(2, 3))
    assert oracles.phase_check_on_box(printed, 3)


def test_synth_multiqubit_failed_phase_check_exits_2(tmp_path, monkeypatch, capsys):
    reduce = polyalg.multivariate_reduce

    def off_by_a_quarter(poly):  # CS minus x1 x2/4: the phase on odd inputs moves
        out = reduce(poly)
        bad = dict(out.minimum.terms)
        bad[(1, 1)] = bad.get((1, 1), 0) + Fraction(1, 4)
        return polyalg.ReductionOutcome((polyalg.RationalPolynomial.from_terms(2, bad),), out.branch_log)

    monkeypatch.setattr(polyalg, "multivariate_reduce", off_by_a_quarter)
    code, text = run(tmp_path, "synth", "--level", "2", "--qubits", "2")
    assert code == 2 and text == ""
    assert "phase check" in capsys.readouterr().err


def test_synth_lift_start(tmp_path):
    code, text = run(tmp_path, "synth", "--level", "3", name="t3.json")
    prev = tmp_path / "prev.json"
    prev.write_text(json.dumps(json.loads(text)["polynomial"]))
    # the inner "polynomial" object and the raw `synth --out` file
    for start in (prev, tmp_path / "t3.json"):
        code, text = run(tmp_path, "synth", "--level", "4", "--start", f"lift:{start}")
        assert code == 0
        assert json.loads(text)["polynomial"]["pretty"] == "-x^4/48 + x^2/12"


def test_synth_lift_start_refuses_a_wrong_gate_of_high_degree(tmp_path, capsys):
    # T3 + C(x+50, 101)/2 (L_101 = C(x+50, 101)) has T3's phases on |k| <= 50
    # and not at k = 51
    bad = polyalg.GATE_TABLE["T3"][0] + oracles.basis(101) * Fraction(1, 2)
    start = tmp_path / "bad.json"
    start.write_text(json.dumps({"coefficients": [str(c) for c in bad.coeffs]}))
    code, text = run(tmp_path, "synth", "--level", "4", "--start", f"lift:{start}")
    assert code == 1 and text == ""
    assert "does not implement the level-3 gate" in capsys.readouterr().err


def test_synth_lift_start_refuses_a_lift_longer_than_the_power_start(tmp_path, capsys):
    # x^2/4 + L_300 implements the level-2 gate; lifted it has degree 600, above
    # the level-3 power start's 4, and its walk took 18.3 s to the same minimum
    start = tmp_path / "l300.json"
    poly = polyalg.RationalPolynomial([0, 0, Fraction(1, 4)]) + oracles.basis(300)
    start.write_text(json.dumps({"coefficients": [str(c) for c in poly.coeffs]}))
    code, text = run_under_alarm(tmp_path, "synth", "--level", "3", "--start", f"lift:{start}")
    assert code == 1 and text == ""
    assert "lifts to degree 600, above the level-3 power start's 4" in capsys.readouterr().err


# sha-256 of `synth` stdout, so any change to the printed bytes shows; a
# "lift" run starts from the level below's power-start output
SYNTH_STDOUT_SHA256 = {
    "level 1": "623606924889b33376d0dd1c0d81237435df7a350028964529738fe62516147e",
    "level 2": "ccb0d9d2b4d1e02dc32c4379f05c443685d48cb6cc2d5c240e5099fbe5fa2f5f",
    "level 3": "218bd41d3cd5ba5c74934a842b46f77f871f6ac7540828156cfd6f3578d6d3f0",
    "level 4": "25c3aa3489b4de6caf39eeab847033b0609899bf9c45258f52aac376eb8d0eb2",
    "level 5": "3f73067a829488c4960d97e419c37306339c989cc27485959c74be251af8b413",
    "level 6": "45251012bf614816a85b88de1c5d1fa37e41c8d2174cd72ac40667a75cfd5e8a",
    "level 7": "5dbc0e781006b85eae835a2dc4c37460607ffae93ad9577aab02bb22aabbcc3f",
    "level 8": "1cd78c525c1a62e0deb281675dd2d0877abeac3c08322a261d5713268c941338",
    "level 9": "0a4755e62a9c57e5f78dc51005904968e3aec2823f1d5543e1568141d2ca7e61",
    "level 2 lift": "ccb0d9d2b4d1e02dc32c4379f05c443685d48cb6cc2d5c240e5099fbe5fa2f5f",
    "level 3 lift": "218bd41d3cd5ba5c74934a842b46f77f871f6ac7540828156cfd6f3578d6d3f0",
    "level 4 lift": "373ef3f94bc5168315fd3e6203c3dc2a427494c11170cb10bbae62610db55833",
    "level 5 lift": "a0f3d6f6e03b27ea8148f3ed5eb6d8b5c777714ed9f263a5c642c39573972e8e",
    "level 6 lift": "04d2aef5325d62f1fa80c4f639154539aea1a04d34d0f126c82ebb1a01ad2d86",
    "level 7 lift": "2f4893c08736390e09987ee4a8bbe9ce875fe91232872896222b35cfa73847e9",
    "level 8 lift": "659e0cfb2d04a4f2df595fa37c57c518a88c0dd8aad0e16322fc7d20b82aae89",
    "level 9 lift": "0482def9a98d1d93ce9356f34edc8985542bc7ba8f5a28392e97e522befb4157",
    "level 1 qubits 2": "fd4912cedae6cfe3fab9802083a3573e375a01fb0767ac4cf2a0134b31848095",
    "level 2 qubits 2": "3bd2c5c6d3a1f02403caaab6baf5b897f25038149b2d552b60ee4238f2296b35",
    "level 3 qubits 2": "0bd97cc61b841ef07fd8cd5e77b807b283d5136b88b91ceb2fff2200bcf5c84a",
    "level 4 qubits 2": "6151ac13dae04db634761c4f646153fe57a4ade6d32c6ef9e2d53dc2a5d9b18f",
    "level 1 qubits 3": "8c4ba1b6c65766385a647595addda8e8ab7ef08faf05280a65b65d03f30879f1",
    "level 2 qubits 3": "d5b9e48d5e43b29139252331a734c16cd19da73fbcaa7c8c2cc9df309a91f0c1",
}


def test_synth_stdout_digests(tmp_path, capsys):
    def digest(*argv):
        assert cli.dispatch(["synth", *argv]) == 0
        out = capsys.readouterr().out
        return out, hashlib.sha256(out.encode()).hexdigest()

    got = {}
    for m in range(1, 10):
        out, got[f"level {m}"] = digest("--level", str(m))
        if m < 9:
            (tmp_path / f"l{m}.json").write_text(out)
        if m > 1:
            _, got[f"level {m} lift"] = digest("--level", str(m), "--start", f"lift:{tmp_path}/l{m - 1}.json")
    for n, levels in ((2, range(1, 5)), (3, range(1, 3))):
        for m in levels:
            _, got[f"level {m} qubits {n}"] = digest("--level", str(m), "--qubits", str(n))
    assert got == SYNTH_STDOUT_SHA256


def test_synth_lift_start_rejects_other_json(tmp_path, capsys):
    for i, payload in enumerate(([1, 2], {"polynomial": {"1,1": "-1/4"}},
                                 {"coefficients": ["x"]}, {"coefficients": "0/1"})):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(payload))
        code, _ = run(tmp_path, "synth", "--level", "4", "--start", f"lift:{bad}")
        assert code == 1, payload
        assert "coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["bogus", "lift:missing.json"])
def test_synth_multiqubit_rejects_other_starts(tmp_path, capsys, start):
    # a multi-qubit synth used to ignore --start and print the power-start result
    code, text = run(tmp_path, "synth", "--level", "2", "--qubits", "2", "--start", start)
    assert code == 1 and text == ""
    assert "only the power start" in capsys.readouterr().err


def test_synth_invalid_level_exits_1(tmp_path):
    code, _ = run(tmp_path, "synth", "--level", "0")
    assert code == 1


def test_unknown_subcommand_exits_1():
    assert cli.dispatch(["frobnicate"]) == 1


def test_verify_circuits(tmp_path):
    code, text = run(tmp_path, "verify-circuits", "--nogo-circuits", "25")
    assert code == 0
    data = json.loads(text)
    assert data["all_pass"]
    assert all(c["max_residual"] <= c["tolerance"] for c in data["checks"])


def test_verify_circuits_output_is_fixed_by_its_seed(tmp_path):
    # the no-go circuits are the one random input; another seed moves only
    # their row (1.77e-13 at seed 7 against 3.77e-15 at the default 12345)
    runs = [run(tmp_path, "verify-circuits", "--nogo-circuits", "25", "--seed", seed, name=str(k))
            for k, seed in enumerate(("7", "7", "12345"))]
    assert [code for code, _ in runs] == [0, 0, 0]
    assert runs[0][1] == runs[1][1]
    seven, default = (json.loads(text)["checks"] for _, text in runs[1:])
    assert [a["name"] for a, b in zip(seven, default) if a != b] == ["nogo-sweep-25-circuits"]


def test_verify_circuits_loads_no_scipy():
    # a fresh interpreter, since this test process has scipy loaded already
    script = """
import sys
from gkpphase import cli
assert cli.dispatch(["verify-circuits", "--nogo-circuits", "3"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_moments_json(tmp_path):
    code, text = run(tmp_path, "moments", "--gate", "T3", "--delta", "0.25", "--lam", "2")
    assert code == 0
    data = json.loads(text)
    assert data["e_vq2"] > 0 and data["e_vp2"] > 0


def test_moments_whose_cross_moment_squared_overflows(tmp_path):
    # every moment is finite, but E(v_q v_p)^2 is not: the Cauchy-Schwarz check
    # printed two numpy overflow warnings
    code, text = run(tmp_path, "moments", "--delta", "1e60", "--lam", "1e-80")
    assert code == 0
    assert json.loads(text)["e_vqvp"] == 3.978873577297383e+198


def test_ft_bound_csv(tmp_path):
    code, text = run(tmp_path, "ft-bound", "--delta", "0.3", "0.05")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].split(",")[0] == "delta"
    assert len(lines) == 4


@pytest.mark.parametrize("delta", ["1e200", "1e-160", "1e-200"])
def test_ft_bound_refuses_delta_out_of_float_range(tmp_path, capsys, delta):
    code, text = run(tmp_path, "ft-bound", "--delta", "0.3", delta)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of float range" in err


def test_twirl_density_csv(tmp_path):
    code, text = run(tmp_path, "twirl-density", "--delta", "0.25", "--lam", "2",
                     "--points", "7")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[1] == "v_q,v_p,density"
    assert len(lines) == 2 + 49


def test_twirl_density_whose_variances_overflow(tmp_path, capsys):
    # sigma_p off the origin and the origin row's exponent overflow to +inf,
    # which makes their factors exactly 0; numpy printed two overflow warnings
    code, text = run(tmp_path, "twirl-density", "--delta", "1e-100", "--lam", "1e-100",
                     "--span", "1e10", "--points", "3")
    assert code == 0 and capsys.readouterr().err == ""
    grid = ("-1e+10", "0", "1e+10")
    rows = [f"{q},{p},{'2.000000000000e+200' if q == p == '0' else '0.000000000000e+00'}"
            for q in grid for p in grid]
    assert text == "\n".join(["# schema_version=1", "v_q,v_p,density", *rows]) + "\n"


@pytest.mark.parametrize("span", ["nan", "inf", "0"])
def test_twirl_density_refuses_span(tmp_path, capsys, span):
    code, text = run(tmp_path, "twirl-density", "--delta", "0.25", "--lam", "2", "--span", span)
    assert code == 1 and text == ""
    assert f"--span must be positive and finite, got {float(span)}" in capsys.readouterr().err


@pytest.mark.parametrize("grid, coarse", [("60", True), ("150", False)])
def test_vacuum_warns_on_coarse_grid(tmp_path, capsys, grid, coarse):
    code, text = run(tmp_path, "vacuum", "--delta", "0.25", "--grid", grid)
    assert code == 0 and len(text.splitlines()) == 3
    err = capsys.readouterr().err
    assert (f"warning: --grid {grid} is below 100 cells per axis" in err) == coarse
    assert coarse or err == ""


@pytest.mark.parametrize("delta, line", [
    ("-0.25", "error: delta must be positive and finite, got -0.25"),
    ("nan", "error: delta must be positive and finite, got nan"),
    ("inf", "error: delta must be positive and finite, got inf"),
    ("1e300", "error: delta 1e+300 takes delta^2 out of float range"),
])
def test_vacuum_refuses_delta_with_its_error_line(tmp_path, capsys, delta, line):
    code, text = run(tmp_path, "vacuum", "--delta", delta)
    assert code == 1 and text == ""
    assert capsys.readouterr().err == line + "\n"


def test_vacuum_csv(tmp_path):
    code, text = run(tmp_path, "vacuum", "--delta", "0.25", "--grid", "80",
                     "--postselect", "0.5")
    assert code == 0
    row = text.strip().splitlines()[-1].split(",")
    assert float(row[2]) > 0
    assert abs(float(row[3]) - 0.5) < 1e-9


def test_sweep_csv_and_determinism(tmp_path):
    args = ["sweep", "--gate", "I", "--nbar-min", "3", "--nbar-max", "4",
            "--nbar-step", "1", "--lam-min", "1", "--lam-max", "2",
            "--lam-count", "3", "--dinit", "128"]
    code, text1 = run(tmp_path, *args, name="a.csv")
    assert code == 0
    code, text2 = run(tmp_path, *args, name="b.csv")
    assert text1 == text2  # byte-identical
    lines = text1.strip().splitlines()
    header = lines[1].split(",")
    assert header == ["gate", "n_bar", "delta", "delta_db", "lam",
                      "avg_infidelity", "t_state_infidelity", "boundary_flag"]
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 6
    # identity-gate argmin sits at lam = 1, the grid boundary
    opt_rows = [r for r in rows if r[7] != ""]
    assert all(r[4] == "1" and r[7] == "1" for r in opt_rows)


def test_sweep_workers_deterministic(tmp_path):
    args = ["sweep", "--gate", "I", "--nbar-min", "3", "--nbar-max", "3",
            "--nbar-step", "1", "--lam-min", "1", "--lam-max", "2",
            "--lam-count", "2", "--dinit", "128"]
    _, a = run(tmp_path, *args, name="w1.csv")
    _, b = run(tmp_path, *args, "--workers", "2", name="w2.csv")
    assert a == b


def test_sweep_several_gates_equal_single_gate_runs(tmp_path):
    grid = ["--nbar-min", "3", "--nbar-max", "4", "--nbar-step", "1",
            "--lam-min", "1", "--lam-max", "2", "--lam-count", "2", "--dinit", "64"]
    _, both = run(tmp_path, "sweep", "--gate", "T3", "I", *grid, name="both.csv")
    _, t3 = run(tmp_path, "sweep", "--gate", "T3", *grid, name="t3.csv")
    _, idle = run(tmp_path, "sweep", "--gate", "I", *grid, name="i.csv")
    assert both.splitlines() == t3.splitlines() + idle.splitlines()[2:]


def test_sweep_flags_the_optimum_of_a_one_lam_grid(tmp_path):
    # the only λ has no neighbour on either side, so its row is flagged as the
    # same point is on a 2-λ grid, where it sits on the lower edge
    grid = ["--nbar-min", "3", "--nbar-max", "3", "--lam-min", "2", "--dinit", "64"]
    code, one = run(tmp_path, "sweep", "--gate", "T3", *grid, "--lam-max", "2", "--lam-count", "1")
    assert code == 0
    _, two = run(tmp_path, "sweep", "--gate", "T3", *grid, "--lam-max", "3", "--lam-count", "2",
                 name="two.csv")
    (row,) = [line.split(",") for line in one.splitlines()[2:]]
    assert row[4] == "2" and row[7] == "1"
    assert one.splitlines()[2] == two.splitlines()[2]


def test_sweep_reports_failed_points_and_exits_2(tmp_path, capsys):
    # TGKP at n_bar 3, lam 1 reaches the top of the d_init 64 output window
    grid = ["--nbar-min", "3", "--nbar-max", "3", "--lam-min", "1", "--lam-max", "2",
            "--lam-count", "2", "--dinit", "64"]
    code, text = run(tmp_path, "sweep", "--gate", "TGKP", "I", *grid)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("sweep: 1 of 4 points failed; first: TGKP n_bar=3 lam=1: ")
    assert "edge mass" in err[0]
    # the CSV is complete: every other point, as a run of that gate alone prints it
    rows = [line.split(",")[:5] for line in text.splitlines()[2:]]
    assert [(r[0], r[4]) for r in rows] == [("TGKP", "2"), ("I", "1"), ("I", "2")]
    _, idle = run(tmp_path, "sweep", "--gate", "I", *grid, name="i.csv")
    assert text.splitlines()[3:] == idle.splitlines()[2:]


@pytest.mark.parametrize("grid, line", [
    # each used to print every row of the repeat again, each copy its own
    # optimum mark (the lam copies: three lam = 2 rows, the first a boundary optimum)
    (["--gate", "T3", "T3"], "error: sweep repeats gate 'T3'"),
    (["--gate", "T3", "--lam-min", "2", "--lam-max", "2", "--lam-count", "3"],
     "error: sweep repeats lam 2.0"),
    # 21 points, 3 distinct n_bar once each is rounded to 9 decimals
    (["--gate", "T3", "--nbar-min", "2", "--nbar-max", "2.000000001", "--nbar-step", "1e-10"],
     "error: sweep repeats n_bar 2.0"),
], ids=["gate", "lam", "n_bar"])
def test_sweep_refuses_a_repeated_grid_point(tmp_path, capsys, monkeypatch, grid, line):
    from gkpphase import channel

    def no_engine(*args, **kwargs):
        raise AssertionError("engine built")

    monkeypatch.setattr(channel, "ChannelEngine", no_engine)
    code, text = run(tmp_path, "sweep", *grid)
    assert code == 1 and text == ""
    assert capsys.readouterr().err.splitlines() == [line]


class _Hung(Exception):
    """Raised by the alarm below; not an error type that dispatch maps to an exit code."""


def run_under_alarm(tmp_path, *argv):
    def hung(signum, frame):
        raise _Hung(f"{' '.join(argv)} did not return")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run(tmp_path, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("step", ["0", "-1"])
def test_sweep_rejects_nonpositive_nbar_step(tmp_path, capsys, step):
    # a step that never reaches --nbar-max used to loop forever building the grid
    code, text = run_under_alarm(tmp_path, "sweep", "--gate", "I", "--nbar-step", step)
    assert code == 1 and text == ""
    assert "--nbar-step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    (["--nbar-max", "inf"], "n_bar points"),  # no finite point count
    (["--nbar-step", "1e-300"], "n_bar points"),  # 1e301 points
    (["--nbar-min", "1e17", "--nbar-max", "1e17"], "does not advance"),  # 1e17 + 1 == 1e17
], ids=["max-inf", "step-1e-300", "step-below-spacing"])
def test_sweep_rejects_unbounded_nbar_grid(tmp_path, capsys, grid, message):
    # each of these grids used to loop forever before the first point ran
    code, text = run_under_alarm(tmp_path, "sweep", "--gate", "I", *grid)
    assert code == 1 and text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1", str(10**12)])
def test_sweep_rejects_lam_count_out_of_range(tmp_path, capsys, monkeypatch, count):
    # a count of 10**12 used to reach np.linspace and fail there with a traceback
    import numpy as np

    def no_grid(*args, **kwargs):
        raise AssertionError("lambda grid built")

    monkeypatch.setattr(np, "linspace", no_grid)
    code, text = run(tmp_path, "sweep", "--gate", "I", "--lam-count", count)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert f"--lam-count must lie in [1, {cli.MAX_GRID_POINTS}], got {count}" in err


@pytest.mark.parametrize("command", [
    ("vacuum", "--delta", "0.25", "--grid"),
    ("twirl-density", "--delta", "0.25", "--lam", "2", "--points"),
])
@pytest.mark.parametrize("side", ["1", "-3", "1001", str(10**6)])
def test_square_grid_side_out_of_range(tmp_path, capsys, monkeypatch, command, side):
    # an N x N grid above MAX_GRID_POINTS used to be built (--grid 10**6: a
    # MemoryError traceback); the stubs fail if a grid builder is reached
    import numpy as np
    from gkpphase import analytic

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(analytic, "vacuum_posterior_grid", no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    code, text = run(tmp_path, *command, side)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert f"{command[-1]} must lie in [2, 1000]" in err and f"got {side}" in err


@pytest.mark.parametrize("argv", [
    ("vacuum", "--delta", "nan"),
    ("vacuum", "--delta", "inf"),
    ("twirl-density", "--delta", "nan", "--lam", "2"),
    ("twirl-density", "--delta", "0.25", "--lam", "nan"),
    ("moments", "--delta", "nan"),
    ("moments", "--delta", "0.25", "--lam", "nan"),
    ("ft-bound", "--delta", "0.2", "inf"),
    ("sweep", "--gate", "I", "--lam-min", "nan"),
    ("sweep", "--gate", "I", "--lam-max", "inf"),
])
def test_non_finite_inputs_exit_1(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 1 and text == ""
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # synth: level 12 ran 302 s and then failed on int-to-str conversion; level 30
    # and 70 ended in a MemoryError or OverflowError traceback; (N, m) = (2, 8)
    # and (20, 1) ran on past 60 s and 20 s; (3, 5) ran out of 2 GB in 24 s
    (("synth", "--level", "12"), "cannot finish"),
    (("synth", "--level", "30"), "cannot finish"),
    (("synth", "--level", "70"), "cannot finish"),
    (("synth", "--level", "8", "--qubits", "2"), "cannot finish"),
    (("synth", "--level", "5", "--qubits", "3"), "cannot finish"),
    (("synth", "--level", "1", "--qubits", "20"), "cannot finish"),
    # tanh(Δ²/2) underflowed: NaN in every row, or inf at the origin, with exit 0
    (("twirl-density", "--delta", "1e-200", "--lam", "1"), "normal positive floats"),
    (("twirl-density", "--delta", "1e-160", "--lam", "1", "--span", "1e-100"), "normal positive floats"),
    # OverflowError and ZeroDivisionError tracebacks, and a "math domain error";
    # then an OverflowError line naming no flag; now refused by name up front
    (("moments", "--delta", "1e200"), "delta 1e+200"),
    (("moments", "--delta", "1e-200"), "delta 1e-200"),
    (("vacuum", "--delta", "1e300"), "delta 1e+300"),
    (("sweep", "--gate", "T3", "--nbar-min", "-0.5", "--nbar-max", "-0.5", "--lam-count", "1"),
     "--nbar-min must be positive"),
    (("sweep", "--gate", "I", "--nbar-min", "-1"), "--nbar-min must be positive"),
    # "e_vp2": Infinity with exit 0 and two numpy overflow warnings; now refused by field
    (("moments", "--delta", "0.3", "--lam", "1e-300"), "take e_vp2 out of float range"),
    (("moments", "--gate", "T8th", "--delta", "0.3", "--lam", "1e-100"), "take e_vp2 out of float range"),
    # v_q^2 overflowed: nan densities with exit 0
    (("twirl-density", "--delta", "0.3", "--lam", "1", "--span", "1e160", "--points", "3"), "--span 1e+160"),
    (("synth", "--level", "3", "--start", "foo"), "unknown start spec 'foo'"),
    # error: OverflowError: (34, 'Numerical result out of range'), naming no flag
    (("twirl-density", "--delta", "1e200", "--lam", "1"), "delta 1e+200"),
    (("vacuum", "--delta", "0.25", "--postselect", "1.5"), "postselect_fraction must lie in [0, 1]"),
    (("vacuum", "--delta", "0.25", "--postselect", "nan"), "postselect_fraction must lie in [0, 1]"),
    # error: expected non-negative integer, numpy's message, naming no flag
    (("verify-circuits", "--seed", "-1"), "--seed must be non-negative, got -1"),
])
def test_out_of_range_inputs_exit_1_with_one_error_line(tmp_path, capsys, argv, message):
    code, text = run_under_alarm(tmp_path, *argv)
    assert code == 1 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_synth_limits_keep_the_measured_cases():
    for n, m in ((1, 11), (2, 7), (3, 4), (9, 1)):
        cli._synth_fits(n, m)


@pytest.mark.parametrize("argv", [
    ("verify-circuits", "--nogo-circuits", "-3"),
    ("verify-circuits", "--nogo-circuits", "0"),
    ("synth", "--level", "3", "--qubits", "0"),
    ("sweep", "--gate", "I", "--workers", "0"),
    ("sweep", "--gate", "I", "--workers", "-4"),
])
def test_count_flags_below_one_exit_1(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 1 and text == ""
    assert f"{argv[-2]} must be at least 1, got {argv[-1]}" in capsys.readouterr().err


def test_cache_roundtrip(tmp_path):
    cache_dir = tmp_path / "cache"
    code, text = run(tmp_path, "cache", "purge", "--cache-dir", str(cache_dir))
    assert code == 0
    assert json.loads(text)["purged"] == 0
    code, text = run(
        tmp_path, "cache", "prewarm", "--cache-dir", str(cache_dir),
        "--dinit", "32",
        "--nbar-min", "3", "--nbar-max", "3", "--nbar-step", "1",
        "--lam-min", "1", "--lam-max", "2", "--lam-count", "2",
    )
    assert code == 0
    assert json.loads(text)["prewarmed"] == 4
    code, text = run(tmp_path, "cache", "list", "--cache-dir", str(cache_dir))
    data = json.loads(text)
    # the two eigensystems a sweep reads, d_out = 96 and d_temp = 288, each
    # with its first d_out eigenvector rows
    assert data["count"] == 4
    shapes = sorted((e["kind"], tuple(e["shape"])) for e in data["entries"])
    assert shapes == [("qeig-values", (96,)), ("qeig-values", (288,)),
                      ("qeig-vectors", (96, 96)), ("qeig-vectors", (96, 288))]
    code, text = run(tmp_path, "cache", "purge", "--cache-dir", str(cache_dir))
    assert json.loads(text)["purged"] == 4


def test_cache_list_and_purge_leave_a_missing_dir_missing(tmp_path):
    cache_dir = tmp_path / "a" / "b"
    code, text = run(tmp_path, "cache", "list", "--cache-dir", str(cache_dir))
    assert code == 0 and json.loads(text)["count"] == 0
    code, text = run(tmp_path, "cache", "purge", "--cache-dir", str(cache_dir))
    assert code == 0 and json.loads(text)["purged"] == 0
    assert not (tmp_path / "a").exists()


def test_cache_needs_cache_dir(tmp_path):
    for action in ("list", "purge", "prewarm"):
        code, text = run(tmp_path, "cache", action, "--dinit", "32")
        assert code == 1 and text == ""


def test_numeric_failure_exits_2(monkeypatch):
    def boom(args):
        raise NumericFailure("sum did not converge")

    # dispatch rebuilds the parser, which resolves handlers from cli globals
    monkeypatch.setattr(cli, "cmd_moments", boom)
    assert cli.dispatch(["moments", "--delta", "0.2"]) == 2


def test_arithmetic_error_exits_1_with_its_type(monkeypatch, capsys):
    # a closed form that leaves float range past every up-front check
    def boom(args):
        return math.exp(1000.0)

    monkeypatch.setattr(cli, "cmd_moments", boom)
    assert cli.dispatch(["moments", "--delta", "0.2"]) == 1
    assert capsys.readouterr().err == "error: OverflowError: math range error\n"


def test_singular_conditioning_exits_2(monkeypatch, capsys):
    # LinAlgErrors, hence also ValueErrors, yet numeric failures: the package's
    # own and a raw one from numpy
    import numpy as np
    from gkpphase import symplectic

    for error in (symplectic.SingularConditioningError([1]), np.linalg.LinAlgError("Singular matrix")):
        def boom(args, error=error):
            raise error

        monkeypatch.setattr(cli, "cmd_moments", boom)
        assert cli.dispatch(["moments", "--delta", "0.2"]) == 2
        assert capsys.readouterr().err == f"numeric failure: {error}\n"


def test_synth_branch_explosion_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # a RuntimeError traceback until the branch cap raised NumericFailure
    monkeypatch.setattr(polyalg, "MAX_BRANCHES", 0)
    code, text = run(tmp_path, "synth", "--level", "3", "--qubits", "2")
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: reduction branch explosion")


def test_every_package_error_is_a_numeric_failure_or_a_validation_error():
    # dispatch maps these two to exit 2 and 1; any other error type is a traceback
    classes = []
    for name in (*gkpphase.__all__, "cli"):
        module = importlib.import_module(f"gkpphase.{name}")
        classes += [c for c in vars(module).values()
                    if isinstance(c, type) and issubclass(c, BaseException)
                    and c.__module__ == module.__name__]
    assert {c.__name__ for c in classes} >= {"TruncationLeakageError", "SingularConditioningError"}
    assert [c for c in classes if not issubclass(c, (NumericFailure, ValueError))] == []
    assert issubclass(NumericFailure, RuntimeError) and NumericFailure.__module__ == "gkpphase"


def test_argument_file_defaults(tmp_path):
    args = tmp_path / "m.args"
    args.write_text("--gate\nTGKP\n--delta\n0.3\n--lam\n1.5\n")
    out = tmp_path / "m.json"
    code = cli.dispatch(["moments", f"@{args}", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert (data["gate"], data["delta"], data["lam"]) == ("TGKP", 0.3, 1.5)
    # a flag after the file wins
    code = cli.dispatch(["moments", f"@{args}", "--gate", "T3", "--out", str(out)])
    assert code == 0 and json.loads(out.read_text())["gate"] == "T3"


def test_argument_file_multi_values_and_spaced_path(tmp_path):
    # one argument per line: several values for a flag that takes several,
    # and an output path that keeps its space
    out = tmp_path / "with space" / "ft.csv"
    args = tmp_path / "ft.args"
    args.write_text(f"--delta\n0.3\n0.2\n--out\n{out}\n")
    assert cli.dispatch(["ft-bound", f"@{args}"]) == 0
    code, direct = run(tmp_path, "ft-bound", "--delta", "0.3", "0.2")
    assert code == 0 and out.read_text() == direct
    assert len(direct.splitlines()) == 4

    grid = ["--nbar-min", "3", "--nbar-max", "3", "--lam-count", "1", "--dinit", "64"]
    args.write_text("--gate\nT3\nI\n")
    code, both = run(tmp_path, "sweep", f"@{args}", *grid, name="c.csv")
    assert code == 0
    _, direct = run(tmp_path, "sweep", "--gate", "T3", "I", *grid, name="d.csv")
    assert both == direct
    assert [line.split(",")[0] for line in both.splitlines()[2:]] == ["T3", "I"]


def test_argument_file_holds_the_subcommand(tmp_path):
    args = tmp_path / "run.args"
    args.write_text("moments\n--delta\n0.2\n")
    code, via_file = run(tmp_path, f"@{args}", name="a")
    assert code == 0
    _, direct = run(tmp_path, "moments", "--delta", "0.2", name="b")
    assert via_file == direct


def test_missing_argument_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.args"
    assert cli.dispatch(["moments", f"@{missing}", "--delta", "0.2"]) == 1
    assert "absent.args" in capsys.readouterr().err


def test_config_flag_is_unrecognised(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("[moments]\ndelta = 0.2\n")
    # before the subcommand, the file path is read as the subcommand's name
    assert cli.dispatch(["--config", str(conf), "moments", "--delta", "0.2"]) == 1
    assert f"invalid choice: '{conf}'" in capsys.readouterr().err
    assert cli.dispatch(["moments", "--delta", "0.2", "--config", str(conf)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


# `cache` accepts a sweep's grid flags and reads none of them, so the flags of a
# sweep can prewarm its cache unchanged: its eigensystems depend only on
# --dinit.
UNREAD_FLAGS = {("cache", dest) for dest in (
    "nbar_min", "nbar_max", "nbar_step", "lam_min", "lam_max", "lam_count")}


def _args_read_by(handler) -> set[str]:
    """The `args.<name>` a handler reads, with `out` for an `_emit_*(args, ...)` call."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "args"}
    emits = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_emit_json", "_emit_csv")
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
                for node in ast.walk(tree))
    return reads | ({"out"} if emits else set())


def test_every_flag_is_read_by_its_handler():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions if a.dest != "help"}
        unread = dests - _args_read_by(p.get_default("func"))
        assert {(name, d) for d in unread} == {k for k in UNREAD_FLAGS if k[0] == name}, name


def test_synth_loads_neither_numpy_nor_scipy(tmp_path):
    # a fresh interpreter, since this test process has numpy loaded already
    script = f"""
import sys
import gkpphase
from gkpphase import cli
out = {str(tmp_path / "t3.json")!r}
assert cli.dispatch(["synth", "--level", "5"]) == 0
assert cli.dispatch(["synth", "--level", "3", "--out", out]) == 0
assert cli.dispatch(["synth", "--level", "4", "--start", "lift:" + out, "--out", out]) == 0
assert cli.dispatch(["synth", "--level", "2", "--qubits", "2", "--out", out]) == 0
assert gkpphase.polyalg.GATE_TABLE["T3"][1] == 3
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    # the submodules still load on attribute access
    proc = subprocess.run([sys.executable, "-c", "import gkpphase; print(gkpphase.fock.__name__)"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.stdout.strip() == "gkpphase.fock", proc.stderr

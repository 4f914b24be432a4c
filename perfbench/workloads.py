"""The benchmark workloads: what one operation is, its set-up, and its checks.

Each workload has a few operation kinds.  A cycle runs every kind once, in
an order drawn from the seed; a timed run repeats cycles until its time is
up.  The seed only permutes input order (cycle order, and for the in-process
sweep the order of gates and n-bar values handed to `channel.sweep`); it
never changes the set of inputs or the lambda order, which defines the
boundary flag, so the committed reference values hold for every seed.

numpy and gkpphase are imported inside functions, not here: for the
in-process workloads the import is part of the measured set-up.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
RTOL = 1e-12
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

# The criterion-08 grid: 3 gates x 9 n-bar x 16 lambda = 432 points.
GRID_GATES = ("T3", "TGKP", "I")
GRID_NBARS = tuple(float(n) for n in range(2, 11))
LAM_MIN, LAM_MAX, LAM_COUNT = 1.0, 5.0, 16
D_INIT = 256

COLD_GRID = ["--nbar-min", "2", "--nbar-max", "10", "--nbar-step", "4",
             "--lam-count", "8", "--dinit", str(D_INIT)]
# One worker, not nproc: at 2 workers each pool worker's OpenBLAS also starts
# 2 threads and the per-process wall time spread over 4.1-6.5 s on a 2-core
# box, too wide for the bound.  See NOTES.md.
COLD_WORKERS = 1
COLD_SWEEP = ["sweep", "--gate", "T3", *COLD_GRID, "--workers", str(COLD_WORKERS)]
PREWARM = ["cache", "prewarm", *COLD_GRID]

SYNTH_OPS = {
    "l7": ["synth", "--level", "7"],
    "l8_power": ["synth", "--level", "8"],
    "l8_lift": ["synth", "--level", "8", "--start"],  # + lift:<stored level 7>
    "cs": ["synth", "--level", "2", "--qubits", "2"],
    "ccz": ["synth", "--level", "1", "--qubits", "3"],
}

MAGIC_DELTAS = {"delta_0.24": 0.24, "delta_0.25": 0.25}
VACUUM_GRID = 500
POSTSELECT = (1.0, 0.2)


@dataclass
class Sample:
    kind: str
    seconds: float
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class Context:
    """State of one benchmark run, passed to every workload call."""

    root: Path
    work: Path
    rng: object
    trace: bool = False
    tracer: spans.Tracer | None = None
    processes: list[dict] = field(default_factory=list)
    import_s: float = 0.0
    _children: int = 0

    @property
    def env(self) -> dict:
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}",
                    TMPDIR=str(self.work))

    def run_child(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        """Run a Python child; returns (exit code, wall s, peak RSS MB, stdout, stderr)."""
        self._children += 1
        out_path = self.work / f"child-{self._children}.out"
        err_path = self.work / f"child-{self._children}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=self.work,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux and covers the child and the children
        # it waited for (pool workers), each taken alone.
        return (proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())

    def run_cli(self, argv: list[str], op: str):
        """One fresh `gkpphase` process; traced runs go through child.py."""
        if self.trace:
            span_file = self.work / f"spans-{self._children + 1}.json"
            result = self.run_child([str(HERE / "child.py"), "cli", str(span_file), op,
                                     "--", *argv])
            if span_file.exists():
                self.processes.append(json.loads(span_file.read_text()))
            return result
        return self.run_child(["-m", "gkpphase.cli", *argv])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


def close(a, b, rtol: float = RTOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def lam_key(lam: float) -> float:
    return round(float(lam), 9)


def check_sweep(rows: list[dict], attempted: int, ref: dict) -> list[str]:
    """Rows as dicts (gate, n_bar, lam, avg, t_state, flag) against the reference.

    `flag` is the CSV boundary column: "" off the per-n-bar optimum, "0" or
    "1" on it.  Points absent from `rows` are the dropped ones; they must be
    exactly the reference failures.
    """
    problems = []
    want = {(r["gate"], r["n_bar"], lam_key(r["lam"])): r for r in ref["rows"]}
    dropped = {(g, n, lam_key(lam)) for g, n, lam in ref["failures"]}
    seen = set()
    for r in rows:
        key = (r["gate"], r["n_bar"], lam_key(r["lam"]))
        exp = want.get(key)
        if exp is None:
            problems.append(f"unexpected row {key}")
            continue
        seen.add(key)
        for col in ("avg_infidelity", "t_state_infidelity"):
            if not close(r[col], exp[col]):
                problems.append(f"{key} {col} {r[col]!r} != {exp[col]!r}")
        if r["flag"] != exp["flag"]:
            problems.append(f"{key} optimum flag {r['flag']!r} != {exp['flag']!r}")
    missing = set(want) - seen
    if missing:
        problems.append(f"{len(missing)} reference rows missing, e.g. {sorted(missing)[0]}")
    if attempted != len(want) + len(dropped):
        problems.append(f"{attempted} points attempted, reference has {len(want) + len(dropped)}")
    return problems


def sweep_row_dicts(result) -> list[dict]:
    return [
        {"gate": r.gate, "n_bar": r.n_bar, "lam": r.lam,
         "avg_infidelity": r.avg_infidelity, "t_state_infidelity": r.t_state_infidelity,
         "flag": ("1" if r.boundary_flag else "0") if r.is_optimal else ""}
        for r in result.rows
    ]


def csv_row_dicts(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [
        {"gate": r["gate"], "n_bar": float(r["n_bar"]), "lam": float(r["lam"]),
         "avg_infidelity": float(r["avg_infidelity"]),
         "t_state_infidelity": float(r["t_state_infidelity"]) if r["t_state_infidelity"] else None,
         "flag": r["boundary_flag"]}
        for r in csv.DictReader(lines)
    ]


def fractions_of(poly) -> object:
    """Exact value of a synth `polynomial` field, whatever its string form."""
    if isinstance(poly, dict) and "coefficients" in poly:
        coeffs = [Fraction(c) for c in poly["coefficients"]]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs
    return {k: Fraction(v) for k, v in poly.items() if Fraction(v) != 0}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def lam_grid(count: int = LAM_COUNT) -> list[float]:
    import numpy as np

    return np.linspace(LAM_MIN, LAM_MAX, count).tolist()


class SweepGrid:
    """The criterion-08 grid through `channel.sweep`, in process, workers=1."""

    name = "sweep-grid"
    kinds = ("grid",)
    in_process = True

    def __init__(self):
        self.ref = load_reference("sweep_grid")

    def warm(self) -> list[str]:
        """First engine build: fills the eigensystem caches."""
        from gkpphase import channel, fock

        res = channel.sweep(["T3"], [GRID_NBARS[0]], [LAM_MIN], fock.TruncationPlan(d_init=D_INIT))
        (row,) = sweep_row_dicts(res)
        key = ("T3", GRID_NBARS[0], lam_key(LAM_MIN))
        exp = next(r for r in self.ref["rows"] if (r["gate"], r["n_bar"], lam_key(r["lam"])) == key)
        return [f"warm-up point {key} differs from the reference"
                for col in ("avg_infidelity", "t_state_infidelity")
                if not close(row[col], exp[col])]

    def op(self, ctx: Context, kind: str) -> Sample:
        from gkpphase import channel, fock

        gates, nbars = list(GRID_GATES), list(GRID_NBARS)
        ctx.rng.shuffle(gates)
        ctx.rng.shuffle(nbars)
        lams = lam_grid()
        t0 = time.perf_counter()
        res = channel.sweep(gates, nbars, lams, fock.TruncationPlan(d_init=D_INIT), workers=1)
        seconds = time.perf_counter() - t0
        attempted = len(gates) * len(nbars) * len(lams)
        problems = check_sweep(sweep_row_dicts(res), attempted, self.ref)
        failed = sorted(res.failures)
        if failed != sorted((g, n, lam) for g, n, lam in self.ref["failures"]):
            problems.append(f"failure set differs: {len(failed)} failed points")
        return Sample(kind, seconds, problems=problems,
                      info={"points": attempted, "failed_points": len(res.failures)})


class SweepCold:
    """Fresh `gkpphase sweep` processes, alternating without and with a prewarmed cache."""

    name = "sweep-cold"
    kinds = ("uncached", "cached")
    in_process = False

    def __init__(self):
        self.ref = load_reference("sweep_cold")
        self.cache_dir: Path | None = None

    def setup(self, ctx: Context) -> tuple[float, list[str]]:
        """One `cache prewarm` into a fresh directory; the last one is kept."""
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=ctx.work))
        rc, seconds, _rss, _out, err = ctx.run_cli([*PREWARM, "--cache-dir", str(cache)], "setup")
        problems = [] if rc == 0 and any(cache.glob("*.opc")) else [f"prewarm exit {rc}: {err[-300:]}"]
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = cache
        return seconds, problems

    def op(self, ctx: Context, kind: str) -> Sample:
        out = ctx.work / "cold.csv"
        argv = [*COLD_SWEEP, "--out", str(out)]
        if kind == "cached":
            argv += ["--cache-dir", str(self.cache_dir)]
        out.unlink(missing_ok=True)
        rc, seconds, rss, _stdout, err = ctx.run_cli(argv, kind)
        attempted = len(self.ref["rows"]) + len(self.ref["failures"])
        # Exit code 2 (numeric failure) is accepted only when the output is
        # complete: a CLI that reports its dropped points that way still
        # passes if every printed row and the dropped set are right.
        if rc not in (0, 2) or not out.exists():
            return Sample(kind, seconds, rss, [f"exit {rc}: {err[-300:]}"],
                          {"points": attempted, "failed_points": attempted})
        rows = csv_row_dicts(out.read_text())
        return Sample(kind, seconds, rss, check_sweep(rows, attempted, self.ref),
                      {"points": attempted, "failed_points": attempted - len(rows)})


class Synth:
    """Fresh `gkpphase synth` processes up the hierarchy, plus CS and CCZ."""

    name = "synth"
    kinds = tuple(SYNTH_OPS)
    in_process = False

    def __init__(self):
        self.ref = load_reference("synth")
        self.stored: Path | None = None

    def _run(self, ctx: Context, op: str, kind: str, argv: list[str]):
        rc, seconds, rss, out, err = ctx.run_cli(argv, op)
        if rc != 0:
            return None, Sample(kind, seconds, rss, [f"exit {rc}: {err[-300:]}"])
        data = json.loads(out)
        exp = self.ref[kind]
        problems = []
        if fractions_of(data["polynomial"]) != fractions_of(exp["polynomial"]):
            problems.append(f"{kind}: polynomial {data['polynomial']} != reference")
        if data["degree"] != exp["degree"]:
            problems.append(f"{kind}: degree {data['degree']} != {exp['degree']}")
        return data, Sample(kind, seconds, rss, problems)

    def setup(self, ctx: Context) -> tuple[float, list[str]]:
        """Write the stored level-7 polynomial, the input of the lift start.

        The file holds the inner "polynomial" object: `--start lift:` reads
        its "coefficients" key, which raw `synth` output lacks.
        """
        t0 = time.perf_counter()
        data, sample = self._run(ctx, "setup", "l7", SYNTH_OPS["l7"])
        if data is None:
            return time.perf_counter() - t0, sample.problems
        stored = ctx.work / "level7.json"
        stored.write_text(json.dumps(data["polynomial"]))
        self.stored = stored
        return time.perf_counter() - t0, sample.problems

    def op(self, ctx: Context, kind: str) -> Sample:
        argv = list(SYNTH_OPS[kind])
        if kind == "l8_lift":
            argv.append(f"lift:{self.stored}")
        return self._run(ctx, kind, kind, argv)[1]


class MagicCompare:
    """Criterion 10: T3 T-state infidelity against the vacuum-state baseline."""

    name = "magic-compare"
    kinds = tuple(MAGIC_DELTAS)
    in_process = True

    def __init__(self):
        self.ref = load_reference("magic_compare")

    @staticmethod
    def compute(delta: float) -> dict:
        from gkpphase import channel, fock

        t3 = channel.GATE_TABLE["T3"][0]
        target = min(
            1.0 - channel.t_state_fidelity(channel.ChannelConfig(
                gate=t3, params=fock.GkpParams(delta, lam),
                plan=fock.TruncationPlan(d_init=D_INIT), target="T3"))
            for lam in lam_grid()
        )
        match = channel.vacuum_match_fraction(delta, target, grid=VACUUM_GRID)
        vacuum = []
        for p in POSTSELECT:
            res = channel.vacuum_state_method(channel.VacuumMethodConfig(
                delta=delta, grid=VACUUM_GRID, postselect_fraction=p))
            vacuum.append([p, res.infidelity, res.acceptance_probability])
        return {"t_state_infidelity": target, "match_fraction": match, "vacuum": vacuum}

    def check(self, kind: str, got: dict) -> list[str]:
        exp = self.ref[kind]
        problems = [f"{kind} {key} {got[key]!r} != {exp[key]!r}"
                    for key in ("t_state_infidelity", "match_fraction")
                    if not close(got[key], exp[key])]
        for g, e in zip(got["vacuum"], exp["vacuum"]):
            if not all(close(a, b) for a, b in zip(g, e)):
                problems.append(f"{kind} vacuum p={e[0]}: {g} != {e}")
        return problems

    def warm(self) -> list[str]:
        """The first operation, at delta 0.25."""
        return self.check("delta_0.25", self.compute(MAGIC_DELTAS["delta_0.25"]))

    def op(self, ctx: Context, kind: str) -> Sample:
        t0 = time.perf_counter()
        got = self.compute(MAGIC_DELTAS[kind])
        return Sample(kind, time.perf_counter() - t0, problems=self.check(kind, got))


WORKLOADS = {w.name: w for w in (SweepGrid, SweepCold, Synth, MagicCompare)}


def in_process_setup(workload, tracer: spans.Tracer | None = None) -> tuple[float, float, list[str]]:
    """Import the package and run the warm-up; returns (set-up s, import s, problems).

    With a tracer, its wrappers go in between the import and the warm-up.
    """
    t0 = time.perf_counter()
    import gkpphase.cli  # noqa: F401  (the whole package, as a user's process loads it)

    import_s = time.perf_counter() - t0
    if tracer is not None:
        spans.install_layer_wrappers(tracer)
    problems = workload.warm()
    return time.perf_counter() - t0, import_s, problems

"""Regenerate the committed reference values in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs the program at the current checkout, in process and at full float
precision, on exactly the inputs the workloads use.  The checks compare
against these files to 1e-12 relative (exactly, for synthesis), so rerun
this only when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def sweep_reference(gates, nbars, lams) -> dict:
    from gkpphase import channel, fock

    res = channel.sweep(gates, nbars, lams, fock.TruncationPlan(d_init=wl.D_INIT))
    return {
        "rows": wl.sweep_row_dicts(res),
        "failures": sorted([g, n, lam] for g, n, lam in res.failures),
    }


def synth_reference() -> dict:
    from gkpphase import cli

    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        stored = Path(tmp) / "level7.json"
        for kind, argv in wl.SYNTH_OPS.items():
            argv = list(argv)
            if kind == "l8_lift":
                argv.append(f"lift:{stored}")
            path = Path(tmp) / f"{kind}.json"
            if cli.dispatch([*argv, "--out", str(path)]) != 0:
                raise SystemExit(f"synth {kind} failed")
            data = json.loads(path.read_text())
            if kind == "l7":
                stored.write_text(json.dumps(data["polynomial"]))
            out[kind] = {"polynomial": data["polynomial"], "degree": data["degree"]}
    if out["l8_power"] != out["l8_lift"]:
        raise SystemExit("level-8 power and lift starts disagree")
    return out


def main() -> None:
    lams = wl.lam_grid()
    refs = {
        "sweep_grid": sweep_reference(list(wl.GRID_GATES), list(wl.GRID_NBARS), lams),
        # the points workloads.COLD_GRID spans
        "sweep_cold": sweep_reference(["T3"], [2.0, 6.0, 10.0], wl.lam_grid(8)),
        "synth": synth_reference(),
        "magic_compare": {k: wl.MagicCompare.compute(d) for k, d in wl.MAGIC_DELTAS.items()},
    }
    for name, data in refs.items():
        path = wl.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

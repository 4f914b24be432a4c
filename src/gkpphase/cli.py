"""Command-line front end.

Subcommands: synth, verify-circuits, sweep, vacuum, moments, ft-bound,
twirl-density, cache.  Outputs are written atomically (temp file + rename),
carry a schema_version field, and are deterministic for a fixed
configuration (and, for verify-circuits, --seed).  An argument @FILE is
replaced by the lines of FILE, one argument per line.  Exit codes: 0 success,
1 validation error, 2 numeric failure: a `gkpphase.NumericFailure`, or numpy's
`LinAlgError` (for sweep: some points failed; the CSV holds the rest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import NumericFailure, polyalg, write_atomically  # numeric modules: inside the commands

SCHEMA_VERSION = 1
MAX_GRID_POINTS = 10**6  # longer n_bar or lam axes, and larger N x N grids, are refused, not built
COARSE_GRID = 100  # vacuum warns below this many syndrome cells per axis
# synth limits, measured on a shared 2-core Xeon (Python 3.11).  Level 11 takes
# 19 s and 179 MB; level 12 ran 302 s to a 1.36 GB peak and then could not print
# its branch log, whose multipliers exceed Python's 4300-digit int-to-str limit.
MAX_SYNTH_LEVEL = 11
# The reduction walks (2^(m-1)+1)^N monomials: (N, m) = (2, 7)'s 4225 take 5.7 s,
# (2, 8)'s 16641 ran on past 60 s and (3, 5)'s 4913 ran out of 2 GB in 24 s.  The
# phase check's (2^m+2)^N points are held to MAX_GRID_POINTS: (9, 1)'s 4^9 take
# 3.9 s, (10, 1)'s 4^10 10.9 s, and (20, 1) ran on past 20 s.
MAX_SYNTH_MONOMIALS = 4225


def _atomic_write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(target, text.encode())


def _emit_json(args, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _atomic_write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, header: list[str], rows: list[list[str]]) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header), *map(",".join, rows)]
    _atomic_write(args.out, "\n".join(lines) + "\n")


def _count(flag: str, n: int) -> None:
    """Refuse a count flag's value below 1."""
    if n < 1:
        raise ValueError(f"{flag} must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _poly_json(poly: polyalg.RationalPolynomial) -> dict:
    return {
        "coefficients": [f"{c.numerator}/{c.denominator}" for c in poly.coeffs],
        "pretty": str(poly),
        "degree": poly.degree,
    }


def _multi_poly_json(poly: polyalg.RationalPolynomial) -> dict:
    """Terms keyed by comma-joined exponents, as "num/den" strings."""
    return {",".join(map(str, exp)): f"{c.numerator}/{c.denominator}"
            for exp, c in sorted(poly.terms.items())}


def _gate_name(level: int, n_qubits: int) -> str:
    single = {1: "Z", 2: "S", 3: "T", 4: "T^(1/2)", 5: "T^(1/4)", 6: "T^(1/8)"}
    if n_qubits == 1:
        return single.get(level, f"Lambda_{level}")
    if n_qubits == 2 and level == 2:
        return "CS"
    if n_qubits == 3 and level == 1:
        return "CCZ"
    return f"C^{n_qubits-1}Lambda_{level}"


def _lift_input(path: str) -> polyalg.RationalPolynomial:
    """Polynomial stored by `synth --out`, or its inner "polynomial" object."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("polynomial"), dict):
        data = data["polynomial"]
    coeffs = data.get("coefficients") if isinstance(data, dict) else None
    try:
        if isinstance(coeffs, list):
            return polyalg.RationalPolynomial([Fraction(c) for c in coeffs])
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValueError(
        f"{path}: expected single-qubit synth output or its \"polynomial\" "
        "object, with a \"coefficients\" list of rationals"
    )


def _synth_fits(n: int, m: int) -> None:
    """Refuse, from (N, m) alone, a synth the limits above say cannot finish."""
    k = min(n, MAX_GRID_POINTS.bit_length())  # both bases are >= 2, so 20 factors exceed both bounds
    if (m > MAX_SYNTH_LEVEL or (2 ** (m - 1) + 1) ** k > MAX_SYNTH_MONOMIALS
            or (2**m + 2) ** k > MAX_GRID_POINTS):
        raise ValueError(f"synth --level {m} --qubits {n} cannot finish: it needs level <= {MAX_SYNTH_LEVEL}, "
                         f"(2^(m-1)+1)^N <= {MAX_SYNTH_MONOMIALS} and (2^m+2)^N <= {MAX_GRID_POINTS}")


def cmd_synth(args) -> int:
    m = args.level
    _count("--level", m)
    _count("--qubits", args.qubits)
    _synth_fits(args.qubits, m)
    if args.qubits > 1:
        if args.start != "power":
            raise ValueError(f"--start {args.start!r}: with --qubits > 1 only the power start exists")
        outcome = polyalg.multivariate_reduce(polyalg.control_gate_start(args.qubits, m))
        head = {"qubits": args.qubits}
        to_json, where = _multi_poly_json, lambda e: {"monomial": list(e)}
    else:
        if args.start.startswith("lift:"):
            prev = _lift_input(args.start.split(":", 1)[1])
            start = polyalg.lift_representation(prev, m - 1)
        elif args.start == "power":
            start = polyalg.control_gate_start(1, m)
        else:
            raise ValueError(f"unknown start spec {args.start!r}")
        outcome = polyalg.reduce(start)
        # The same polynomial read with the half number operator as argument
        # implements the Hadamard-hierarchy gate of the same level (name only;
        # there is no biasing scheme, hence no channel support, for that family).
        head = {"number_operator_alias": "H" if m == 1 else f"H^(1/{2 ** (m - 1)})"}
        to_json, where = _poly_json, lambda e: {"degree": e[0]}
    if not polyalg.verify_gate(outcome.minimum, m):
        raise NumericFailure("reduced polynomial failed the gate phase check")
    _emit_json(
        args,
        {
            "gate": _gate_name(m, args.qubits),
            "level": m,
            **head,
            "polynomial": to_json(outcome.minimum),
            "minima": [to_json(p) for p in outcome.minima],
            "tied": outcome.tied,
            "degree": outcome.minimum.degree,
            "branch_log": [
                {**where(s.monomial), "multiplier": s.multiplier, "boundary": s.boundary}
                for s in outcome.branch_log
            ],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# verify-circuits
# ---------------------------------------------------------------------------


def cmd_verify_circuits(args) -> int:
    from . import symplectic

    _count("--nogo-circuits", args.nogo_circuits)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    lams = (0.5, 1.0, 2.0, 3.0, 7.0)
    rows = [
        *((f"rearrangement-lam={lam}", symplectic.morphing_identity_residual(lam), 1e-12)
          for lam in lams),
        # breeding from asymmetry lam >= 1 is the identity at 1/lam: only a new 1/lam gets a row
        *((f"breeding-lam={lam}", symplectic.morphing_identity_residual(1.0 / lam), 1e-12)
          for lam in lams if 1.0 / lam not in lams),
        ("biasing-vs-conditioning", max(map(symplectic.biasing_identity_residual, lams)), 1e-12),
        (f"nogo-sweep-{args.nogo_circuits}-circuits",
         symplectic.nogo_residual(args.nogo_circuits, args.seed), 1e-10),
    ]
    checks = [{"name": name, "max_residual": residual, "tolerance": tol, "pass": residual <= tol}
              for name, residual, tol in rows]
    all_pass = all(c["pass"] for c in checks)
    _emit_json(args, {"checks": checks, "all_pass": all_pass})
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# sweep / vacuum
# ---------------------------------------------------------------------------


def _nbar_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo + k·step for k = 0, 1, ... through hi, each rounded to 9 decimals."""
    if not lo > 0:
        raise ValueError(f"--nbar-min must be positive, got {lo}")
    if step <= 0:
        raise ValueError(f"--nbar-step must be positive, got {step}")
    count = (hi + 1e-9 - lo) / step + 1
    if not math.isfinite(count) or count > MAX_GRID_POINTS:
        raise ValueError(f"--nbar-min {lo} --nbar-max {hi} --nbar-step {step} give "
                         f"{count:.3g} n_bar points; at most {MAX_GRID_POINTS} are allowed")
    return [round(lo + k * step, 9) for k in range(math.floor(count))]


def _square_grid_side(flag: str, n: int) -> int:
    """The side N of an N x N grid, refused below 2 or above MAX_GRID_POINTS points."""
    if n < 2 or n * n > MAX_GRID_POINTS:
        raise ValueError(f"{flag} must lie in [2, {math.isqrt(MAX_GRID_POINTS)}] "
                         f"(an N x N grid of at most {MAX_GRID_POINTS} points), got {n}")
    return n


def cmd_sweep(args) -> int:
    import numpy as np
    from . import channel, fock

    _count("--workers", args.workers)
    n_bars = _nbar_grid(args.nbar_min, args.nbar_max, args.nbar_step)
    if not 1 <= args.lam_count <= MAX_GRID_POINTS:
        raise ValueError(f"--lam-count must lie in [1, {MAX_GRID_POINTS}], got {args.lam_count}")
    if not (math.isfinite(args.lam_min) and math.isfinite(args.lam_max)):
        raise ValueError(f"--lam-min and --lam-max must be finite, "
                         f"got {args.lam_min}, {args.lam_max}")
    lams = np.linspace(args.lam_min, args.lam_max, args.lam_count).tolist()
    for lam in (lams[0], lams[-1]) if n_bars else ():  # the largest lattices: last n_bar, a lam end
        try:
            terms = math.prod(2 * cut + 1 for cut in fock.default_lattice_cut(
                fock.GkpParams.from_n_bar(n_bars[-1], lam).delta, lam))
        except ArithmeticError:  # 1 - exp(-2 delta^2) rounds to 0, or a cut overflows
            terms = math.inf
        if terms > MAX_GRID_POINTS:
            raise ValueError(f"n_bar {n_bars[-1]:g} at lam {lam:g} needs over {MAX_GRID_POINTS} lattice terms")
    result = channel.sweep(args.gate, n_bars, lams, fock.TruncationPlan(d_init=args.dinit),
                           workers=args.workers, cache_dir=args.cache_dir)
    header = ["gate", "n_bar", "delta", "delta_db", "lam",
              "avg_infidelity", "t_state_infidelity", "boundary_flag"]
    rows = [[r.gate, f"{r.n_bar:.6g}", f"{r.delta:.12g}", f"{r.delta_db:.12g}", f"{r.lam:.12g}",
             f"{r.avg_infidelity:.12e}",
             "" if r.t_state_infidelity is None else f"{r.t_state_infidelity:.12e}",
             ("1" if r.boundary_flag else "0") if r.is_optimal else ""]
            for r in result.rows]
    _emit_csv(args, header, rows)
    if result.failures:
        (gate, nb, lam), reason = next(iter(result.failures.items()))
        print(f"sweep: {len(result.failures)} of {len(result.rows) + len(result.failures)} "
              f"points failed; first: {gate} n_bar={nb:g} lam={lam:.12g}: {reason}", file=sys.stderr)
        return 2
    return 0


def cmd_vacuum(args) -> int:
    from . import channel

    cfg = channel.VacuumMethodConfig(delta=args.delta, grid=_square_grid_side("--grid", args.grid),
                                     postselect_fraction=args.postselect)
    res = channel.vacuum_state_method(cfg)
    if args.grid < COARSE_GRID:
        print(f"vacuum: warning: --grid {args.grid} is below {COARSE_GRID} cells "
              "per axis; the syndrome grid is coarse", file=sys.stderr)
    _emit_csv(args, ["delta", "p", "infidelity", "acceptance_prob"],
              [[f"{args.delta:.12g}", f"{args.postselect:.12g}",
                f"{res.infidelity:.12e}", f"{res.acceptance_probability:.12e}"]])
    return 0


# ---------------------------------------------------------------------------
# moments / ft-bound / twirl-density
# ---------------------------------------------------------------------------


def cmd_moments(args) -> int:
    from . import analytic, symplectic

    poly, _ = polyalg.GATE_TABLE[args.gate]
    bias = symplectic.BiasParams(args.delta, args.lam)
    dq, dp = bias.delta_q, bias.delta_p
    ms = analytic.moments(poly, dq, dp)
    _emit_json(
        args,
        {
            "gate": args.gate,
            "delta": args.delta,
            "lam": args.lam,
            "delta_q": dq,
            "delta_p": dp,
            "e_vq2": ms.e_vq2,
            "e_vp2": ms.e_vp2,
            "e_vqvp": ms.e_vqvp,
        },
    )
    return 0


def cmd_ft_bound(args) -> int:
    from . import analytic

    rows = [[f"{b.delta:.12g}", f"{b.lam_of_delta:.12g}", f"{b.f_lower_bound:.12e}",
             "1" if b.validity else "0"] for b in map(analytic.ft_lower_bound, args.delta)]
    _emit_csv(args, ["delta", "lam_of_delta", "f_lower_bound", "validity"], rows)
    return 0


def cmd_twirl_density(args) -> int:
    import numpy as np
    from . import analytic

    points = _square_grid_side("--points", args.points)
    if not 0 < args.span < math.inf:
        raise ValueError(f"--span must be positive and finite, got {args.span}")
    # the largest square the density takes: (v_p - mean_p)^2 at the corner (-span, span)
    offset = 1.5 * args.span + args.span * args.span / math.sqrt(2.0)
    if not math.pi * offset * offset < math.inf:
        raise ValueError(f"--span {args.span:g} takes (v_p - mean_p)^2 out of float range")
    dens = analytic.TwirledCubicDensity(args.delta, args.lam)
    axis = np.linspace(-args.span, args.span, points)  # the same for v_q and v_p
    vq, vp = np.meshgrid(axis, axis, indexing="ij")  # rows in v_q order, v_p within
    vals = dens(vq, vp)
    rows = [[f"{q:.9g}", f"{p:.9g}", f"{val:.12e}"]
            for q, p, val in zip(vq.ravel(), vp.ravel(), vals.ravel())]
    _emit_csv(args, ["v_q", "v_p", "density"], rows)
    return 0


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cmd_cache(args) -> int:
    from . import fock

    if args.cache_dir is None:
        raise ValueError(f"cache {args.action} needs --cache-dir")
    # the two eigensystems a sweep reads, in the order its engines solve them
    dims = fock.TruncationPlan(d_init=args.dinit).eigensystem_dims
    t0 = time.time()
    for d, rows in dims:
        fock.q_eigensystem(d, rows, args.cache_dir)
    # two entries (values, vectors) per eigensystem
    _emit_json(args, {"prewarmed": 2 * len(dims), "seconds": time.time() - t0})
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gkpphase", description=__doc__, fromfile_prefix_chars="@")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    # A sweep's grid and truncation.  `cache` takes them too, so a sweep's flags
    # prewarm its cache unchanged; its eigensystems depend only on --dinit.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--nbar-min", type=float, default=2.0)
    grid.add_argument("--nbar-max", type=float, default=12.0)
    grid.add_argument("--nbar-step", type=float, default=1.0)
    grid.add_argument("--lam-min", type=float, default=1.0)
    grid.add_argument("--lam-max", type=float, default=5.0)
    grid.add_argument("--lam-count", type=int, default=16)
    grid.add_argument("--dinit", type=int, default=256)
    grid.add_argument("--cache-dir", default=None, help="operator cache directory")

    p = sub.add_parser("synth", help="minimal polynomial phase gate synthesis")
    common(p)
    p.add_argument("--level", type=int, required=True, help="hierarchy level m >= 1")
    p.add_argument("--qubits", type=int, default=1)
    p.add_argument("--start", default="power", help="power | lift:<poly.json>")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify-circuits", help="symplectic identity suite + no-go sweep")
    common(p)
    p.add_argument("--nogo-circuits", type=int, default=100)
    p.add_argument("--seed", type=int, default=12345, help="seed of the random no-go circuits")
    p.set_defaults(func=cmd_verify_circuits)

    p = sub.add_parser("sweep", parents=[grid],
                       help="(n_bar, lam) fidelity sweep for one or more gates")
    common(p)
    p.add_argument("--gate", required=True, nargs="+", choices=sorted(polyalg.GATE_TABLE),
                   help="gates sharing one engine per (n_bar, lam); rows in this order")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("vacuum", help="vacuum-state magic state baseline")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, default=500)
    p.add_argument("--postselect", type=float, default=1.0)
    p.set_defaults(func=cmd_vacuum)

    p = sub.add_parser("moments", help="closed-form twirled error moments")
    common(p)
    p.add_argument("--gate", default="T3", choices=sorted(polyalg.GATE_TABLE))
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("ft-bound", help="fault-tolerance fidelity lower bound")
    common(p)
    p.add_argument("--delta", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_ft_bound)

    p = sub.add_parser("twirl-density", help="cubic twirled density grid CSV")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--span", type=float, default=0.5)
    p.add_argument("--points", type=int, default=81)
    p.set_defaults(func=cmd_twirl_density)

    p = sub.add_parser("cache", parents=[grid], help="operator cache prewarming")
    common(p)
    p.add_argument("action", choices=("prewarm",),
                   help="needs --cache-dir; reads only --dinit of the sweep flags")
    p.set_defaults(func=cmd_cache)

    return top


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # Numeric failures come before ValueError, since numpy's LinAlgError is one.  An
    # except clause is evaluated only when an exception reaches it, so LinAlgError is
    # read only in a process that has loaded numpy, and synth never loads it.
    try:
        return args.func(args)
    except (NumericFailure, sys.modules["numpy"].linalg.LinAlgError if "numpy" in sys.modules
            else NumericFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # an input that takes a closed form out of float range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

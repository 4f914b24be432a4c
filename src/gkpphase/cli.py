"""Command-line front end.

Subcommands: synth, verify-circuits, sweep, vacuum, moments, ft-bound,
twirl-density, cache.  Outputs are written atomically (temp file + rename),
carry a schema_version field, and are deterministic for a fixed
configuration (and, for verify-circuits, --seed).  Exit codes: 0 success,
1 validation error, 2 numeric failure (for sweep: some points failed; the
CSV holds the rest).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import polyalg, write_atomically  # numeric modules: inside the commands

SCHEMA_VERSION = 1
MAX_GRID_POINTS = 10**6  # longer n_bar or lam axes, and larger N x N grids, are refused, not built


class NumericFailure(RuntimeError):
    pass


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


def _emit_csv(args, header: list[str], rows: list[list]) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    _atomic_write(args.out, "\n".join(lines) + "\n")


def _subcommand_flags(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's flags, by option string."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: a for a in p._actions for opt in a.option_strings}
            for name, p in sub.choices.items()}


def _count(flag: str, n: int) -> None:
    """Refuse a count flag's value below 1."""
    if n < 1:
        raise ValueError(f"{flag} must be at least 1, got {n}")


def _load_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Apply key=value defaults from --config <file>.

    A key of the subcommand's own section is always passed on, so one the
    subcommand does not take is an error; a [global] key only reaches the
    subcommands that take that flag, and one that no subcommand takes is an
    error.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        parser.error("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        parser.error(f"cannot read --config file: {exc}")
    section = rest[0] if rest and not rest[0].startswith("-") else "global"
    table = _subcommand_flags(parser)
    flags = table.get(section, {})
    injected: list[str] = []
    for sec in ("global", section):
        if cp.has_section(sec):
            for key, val in cp.items(sec):
                flag = f"--{key.replace('_', '-')}"
                if sec == "global" and not any(flag in f for f in table.values()):
                    parser.error(f"[global] key {key!r} is no subcommand's flag")
                if flag in rest or (sec == "global" and flag not in flags):
                    continue
                # one token per value, so a path with spaces stays whole
                multi = flag in flags and flags[flag].nargs == "+"
                injected.extend([flag, *val.split()] if multi else [flag, val])
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return injected + rest


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _poly_json(poly: polyalg.RationalPolynomial) -> dict:
    return {
        "coefficients": poly.fraction_strings(),
        "pretty": str(poly),
        "degree": poly.degree,
    }


def _gate_name(level: int, n_qubits: int = 1) -> str:
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


def cmd_synth(args) -> int:
    m = args.level
    _count("--qubits", args.qubits)
    if args.qubits > 1:
        if args.start != "power":
            raise ValueError(f"--start {args.start!r}: with --qubits > 1 only the power start exists")
        start = polyalg.control_gate_start(args.qubits, m)
        outcome = polyalg.multivariate_reduce(start)
        terms = {
            ",".join(map(str, exp)): f"{c.numerator}/{c.denominator}"
            for exp, c in sorted(outcome.minimum.terms.items())
        }
        _emit_json(
            args,
            {
                "gate": _gate_name(m, args.qubits),
                "qubits": args.qubits,
                "level": m,
                "polynomial": terms,
                "degree": outcome.minimum.total_degree,
                "branch_log": [
                    {"monomial": list(e), "boundary": True} for e in outcome.tie_monomials
                ],
            },
        )
        return 0
    if args.start.startswith("lift:"):
        prev = _lift_input(args.start.split(":", 1)[1])
        start = polyalg.lift_representation(prev, m - 1)
    elif args.start == "power":
        start = polyalg.starting_representation(m)
    else:
        raise ValueError(f"unknown start spec {args.start!r}")
    outcome = polyalg.reduce(start)
    rep = outcome.minima[0]
    if not polyalg.verify_gate(rep, m):
        raise NumericFailure("reduced polynomial failed the gate phase check")
    # The same polynomial read with the half number operator as argument
    # implements the Hadamard-hierarchy gate of the same level (name only;
    # there is no biasing scheme, hence no channel support, for that family).
    h_alias = "H" if m == 1 else f"H^(1/{2 ** (m - 1)})"
    _emit_json(
        args,
        {
            "gate": _gate_name(m),
            "number_operator_alias": h_alias,
            "level": m,
            "polynomial": _poly_json(rep),
            "minima": [_poly_json(p) for p in outcome.minima],
            "tied": outcome.tied,
            "degree": rep.degree,
            "branch_log": [
                {"degree": s.degree, "multiplier": s.multiplier, "boundary": s.boundary}
                for s in outcome.branch_log
            ],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# verify-circuits
# ---------------------------------------------------------------------------


def cmd_verify_circuits(args) -> int:
    import numpy as np
    from . import symplectic

    _count("--nogo-circuits", args.nogo_circuits)
    checks = []

    def add(name, residual, tol):
        checks.append(
            {
                "name": name,
                "max_residual": float(residual),
                "tolerance": tol,
                "pass": bool(residual <= tol),
            }
        )

    add("q-steane-rewrite", symplectic.qsteane_identity_residual(), 1e-12)
    for lam in (0.5, 1.0, 2.0, 3.0, 7.0):
        add(f"rearrangement-lam={lam}", symplectic.morphing_identity_residual(lam), 1e-12)
    for lam in (1.0, 2.0, 3.0, 7.0):
        add(f"breeding-lam={lam}", symplectic.breeding_identity_residual(lam), 1e-12)

    # biasing_update against Schur-complement conditioning, both circuit forms
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 3.0, 7.0):
        delta = 0.21
        dq, dp = symplectic.biasing_update(delta, lam)
        state = symplectic.CovState(
            np.zeros(4), np.diag([delta**2, delta**2 / lam, delta**2, lam * delta**2])
        ).propagate(symplectic.cx(1.0, 0, 1, 2))
        cond, _ = symplectic.condition_on_homodyne(state, [1])
        worst = max(
            worst,
            abs(cond.Sigma[0, 0] - dq**2),
            abs(cond.Sigma[1, 1] - dp**2),
            abs(cond.Sigma[0, 1]),
        )
        state2 = symplectic.CovState(np.zeros(4), delta**2 * np.eye(4)).propagate(
            symplectic.cx(math.sqrt(lam), 0, 1, 2)
        )
        cond2, _ = symplectic.condition_on_homodyne(state2, [1])
        worst = max(worst, abs(cond2.Sigma[0, 0] - dq**2), abs(cond2.Sigma[1, 1] - dp**2))
    add("biasing-vs-conditioning", worst, 1e-12)

    rng = np.random.default_rng(args.seed)
    worst_rel = 0.0
    for _ in range(args.nogo_circuits):
        n_anc = int(rng.integers(1, 5))
        circ = symplectic.random_circuit(1 + n_anc, int(rng.integers(4, 12)), rng)
        for delta in (0.1, 0.25, 0.5):
            det = symplectic.nogo_check(circ, n_anc, delta)
            worst_rel = max(worst_rel, abs(det - delta**4) / delta**4)
    add(f"nogo-sweep-{args.nogo_circuits}-circuits", worst_rel, 1e-10)

    all_pass = all(c["pass"] for c in checks)
    _emit_json(args, {"checks": checks, "all_pass": all_pass})
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# sweep / vacuum
# ---------------------------------------------------------------------------


def _nbar_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... through hi, accumulated as nb += step."""
    if step <= 0:
        raise ValueError(f"--nbar-step must be positive, got {step}")
    count = (hi + 1e-9 - lo) / step + 1
    if not math.isfinite(count) or count > MAX_GRID_POINTS:
        raise ValueError(f"--nbar-min {lo} --nbar-max {hi} --nbar-step {step} give "
                         f"{count:.3g} n_bar points; at most {MAX_GRID_POINTS} are allowed")
    n_bars = []
    nb = lo
    while nb <= hi + 1e-9:
        n_bars.append(round(nb, 9))
        if nb + step == nb:
            raise ValueError(f"--nbar-step {step} does not advance n_bar past {nb}")
        nb += step
    return n_bars


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
    lams = np.linspace(args.lam_min, args.lam_max, args.lam_count).tolist()
    result = channel.sweep(args.gate, n_bars, lams, fock.TruncationPlan(d_init=args.dinit),
                           workers=args.workers, cache_dir=args.cache_dir)
    header = [
        "gate", "n_bar", "delta", "delta_db", "lam",
        "avg_infidelity", "t_state_infidelity", "boundary_flag",
    ]
    rows = []
    for r in result.rows:
        rows.append(
            [
                r.gate,
                f"{r.n_bar:.6g}",
                f"{r.delta:.12g}",
                f"{r.delta_db:.12g}",
                f"{r.lam:.12g}",
                f"{r.avg_infidelity:.12e}",
                "" if r.t_state_infidelity is None else f"{r.t_state_infidelity:.12e}",
                ("1" if r.boundary_flag else "0") if r.is_optimal else "",
            ]
        )
    _emit_csv(args, header, rows)
    if result.failures:
        (gate, nb, lam), reason = next(iter(result.failures.items()))
        print(f"sweep: {len(result.failures)} of {len(result.rows) + len(result.failures)} "
              f"points failed; first: {gate} n_bar={nb:g} lam={lam:.12g}: {reason}", file=sys.stderr)
        return 2
    return 0


def cmd_vacuum(args) -> int:
    from . import channel

    cfg = channel.VacuumMethodConfig(
        delta=args.delta, grid=_square_grid_side("--grid", args.grid),
        postselect_fraction=args.postselect,
    )
    res = channel.vacuum_state_method(cfg)
    if res.coarse_grid_warning:
        print(f"vacuum: warning: --grid {args.grid} is below {channel.COARSE_GRID} cells "
              "per axis; the syndrome grid is coarse", file=sys.stderr)
    _emit_csv(
        args,
        ["delta", "p", "infidelity", "acceptance_prob"],
        [[f"{args.delta:.12g}", f"{args.postselect:.12g}",
          f"{res.infidelity:.12e}", f"{res.acceptance_probability:.12e}"]],
    )
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

    rows = []
    for delta in args.delta:
        b = analytic.ft_lower_bound(delta)
        rows.append(
            [f"{b.delta:.12g}", f"{b.lam_of_delta:.12g}",
             f"{b.f_lower_bound:.12e}", "1" if b.validity else "0"]
        )
    _emit_csv(args, ["delta", "lam_of_delta", "f_lower_bound", "validity"], rows)
    return 0


def cmd_twirl_density(args) -> int:
    import numpy as np
    from . import analytic

    points = _square_grid_side("--points", args.points)
    if not 0 < args.span < math.inf:
        raise ValueError(f"--span must be positive and finite, got {args.span}")
    dens = analytic.TwirledCubicDensity(args.delta, args.lam)
    vq = np.linspace(-args.span, args.span, points)
    vp = np.linspace(-args.span, args.span, points)
    rows = []
    for q in vq:
        vals = dens(np.full_like(vp, q), vp)
        for p, val in zip(vp, vals):
            rows.append([f"{q:.9g}", f"{p:.9g}", f"{val:.12e}"])
    _emit_csv(args, ["v_q", "v_p", "density"], rows)
    return 0


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cmd_cache(args) -> int:
    from . import fock
    from .opcache import OperatorCache

    if args.cache_dir is None:
        raise ValueError(f"cache {args.action} needs --cache-dir")
    if args.action == "prewarm":
        # the two eigensystems a sweep reads, in the order its engines solve them
        dims = fock.TruncationPlan(d_init=args.dinit).eigensystem_dims
        t0 = time.time()
        for d in dims:
            fock.q_eigensystem(d, args.cache_dir)
        # two entries (values, vectors) per eigensystem
        _emit_json(args, {"prewarmed": 2 * len(dims), "seconds": time.time() - t0})
        return 0
    cache = OperatorCache(args.cache_dir)
    if args.action == "list":
        entries = [
            {
                "file": e.path.name,
                "kind": e.kind,
                "digest": e.digest_hex,
                "shape": list(e.shape),
                "bytes": e.nbytes,
            }
            for e in cache.entries()
        ]
        _emit_json(args, {"entries": entries, "count": len(entries)})
        return 0
    if args.action == "purge":
        n = cache.purge()
        _emit_json(args, {"purged": n})
        return 0
    raise ValueError(f"unknown cache action {args.action!r}")


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gkpphase", description=__doc__)
    top.add_argument("--config", help="key=value config file with [global]/[subcommand] sections")
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

    p = sub.add_parser("cache", parents=[grid], help="operator cache maintenance")
    common(p)
    p.add_argument("action", choices=("list", "purge", "prewarm"),
                   help="every action needs --cache-dir; prewarm reads only --dinit "
                        "of the sweep flags")
    p.set_defaults(func=cmd_cache)

    return top


def _numeric_failures() -> tuple[type[Exception], ...]:
    """Errors reported as numeric failures (exit 2).  An `except` clause evaluates
    this only when an exception reaches it, so synth never loads numpy here."""
    import numpy as np
    from . import analytic, fock, symplectic

    return (NumericFailure, fock.TruncationLeakageError, analytic.AccuracyError,
            symplectic.SingularConditioningError, np.linalg.LinAlgError)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        argv = _load_config_defaults(parser, list(argv))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _numeric_failures() as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

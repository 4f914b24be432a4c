"""Test oracles: slower or more direct routes to figures the package computes.

* `reduce`: the coefficient reduction in `Fraction` arithmetic, each L_j a
  dense product of j linear factors and the lexicographic pruning over the
  whole fixed profile of degrees >= j.  It shares no arithmetic with the
  integer `polyalg.reduce` it checks, and m = 8 takes seconds.
* `logical_expectation` and `average_gate_fidelity_reconstructed`: one Pauli
  expectation through a fresh engine, and the average gate fidelity through
  explicit reconstruction of the 2x2 outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from gkpphase import channel as ch
from gkpphase.polyalg import BranchStep, RationalPolynomial, ReductionOutcome

MAX_BRANCHES = 65536

_BASIS_CACHE: dict[int, RationalPolynomial] = {}


def basis(n: int) -> RationalPolynomial:
    """L_n = (1/n!) prod_{i=1..n} (x + i - s), s = n/2 (n even) or (n+1)/2 (n odd)."""
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    shift = Fraction(n, 2) if n % 2 == 0 else Fraction(n + 1, 2)
    poly = RationalPolynomial((1,))
    x = RationalPolynomial((0, 1))
    for i in range(1, n + 1):
        poly = poly * (x + RationalPolynomial((Fraction(i) - shift,)))
    poly = poly * Fraction(1, factorial(n))
    _BASIS_CACHE[n] = poly
    return poly


def split_coefficient(a: Fraction, lead: Fraction) -> list[tuple[int, Fraction, bool]]:
    """Decompose a = n*lead + r with |r| <= lead/2; both n at exact boundary."""
    t = a / lead
    n_floor = t.numerator // t.denominator
    frac = t - n_floor
    if frac == Fraction(1, 2):
        lo = (n_floor, a - n_floor * lead, True)
        hi = (n_floor + 1, a - (n_floor + 1) * lead, True)
        return [lo, hi] if abs(n_floor) <= abs(n_floor + 1) else [hi, lo]
    n = n_floor if frac < Fraction(1, 2) else n_floor + 1
    return [(n, a - n * lead, False)]


def reduce(poly: RationalPolynomial) -> ReductionOutcome:
    """The lexicographically minimal gate polynomials, in Fraction arithmetic."""
    deg = poly.degree
    if deg <= 0:
        return ReductionOutcome((poly.drop_constant(),), ())

    branches: list[tuple[RationalPolynomial, tuple[BranchStep, ...]]] = [(poly, ())]
    for j in range(deg, 0, -1):
        lead = Fraction(1, factorial(j))
        grown: list[tuple[RationalPolynomial, tuple[BranchStep, ...]]] = []
        for cur, log in branches:
            for n_j, _r, boundary in split_coefficient(cur.coeff(j), lead):
                nxt = cur - n_j * basis(j) if n_j else cur
                grown.append((nxt, log + (BranchStep(j, n_j, boundary),)))
        profiles = [
            tuple(abs(b.coeff(k)) for k in range(deg, j - 1, -1)) for b, _ in grown
        ]
        best = min(profiles)
        branches = []
        seen: set[tuple[Fraction, ...]] = set()
        for (b, log), prof in zip(grown, profiles):
            if prof != best:
                continue
            key = b.coeffs
            if key in seen:
                continue
            seen.add(key)
            branches.append((b, log))
        if len(branches) > min(MAX_BRANCHES, 2 ** max(deg, 1)):
            raise RuntimeError(
                f"reduction branch explosion: {len(branches)} active branches"
            )

    c0 = branches[0][0].coeff(0)
    n0 = c0.numerator // c0.denominator
    log0 = branches[0][1] + ((BranchStep(0, n0, False),) if n0 else ())
    uniq: list[RationalPolynomial] = []
    for b, _log in branches:
        p = b.drop_constant()
        if p not in uniq:
            uniq.append(p)
    uniq.sort(key=lambda p: (p.coeff(p.degree) < 0, p.coeffs))
    return ReductionOutcome(tuple(uniq), log0)


# ---------------------------------------------------------------------------
# Logical channel
# ---------------------------------------------------------------------------


def logical_expectation(config: ch.ChannelConfig, qubit, pauli: str) -> float:
    """tr(σ E(|ψ><ψ|)) for a pure qubit input through the configured channel."""
    pauli = pauli.upper()
    if pauli not in ch.PAULI:
        raise ValueError(f"pauli must be one of I, X, Y, Z; got {pauli!r}")
    return ch.ChannelEngine(config).pauli_expectations(np.asarray(qubit, dtype=complex))[pauli]


def average_gate_fidelity_reconstructed(readout: ch.LogicalReadout, target) -> float:
    """`channel.average_gate_fidelity_from_readout` through explicit reconstruction.

    Reconstructs E(σ_j) by linearity from the four output density matrices
    and applies the Nielsen formula F = [Σ_j tr(U σ_j U† E(σ_j)) + 4]/12.
    """
    alpha, _duals = ch._dual_frame()
    u = ch.target_unitary(target)
    outs = {name: readout.output_density(name) for name in ch.INPUT_ORDER}
    total = 0.0
    for j, p in enumerate(("I", "X", "Y", "Z")):
        e_sigma = sum(alpha[j, k] * outs[name] for k, name in enumerate(ch.INPUT_ORDER))
        total += float(np.trace(u @ ch.PAULI[p] @ u.conj().T @ e_sigma).real)
    return (total + 4.0) / 12.0

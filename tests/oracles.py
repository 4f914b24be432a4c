"""Test oracles: slower or more direct routes to figures the package computes,
and the forms of them that only tests call.

* `multivariate_minima`: the one reduction reference, for one and for many
  variables, with no pruning: every boundary choice followed to the end in
  `Fraction` arithmetic, each step subtracting n·L_{e1}(x1)···L_{eN}(xN)
  (`basis_product`, on the dense-product `basis`) from the start, and every
  lexicographic minimum of the finished polynomials returned with its own
  steps, in fork order.  It shares no arithmetic with the integer `_reduce`
  behind `polyalg.reduce` and `polyalg.multivariate_reduce`.
* `coherent_block`: the coherent-lattice codeword sum one term at a time,
  the form `fock._coherent_block` must reproduce bit for bit.
* `gkp_codeword_position_oracle`: the codeword through its position
  wavefunction, sharing no code with `fock.gkp_codeword`.
* `FockOperator`, `annihilation`, `quadratures` and `displacement`: dense
  Fock matrices of the ladder and quadrature operators and of W(v); the
  package works in the eigenbasis of `fock.q_eigensystem` instead.
* `poly_phase_gate` and `pauli_measurement_operator`: the gate and the
  (smeared) Pauli measurement operators as dense Fock matrices, the latter
  from `pauli_series_profiles`, the displacement series at any odd cut
  (`fock` holds the one at 59 as constants), whose kernels
  `pauli_series_kernels` take one `np.exp` per column.
* `smear_matrix`, the readout smear Σ as a 2x2 covariance for the series.
* `logical_expectation`, `average_gate_fidelity` and
  `average_gate_fidelity_reconstructed`: one Pauli expectation and the
  average gate fidelity through a fresh engine per config, and the average
  gate fidelity through explicit reconstruction of the 2x2 outputs
  (`output_density`, combined by the written-out `PAULI_FROM_INPUTS`, not
  by the channel's solved frame); `grid_readout`, a gate label or polynomial
  through the channel on a uniform position grid (the Fourier-grid,
  split-operator form of the channel: Poisson-resummed lattice codewords,
  `_resummed_codeword`, pinned to the direct sum `_grid_codeword`; smeared
  Pauli profiles from their closed-form complements 1 ∓ g and 1 ∓ h,
  `_square_wave_complements`, through `_ndtr`, a numpy port of cephes `ndtr`;
  one FFT pair per gated codeword, zero-padded to a `_fast_len` so that no
  X_m shift wraps onto the codewords), the converged reference the Fock
  engine approaches as d_init grows, as a `GridReadout`: each input's Pauli
  expectations from the two gated codewords' 2 x 2 forms, and 1 - F and the
  T-state 1 - F, each a mean over Pauli-axis inputs of sums of nonnegative
  numbers, in float64 or `np.longdouble`, with the window's edge masses
  against `EDGE_LIMIT`; `sized_grid_readout`, which grows the window until
  they pass, and `grid_unit`, which sizes every gate at one (Δ, λ) on shared
  windows (`GridWindow`);
  `two_mode_grid_readout`, the same grid channel for a two-variable gate
  polynomial, as a `TwoModeReadout` of the 16 two-mode Pauli matrices over
  the product codewords with both axes' edge masses, and
  `two_mode_average_fidelity`, its F against a 4 x 4 target;
  `optima`, a sweep's per-(gate, n̄) optimum rows;
  `clifford_t_orbit`, the <H, S> search behind `channel.CLIFFORD_T_TARGETS`.
* `basis` (the dense-product L_n, n >= 1), `value` (P(x) in one variable),
  `is_integer_valued` (Pólya's test: P(0), ..., P(deg P) are integers, with
  no `basis`), `scale_argument` and `phase_check_on_box`: exact-algebra checks
  no command needs, the last the phase check of a C^{N-1}Λ_m polynomial
  (N = 1 included) on a symmetric box of integers.
* `overlap` of two Fock vectors, and `symplectic_inverse` of a Gaussian op.
* `shear_variance_leading`, `shear_variance_ratio`, `vp2_leading`,
  `lambda_opt_asymptotic` (with `NotApplicableError`): the leading-order
  shear terms of E(v_p²) and the asymptotically optimal asymmetry;
  `golden_section`, the minimum search over λ the tests run on a channel;
  `patch_probability`, the twirled cubic density's mass on the patch, by
  Gauss–Legendre on its v_q marginal;
  `ft_erf_product`, the Erf-product lower bound on that mass inside
  `analytic.ft_lower_bound`, and `ft_patch_fidelity`, the bound's chain run
  on the true mass.
* `position_space_vacuum_cells`: the vacuum method's syndrome-cell weights
  and Bloch vectors from the thermal state's position kernel on the shifted
  ideal codewords, with no characteristic function or Pauli sign table; the
  one reference for `analytic.vacuum_posterior_grid` and criterion 10.

Everything here is reached only from tests; `test_surface.py` keeps the
package free of such names.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import NamedTuple

import numpy as np
import scipy.special

from gkpphase import analytic as an, channel as ch, fock as fk, symplectic as sp
from gkpphase.polyalg import BranchStep, RationalPolynomial

MAX_BRANCHES = 65536

_BASIS_CACHE: dict[int, RationalPolynomial] = {}


def basis(n: int) -> RationalPolynomial:
    """L_n = (1/n!) prod_{i=1..n} (x + i - s), s = n/2 (n even) or (n+1)/2 (n odd).

    Integer-valued with leading coefficient exactly 1/n!; n must be an integer >= 1.
    s is an integer either way, so the n factors are multiplied out in integers,
    constant term first, and the product is divided by n! once.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"basis requires an integer n >= 1, got {n!r}")
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    shift = n // 2 if n % 2 == 0 else (n + 1) // 2
    coeffs = [1]
    for i in range(1, n + 1):  # times (x + i - s)
        a = i - shift
        coeffs = [a * coeffs[0], *(lo + a * hi for lo, hi in zip(coeffs, coeffs[1:])), coeffs[-1]]
    poly = RationalPolynomial([Fraction(c, factorial(n)) for c in coeffs])
    _BASIS_CACHE[n] = poly
    return poly


def basis_product(e: tuple[int, ...]) -> RationalPolynomial:
    """L_{e1}(x1)···L_{eN}(xN) from the dense-product `basis`, with L_0 = 1."""
    terms: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for k in e:
        coeffs = basis(k).coeffs if k else (Fraction(1),)
        terms = {f + (i,): c * b for f, c in terms.items() for i, b in enumerate(coeffs) if b}
    return RationalPolynomial.from_terms(len(e), terms)


def value(poly: RationalPolynomial, x) -> Fraction:
    """P(x) in one variable, exactly, from the terms."""
    return sum((c * Fraction(x) ** k for (k,), c in poly.terms.items()), Fraction(0))


def split_coefficient(a: Fraction, lead: Fraction) -> list[tuple[int, bool]]:
    """The n of a = n*lead + r with |r| <= lead/2, as (n, boundary) choices;
    both n at an exact boundary, the smaller |n| first."""
    t = a / lead
    n_floor = t.numerator // t.denominator
    frac = t - n_floor
    if frac == Fraction(1, 2):
        lo, hi = (n_floor, True), (n_floor + 1, True)
        return [lo, hi] if abs(n_floor) <= abs(n_floor + 1) else [hi, lo]
    return [(n_floor if frac < Fraction(1, 2) else n_floor + 1, False)]


def multivariate_minima(poly: RationalPolynomial) -> dict[RationalPolynomial, tuple[BranchStep, ...]]:
    """The reduction with no pruning, in one or many variables: every
    lexicographic minimum with its own steps, in fork order.

    Monomials are taken by total degree, then exponent tuple, both descending,
    over every exponent <= a start monomial componentwise; at each one the
    coefficient a_e is split as n/(e1!···eN!) + r (both n on the boundary, the
    smaller |n| first) and n L_{e1}(x1)···L_{eN}(xN) (`basis_product`)
    subtracted, in `Fraction` arithmetic.  No branch is dropped before the
    end, where the magnitude profiles in walk order are compared whole.  The
    constant is a global phase: its integer part is logged last and the term
    dropped.  A leaf's steps are a linked list, so that no step tuple is
    copied at every monomial.
    """
    walk = sorted(
        {f for e in poly.terms for f in product(*(range(k + 1) for k in e)) if any(f)},
        key=lambda f: (sum(f), f), reverse=True,
    )
    leaves = [(dict(poly.terms), None)]
    for e in walk:
        lead = Fraction(1, math.prod(factorial(k) for k in e))
        terms = basis_product(e).terms
        grown = []
        for cur, steps in leaves:
            for n, boundary in split_coefficient(Fraction(cur.get(e, 0)), lead):
                nxt = cur
                if n:
                    nxt = dict(cur)
                    for f, c in terms.items():
                        nxt[f] = nxt.get(f, 0) - n * c
                grown.append((nxt, (steps, BranchStep(e, n, boundary))))
        leaves = grown
        if len(leaves) > MAX_BRANCHES:
            raise RuntimeError(f"tie enumeration explosion: {len(leaves)} leaves")
    profiles = [tuple(abs(leaf.get(f, 0)) for f in walk) for leaf, _ in leaves]
    best = min(profiles)
    zero = (0,) * poly.n_vars
    minima: dict[RationalPolynomial, tuple[BranchStep, ...]] = {}
    for (leaf, steps), profile in zip(leaves, profiles):
        if profile != best:
            continue
        n0 = math.floor(leaf.get(zero, 0))
        log = [BranchStep(zero, n0, False)] if n0 else []
        while steps:
            steps, step = steps
            log.append(step)
        minimum = RationalPolynomial.from_terms(poly.n_vars, {f: c for f, c in leaf.items() if any(f)})
        minima[minimum] = tuple(reversed(log))
    return minima


def is_integer_valued(poly: RationalPolynomial) -> bool:
    """Exact test for P(Z) ⊆ Z in one variable, by Pólya's criterion
    (Rend. Circ. Mat. Palermo 40, 1 (1915)): a polynomial of degree d is
    integer-valued iff P(0), ..., P(d) are integers."""
    return all(value(poly, k).denominator == 1 for k in range(poly.degree + 1))


def scale_argument(poly: RationalPolynomial, s) -> RationalPolynomial:
    """P(s x) for an exact rational s (x -> -x reflection etc.)."""
    return RationalPolynomial([c * Fraction(s) ** k for k, c in enumerate(poly.coeffs)])


def phase_check_on_box(poly, m: int, k_range: int = 6) -> bool:
    """Phase check for C^{N-1}Λ_m (Λ_m for N = 1) on the box |x_i| <= k_range:
    2^-m mod 1 on all-odd inputs, else 0, with P evaluated term by term."""
    target = Fraction(1, 2**m)
    for xs in product(range(-k_range, k_range + 1), repeat=poly.n_vars):
        val = Fraction(0)
        for exp, c in poly.terms.items():
            for x, e in zip(xs, exp):
                c *= Fraction(x) ** e
            val += c
        frac = val - (val.numerator // val.denominator)
        want = target if all(x % 2 for x in xs) else Fraction(0)
        if frac != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Gaussian operations and codewords
# ---------------------------------------------------------------------------


def symplectic_inverse(op: sp.GaussianOp) -> sp.GaussianOp:
    """The inverse Gaussian op: S^-1 = -Ω Sᵀ Ω, exact up to roundoff."""
    om = sp.omega(op.n_modes)
    return sp.GaussianOp(-om @ op.S.T @ om)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> over the dimensions both vectors have."""
    n = min(a.size, b.size)
    return complex(np.vdot(a[:n], b[:n]))


def coherent_block(alpha: np.ndarray, coeff: np.ndarray, d: int) -> tuple[np.ndarray, int, float]:
    """`fock._coherent_block` as one O(d) pass per lattice term, in term order."""
    n = np.arange(d)
    log_fact_half = 0.5 * scipy.special.gammaln(n + 1.0)
    out = np.zeros(d, dtype=complex)
    dropped = 0
    dropped_weight = 0.0
    mag = np.abs(alpha)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.where(mag > 0, mag, 1.0))
    for k in range(alpha.shape[0]):
        c = coeff[k]
        if c == 0:
            continue
        if mag[k] == 0:
            out[0] += c
            continue
        log_amp = -0.5 * mag[k] ** 2 + n * log_mag[k] - log_fact_half
        peak = log_amp.max() + math.log(abs(c))
        if peak < -700.0:
            dropped += 1
            dropped_weight += abs(c)
            continue
        sel = log_amp > -745.0
        amps = np.zeros(d, dtype=complex)
        amps[sel] = np.exp(log_amp[sel] + 1j * np.angle(alpha[k]) * n[sel])
        out += c * amps
    return out, dropped, dropped_weight


def gkp_codeword_position_oracle(
    bit: int,
    delta: float,
    lam: float = 1.0,
    d: int = 400,
    grid_points: int = 1 << 14,
) -> np.ndarray:
    """Independent codeword construction through the position wavefunction.

    Applies the harmonic heat kernel (Mehler form) of exp(-Δ² a†a) to the
    position comb at (2n+bit) sqrt(λπ) analytically, samples the resulting
    sum of Gaussians on a uniform grid, and projects onto numerically
    generated Hermite functions.  Shares no code with gkp_codeword.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    tau = delta**2
    span = 8.0 / math.sqrt(math.tanh(tau)) + 4.0
    xs = np.linspace(-span, span, grid_points)
    dx = xs[1] - xs[0]

    spacing = math.sqrt(lam * math.pi)
    n_max = int(span / (2 * spacing)) + 3
    psi = np.zeros_like(xs)
    cosh_t, sinh_t, tanh_t = math.cosh(tau), math.sinh(tau), math.tanh(tau)
    for n in range(-n_max, n_max + 1):
        x_n = (2 * n + bit) * spacing
        weight = math.exp(-0.5 * x_n**2 * tanh_t)
        if weight < 1e-300:
            continue
        psi += weight * np.exp(-cosh_t * (xs - x_n / cosh_t) ** 2 / (2.0 * sinh_t))

    # Hermite functions by the stable two-term recurrence.
    amps = np.zeros(d, dtype=complex)
    phi_prev = np.zeros_like(xs)
    phi = math.pi ** (-0.25) * np.exp(-0.5 * xs**2)
    for k in range(d):
        amps[k] = np.sum(phi * psi) * dx
        phi_next = math.sqrt(2.0 / (k + 1)) * xs * phi - math.sqrt(k / (k + 1.0)) * phi_prev
        phi_prev, phi = phi, phi_next
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# Dense Fock operators: quadratures, displacements, gates, Pauli measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix with explicit (out, in) truncation dimensions."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("non-finite matrix entries")
        object.__setattr__(self, "matrix", m)


def annihilation(d: int) -> np.ndarray:
    if d < 2:
        raise ValueError("need d >= 2")
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1)


def quadratures(d: int) -> tuple[FockOperator, FockOperator]:
    """q = (a + a†)/sqrt(2), p = i(a† - a)/sqrt(2) at truncation d."""
    a = annihilation(d)
    q = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    return FockOperator(q), FockOperator(p)


def displacement(v: tuple[float, float], d: int, plan: fk.TruncationPlan) -> FockOperator:
    """W(v) = exp[i sqrt(2π)(v_p q - v_q p)], built at d_temp and cut to d.

    v_p q - v_q p = |v| R_θ q R_θ† with R_θ = diag(e^{-iθn}) and
    θ = atan2(v_q, v_p).  R_θ is diagonal, so it commutes with the
    truncation, and W is R_θ V diag(e^{i sqrt(2π)|v| x}) Vᵀ R_θ† with the
    position eigensystem (x, V) at d_temp.
    """
    v_q, v_p = float(v[0]), float(v[1])
    if not (math.isfinite(v_q) and math.isfinite(v_p)):
        raise ValueError("displacement needs finite components")
    dt = plan.d_temp(d)
    x, vecs = fk.q_eigensystem(dt, dt, None)
    head = vecs[:d]
    w = (head * np.exp(1j * fk.SQRT2PI * math.hypot(v_q, v_p) * x)) @ head.T
    r = np.exp(-1j * math.atan2(v_q, v_p) * np.arange(d))
    return FockOperator(r[:, None] * w * r.conj())


def poly_phase_gate(
    poly: RationalPolynomial, lam: float, plan: fk.TruncationPlan
) -> FockOperator:
    """Rectangular-frame gate exp(2πi P(q/sqrt(λπ))) as a d_out x d_init block.

    The generator is diagonal in the position eigenbasis at d_temp(d_init)
    (= d_out), so the exponential is exact there; only the input columns are
    truncated, keeping the gate's photon-number growth inside the output.

    `channel.ChannelEngine` applies the same gate matrix-free.
    """
    dt = plan.d_temp(plan.d_init)
    x, v = fk.q_eigensystem(dt, dt, None)
    phases = fk.phase_profile(poly, lam, x)
    u = (v * phases) @ v.T
    return FockOperator(u[: plan.d_out, : plan.d_init])


def _series_terms(n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd displacements 2n+1 with |2n+1| <= n_cut and their weights (-1)^n / ((n + 1/2) π)."""
    if n_cut % 2 == 0:
        raise ValueError(f"n_cut must be odd, got {n_cut}")
    ns = np.arange(-(n_cut + 1) // 2, (n_cut - 1) // 2 + 1)
    return 2 * ns + 1, ((-1.0) ** ns) / (ns + 0.5) / math.pi


def pauli_series_kernels(lam: float, x: np.ndarray, n_cut: int = 59) -> tuple[np.ndarray, np.ndarray]:
    """exp(i sqrt(2π) x u_p) and exp(-i sqrt(2π) x u_q), one `np.exp` per column.

    The form `fock.pauli_kernels` must equal bit for bit at n_cut 59, where
    it exponentiates half the columns and conjugates them into the other half.
    """
    odd = _series_terms(n_cut)[0]
    u_p = odd / math.sqrt(2.0 * lam)
    u_q = odd * math.sqrt(lam / 2.0)
    k = math.sqrt(2.0 * math.pi)
    return np.exp(1j * k * np.outer(x, u_p)), np.exp(-1j * k * np.outer(x, u_q))


def smear_matrix(delta: float, lam: float) -> np.ndarray:
    """The readout smear Σ = tanh(Δ²/2) diag(λ, 1/λ) that `fock.pauli_profiles`
    builds from (Δ, λ), as the 2x2 covariance the series here take."""
    return math.tanh(delta**2 / 2.0) * np.diag([lam, 1.0 / lam])


def pauli_series_profiles(
    lam: float, smear: np.ndarray | None, x: np.ndarray, n_cut: int = 59
) -> tuple[np.ndarray, np.ndarray]:
    """Z_m and X_m diagonals from the displacement series cut at |2n+1| <= n_cut.

    Z_m = (1/π) Σ_n (-1)^n/(n+1/2) W(0, (2n+1)/sqrt(2λ)) over q eigenvalues x,
    X_m the same with W((2n+1) sqrt(λ/2), 0) over p ones; a smear Σ scales
    the terms by exp(-π Σ_00 u_p²) and exp(-π Σ_11 u_q²).  Written out apart
    from `fock.pauli_profiles`, which must equal it bit for bit at n_cut 59.
    """
    odd, weights = _series_terms(n_cut)
    u_p = odd / math.sqrt(2.0 * lam)
    u_q = odd * math.sqrt(lam / 2.0)
    z_w = x_w = weights
    if smear is not None:
        z_w = weights * np.exp(-math.pi * (smear[0][0] * u_p**2))
        x_w = weights * np.exp(-math.pi * (smear[1][1] * u_q**2))
    z_kernel, x_kernel = pauli_series_kernels(lam, x, n_cut)
    return z_kernel @ z_w, x_kernel @ x_w


def pauli_measurement_operator(
    which: str,
    lam: float,
    smear: np.ndarray | None,
    d: int,
    n_cut: int = 59,
) -> FockOperator:
    """Ideal (or smeared) Pauli measurement operator as a d x d matrix.

    X and Z are lattice sums of single-axis displacements, assembled in the
    matching quadrature eigenbasis at fock.EXPAND_FACTOR * d and truncated; Y uses
    the numerically symmetric product form (i X Z - i Z X)/2.

    `channel.ChannelEngine` applies the same diagonals matrix-free.
    """
    which = which.upper()
    if which not in ("X", "Y", "Z"):
        raise ValueError(f"which must be X, Y or Z, got {which!r}")
    if which == "Y":
        xm = pauli_measurement_operator("X", lam, smear, d, n_cut)
        zm = pauli_measurement_operator("Z", lam, smear, d, n_cut)
        y = 0.5j * (xm.matrix @ zm.matrix - zm.matrix @ xm.matrix)
        return FockOperator(y)
    dt = fk.EXPAND_FACTOR * d
    x, v = fk.q_eigensystem(dt, dt, None)
    g, h = pauli_series_profiles(lam, smear, x, n_cut)
    if which == "Z":
        mat = (v * g) @ v.T
    else:
        r = fk.number_parity_phases(dt)
        vp = r[:, None] * v
        mat = (vp * h) @ vp.conj().T
    return FockOperator(mat[:d, :d])


# ---------------------------------------------------------------------------
# Logical channel
# ---------------------------------------------------------------------------


def logical_expectation(config: ch.ChannelConfig, state: str, pauli: str) -> float:
    """tr(σ E(|ψ><ψ|)) for the input `channel.INPUT_STATES[state]` through the configured channel."""
    pauli = pauli.upper()
    if pauli not in ch.PAULI:
        raise ValueError(f"pauli must be one of I, X, Y, Z; got {pauli!r}")
    engine = ch.ChannelEngine(config)
    return engine.pauli_expectations(state, engine.gate_phase(config.gate))[pauli]


def per_input_readout(engine: ch.ChannelEngine, gate: RationalPolynomial) -> dict[str, dict[str, float]]:
    """`engine.readout(gate)` one input at a time, each real-matrix product two
    whole-matrix numpy calls: the form the blocked readout must equal bit for bit.
    No range or leakage check."""
    phase, r = engine.gate_phase(gate), engine.r2[: engine.d_out]

    def rmatvec(m, vec):
        return m @ vec.real + 1j * (m @ vec.imag)

    readout = {}
    for name, (a, b) in ch.INPUT_STATES.items():
        vec = a * engine.e0 + b * engine.e1
        psi = rmatvec(engine.v1, phase * rmatvec(engine.v1[: engine.d_init, :].T, vec / np.linalg.norm(vec)))
        norm2 = float(np.vdot(psi, psi).real)
        z_psi = rmatvec(engine.v2, engine.g_z * rmatvec(engine.v2.T, psi))
        x_psi = r * rmatvec(engine.v2, engine.h_x * rmatvec(engine.v2.T, r.conj() * psi))
        readout[name] = {"I": 1.0, "X": float(np.vdot(psi, x_psi).real) / norm2,
                         "Y": -float(np.vdot(x_psi, z_psi).imag) / norm2,
                         "Z": float(np.vdot(psi, z_psi).real) / norm2}
    return readout


def average_gate_fidelity(config: ch.ChannelConfig, cache_dir=None) -> float:
    """Average gate fidelity of the config's gate against `config.target`, through a fresh engine."""
    engine = ch.ChannelEngine(config, cache_dir)
    return ch.average_gate_fidelity_from_readout(engine.readout(config.gate), config.target)


def output_density(readout: dict[str, dict[str, float]], state: str) -> np.ndarray:
    """The 2x2 channel output for one basis input of a readout (input name -> Pauli
    expectations), (I + <X>X + <Y>Y + <Z>Z)/2."""
    row = readout[state]
    return sum(row[p] * ch.PAULI[p] for p in ("I", "X", "Y", "Z")) / 2.0


def optima(result: ch.SweepResult) -> dict[str, dict[float, tuple[float, float, bool]]]:
    """Per gate, n_bar -> (optimal lam, avg infidelity there, boundary flag), read
    from the rows that `channel.sweep` marks `is_optimal`."""
    out: dict[str, dict[float, tuple[float, float, bool]]] = {}
    for r in result.rows:
        if r.is_optimal:
            out.setdefault(r.gate, {})[r.n_bar] = (r.lam, r.avg_infidelity, r.boundary_flag)
    return out


# Each Pauli as a combination of the input projectors, written out rather than
# solved: I = |0><0| + |1><1|, X = 2|+><+| - I, Y = 2|+i><+i| - I, Z = |0><0| - |1><1|.
PAULI_FROM_INPUTS = {
    "I": {"one": 1.0, "zero": 1.0},
    "X": {"one": -1.0, "plus": 2.0, "zero": -1.0},
    "Y": {"one": -1.0, "plus_i": 2.0, "zero": -1.0},
    "Z": {"one": -1.0, "zero": 1.0},
}


def average_gate_fidelity_reconstructed(readout: dict[str, dict[str, float]], target) -> float:
    """`channel.average_gate_fidelity_from_readout` through explicit reconstruction.

    Reconstructs E(σ_j) by linearity from the four output density matrices
    (`PAULI_FROM_INPUTS`) and applies the Nielsen formula
    F = [Σ_j tr(U σ_j U† E(σ_j)) + 4]/12.
    """
    u = ch.target_unitary(target)
    total = 0.0
    for p, weights in PAULI_FROM_INPUTS.items():
        e_sigma = sum(w * output_density(readout, name) for name, w in weights.items())
        total += float(np.trace(u @ ch.PAULI[p] @ u.conj().T @ e_sigma).real)
    return (total + 4.0) / 12.0


# cephes `ndtr` (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989): erf's rational form below 1, erfc's P/Q below 8 and R/S above.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coeffs, monic: bool = False) -> np.ndarray:
    """cephes `polevl` (Horner from the leading coefficient), or `p1evl` when the
    leading 1 is implicit."""
    out = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _erf_small(x: np.ndarray) -> np.ndarray:
    """cephes `erf` for |x| <= 1: x T(x²)/U(x²)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Φ(a) as cephes `ndtr`: 0.5 + 0.5 erf(a/√2) for |a| < 1, else 0.5 erfc(|a|/√2),
    reflected for a > 0.  Only the exponential, `np.exp`, is not libm's, so it is
    within a few ulps of `scipy.special.ndtr`, not bitwise.  Each branch runs on
    its own elements; past erfc's underflow, and above a = 6√2 where 1 - Φ(-a)
    < 2^-54 rounds to 1, the values are exact without it."""
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    out = (x > 0).astype(x.dtype)
    inner = z < math.sqrt(0.5)
    out[inner] = 0.5 + 0.5 * _erf_small(x[inner])
    near = ~inner & (z < 1.0)
    half = 0.5 * (1.0 - _erf_small(z[near]))
    out[near] = np.where(x[near] > 0, 1.0 - half, half)
    tail = (z >= 1.0) & (x < 6.0) & (z * z <= _MAXLOG)
    for sel, num, den in ((tail & (z < 8.0), _ERFC_P, _ERFC_Q), (tail & (z >= 8.0), _ERFC_R, _ERFC_S)):
        zs = z[sel]
        half = 0.5 * (np.exp(-zs * zs) * _polevl(zs, num) / _polevl(zs, den, monic=True))
        out[sel] = np.where(x[sel] > 0, 1.0 - half, half)
    return out


def _smeared_square_wave(theta: np.ndarray, sigma: float) -> np.ndarray:
    """E[sign cos(θ + σZ)], Z standard normal, in closed form: one minus twice
    the normal mass of θ + σZ in (π/2, 3π/2) + 2πk, θ reduced mod 2π, |k| <= 3;
    the one-pass reference of `GridWindow`'s g."""
    theta = np.mod(theta, 2.0 * math.pi)
    start = (0.5 * math.pi + 2.0 * math.pi * np.arange(-3.0, 4.0))[:, None] - theta
    out = np.ones_like(theta)
    for upper, lower in zip(*_ndtr(np.stack([(start + math.pi) / sigma, start / sigma]))):
        out -= 2.0 * (upper - lower)
    return out


def _interval_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The standard normal mass of (a, b), a < b, from the two lower tails
    Φ(-|a|) and Φ(-|b|) alone, so a small mass keeps its relative precision."""
    ta, tb = _ndtr(-np.abs(a)), _ndtr(-np.abs(b))
    return np.where(a >= 0, ta - tb, np.where(b <= 0, tb - ta, 1.0 - ta - tb))


def _square_wave_complements(theta: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """1 - g and 1 + g for g = `_smeared_square_wave`(θ, σ): twice the normal
    mass of θ + σZ in (π/2, 3π/2) + 2πk and in (-π/2, π/2) + 2πk, |k| <= 3,
    each a sum of nonnegative terms."""
    theta = np.mod(theta, 2.0 * math.pi)
    out = []
    for offset in (0.5 * math.pi, -0.5 * math.pi):
        start = (offset + 2.0 * math.pi * np.arange(-3.0, 4.0))[:, None] - theta
        out.append(2.0 * _interval_mass(start / sigma, (start + math.pi) / sigma).sum(axis=0))
    return out[0], out[1]


def _grid_codeword(bit: int, delta: float, lam: float, x: np.ndarray) -> np.ndarray:
    """`fock.gkp_codeword`'s lattice of coherent states, summed directly as
    position wavefunctions π^(-1/4) exp(-(x - q₀)²/2 + i p₀ (x - q₀/2)) on `x`,
    with the same cut, coefficients and phases; unnormalised.  Each row is
    summed only where its envelope exp(-(x - q₀)²/2) is not 0.0 (|x - q₀|
    below about 38.6); elsewhere it adds exactly nothing.  The oracle of
    `_resummed_codeword`, which `grid_readout` uses."""
    cut_m, cut_n = fk.default_lattice_cut(delta, lam)
    w = 1.0 - math.exp(-2.0 * delta**2)
    shrink = math.sqrt(2.0 * math.pi) * math.exp(-delta**2)
    n = np.arange(-cut_n, cut_n + 1)
    psi = np.zeros(x.size, dtype=complex)
    for m in range(-cut_m, cut_m + 1):
        mu = 2 * m + bit
        c = np.exp(-math.pi * (mu**2 * lam + n**2 / lam) * w / 4.0)
        phase = np.where((m * n) % 2 == 0, 1.0, -1.0) if bit == 0 else 1j ** np.mod(2 * m * n - n, 4)
        keep = c > 1e-18
        q0 = shrink * mu * math.sqrt(lam / 2.0)
        p0 = shrink * n[keep] / math.sqrt(2.0 * lam)
        envelope = np.exp(-0.5 * (x - q0) ** 2)
        live = envelope > 0.0
        row = (c * phase)[keep] @ np.exp(1j * np.outer(p0, x[live] - q0 / 2.0))
        psi[live] += math.pi**-0.25 * envelope[live] * row
    return psi


# Codeword rows are evaluated where |x - q₀| < 10, their envelope above e^-50.
CODEWORD_REACH = 10.0


def _resummed_codeword(bit: int, delta: float, lam: float, x: np.ndarray) -> np.ndarray:
    """`_grid_codeword` with each row's n-sum Poisson-resummed.

    Row μ = 2m + bit is exp(-πμ²λw/4) times Σₙ cₙ e^{inφ}, with
    cₙ = exp(-a n²), a = πw/(4λ) and φ = e^{-Δ²}√(π/λ)(x - q₀/2) + πm - (π/2)·bit,
    and Σₙ e^{-an² + inφ} = √(π/a) Σⱼ exp(-(φ - 2πj)²/(4a)).  φ is reduced to
    [-π, π) first, so the j-range only has to reach e^-40 of the peak term,
    |φ - 2πj| <= √(160a); each row is evaluated where |x - q₀| < CODEWORD_REACH."""
    cut_m = fk.default_lattice_cut(delta, lam)[0]
    w = 1.0 - math.exp(-2.0 * delta**2)
    shrink = math.sqrt(2.0 * math.pi) * math.exp(-delta**2)
    freq = math.exp(-delta**2) * math.sqrt(math.pi / lam)
    a = math.pi * w / (4.0 * lam)
    j_max = math.ceil(0.5 + math.sqrt(160.0 * a) / (2.0 * math.pi))
    shifts = 2.0 * math.pi * np.arange(-j_max, j_max + 1)
    psi = np.zeros(x.size, dtype=np.result_type(x, 1j))
    for m in range(-cut_m, cut_m + 1):
        mu = 2 * m + bit
        q0 = shrink * mu * math.sqrt(lam / 2.0)
        near = np.abs(x - q0) < CODEWORD_REACH
        xs = x[near]
        phi = freq * (xs - q0 / 2.0) + math.pi * (m - 0.5 * bit)
        phi = np.mod(phi + math.pi, 2.0 * math.pi) - math.pi
        comb = np.exp(-np.square(phi[:, None] - shifts) / (4.0 * a)).sum(axis=1)
        scale = math.exp(-math.pi * mu**2 * lam * w / 4.0) * math.sqrt(math.pi / a) * math.pi**-0.25
        psi[near] += scale * np.exp(-0.5 * (xs - q0) ** 2) * comb
    return psi


# The window rule: at most this much of each post-gate input's mass in the
# outer eighth of the x window (both ends) and in the outer eighth of the p band.
EDGE_LIMIT = 1e-11


def _edge_mass(density: np.ndarray) -> float:
    """Share of `density` in its outer eighth at each end."""
    eighth = density.size // 8
    return float((density[:eighth].sum() + density[-eighth:].sum()) / density.sum())


@dataclass(frozen=True)
class GridReadout:
    """A gate's readout on a grid: `expectations` (input name -> Pauli
    expectations, as `ChannelEngine.readout` returns it) and the sweep row's
    two columns, 1 - F against the target (`infidelity`) and, for a level-3
    target, 1 - <T|E(|+><+|)|T> (`t_state_infidelity`, else None); with its
    window, the grid (n, half_width) and the largest x- and p-edge masses over
    the four inputs of `expectations` (`_edge_mass`)."""

    expectations: dict[str, dict[str, float]]
    infidelity: float
    t_state_infidelity: float | None
    n: int
    half_width: float
    x_edge: float
    p_edge: float


def _x_reach(delta: float, lam: float) -> float:
    """The farthest shift of X_m with weight above EDGE_LIMIT.  h(θ) is
    Σ_k (2/(πk)) (-1)^((k-1)/2) e^{-σ²k²/2} (e^{ikθ} + e^{-ikθ}) over odd k, so X_m
    = h(p√(πλ)) shifts ψ by ±k√(πλ) with those weights."""
    sigma2 = math.pi * math.tanh(delta**2 / 2.0)
    k = 1
    while 2.0 / (math.pi * (k + 2)) * math.exp(-sigma2 * (k + 2) ** 2 / 2.0) > EDGE_LIMIT:
        k += 2
    return k * math.sqrt(math.pi * lam)


@functools.cache
def _smooth_lengths(bits: int) -> list[int]:
    """The 2·3·5·7·11-smooth integers up to 2**bits, ascending."""
    out = [1]
    for prime in (2, 3, 5, 7, 11):
        grown = []
        for m in out:
            while m <= 1 << bits:
                grown.append(m)
                m *= prime
        out = grown
    return sorted(out)


def _fast_len(n: int) -> int:
    """The smallest 2·3·5·7·11-smooth integer >= n, the length pocketfft
    transforms fastest: `scipy.fft.next_fast_len` for a complex transform."""
    lengths = _smooth_lengths((n - 1).bit_length())
    return lengths[bisect.bisect_left(lengths, n)]


class GridWindow(NamedTuple):
    """What `grid_readout` shares across gates at one (Δ, λ, N, L): the grid x,
    the padded FFT length, the Pauli profiles g and h, taken as
    ((1 + g) - (1 - g))/2 from their complements (`_square_wave_complements`),
    the complements themselves, and the orthonormal codewords."""

    x: np.ndarray
    n_pad: int
    g: np.ndarray
    h: np.ndarray
    g_minus: np.ndarray
    g_plus: np.ndarray
    h_minus: np.ndarray
    h_plus: np.ndarray
    e0: np.ndarray
    e1: np.ndarray


def _grid_window(delta: float, lam: float, n: int, half_width: float, dtype=np.float64) -> GridWindow:
    """`grid_readout`'s window at (Δ, λ, N, L), every array in `dtype`.  The
    grid, Δ, λ and the scalar constants are float64 whatever `dtype` is, so a
    float64 and a longdouble readout differ only by their arithmetic's rounding."""
    dx = 2.0 * half_width / n
    x = (-half_width + np.arange(n) * dx).astype(dtype)
    n_pad = _fast_len(n + math.ceil(_x_reach(delta, lam) / dx))
    p = (2.0 * math.pi * np.fft.fftfreq(n_pad, dx)).astype(dtype)
    sigma = math.sqrt(math.pi * math.tanh(delta**2 / 2.0))
    g_minus, g_plus = _square_wave_complements(x * math.sqrt(math.pi / lam), sigma)
    h_minus, h_plus = _square_wave_complements(p * math.sqrt(math.pi * lam), sigma)
    e0, e1 = fk.orthonormalize(*(_resummed_codeword(bit, delta, lam, x) for bit in (0, 1)))
    return GridWindow(x, n_pad, 0.5 * (g_plus - g_minus), 0.5 * (h_plus - h_minus),
                      g_minus, g_plus, h_minus, h_plus, e0, e1)


def grid_readout(gate: str | RationalPolynomial, delta: float, lam: float, n: int,
                 half_width: float, window: GridWindow | None = None,
                 target: str | None = None) -> GridReadout:
    """The channel on a uniform position grid, sharing no arithmetic with the
    Fock engine but `fock.orthonormalize` and `fock.phase_profile`.  The gate
    is a `GATE_TABLE` label, read against itself, or any one-variable
    polynomial, read against the label `target`.

    x_j = -L + j·2L/N.  The codewords are the coherent-state lattice on the
    grid, each row Poisson-resummed (`_resummed_codeword`); the gate
    multiplies by exp(2πi P(x/sqrt(λπ))); Z_m is g(x√(π/λ)) and X_m is
    h(p√(πλ)), the smeared square waves E[sign cos(θ + σZ)] with
    σ² = π·tanh(Δ²/2) (the series of `fock.pauli_profiles` summed to all
    orders), Z_m applied pointwise and X_m through one FFT pair.  That pair
    runs on ψ zero-padded by `_x_reach`, at p = 2π·fftfreq(N', dx): on the
    bare 2L period, a shift by k√(πλ) near 2L would wrap back onto the
    codewords, which overlap themselves at whole multiples of √(πλ) (unpadded,
    T3 at Δ = 0.1, λ(Δ) and (6144, 90) reads 1 - F 1.2e-4 relative low).

    The gate goes onto the two codewords e_i alone, one FFT pair each.  An
    input c reads <P> = c†B_P c / c†B_I c from the forms B_P[i, j] =
    <Ue_i|P_m|Ue_j>, Y_m the Hermitian part of iX_mZ_m.  1 - F against the
    target diag(1, e^{iφ}) is the mean of (1 - n'·r)/2 over the six Pauli-axis
    inputs, a 2-design (Bowdrey et al., Phys. Lett. A 294, 258 (2002)), n' the
    target's image of the input's Bloch vector, each term a sum of nonnegative
    numbers, so that none cancels:
    - ±z: 1 ∓ <Z_m> = Σ|ψ|²(1 ∓ g)/Σ|ψ|²;
    - n' = (cos ϑ, sin ϑ, 0): 1 - cos ϑ<X_m> - sin ϑ<Y_m> =
      ½‖(X_m - i sin ϑ Z_m - cos ϑ)ψ‖²/Σ|ψ|² + ½Σ|ψ̃|²(1 - h)(1 + h)/Σ|ψ̃|²
      + ½ sin²ϑ Σ|ψ|²(1 - g)(1 + g)/Σ|ψ|², ψ̃ the padded FFT of ψ and X_mψ
      the whole padded inverse FFT, so that ‖X_mψ‖² is the p-side Σ|ψ̃|²h².
    Every input's ψ, ψ̃ and X_mψ come from the codewords' by linearity.  Nothing
    checks the window here: a caller asserts the reported edge masses, and a
    grid can pass an N-doubling check while L is too small.  `window` is this
    (Δ, λ, N, L)'s `_grid_window`, built here when not given.
    """
    w = window or _grid_window(delta, lam, n, half_width)
    label = gate if target is None else target
    psi = fk.phase_profile(ch.GATE_TABLE[gate][0] if isinstance(gate, str) else gate, lam, w.x) * np.array([w.e0, w.e1])
    psi_p = np.fft.fft(psi, w.n_pad)
    x_psi = np.fft.ifft(w.h * psi_p)
    z_psi = w.g * psi
    cross = x_psi[:, :n].conj() @ z_psi.T  # <X_m Ue_i|Z_m Ue_j>
    forms = {"I": psi.conj() @ psi.T, "X": psi.conj() @ x_psi[:, :n].T,
             "Y": 0.5j * (cross - cross.conj().T), "Z": psi.conj() @ z_psi.T}
    expectations = {}
    for name, c in ch.INPUT_STATES.items():
        norm2 = (c.conj() @ forms["I"] @ c).real
        expectations[name] = {"I": 1.0, **{p: float((c.conj() @ forms[p] @ c).real / norm2) for p in "XYZ"}}

    dens, dens_p = np.abs(psi) ** 2, np.abs(psi_p) ** 2
    total = (dens[0] * w.g_minus).sum() / dens[0].sum() + (dens[1] * w.g_plus).sum() / dens[1].sum()
    edges = [(dens[0], dens_p[0]), (dens[1], dens_p[1])]
    turn = complex(ch.target_unitary(label)[1, 1])
    for b in (1, -1, 1j, -1j):  # |0> + b|1>, Bloch vector (Re b, Im b, 0), turned to b·e^{iφ}
        unit = b * turn
        mixed, mixed_p = psi[0] + b * psi[1], psi_p[0] + b * psi_p[1]
        rotated = x_psi[0] + b * x_psi[1]
        rotated[:n] -= (unit.real + 1j * unit.imag * w.g) * mixed
        d, d_p = np.abs(mixed) ** 2, np.abs(mixed_p) ** 2
        term = 0.5 * ((np.abs(rotated) ** 2).sum() / d.sum() + (d_p * w.h_minus * w.h_plus).sum() / d_p.sum()
                      + unit.imag**2 * (d * w.g_minus * w.g_plus).sum() / d.sum())
        total += term
        if b == 1:
            plus = term
        if b in (1, 1j):  # the inputs of `expectations`
            edges.append((d, d_p))
    return GridReadout(expectations, float(total / 12.0),
                       float(plus / 2.0) if ch.GATE_TABLE[label][1] == 3 else None, n, half_width,
                       max(_edge_mass(d) for d, _ in edges),
                       max(_edge_mass(np.fft.fftshift(d_p)) for _, d_p in edges))


def sized_grid_readout(gate: str | RationalPolynomial, delta: float, lam: float, n: int = 4096,
                       half_width: float = 60.0, max_n: int = 1 << 17,
                       windows: dict | None = None, target: str | None = None) -> GridReadout:
    """`grid_readout` on the first window, from (n, half_width), whose edge
    masses are both at most EDGE_LIMIT.  A wide x-edge grows L and N by 3/2
    (dx kept, so the p band too), a wide p-edge doubles N (the band doubles);
    past `max_n` points it fails with both masses named.  `windows`, keyed by
    (N, L), keeps each `_grid_window` for the next gate at this (Δ, λ); a
    polynomial gate is read against `target`."""
    windows = {} if windows is None else windows
    while True:
        if (n, half_width) not in windows:
            windows[n, half_width] = _grid_window(delta, lam, n, half_width)
        readout = grid_readout(gate, delta, lam, n, half_width, windows[n, half_width], target)
        if max(readout.x_edge, readout.p_edge) <= EDGE_LIMIT:
            return readout
        if readout.x_edge > EDGE_LIMIT:
            n, half_width = n * 3 // 2, half_width * 1.5
        if readout.p_edge > EDGE_LIMIT:
            n *= 2
        if n > max_n:
            raise fk.TruncationLeakageError(
                f"no grid up to {max_n} points holds {gate} at delta {delta}, lam {lam}: edge "
                f"masses x {readout.x_edge:.2e}, p {readout.p_edge:.2e} above {EDGE_LIMIT}")


def grid_unit(gates, delta: float, lam: float) -> list[GridReadout]:
    """`sized_grid_readout` for each gate at one (Δ, λ), each sizing its own
    window, with the codewords, profiles and pad length built once per (N, L)."""
    windows: dict = {}
    return [sized_grid_readout(gate, delta, lam, windows=windows) for gate in gates]


@dataclass(frozen=True)
class TwoModeReadout:
    """A two-mode gate's logical readout: `paulis` maps each two-mode Pauli, its
    mode-1 letter first ("XZ" is X_m ⊗ Z_m), to its 4 x 4 matrix <Uφ_i|P|Uφ_j>
    over the product codewords φ_{2a+b} = e_a ⊗ e_b; with its window, the grid
    (n, half_width) and each axis's largest x- and p-edge mass over the four
    post-gate codewords (`_edge_mass` of their marginals)."""

    paulis: dict[str, np.ndarray]
    n: int
    half_width: float
    x_edges: tuple[float, float]
    p_edges: tuple[float, float]


def two_mode_grid_readout(poly: RationalPolynomial, delta: float, lam: float, n: int,
                          half_width: float) -> TwoModeReadout:
    """`grid_readout` for a polynomial in two variables, on the n x n grid of
    `grid_readout`'s x in each mode: each mode's orthonormal codewords from
    `_resummed_codeword`, the gate exp(2πi P(x₁/√(λπ), x₂/√(λπ))), Z_m
    pointwise and X_m through a padded FFT pair along its own axis, and
    Y_m = (iX_mZ_m - iZ_mX_m)/2, the Hermitian part of iX_mZ_m, whose
    expectation is `grid_readout`'s <Y>.  Each Pauli is applied to each
    post-gate codeword and read against all four; mode 1's operators, on the
    strided axis, go first, so a codeword takes 2 FFT pairs on axis 0 and 8 on
    axis 1, and besides the codewords about eight N x N arrays are live at once.
    Nothing checks the window here: a caller asserts the edge masses."""
    x, n_pad, g, h, *_, e0, e1 = _grid_window(delta, lam, n, half_width)
    arg = x / math.sqrt(lam * math.pi)
    kets = np.array([e0, e0, e1, e1])[:, :, None] * np.array([e0, e1, e0, e1])[:, None, :]
    kets *= np.exp(2j * math.pi * sum(float(c) * np.outer(arg**k1, arg**k2)
                                      for (k1, k2), c in poly.terms.items()))

    def on_mode(psi: np.ndarray, axis: int):
        """Yield I, Z_m, X_m and Y_m of the mode along `axis` applied to `psi`,
        each made only when the previous one has been read."""
        shape = (-1, 1) if axis == 0 else (1, -1)
        g_k, h_k = g.reshape(shape), h.reshape(shape)

        def x_m(v):
            v_p = np.fft.fft(v, n_pad, axis=axis)
            v_p *= h_k
            return np.fft.ifft(v_p, axis=axis, out=v_p).take(range(n), axis=axis)

        yield "I", psi
        yield "Z", g_k * psi
        x_psi = x_m(psi)
        yield "X", x_psi
        y_psi = x_m(g_k * psi)
        y_psi -= g_k * x_psi
        y_psi *= 0.5j
        yield "Y", y_psi

    bras = kets.reshape(4, -1)
    paulis = {p1 + p2: np.empty((4, 4), dtype=complex) for p1 in "IXYZ" for p2 in "IXYZ"}
    for j, ket in enumerate(kets):
        for p1, once in on_mode(ket, 0):
            for p2, twice in on_mode(once, 1):
                paulis[p1 + p2][:, j] = np.conj(bras @ np.conj(twice.ravel()))
    x_edges, p_edges = [0.0, 0.0], [0.0, 0.0]
    for ket in kets:
        dens = np.abs(ket) ** 2
        for axis in (0, 1):
            x_edges[axis] = max(x_edges[axis], _edge_mass(dens.sum(axis=1 - axis)))
            dens_p = (np.abs(np.fft.fft(ket, n_pad, axis=axis)) ** 2).sum(axis=1 - axis)
            p_edges[axis] = max(p_edges[axis], _edge_mass(np.fft.fftshift(dens_p)))
    return TwoModeReadout(paulis, n, half_width, tuple(x_edges), tuple(p_edges))


def two_mode_average_fidelity(readout: TwoModeReadout, target: np.ndarray) -> float:
    """F = (4F_e + 1)/5 against the 4 x 4 unitary `target` V, with the entanglement
    fidelity F_e = Σ_P tr(M_P V†σ_P V)/64 over the readout's Pauli matrices M_P and
    σ_P = σ_{P1} ⊗ σ_{P2}: the channel is E(ρ) = Σ_P tr(P U ρ U†) σ_P / 4 on the
    codewords."""
    f_e = sum(np.trace(m @ target.conj().T @ np.kron(ch.PAULI[p[0]], ch.PAULI[p[1]]) @ target).real
              for p, m in readout.paulis.items()) / 64.0
    return (4.0 * f_e + 1.0) / 5.0


def clifford_t_orbit() -> np.ndarray:
    """Bloch vectors of the 12 states Clifford-equivalent to the T state, sorted.

    The orbit of (1, 1, 0)/sqrt(2) under the rotation images of the group
    <H, S>, found by breadth-first search and rounded to 9 decimals: the form
    `channel.CLIFFORD_T_TARGETS` must equal bit for bit.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = np.diag([1.0, 1.0j]).astype(complex)

    def bloch_map(u: np.ndarray) -> np.ndarray:
        cols = []
        for p in ("X", "Y", "Z"):
            m = u @ ch.PAULI[p] @ u.conj().T
            cols.append([float(np.trace(ch.PAULI[q] @ m).real) / 2.0 for q in ("X", "Y", "Z")])
        return np.array(cols).T

    def canon(u):
        k = np.argmax(np.abs(u) > 1e-9)
        ph = u.flat[k] / abs(u.flat[k])
        return tuple(np.round(u.flatten() / ph, 9))

    group = [np.eye(2, dtype=complex)]
    frontier = list(group)
    seen = {canon(group[0])}
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (h, s):
                cand = gen @ g
                key = canon(cand)
                if key not in seen:
                    seen.add(key)
                    group.append(cand)
                    nxt.append(cand)
        frontier = nxt
    t_bloch = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return np.array(sorted({tuple(np.round(bloch_map(u) @ t_bloch, 9)) for u in group}))


# ---------------------------------------------------------------------------
# Closed-form analysis: leading shear terms, optimal bias, logical χ, posterior
# ---------------------------------------------------------------------------


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1], kept per n: scipy's rule costs
    O(n²), about 0.5 s at n = 4001 on a 2-core Xeon."""
    return scipy.special.roots_legendre(n)


def patch_probability(dens: an.TwirledCubicDensity, n_quad: int = 400) -> float:
    """Mass of the twirled cubic density inside the correctable patch at the origin.

    The v_p integral is an erf difference; the v_q marginal, of standard deviation
    sqrt(Σ_q/2π), is integrated by n_quad Gauss–Legendre nodes on
    ±min(PATCH_HALF, 10 sd), so they resolve it however narrow it gets at small Δ.
    """
    half = min(an.PATCH_HALF, 10.0 * math.sqrt(dens.sigma_q / (2.0 * math.pi)))
    nodes, weights = _legendre_rule(n_quad)
    vq = half * nodes
    var_p, mean_p = dens.sigma_p(vq), dens.mean_p(vq)
    inner = 0.5 * (
        scipy.special.erf(math.sqrt(math.pi) * (an.PATCH_HALF - mean_p) / np.sqrt(var_p))
        - scipy.special.erf(math.sqrt(math.pi) * (-an.PATCH_HALF - mean_p) / np.sqrt(var_p))
    )
    return float(np.sum(weights * an._normal_1d(dens.sigma_q, vq) * inner) * half)


def ft_erf_product(delta: float) -> float:
    """erf1·erf2 at λ(Δ): `analytic.ft_lower_bound`'s lower bound on p_E(0), restated."""
    lam = an.ft_lambda_ansatz(delta)
    t = math.tanh(delta**2 / 2.0)
    erf1 = math.erf(math.sqrt(math.pi) / (t / lam) ** 0.25)
    inner = math.sqrt(t / lam) / (2.0 * lam * t) + lam * t
    return erf1 * math.erf(math.sqrt(math.pi) / (4.0 * math.sqrt(8.0) * math.sqrt(inner)))


def ft_patch_fidelity(delta: float) -> float:
    """`ft_lower_bound`'s chain on the true patch mass: 1/3 + (2/3)((2 p_E(0) - 1)/C)²,
    p_E(0) the twirled density's mass on the patch at λ(Δ), 4001 nodes."""
    lam = an.ft_lambda_ansatz(delta)
    p0 = patch_probability(an.TwirledCubicDensity(delta, lam), n_quad=4001)
    return 1.0 / 3.0 + (2.0 / 3.0) * ((2.0 * p0 - 1.0) / an.chi_norm_constant(delta, lam)) ** 2


class NotApplicableError(ValueError):
    """Requested quantity is undefined for this input (e.g. degree < 3)."""


def shear_variance_leading(poly: RationalPolynomial) -> Fraction:
    """Exact rational (a_n β_n)² = 4 a_n² n²(n-1)²/2^{n-1}, the leading shear weight.

    Ratios of this quantity between same-degree gates are exact; the shared
    Γ and π factors of E(v_p²)'s leading term cancel.
    """
    n = poly.degree
    if n < 2:
        return Fraction(0)
    a_n = poly.coeff(n)
    return a_n**2 * Fraction(4 * n**2 * (n - 1) ** 2, 2 ** (n - 1))


def shear_variance_ratio(p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """Exact ratio of leading gate-induced E(v_p²) terms (same degree required)."""
    if p.degree != q.degree:
        raise ValueError("shear-variance ratio needs equal-degree polynomials")
    return shear_variance_leading(p) / shear_variance_leading(q)


def _leading_shear_constant(poly: RationalPolynomial) -> float:
    n = poly.degree
    a_n = float(poly.coeff(n))
    return (
        a_n**2
        * an.beta_coefficient(n) ** 2
        * 2.0 ** (n - 3)
        * math.pi ** (0.5 - n)
        * scipy.special.gamma(n - 1.5)
    )


def vp2_leading(poly: RationalPolynomial, delta: float, lam: float) -> float:
    """Leading-term E(v_p²) objective Δ²λ/(4π) + K Δ^{6-2n} λ^{1-n}."""
    n = poly.degree
    k = _leading_shear_constant(poly)
    return delta**2 * lam / (4.0 * math.pi) + k * delta ** (6 - 2 * n) * lam ** (1 - n)


def lambda_opt_asymptotic(poly: RationalPolynomial, delta: float) -> float:
    """Asymmetry minimising the leading E(v_p²), the n-th-root expression.

    λ_opt = [4π(n-1) a_n² β_n² 2^{n-3} π^{1/2-n} Γ(n-3/2) / Δ^{2n-4}]^{1/n},
    an O(Δ^{4/n-2}) growth.  Degree-2 gates spread no shear, so biasing is
    not applicable below degree 3.
    """
    n = poly.degree
    if n < 3:
        raise NotApplicableError(
            f"optimal biasing needs a gate of degree >= 3, got degree {n}"
        )
    if delta <= 0:
        raise ValueError("delta must be positive")
    k = _leading_shear_constant(poly)
    return (4.0 * math.pi * (n - 1) * k / delta ** (2 * n - 4)) ** (1.0 / n)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """(x, f(x)) at the lower of the two inner points once golden-section search
    has shrunk [a, b] to at most `tol`; one evaluation of f per step, so it
    suits a costly f with a single minimum inside the bracket."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def position_space_vacuum_cells(
    delta: float, n_grid: int, cut: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Test oracle: syndrome-cell weights and Bloch vectors of the vacuum method.

    Built in position space, with no characteristic functions or Pauli sign
    tables.  The smeared vacuum is the thermal state with n_bar =
    tanh(Delta^2/2) and variance s2 = n_bar + 1/2 per quadrature, whose kernel
    is rho(x, y) ∝ exp(-((x+y)/2)^2/(2 s2) - s2 (x-y)^2/2).  Conditioning on
    syndrome v projects it onto the shifted ideal square-GKP codewords
    W(v)|j> ∝ e^{i b q} sum_k |q = (2k+j) sqrt(pi) + a>, with
    a = sqrt(2 pi) v_q and b = sqrt(2 pi) v_p, so the logical matrix is
    rho_L[i, j](v) = sum_{k,l} e^{-i b (x-y)} rho(x, y) at x = (2k+i)
    sqrt(pi) + a, y = (2l+j) sqrt(pi) + a.  In m = k+l and n = k-l (equal
    parity) the sum splits into a v_q factor times a v_p factor.  At cut 6
    the dropped terms are below e^-80 for Delta <= 0.3.
    """
    s2 = math.tanh(delta**2 / 2.0) + 0.5
    root_pi = math.sqrt(math.pi)
    half = 1.0 / math.sqrt(8.0)  # the correctable patch (-half, half]^2
    centers = (np.arange(n_grid) + 0.5) / n_grid * 2.0 * half - half
    shift = math.sqrt(2.0 * math.pi) * centers  # a on the q axis, b on the p axis
    ms = np.arange(-cut, cut + 1)
    rho = {}
    for i in (0, 1):
        for j in (0, 1):
            rho[i, j] = 0.0
            for parity in (0, 1):
                m = ms[ms % 2 == parity]
                half_sum = (m + (i + j) / 2.0) * root_pi  # (x+y)/2 - a, m = k+l
                diff = (2.0 * m + i - j) * root_pi  # x - y, m = k-l
                f_q = np.exp(-np.square(half_sum[None, :] + shift[:, None]) / (2.0 * s2))
                g_p = np.exp(-s2 * diff**2 / 2.0)[None, :] * np.exp(-1j * np.outer(shift, diff))
                rho[i, j] = rho[i, j] + np.outer(f_q.sum(axis=1), g_p.sum(axis=1))
    trace = (rho[0, 0] + rho[1, 1]).real
    bloch = np.stack([
        (2.0 * rho[0, 1].real / trace).ravel(),
        (-2.0 * rho[0, 1].imag / trace).ravel(),
        ((rho[0, 0] - rho[1, 1]).real / trace).ravel(),
    ], axis=1)
    return (trace / trace.sum()).ravel(), bloch

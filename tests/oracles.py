"""Test oracles: slower or more direct routes to figures the package computes,
and the forms of them that only tests call.

* `reduce`: the coefficient reduction in `Fraction` arithmetic, each L_j a
  dense product of j linear factors and the lexicographic pruning over the
  whole fixed profile of degrees >= j, with the steps of its first minimum.
  It shares no arithmetic with the integer `polyalg.reduce` it checks.
* `replay_branch_log`: a start minus each logged step's
  n·L_{e1}(x1)···L_{eN}(xN) (`basis_product`, on the dense-product `basis`),
  without its constant: the polynomial a printed `branch_log` reaches.
* `multivariate_minima`: the multivariate reduction with no pruning, every
  boundary choice followed to the end in `Fraction` arithmetic, and the
  lexicographic minima taken over the finished polynomials.
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
  by the channel's solved frame); `grid_readout`, the four-input readout of a gate
  label or polynomial on a uniform position grid (the Fourier-grid,
  split-operator form of the channel: Poisson-resummed lattice codewords,
  `_resummed_codeword`, pinned to the direct sum `_grid_codeword`;
  closed-form smeared Pauli profiles; one FFT pair per input, zero-padded
  so that no X_m shift wraps onto the codewords), the
  converged reference the Fock engine approaches as d_init grows, as a
  `GridReadout` that reports its window's edge masses against `EDGE_LIMIT`,
  and `sized_grid_readout`, which grows the window until they pass;
  `optima`, a sweep's per-(gate, n̄) optimum rows;
  `clifford_t_orbit`, the <H, S> search behind `channel.CLIFFORD_T_TARGETS`.
* `basis` (the dense-product L_n, n >= 1), `value` (P(x) in one variable),
  `is_integer_valued`, `lex_compare` with `LexOrder`, `scale_argument` and
  `phase_check_on_box`: exact-algebra checks no command needs, the last the
  phase check of a C^{N-1}Λ_m polynomial (N = 1 included) on a symmetric box
  of integers.
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
* `thermal_characteristic`, `logical_char_function` and `vacuum_posterior`:
  square-lattice logical characteristic functions, and the vacuum posterior
  at one syndrome, the pointwise form of `analytic.vacuum_posterior_grid`.

Everything here is reached only from tests; `test_surface.py` keeps the
package free of such names.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import scipy.fft
import scipy.special

from gkpphase import NumericFailure, analytic as an, channel as ch, fock as fk, symplectic as sp
from gkpphase.fock import FockVector
from gkpphase.polyalg import (
    BranchStep, RationalPolynomial, ReductionOutcome,
)

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


def replay_branch_log(start: RationalPolynomial, log) -> RationalPolynomial:
    """The polynomial a reduction's steps reach from `start`: each step's
    n·L_{e1}(x1)···L_{eN}(xN) (`basis_product`) subtracted, then the constant dropped."""
    out = start
    for step in log:
        out = out - step.multiplier * basis_product(step.monomial)
    return RationalPolynomial.from_terms(out.n_vars, {e: c for e, c in out.terms.items() if any(e)})


def value(poly: RationalPolynomial, x) -> Fraction:
    """P(x) in one variable, exactly, from the terms."""
    return sum((c * Fraction(x) ** k for (k,), c in poly.terms.items()), Fraction(0))


def drop_constant(poly: RationalPolynomial) -> RationalPolynomial:
    """P - P(0), a one-variable polynomial without its global phase."""
    return poly - RationalPolynomial((poly.coeff(0),))


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
    """The lexicographically minimal gate polynomials, in Fraction arithmetic,
    positive leading coefficient first, with the steps that reach the first."""
    deg = poly.degree
    if deg <= 0:
        return ReductionOutcome((drop_constant(poly),), ())

    branches: list[tuple[RationalPolynomial, tuple[BranchStep, ...]]] = [(poly, ())]
    for j in range(deg, 0, -1):
        lead = Fraction(1, factorial(j))
        grown: list[tuple[RationalPolynomial, tuple[BranchStep, ...]]] = []
        for cur, log in branches:
            for n_j, _r, boundary in split_coefficient(cur.coeff(j), lead):
                nxt = cur - n_j * basis(j) if n_j else cur
                grown.append((nxt, log + (BranchStep((j,), n_j, boundary),)))
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

    logs: dict[RationalPolynomial, tuple[BranchStep, ...]] = {}  # each minimum's own steps
    for b, log in branches:
        c0 = b.coeff(0)
        n0 = c0.numerator // c0.denominator
        logs.setdefault(drop_constant(b), log + ((BranchStep((0,), n0, False),) if n0 else ()))
    uniq = sorted(logs, key=lambda p: (p.coeff(p.degree) < 0, p.coeffs))
    return ReductionOutcome(tuple(uniq), logs[uniq[0]])


def multivariate_minima(poly: RationalPolynomial) -> set[RationalPolynomial]:
    """Every multiplier choice at every boundary followed to the end, in
    `Fraction` arithmetic with dense-product bases; the lexicographic minima.

    Monomials are taken by total degree, then exponent tuple, both descending,
    over every exponent <= a start monomial componentwise; at each one the
    coefficient a_e is split as n/(e1!···eN!) + r (both n on the boundary) and
    n L_{e1}(x1)···L_{eN}(xN) subtracted.  No branch is dropped before the end,
    where the magnitude profiles in walk order are compared whole.
    """
    walk = sorted(
        {f for e in poly.terms for f in product(*(range(k + 1) for k in e)) if any(f)},
        key=lambda f: (sum(f), f), reverse=True,
    )
    leaves = [dict(poly.terms)]
    for e in walk:
        lead = Fraction(1, math.prod(factorial(k) for k in e))
        terms = basis_product(e).terms
        grown = []
        for cur in leaves:
            for n, _r, _boundary in split_coefficient(Fraction(cur.get(e, 0)), lead):
                nxt = dict(cur)
                for f, c in terms.items():
                    nxt[f] = nxt.get(f, 0) - n * c
                grown.append(nxt)
        leaves = grown
        if len(leaves) > MAX_BRANCHES:
            raise RuntimeError(f"tie enumeration explosion: {len(leaves)} leaves")
    finals = {RationalPolynomial.from_terms(poly.n_vars, {f: c for f, c in leaf.items() if any(f)})
              for leaf in leaves}
    profiles = {p: tuple(abs(p.terms.get(f, 0)) for f in walk) for p in finals}
    best = min(profiles.values())
    return {p for p, prof in profiles.items() if prof == best}


def is_integer_valued(poly: RationalPolynomial) -> bool:
    """Exact test for P(Z) ⊆ Z via greedy expansion in the L_n basis.

    The expansion is triangular (L_n has leading coefficient 1/n!), so the
    coefficients c_n = a_n * n! are forced; P is integer-valued iff every
    c_n and the residual constant are integers.
    """
    rem = poly
    for j in range(poly.degree, 0, -1):
        c = rem.coeff(j) * factorial(j)
        if c.denominator != 1:
            return False
        if c != 0:
            rem = rem - c * basis(j)
    return rem.coeff(0).denominator == 1


class LexOrder(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"


def lex_compare(p: RationalPolynomial, q: RationalPolynomial) -> LexOrder:
    """Compare coefficient magnitudes from the highest degree downward.

    The first strict |coefficient| difference decides; full magnitude ties
    are EQUAL (sign variants of one minimum compare equal).
    """
    top = max(p.degree, q.degree, 0)
    for k in range(top, -1, -1):
        a, b = abs(p.coeff(k)), abs(q.coeff(k))
        if a < b:
            return LexOrder.LESS
        if a > b:
            return LexOrder.GREATER
    return LexOrder.EQUAL


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


def overlap(a: FockVector, b: FockVector) -> complex:
    """<a|b> over the dimensions both vectors have."""
    n = min(a.amplitudes.size, b.amplitudes.size)
    return complex(np.vdot(a.amplitudes[:n], b.amplitudes[:n]))


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
) -> FockVector:
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
    vec = FockVector(amps)
    return vec.normalized()


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
    x, vecs = fk.q_eigensystem(dt, dt)
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
    x, v = fk.q_eigensystem(dt, dt)
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
    x, v = fk.q_eigensystem(dt, dt)
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


def _smeared_square_wave(theta: np.ndarray, sigma: float) -> np.ndarray:
    """E[sign cos(θ + σZ)], Z standard normal, in closed form: one minus twice
    the normal mass of θ + σZ in (π/2, 3π/2) + 2πk, θ reduced mod 2π, |k| <= 3."""
    theta = np.mod(theta, 2.0 * math.pi)
    out = np.ones_like(theta)
    for k in range(-3, 4):
        start = 0.5 * math.pi + 2.0 * math.pi * k - theta
        out -= 2.0 * (scipy.special.ndtr((start + math.pi) / sigma) - scipy.special.ndtr(start / sigma))
    return out


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
    psi = np.zeros(x.size, dtype=complex)
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
    """A readout (input name -> Pauli expectations, as `ChannelEngine.readout`
    returns it) with its window: the grid (n, half_width) and the largest x-
    and p-edge masses over the four post-gate inputs (`_edge_mass`)."""

    expectations: dict[str, dict[str, float]]
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


def grid_readout(gate: str | RationalPolynomial, delta: float, lam: float, n: int,
                 half_width: float) -> GridReadout:
    """The channel's four-input readout on a uniform position grid, sharing no
    arithmetic with the Fock engine but `fock.orthonormalize` and `fock.phase_profile`.
    The gate is a `GATE_TABLE` label or any one-variable polynomial.

    x_j = -L + j·2L/N.  The codewords are the coherent-state lattice on the
    grid, each row Poisson-resummed (`_resummed_codeword`); the gate
    multiplies by exp(2πi P(x/sqrt(λπ))); Z_m is g(x√(π/λ)) and X_m is
    h(p√(πλ)), the smeared square waves E[sign cos(θ + σZ)] with
    σ² = π·tanh(Δ²/2) (the series of `fock.pauli_profiles` summed to all
    orders), Z_m applied pointwise and X_m through one FFT pair.  That pair
    runs on ψ zero-padded by `_x_reach`, at p = 2π·fftfreq(N', dx): on the
    bare 2L period, a shift by k√(πλ) near 2L would wrap back onto the
    codewords, which overlap themselves at whole multiples of √(πλ) (unpadded,
    T3 at Δ = 0.1, λ(Δ) and (6144, 90) reads 1 - F 1.2e-4 relative low).  Nothing
    checks the window here: a caller asserts the reported edge masses, and a
    grid can pass an N-doubling check while L is too small.
    """
    dx = 2.0 * half_width / n
    x = -half_width + np.arange(n) * dx
    n_pad = scipy.fft.next_fast_len(n + math.ceil(_x_reach(delta, lam) / dx))
    p = 2.0 * math.pi * np.fft.fftfreq(n_pad, dx)
    sigma = math.sqrt(math.pi * math.tanh(delta**2 / 2.0))
    g = _smeared_square_wave(x * math.sqrt(math.pi / lam), sigma)
    h = _smeared_square_wave(p * math.sqrt(math.pi * lam), sigma)
    e0, e1 = fk.orthonormalize(*(FockVector(_resummed_codeword(bit, delta, lam, x)) for bit in (0, 1)))
    phase = fk.phase_profile(ch.GATE_TABLE[gate][0] if isinstance(gate, str) else gate, lam, x)
    out = {}
    x_edge = p_edge = 0.0
    for name, (a, b) in ch.INPUT_STATES.items():
        vec = a * e0.amplitudes + b * e1.amplitudes
        psi = phase * (vec / np.linalg.norm(vec))
        norm2 = float(np.vdot(psi, psi).real)
        z_psi = g * psi
        psi_p = np.fft.fft(psi, n_pad)
        x_psi = np.fft.ifft(h * psi_p)[:n]
        out[name] = {"I": 1.0, "X": float(np.vdot(psi, x_psi).real) / norm2,
                     "Y": -float(np.vdot(x_psi, z_psi).imag) / norm2,
                     "Z": float(np.vdot(psi, z_psi).real) / norm2}
        x_edge = max(x_edge, _edge_mass(np.abs(psi) ** 2))
        p_edge = max(p_edge, _edge_mass(np.fft.fftshift(np.abs(psi_p) ** 2)))
    return GridReadout(out, n, half_width, x_edge, p_edge)


def sized_grid_readout(gate: str | RationalPolynomial, delta: float, lam: float, n: int = 4096,
                       half_width: float = 60.0, max_n: int = 1 << 17) -> GridReadout:
    """`grid_readout` on the first window, from (n, half_width), whose edge
    masses are both at most EDGE_LIMIT.  A wide x-edge grows L and N by 3/2
    (dx kept, so the p band too), a wide p-edge doubles N (the band doubles);
    past `max_n` points it fails with both masses named."""
    while True:
        readout = grid_readout(gate, delta, lam, n, half_width)
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


def thermal_characteristic(n_bar: float):
    """χ(v) = exp(-π |v|² (n̄ + 1/2)) of the thermal state, real and even."""

    def chi(v_q, v_p):
        return np.exp(-math.pi * (np.square(v_q) + np.square(v_p)) * (n_bar + 0.5))

    return chi


def _wedge(aq, ap, bq, bp):
    return aq * bp - ap * bq


def logical_char_function(
    chi, pauli: str, v: tuple[float, float], lattice_cut: int = 6
) -> complex:
    """ξ^σ(v) = Σ_n e^{iθ(v,σ,n)} χ(v + l_σ + sqrt(2) n) over the square lattice.

    θ = π[v ∧ l_σ + (v + l_σ) ∧ sqrt(2)n] follows from the displacement
    composition rule with σ̄ = W(l_σ).  Raises `NumericFailure` when
    the outermost lattice shell still contributes at the 1e-12 level.
    """
    pauli = pauli.upper()
    if pauli not in an.PAULI_OFFSETS:
        raise ValueError(f"pauli must be one of I, X, Y, Z; got {pauli!r}")
    v_q, v_p = float(v[0]), float(v[1])
    if not (-an.PATCH_HALF < v_q <= an.PATCH_HALF and -an.PATCH_HALF < v_p <= an.PATCH_HALF):
        raise ValueError(f"v = {v} lies outside the correctable patch")
    lq, lp = an.PAULI_OFFSETS[pauli]
    ns = np.arange(-lattice_cut, lattice_cut + 1)
    nq, np_ = np.meshgrid(ns, ns, indexing="ij")
    uq = v_q + lq + math.sqrt(2.0) * nq
    up = v_p + lp + math.sqrt(2.0) * np_
    theta = math.pi * (
        _wedge(v_q, v_p, lq, lp)
        + _wedge(v_q + lq, v_p + lp, math.sqrt(2.0) * nq, math.sqrt(2.0) * np_)
    )
    terms = np.exp(1j * theta) * chi(uq, up)
    total = complex(np.sum(terms))
    shell = np.abs(terms)[(np.abs(nq) == lattice_cut) | (np.abs(np_) == lattice_cut)]
    if shell.sum() > 1e-12 * max(abs(total), 1e-300):
        raise NumericFailure(
            f"lattice sum not converged at cut {lattice_cut} (shell {shell.sum():.2e})"
        )
    return total


def vacuum_posterior(
    delta: float, v: tuple[float, float]
) -> tuple[float, tuple[float, float, float]]:
    """Unnormalised syndrome density and conditional Bloch vector at one v.

    The state is the measurement-noise-smeared vacuum, a thermal state with
    n̄ = tanh(Δ²/2); conditioning on syndrome v and applying the corrective
    displacement leaves the logical state with Bloch components
    g_μ(v)/g_I(v).  `analytic.vacuum_posterior_grid` evaluates the same sums
    over a grid of cell centres and normalises the weights.
    """
    v_q, v_p = float(v[0]), float(v[1])
    if not (-an.PATCH_HALF < v_q <= an.PATCH_HALF and -an.PATCH_HALF < v_p <= an.PATCH_HALF):
        raise ValueError(f"v = {v} lies outside the correctable patch")
    sums = an._posterior_sums(delta, np.array([v_q]), np.array([v_p]))
    g_i = float(sums["I"][0, 0])
    bloch = tuple(float(sums[mu][0, 0]) / g_i for mu in ("X", "Y", "Z"))
    return g_i, bloch  # type: ignore[return-value]

"""Test oracles: slower or more direct routes to figures the package computes,
and the forms of them that only tests call.

* `reduce`: the coefficient reduction in `Fraction` arithmetic, each L_j a
  dense product of j linear factors and the lexicographic pruning over the
  whole fixed profile of degrees >= j.  It shares no arithmetic with the
  integer `polyalg.reduce` it checks, and m = 8 takes seconds.
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
  (`output_density`); `optima`, a sweep's per-(gate, n̄) optimum rows;
  `clifford_t_orbit`, the <H, S> search behind `channel.CLIFFORD_T_TARGETS`.
* `basis` (the dense-product L_n, n >= 1), `is_integer_valued`,
  `lex_compare` with `LexOrder`, `scale_argument` and `verify_control_gate`:
  exact-algebra checks no command needs, the last the phase check of a
  multivariate C^{N-1}Λ_m polynomial on a box of integers.
* `overlap` of two Fock vectors, and `symplectic_inverse` of a Gaussian op.
* `shear_variance_leading`, `shear_variance_ratio`, `vp2_leading`,
  `lambda_opt_asymptotic` (with `NotApplicableError`): the leading-order
  shear terms of E(v_p²) and the asymptotically optimal asymmetry;
  `patch_probability`, the twirled cubic density's mass on a patch.
* `thermal_characteristic`, `logical_char_function` and `vacuum_posterior`:
  square-lattice logical characteristic functions, and the vacuum posterior
  at one syndrome, the pointwise form of `analytic.vacuum_posterior_grid`.

Everything here is reached only from tests; `test_surface.py` keeps the
package free of such names.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import scipy.special

from gkpphase import analytic as an, channel as ch, fock as fk, symplectic as sp
from gkpphase.fock import FockVector
from gkpphase.polyalg import (
    BranchStep, MultiRationalPolynomial, RationalPolynomial, ReductionOutcome,
)

MAX_BRANCHES = 65536

_BASIS_CACHE: dict[int, RationalPolynomial] = {}


def basis(n: int) -> RationalPolynomial:
    """L_n = (1/n!) prod_{i=1..n} (x + i - s), s = n/2 (n even) or (n+1)/2 (n odd).

    Integer-valued with leading coefficient exactly 1/n!; n must be an integer >= 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"basis requires an integer n >= 1, got {n!r}")
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


def verify_control_gate(poly: MultiRationalPolynomial, m: int, k_range: int = 6) -> bool:
    """Phase check for C^{N-1}Λ_m: 2^-m mod 1 on all-odd inputs, else 0."""
    target = Fraction(1, 2**m)
    for xs in product(range(-k_range, k_range + 1), repeat=poly.n_vars):
        val = poly(xs)
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
    s_inv = -om @ op.S.T @ om
    return sp.GaussianOp(s_inv, -(s_inv @ op.d))


def overlap(a: FockVector, b: FockVector) -> complex:
    """<a|b> over the dimensions both vectors have."""
    n = min(a.d, b.d)
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
    x, vecs = fk.q_eigensystem(plan.d_temp(d))
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
    x, v = fk.q_eigensystem(dt)
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
    x, v = fk.q_eigensystem(dt)
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


def logical_expectation(config: ch.ChannelConfig, qubit, pauli: str) -> float:
    """tr(σ E(|ψ><ψ|)) for a pure qubit input through the configured channel."""
    pauli = pauli.upper()
    if pauli not in ch.PAULI:
        raise ValueError(f"pauli must be one of I, X, Y, Z; got {pauli!r}")
    return ch.ChannelEngine(config).pauli_expectations(np.asarray(qubit, dtype=complex))[pauli]


def average_gate_fidelity(config: ch.ChannelConfig, cache_dir=None) -> float:
    """Average gate fidelity of the config's gate against `config.target`, through a fresh engine."""
    engine = ch.ChannelEngine(config, cache_dir)
    return ch.average_gate_fidelity_from_readout(engine.readout(), config.target)


def output_density(readout: ch.LogicalReadout, state: str) -> np.ndarray:
    """The 2x2 channel output for one basis input, (I + <X>X + <Y>Y + <Z>Z)/2."""
    row = readout.expectations[state]
    return sum(row[p] * ch.PAULI[p] for p in ("I", "X", "Y", "Z")) / 2.0


def optima(result: ch.SweepResult) -> dict[str, dict[float, tuple[float, float, bool]]]:
    """Per gate, n_bar -> (optimal lam, avg infidelity there, boundary flag), read
    from the rows that `channel.sweep` marks `is_optimal`."""
    out: dict[str, dict[float, tuple[float, float, bool]]] = {}
    for r in result.rows:
        if r.is_optimal:
            out.setdefault(r.gate, {})[r.n_bar] = (r.lam, r.avg_infidelity, r.boundary_flag)
    return out


def average_gate_fidelity_reconstructed(readout: ch.LogicalReadout, target) -> float:
    """`channel.average_gate_fidelity_from_readout` through explicit reconstruction.

    Reconstructs E(σ_j) by linearity from the four output density matrices
    and applies the Nielsen formula F = [Σ_j tr(U σ_j U† E(σ_j)) + 4]/12.
    """
    alpha, _duals = ch._dual_frame()
    u = ch.target_unitary(target)
    outs = {name: output_density(readout, name) for name in ch.INPUT_ORDER}
    total = 0.0
    for j, p in enumerate(("I", "X", "Y", "Z")):
        e_sigma = sum(alpha[j, k] * outs[name] for k, name in enumerate(ch.INPUT_ORDER))
        total += float(np.trace(u @ ch.PAULI[p] @ u.conj().T @ e_sigma).real)
    return (total + 4.0) / 12.0


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


def patch_probability(dens: an.TwirledCubicDensity, center=(0.0, 0.0), n_quad: int = 400) -> float:
    """Mass of the twirled cubic density inside the correctable patch centred at `center`."""
    cq, cp = center
    vq = cq + np.linspace(-an.PATCH_HALF, an.PATCH_HALF, n_quad)
    dq = vq[1] - vq[0]
    lo, hi = cp - an.PATCH_HALF, cp + an.PATCH_HALF
    var_p, mean_p = dens.sigma_p(vq), dens.mean_p(vq)
    inner = 0.5 * (
        scipy.special.erf(math.sqrt(math.pi) * (hi - mean_p) / np.sqrt(var_p))
        - scipy.special.erf(math.sqrt(math.pi) * (lo - mean_p) / np.sqrt(var_p))
    )
    return float(np.sum(an._normal_1d(dens.sigma_q, vq) * inner) * dq)


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
    composition rule with σ̄ = W(l_σ).  Raises `analytic.AccuracyError` when
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
        raise an.AccuracyError(
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

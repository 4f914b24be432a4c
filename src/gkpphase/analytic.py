"""Closed-form error analysis for polynomial phase gates on GKP states.

Contents:

* first/second moments of the twirled propagated-error displacement
  distribution for an arbitrary gate polynomial (derivative approximation,
  exact Gaussian-moment sums),
* the exact twirled density of the minimal cubic gate (shear-shifted
  Gaussian product) and its normalisation C(Δ, λ) with Jacobi θ3 factors,
* the Erf-product fault-tolerance fidelity lower bound at its bias ansatz
  λ(Δ), with its validity window Δ ≲ 0.372,
* the vacuum-method posterior (syndrome density + conditional Bloch
  vector) on a grid of syndrome cells, from stabiliser-shifted thermal
  characteristic functions.

The moments, the twirled density and the bound refuse a width or an
asymmetry that is not positive and finite.  The leading-order shear terms, the asymptotic optimal asymmetry, the
logical characteristic functions and the pointwise posterior are test
oracles (`tests/oracles.py`).

Displacement units follow the rest of the package: W(v) with v in units of
sqrt(2π), correctable patch (-1/sqrt(8), 1/sqrt(8)]^2, logical Paulis at the
half-lattice offsets l_X = (1/sqrt(2), 0), l_Y = (1/sqrt(2), 1/sqrt(2)),
l_Z = (0, 1/sqrt(2)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gamma

from . import NumericFailure
from .polyalg import RationalPolynomial

PATCH_HALF = 1.0 / math.sqrt(8.0)

PAULI_OFFSETS = {
    "I": (0.0, 0.0),
    "X": (1.0 / math.sqrt(2.0), 0.0),
    "Y": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "Z": (0.0, 1.0 / math.sqrt(2.0)),
}


# ---------------------------------------------------------------------------
# Moments of the twirled error distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSummary:
    """Second moments of the twirled displacement error; the mean is zero."""

    e_vq2: float
    e_vp2: float
    e_vqvp: float

    def __post_init__(self):
        if self.e_vq2 < 0 or self.e_vp2 < 0:
            raise ValueError("variances must be nonnegative")
        if self.e_vqvp * self.e_vqvp > self.e_vq2 * self.e_vp2 * (1 + 1e-12):
            raise ValueError("cross moment violates Cauchy-Schwarz")


def beta_coefficient(k: int) -> float:
    """β_k = 2k(k-1) / sqrt(2)^(k-1), the shear weight of the x^k term."""
    return 2.0 * k * (k - 1) / math.sqrt(2.0) ** (k - 1)


def _x_plus_moment(k: int, delta_p: float) -> float:
    """E[x₊^k] of the width-sqrt(2)/Δ_p Gaussian; vanishes for odd k.  A Python
    float, so an overflow gives inf (which `moments` refuses), not a numpy warning."""
    if k % 2:
        return 0.0
    try:
        scale = delta_p ** (-k)
    except OverflowError:
        scale = math.inf
    return (
        2.0 ** (k / 2.0 - 1.0)
        * 2.0
        * math.pi ** (-(1.0 + k) / 2.0)
        * float(gamma((1.0 + k) / 2.0))
        * scale
    )


def moments(
    poly: RationalPolynomial, delta_q: float, delta_p: float
) -> MomentSummary:
    """Exact closed-form second moments for the gate polynomial `poly`.

    E(v_q²) = Δ_q²/(4π) is gate independent.  The momentum variance carries
    the full double sum over coefficient pairs,
    E(v_p²) = Δ_p²/(4π) + Δ_q²/(2π) Σ_{j,k>=2} a_j a_k β_j β_k E[x₊^{j+k-4}],
    and the cross term keeps only even k (odd Gaussian moments vanish).
    """
    if not (0 < delta_q < math.inf and 0 < delta_p < math.inf):
        raise ValueError(f"moments needs positive finite widths, got {delta_q}, {delta_p}")
    n = poly.degree
    e_vq2 = delta_q**2 / (4.0 * math.pi)
    shear = 0.0
    for j in range(2, n + 1):
        aj = float(poly.coeff(j))
        if aj == 0.0:
            continue
        for k in range(2, n + 1):
            ak = float(poly.coeff(k))
            if ak == 0.0:
                continue
            shear += (
                aj * ak * beta_coefficient(j) * beta_coefficient(k)
                * _x_plus_moment(j + k - 4, delta_p)
            )
    e_vp2 = delta_p**2 / (4.0 * math.pi) + delta_q**2 / (2.0 * math.pi) * shear
    cross = 0.0
    for k in range(2, n + 1, 2):
        ak = float(poly.coeff(k))
        if ak:
            cross += ak * beta_coefficient(k) * _x_plus_moment(k - 2, delta_p)
    e_vqvp = delta_q**2 / (2.0 * math.sqrt(2.0) * math.pi) * cross
    for name, value in (("e_vp2", e_vp2), ("e_vqvp", e_vqvp)):
        if not math.isfinite(value):
            raise ValueError(f"delta_q {delta_q:g} and delta_p {delta_p:g} take {name} "
                             "out of float range")
    return MomentSummary(e_vq2, e_vp2, e_vqvp)


# ---------------------------------------------------------------------------
# Exact twirled density of the minimal cubic gate
# ---------------------------------------------------------------------------


def theta3(q: float) -> float:
    """Jacobi θ3(0, q) = 1 + 2 Σ q^(n²), truncated at term size 1e-15."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"theta3 needs 0 <= q < 1, got {q}")
    total = 1.0
    n = 1
    while True:
        term = 2.0 * q ** (n * n)
        if term < 1e-15:
            return total
        total += term
        n += 1


def chi_norm_constant(delta: float, lam: float) -> float:
    """C(Δ, λ) = 2 coth(Δ²) tanh(Δ²/2) θ3(e^{-π coth(Δ²)/λ}) θ3(e^{-π λ coth(Δ²)})."""
    if delta <= 0 or lam <= 0:
        raise ValueError("chi_norm_constant needs positive arguments")
    coth = 1.0 / math.tanh(delta**2)
    t = math.tanh(delta**2 / 2.0)
    return (
        2.0 * coth * t
        * theta3(math.exp(-math.pi * coth / lam))
        * theta3(math.exp(-math.pi * lam * coth))
    )


def _normal_1d(var: float, x) -> np.ndarray:
    """exp(-π x²/Σ)/sqrt(Σ): the rescaled-variance Gaussian, unit mass."""
    return np.exp(-math.pi * np.square(x) / var) / math.sqrt(var)


@dataclass(frozen=True)
class TwirledCubicDensity:
    """Exact twirled displacement density of the minimal cubic gate.

    The v_p marginal at fixed v_q is a normal density with mean
    v_q/2 - v_q²/sqrt(2) and variance v_q²/(2λ tanh(Δ²/2)) + λ tanh(Δ²/2);
    v_q itself is normal with variance tanh(Δ²/2)/λ.  Both factors carry
    unit mass, so the density integrates to one exactly; C(Δ, λ) relates it
    to |χ_E|²/ξ (divide by C) and feeds the fidelity lower bound.
    """

    delta: float
    lam: float

    def __post_init__(self):
        if not (0 < self.delta < math.inf and 0 < self.lam < math.inf):
            raise ValueError("TwirledCubicDensity needs positive finite delta and lam, "
                             f"got {self.delta}, {self.lam}")
        if not self.delta < math.sqrt(sys.float_info.max):
            raise ValueError(f"delta {self.delta:g} takes delta^2 out of float range")
        t = math.tanh(self.delta**2 / 2.0)  # the variances below scale with t/λ and λt
        if not all(sys.float_info.min <= v < math.inf for v in (t / self.lam, self.lam * t)):
            raise ValueError(f"delta {self.delta:g} and lam {self.lam:g} take tanh(delta^2/2)/lam "
                             "or lam*tanh(delta^2/2) out of the normal positive floats")

    @property
    def sigma_q(self) -> float:
        return math.tanh(self.delta**2 / 2.0) / self.lam

    def sigma_p(self, v_q) -> np.ndarray:
        t = math.tanh(self.delta**2 / 2.0)
        return np.square(v_q) / (2.0 * self.lam * t) + self.lam * t

    def mean_p(self, v_q) -> np.ndarray:
        return np.asarray(v_q) / 2.0 - np.square(v_q) / math.sqrt(2.0)

    def __call__(self, v_q, v_p) -> np.ndarray:
        v_q = np.asarray(v_q, dtype=float)
        v_p = np.asarray(v_p, dtype=float)
        # A variance or exponent past float range is +inf, and its factor is then
        # exactly 0, the density's value there: such an overflow is no error.
        with np.errstate(over="ignore"):
            sigma_p = self.sigma_p(v_q)
            return _normal_1d(self.sigma_q, v_q) * np.exp(
                -math.pi * np.square(v_p - self.mean_p(v_q)) / sigma_p
            ) / np.sqrt(sigma_p)


# ---------------------------------------------------------------------------
# The fault-tolerance bound
# ---------------------------------------------------------------------------


FT_VALIDITY_DELTA = math.sqrt(2.0) * math.sqrt(math.atanh((3.0 / 2.0) ** 0.25 / 16.0))


@dataclass(frozen=True)
class BoundResult:
    delta: float
    lam_of_delta: float
    f_lower_bound: float
    validity: bool


def ft_lambda_ansatz(delta: float) -> float:
    """λ(Δ) = (3^{2/5}/2^{4/5}) tanh(Δ²/2)^{-3/5}, the bound-optimal bias."""
    return 3.0 ** 0.4 / 2.0 ** 0.8 * math.tanh(delta**2 / 2.0) ** (-0.6)


def ft_lower_bound(delta: float) -> BoundResult:
    """Erf-product fidelity lower bound for the minimal cubic gate.

    p_E(0) is bounded below by the product of the two Erf factors at
    λ = λ(Δ); the lattice tail is majorised by 1 - p_E(0), so the bound on
    the central-patch weight is (2 p_E(0) - 1)/C(Δ,λ), squared and mapped
    through F = 1/3 + (2/3)(...)².  Valid (non-vacuous interval restriction)
    for Δ below ≈ 0.372.  A Δ that takes Δ² or t/λ out of float range, above
    about 1.3e154 or below about 1e-101, is refused, whatever its float type.

    The bound is exactly 1/3 from Δ ≈ 0.0533 to the validity edge, while
    `validity` is true: erf1 = 1 there and erf2 falls from 0.5 to 0.244, so
    p_E(0) <= 1/2 clips 2 p_E(0) - 1 to 0.  The Erf product does lie below
    the twirled density's true patch mass (0.309 against 0.959 at Δ = 0.2),
    and the same chain on the true mass gives F = 0.8945 there, below the
    engine's T3 fidelity 0.9744.
    """
    delta = float(delta)  # an np.float64 would overflow to inf with a warning
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    try:
        lam = ft_lambda_ansatz(delta)
        t = math.tanh(delta**2 / 2.0)
        erf1 = erf(math.sqrt(math.pi) / (t / lam) ** 0.25)
        inner = math.sqrt(t / lam) / (2.0 * lam * t) + lam * t
        erf2 = erf(math.sqrt(math.pi) / (4.0 * math.sqrt(8.0) * math.sqrt(inner)))
        p0 = erf1 * erf2
        core = max(0.0, 2.0 * p0 - 1.0) / chi_norm_constant(delta, lam)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"delta {delta:g} takes the bound's closed form out of float range") from None
    f_lb = 1.0 / 3.0 + (2.0 / 3.0) * core**2
    return BoundResult(delta, lam, min(f_lb, 1.0), delta <= FT_VALIDITY_DELTA)


# ---------------------------------------------------------------------------
# The vacuum-method posterior
# ---------------------------------------------------------------------------


# Stabiliser shells |s_q|, |s_p| <= 4 of the vacuum posterior.  Each term
# carries exp(-πκ|u_s|²) with κ = tanh(Δ²/2) + 1/2 in [1/2, 3/2) for every Δ,
# so no input widens the sum: the outermost kept shell is below 5e-17 of the
# smallest g_I on the patch, all shells beyond it below 1e-27, and cut 6
# gives the same bits.
VACUUM_LATTICE_CUT = 4


def _posterior_sums(delta: float, vq_axis: np.ndarray, vp_axis: np.ndarray):
    """g_μ(v) = tr[ρ_th W(v) Π_μ W(v)†] on a separable grid, all four μ.

    Π_μ = σ̄_μ Σ_s W(sqrt(2) s) gives g_μ(v) = Σ_s sign_μ(s)
    e^{-2πi v∧u_s} χ(u_s) with u_s = l_μ + sqrt(2) s and the thermal χ.
    sign_μ(s) is the parity of l_μ ∧ sqrt(2) s: an offset along q flips
    with |s_p|, one along p with |s_q|.  Separability in (s_q, s_p) turns
    the grid evaluation into two small matrix products per Pauli.
    """
    n_bar = math.tanh(delta**2 / 2.0)
    kappa = n_bar + 0.5
    ss = np.arange(-VACUUM_LATTICE_CUT, VACUUM_LATTICE_CUT + 1)
    sq, sp = np.abs(np.meshgrid(ss, ss, indexing="ij"))
    out = {}
    for mu, (lq, lp) in PAULI_OFFSETS.items():
        uq = lq + math.sqrt(2.0) * ss  # indexed by s_q
        up = lp + math.sqrt(2.0) * ss  # indexed by s_p
        coeff = (-1.0) ** (sp * (lq != 0) + sq * (lp != 0)) * np.exp(
            -math.pi * kappa * (uq[:, None] ** 2 + up[None, :] ** 2)
        )
        a = np.exp(-2j * math.pi * np.outer(vq_axis, up))  # (Nq, s_p)
        b = np.exp(2j * math.pi * np.outer(vp_axis, uq))  # (Np, s_q)
        # (Nq, Np), real by term pairing; a copy, as a `.real` view keeps the complex product
        out[mu] = np.ascontiguousarray((a @ coeff.T @ b.T).real)
    return out


def vacuum_posterior_grid(delta: float, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell weights (normalised) and Bloch vectors over an n_grid² syndrome grid.

    Cells are uniform over the correctable patch; returns (weights with
    shape (n², ), bloch with shape (n², 3)).
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not delta < math.sqrt(sys.float_info.max):  # the posterior reads tanh(delta^2/2)
        raise ValueError(f"delta {delta:g} takes delta^2 out of float range")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    centers = (np.arange(n_grid) + 0.5) / n_grid * 2.0 * PATCH_HALF - PATCH_HALF
    sums = _posterior_sums(delta, centers, centers)
    g_i = sums.pop("I")
    if np.min(g_i) <= 0:
        raise NumericFailure(f"posterior density non-positive (min {np.min(g_i):.3e}) "
                             f"at delta {delta} on a {n_grid}-point grid")
    weights = (g_i / g_i.sum()).ravel()
    bloch = np.empty((weights.size, 3))
    for j, mu in enumerate(("X", "Y", "Z")):  # each sum is released once divided
        np.divide(sums.pop(mu).ravel(), g_i.ravel(), out=bloch[:, j])
    return weights, bloch

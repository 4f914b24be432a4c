"""Gaussian circuit algebra over N modes.

Quadratures are ordered (q_1 … q_N, p_1 … p_N) and the symplectic form is
the antisymmetric block matrix Omega = [[0, I], [-I, 0]].  A GaussianOp
stores the matrix S that propagates displacement (noise) vectors forward
through the circuit, v -> S v, so covariances propagate as
Sigma -> S Sigma S^T.  In this convention the named generators act as

    squeezer(alpha):      q -> alpha q,        p -> p / alpha
    beam_splitter(theta): (q_i, q_j) rotated by theta, same on p
    cx(g):                q_j -> q_j + g q_i,  p_i -> p_i - g p_j
    feedforward(xi):      q_i -> q_i - xi q_j, p_j -> p_j + xi p_i

cx is generated by exp(-i g q_i p_j), feedforward by exp(i xi p_i q_j).
Composition is in circuit order: compose([A, B]) applies A first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import NumericFailure

SYMPLECTIC_TOL = 1e-12


class SingularConditioningError(np.linalg.LinAlgError, NumericFailure):
    """Measured covariance block is singular; carries the offending indices."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"singular measured block on quadrature indices {self.indices}")


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] in (q..., p...) ordering."""
    ident = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, ident], [-ident, zero]])


@dataclass(frozen=True)
class GaussianOp:
    """Symplectic matrix, validated on construction."""

    S: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
            raise ValueError(f"S must be square 2N x 2N, got {S.shape}")
        if not np.isfinite(S).all():  # a NaN would pass the residual test below
            raise ValueError("S has a non-finite entry")
        n = S.shape[0] // 2
        om = omega(n)
        resid = np.max(np.abs(S.T @ om @ S - om))
        if resid > SYMPLECTIC_TOL * max(1.0, np.max(np.abs(S)) ** 2):
            raise ValueError(f"matrix is not symplectic (residual {resid:.3e})")
        object.__setattr__(self, "S", S)

    @property
    def n_modes(self) -> int:
        return self.S.shape[0] // 2


def _checked_identity(name: str, n_modes: int, *modes: int) -> np.ndarray:
    """Identity on n_modes modes, once the generator `name`'s modes are in range and distinct."""
    for i in modes:
        if not 0 <= i < n_modes:
            raise ValueError(f"mode index {i} out of range for {n_modes} modes")
    if len(set(modes)) < len(modes):
        raise ValueError(f"{name} needs two distinct modes")
    return np.eye(2 * n_modes)


def beam_splitter(theta: float, i: int, j: int, n_modes: int) -> GaussianOp:
    """BS(theta) = exp(i theta (p_i q_j - q_i p_j)): rotation in the (i, j) plane."""
    S = _checked_identity("beam splitter", n_modes, i, j)
    c, s = math.cos(theta), math.sin(theta)
    for off in (0, n_modes):  # same rotation block on q and on p
        S[off + i, off + i] = c
        S[off + i, off + j] = -s
        S[off + j, off + i] = s
        S[off + j, off + j] = c
    return GaussianOp(S)


def squeezer(alpha: float, i: int, n_modes: int) -> GaussianOp:
    """Single-mode squeeze: q_i -> alpha q_i, p_i -> p_i / alpha (alpha > 0)."""
    if alpha <= 0:
        raise ValueError(f"squeezer requires alpha > 0, got {alpha}")
    S = _checked_identity("squeezer", n_modes, i)
    S[i, i] = alpha
    S[n_modes + i, n_modes + i] = 1.0 / alpha
    return GaussianOp(S)


def cx(g: float, i: int, j: int, n_modes: int) -> GaussianOp:
    """Logical CX generated by exp(-i g q_i p_j): q_j += g q_i, p_i -= g p_j."""
    S = _checked_identity("cx", n_modes, i, j)
    S[j, i] = g
    S[n_modes + i, n_modes + j] = -g
    return GaussianOp(S)


def feedforward(xi: float, i: int, j: int, n_modes: int) -> GaussianOp:
    """exp(i xi p_i q_j): q_i -= xi q_j, p_j += xi p_i."""
    S = _checked_identity("feedforward", n_modes, i, j)
    S[i, j] = -xi
    S[n_modes + j, n_modes + i] = xi
    return GaussianOp(S)


def compose(ops) -> GaussianOp:
    """Compose in circuit order (first element applied first)."""
    ops = list(ops)
    if not ops:
        raise ValueError("compose needs at least one op")
    out = ops[0]
    for op in ops[1:]:
        if op.n_modes != out.n_modes:
            raise ValueError("mode-count mismatch in composition")
        out = GaussianOp(op.S @ out.S)
    return out


# ---------------------------------------------------------------------------
# Biasing / morphing parameter maps
# ---------------------------------------------------------------------------


def morphing_params(lam: float) -> tuple[float, float, float]:
    """Beam-splitter rearrangement of the asymmetry-lam biasing circuit.

    Returns (xi, theta, alpha) = (sqrt(lam)/(lam+1), arctan(sqrt(lam)),
    sqrt(lam+1)); with these, cx(sqrt(lam)) followed by feedforward(xi) equals
    beam_splitter(theta) followed by squeezer(1/alpha) on the data mode and
    squeezer(alpha) on the ancilla, see morphing_identity_residual().
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"morphing_params requires finite lam > 0, got {lam}")
    rt = math.sqrt(lam)
    return rt / (lam + 1.0), math.atan(rt), math.sqrt(lam + 1.0)


def morphing_identity_residual(lam: float) -> float:
    """Max-abs residual of the rearrangement identity at asymmetry lam.

    At lam = 1 it is the q-Steane rewrite: cx(1) and feedforward(1/2) as
    BS(pi/4) with squeezes 1/sqrt(2) on the data mode and sqrt(2) on the
    ancilla.  At 1/lam it checks the passive breeding rewrite:
    cx(1/sqrt(lam)) and feedforward(sqrt(lam)/(lam+1)) as a beam splitter at
    arctan(1/sqrt(lam)) and squeezes, one round from asymmetry lam to lam + 1.
    """
    xi, theta, alpha = morphing_params(lam)
    lhs = compose([cx(math.sqrt(lam), 0, 1, 2), feedforward(xi, 0, 1, 2)])
    rhs = compose([beam_splitter(theta, 0, 1, 2), squeezer(1.0 / alpha, 0, 2), squeezer(alpha, 1, 2)])
    return float(np.max(np.abs(lhs.S - rhs.S)))


# ---------------------------------------------------------------------------
# Covariance propagation and conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovState:
    """Covariance of the zero-mean displacement noise on 2N quadratures.

    Convention: the Gaussian weight is exp(-pi v^T Sigma^{-1} v), i.e. Sigma
    carries the sqrt(2 pi)-rescaled second moments.
    """

    Sigma: np.ndarray

    def __post_init__(self):
        Sigma = np.asarray(self.Sigma, dtype=float)
        if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
            raise ValueError("Sigma must be square")
        if not np.isfinite(Sigma).all():  # a NaN would pass the checks below
            raise ValueError("Sigma has a non-finite entry")
        if np.max(np.abs(Sigma - Sigma.T)) > 1e-10 * max(1.0, np.max(np.abs(Sigma))):
            raise ValueError("Sigma must be symmetric")
        eigs = np.linalg.eigvalsh((Sigma + Sigma.T) / 2)
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError("Sigma must be positive semi-definite")
        object.__setattr__(self, "Sigma", Sigma)

    def propagate(self, op: GaussianOp) -> "CovState":
        return CovState(op.S @ self.Sigma @ op.S.T)


def condition_on_homodyne(
    state: CovState, measured_indices
) -> tuple[CovState, np.ndarray]:
    """Condition the noise Gaussian on the listed quadrature indices.

    Returns the Schur-complement conditional covariance on the remaining
    quadratures and the gain matrix Sigma_DA Sigma_AA^{-1} that maps a
    measured outcome vector to the mean of the remaining quadratures.  The
    conditional covariance is outcome independent.
    """
    meas = sorted(set(int(i) for i in measured_indices))
    if not meas:
        raise ValueError("condition_on_homodyne needs at least one measured index")
    dim = state.Sigma.shape[0]
    if any(i < 0 or i >= dim for i in meas):
        raise ValueError(f"measured indices {meas} out of range for dim {dim}")
    keep = [i for i in range(dim) if i not in meas]
    s_dd = state.Sigma[np.ix_(keep, keep)]
    s_da = state.Sigma[np.ix_(keep, meas)]
    s_aa = state.Sigma[np.ix_(meas, meas)]
    cond = np.linalg.cond(s_aa)  # inf for an exactly singular block
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularConditioningError(meas)
    gain = np.linalg.solve(s_aa, s_da.T).T
    sigma_c = s_dd - gain @ s_da.T
    sigma_c = (sigma_c + sigma_c.T) / 2
    return CovState(sigma_c), gain


def biasing_identity_residual(lam: float) -> float:
    """Max-abs residual of the biased q-Steane round's output split,
    BiasParams(0.21, 1 + lam), against conditioning on the ancilla's q: a biased
    ancilla diag(Delta^2, Delta^2/lam) through cx(1), on the data mode's Sigma_00,
    Sigma_11 and Sigma_01, and an unbiased ancilla through cx(sqrt(lam)), on
    Sigma_00 and Sigma_11."""
    delta = 0.21
    split = BiasParams(delta, 1.0 + lam)
    dq, dp = split.delta_q, split.delta_p
    biased = CovState(np.diag([delta**2, delta**2 / lam, delta**2, lam * delta**2]))
    cond, _ = condition_on_homodyne(biased.propagate(cx(1.0, 0, 1, 2)), [1])
    unbiased = CovState(delta**2 * np.eye(4))
    cond2, _ = condition_on_homodyne(unbiased.propagate(cx(math.sqrt(lam), 0, 1, 2)), [1])
    return float(max(abs(cond.Sigma[0, 0] - dq**2), abs(cond.Sigma[1, 1] - dp**2), abs(cond.Sigma[0, 1]),
                     abs(cond2.Sigma[0, 0] - dq**2), abs(cond2.Sigma[1, 1] - dp**2)))


def nogo_check(circuit: GaussianOp, delta: float) -> float:
    """det of the data mode's conditional noise covariance after the circuit.

    Input noise Delta^2 * Id on the circuit's modes; mode 0 is the data and
    every other mode's position quadrature is measured.  The Gaussian no-go
    bound makes this determinant exactly Delta^4 for every symplectic circuit.
    """
    n = circuit.n_modes
    state = CovState(delta**2 * np.eye(2 * n)).propagate(circuit)
    cond, _gain = condition_on_homodyne(state, range(1, n))  # ancilla q's
    # Remaining quadratures are ordered (q_data, p_data, p_anc...); the bound
    # concerns the 2x2 data block.
    return float(np.linalg.det(cond.Sigma[:2, :2]))


def random_circuit(
    n_modes: int, n_gates: int, rng: np.random.Generator
) -> GaussianOp:
    """Seeded product of random generators; any such family obeys the no-go."""
    # Parameter ranges are kept moderate so products stay well scaled; the
    # bound is universal, but determinant checks at 1e-10 relative need
    # condition numbers a few orders below 1/eps.
    two_mode = ((beam_splitter, 0, np.pi), (cx, -1, 1), (feedforward, -1, 1))  # kinds 1-3
    ops = []
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            ops.append(squeezer(float(np.exp(rng.uniform(-0.5, 0.5))), int(rng.integers(n_modes)), n_modes))
        else:
            i, j = rng.choice(n_modes, size=2, replace=False)  # drawn before the parameter
            gen, low, high = two_mode[kind - 1]
            ops.append(gen(float(rng.uniform(low, high)), int(i), int(j), n_modes))
    return compose(ops)


def nogo_residual(n_circuits: int, seed: int) -> float:
    """Worst relative error of nogo_check against Delta^4 over n_circuits random
    circuits from default_rng(seed), at Delta in {0.1, 0.25, 0.5}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_circuits):
        circ = random_circuit(1 + int(rng.integers(1, 5)), int(rng.integers(4, 12)), rng)  # 1-4 ancillas
        for delta in (0.1, 0.25, 0.5):
            det = nogo_check(circ, delta)
            worst = max(worst, abs(det - delta**4) / delta**4)
    return worst


@dataclass(frozen=True)
class BiasParams:
    """Base squeezing Delta split asymmetrically over the two quadratures, as
    (Delta/sqrt(lam), Delta*sqrt(lam)); the biased q-Steane round with ancilla
    asymmetry lam leaves the data at the split at 1 + lam.  The split widths'
    squares, which the twirled moments read, must be normal floats."""

    delta: float
    lam: float

    def __post_init__(self):
        if not (0 < self.delta < math.inf and 0 < self.lam < math.inf):
            raise ValueError("BiasParams requires finite delta > 0 and lam > 0, "
                             f"got {self.delta}, {self.lam}")
        if not all(sys.float_info.min <= v * v < math.inf for v in (self.delta_q, self.delta_p)):
            raise ValueError(f"delta {self.delta:g} and lam {self.lam:g} take delta_q^2 or "
                             "delta_p^2 out of float range")

    @property
    def delta_q(self) -> float:
        return self.delta / math.sqrt(self.lam)

    @property
    def delta_p(self) -> float:
        return self.delta * math.sqrt(self.lam)

"""Truncated-Fock-space engine for approximate GKP codewords and gates.

Conventions (single mode, [q, p] = i):

* q = (a + a†)/sqrt(2), p = i(a† - a)/sqrt(2).
* Displacements W(v) = exp[i sqrt(2π)(v_p q - v_q p)]; W(v)|vac> is the
  coherent state of amplitude α = sqrt(π)(v_q + i v_p).
* Rectangular codewords of asymmetry λ live on position multiples of
  sqrt(λπ); the non-biased envelope is exp(-Δ² a†a).

Truncation plan: states are synthesised at d_init; an operator applied to a
d-dimensional state is exponentiated at d_temp = 3d (`EXPAND_FACTOR`) and
then cut back, and gates keep their full output rows (d_out x d_init) so the
output state lives at the higher dimension.  Every operator here is a
function of one (possibly rotated) quadrature: polynomial phase gates and
single-axis displacement sums are built from the eigensystem of the
tridiagonal position matrix, which equals exponentiating the same truncated
generator.  `q_eigensystem` is its one provider, and LAPACK `dstevd` in
numpy's own BLAS solves it (`_solve_q`).  The dense quadrature,
displacement, gate and Pauli-operator matrices live in `tests/oracles.py`.

Codewords, sums of a few hundred to a thousand lattice coherent states, are
summed in blocks, bitwise a one-term-at-a-time loop (`_coherent_block`); their
log n! is a port of cephes `lgam` (S. L. Moshier, 1989), bitwise scipy's
`gammaln`.  The Pauli measurement operators use one displacement series, cut
at |2n+1| <= 59 and weighted by the readout smear Σ = tanh(Δ²/2) diag(λ, 1/λ);
their kernels exponentiate half the columns and mirror the rest
(`pauli_kernels`), and one per-process provider keeps those halves for the
last 16 (λ, x), at most 35 MB at a readout dimension of 2304 (d_init 256).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import NumericFailure
from .opcache import OperatorCache
from .polyalg import RationalPolynomial

SQRT2PI = math.sqrt(2.0 * math.pi)

# Relative weight of lattice terms that may be dropped during codeword
# synthesis before the construction is declared corrupted.
MAX_DROPPED_WEIGHT = 1e-6

# Each stage of the truncation ladder is this many times the one before.
EXPAND_FACTOR = 3

NUMPY_BLAS = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # numpy's own LAPACK: scipy-openblas in its wheels


class TruncationLeakageError(NumericFailure):
    """A state lost too much norm to truncation."""


@dataclass(frozen=True)
class TruncationPlan:
    """Fock truncation ladder: d_init for states, x EXPAND_FACTOR per stage."""

    d_init: int

    def __post_init__(self):
        if self.d_init < 16:
            raise ValueError(f"d_init must be >= 16, got {self.d_init}")

    @property
    def d_out(self) -> int:
        return EXPAND_FACTOR * self.d_init

    def d_temp(self, d: int) -> int:
        return EXPAND_FACTOR * d

    @property
    def eigensystem_dims(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two q eigensystems a channel reads, as (d, rows) in the order to
        solve them: the readout's at d_temp(d_out), then the gate's at d_out,
        each read in its first d_out rows.  The larger first, so its solve
        peaks with no other eigenvector block resident."""
        return (self.d_temp(self.d_out), self.d_out), (self.d_out, self.d_out)


@dataclass(frozen=True)
class GkpParams:
    """Approximate-codestate quality Δ and noise asymmetry λ."""

    delta: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")

    @property
    def delta_db(self) -> float:
        return -10.0 * math.log10(self.delta**2)

    @classmethod
    def from_n_bar(cls, n_bar: float, lam: float = 1.0) -> "GkpParams":
        return cls(1.0 / math.sqrt(2.0 * n_bar + 1.0), lam)


# ---------------------------------------------------------------------------
# Position eigensystem
# ---------------------------------------------------------------------------


def _solve_q(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and F-ordered eigenvectors of the d x d q matrix: LAPACK dstevd in numpy's BLAS
    as `scipy.linalg.eigh_tridiagonal` calls it (so its bits), or that function where the BLAS lacks it."""
    off = np.sqrt(np.arange(1.0, d) / 2.0)
    dstevd = getattr(NUMPY_BLAS, "scipy_dstevd_64_", None)
    if dstevd is None:
        import scipy.linalg
        return scipy.linalg.eigh_tridiagonal(np.zeros(d), off)
    dstevd.restype, dstevd.argtypes = None, [ctypes.c_char_p, *[ctypes.c_void_p] * 10, ctypes.c_size_t]
    x, v = np.zeros(d), np.empty((d, d), order="F")
    work, iwork = np.empty(1 + 4 * d + d * d), np.empty(3 + 5 * d, dtype=np.int64)
    n, lwork, liwork, info = (ctypes.c_int64(k) for k in (d, work.size, iwork.size, 0))
    dstevd(b"V", ctypes.byref(n), x.ctypes, off.ctypes, v.ctypes, ctypes.byref(n), work.ctypes,
           ctypes.byref(lwork), iwork.ctypes, ctypes.byref(liwork), ctypes.byref(info), 1)  # len(JOBZ)
    if info.value:
        raise np.linalg.LinAlgError(f"dstevd (q eigensystem at d {d}) failed with info {info.value}")
    return x, v


@lru_cache(maxsize=6)
def _q_eigensystem(d: int, rows: int, directory: Path | None) -> tuple[np.ndarray, np.ndarray]:
    if directory is None:
        x, v = _solve_q(d)
        v = np.asfortranarray(v[:rows])  # packed (a no-op at rows == d): the d² matrix is freed
        x.flags.writeable = v.flags.writeable = False  # shared by every caller, like the disk copy
        return x, v
    cache, solved = OperatorCache(directory), lambda: _q_eigensystem(d, rows, None)
    x = cache.get_or_create("qeig-values", {"d": d}, lambda: solved()[0])
    v = cache.get_or_create("qeig-vectors", {"d": d, "rows": rows}, lambda: solved()[1])
    return x, v


def q_eigensystem(d: int, rows: int, cache_dir: str | Path | None) -> tuple[np.ndarray, np.ndarray]:
    """All d eigenvalues of the truncated position matrix (tridiagonal: zero
    diagonal, off-diagonal sqrt((n+1)/2)), and the first `rows` rows of its
    eigenvectors as one column-major, read-only block.  A channel reads d_out
    rows (`TruncationPlan.eigensystem_dims`): 768 x 2304, 14 MB, at d_init 256.

    One bounded in-process map keyed by (d, rows) and `cache_dir` returns the
    same arrays to every call.  With a `cache_dir`, each half is read from the
    `OperatorCache` there (a memory map in the solve's layout, so its bits), or
    written there from memory or a fresh `_solve_q` when missing.
    """
    if not 0 < rows <= d:
        raise ValueError(f"rows must lie in [1, {d}], got {rows}")
    return _q_eigensystem(d, rows, None if cache_dir is None else Path(cache_dir))


@lru_cache(maxsize=4)
def number_parity_phases(d: int) -> np.ndarray:
    """R = diag(i^n), the rotation mapping the q eigenbasis to the p one; read-only, one per d."""
    r = 1j ** np.arange(d)
    r.flags.writeable = False
    return r


# ---------------------------------------------------------------------------
# Codeword synthesis
# ---------------------------------------------------------------------------


def default_lattice_cut(delta: float, lam: float) -> tuple[int, int]:
    """Per-axis lattice cuts keeping every dropped c_{m,n} below ~1e-12."""
    w = 1.0 - math.exp(-2.0 * delta**2)
    cut_m = math.ceil(3.0 / math.sqrt(lam * w)) + 1
    cut_n = math.ceil(6.0 * math.sqrt(lam / w)) + 1
    return cut_m, cut_n


def _log_factorial(n: int) -> float:
    """log n! as cephes `lgam(n + 1)`: exact below 12, then Stirling's series in 1/x², x = n + 1."""
    if n < 12:
        return math.log(math.factorial(n))
    x = n + 1.0
    q, p = (x - 0.5) * math.log(x) - x + 0.91893853320467274178, 1.0 / (x * x)
    if x >= 1000.0:  # cephes' three terms (its literals are 1/1260, 1/360, 1/12 bitwise); past 1e8, q alone
        return q if x > 1e8 else q + ((1 / 1260 * p - 1 / 360) * p + 1 / 12) / x
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p + 7.93650340457716943945e-4)
                 * p - 2.77777777730099687205e-3) * p + 8.33333333333331927722e-2) / x


@lru_cache(maxsize=4)
def _half_log_factorials(d: int) -> np.ndarray:
    """½ log n! for n < d (`_log_factorial`), one per d; a view of bytes, so read-only for good."""
    return np.frombuffer(np.array([0.5 * _log_factorial(n) for n in range(d)]).tobytes())


def _coherent_block(
    alpha: np.ndarray, coeff: np.ndarray, d: int, run_sizes: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """Sum coeff_k * |alpha_k> over a batch of coherent states, in log domain.

    Amplitudes <n|alpha> = exp(-|alpha|²/2) alpha^n / sqrt(n!) are built from
    logarithms, so nothing overflows; terms whose peak magnitude times |c|
    underflows are dropped and accounted to the caller.  Coefficients are
    nonzero, and the terms come in runs of `run_sizes`, each closed under
    conjugation: in a run spanning [s, e) the term at α* of term k is
    s + e - 1 - k (the kept terms of one lattice row).  Blocks of whole runs
    (about 2 MB of rows) go through each step at once; log amplitudes, peaks
    and `np.exp` run only for imag α >= 0, the term at α* taking the conjugate.
    Each element is computed as the one-term loop of `tests/oracles.py` does,
    and the sum is bitwise its `out += c * amps`: per 64 terms, `np.add.reduce`
    adds down rows, one at a time in order, the running sum and each term's
    c * amps (c the left operand, as numpy's complex multiply is not symmetric
    to the bit; the α = 0 term is c at n = 0 over -0.0, the additive identity).
    """
    n, log_fact_half = np.arange(d), _half_log_factorials(d)
    out = np.zeros(d, dtype=complex)
    dropped, dropped_weight = 0, 0.0
    mag, theta = np.abs(alpha), np.angle(alpha)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.where(mag > 0, mag, 1.0))
    ends = np.cumsum(run_sizes)
    run = np.repeat(np.arange(ends.size), run_sizes)
    k = np.arange(alpha.size)
    lower = alpha.imag < 0
    # the term whose exponentials each term reads: itself, or the one at α* (s + e - 1 - k)
    source = np.where(lower, 2 * ends[run] - run_sizes[run] - 1 - k, k)
    cuts = [0]
    for s, e in zip(ends - run_sizes, ends):
        if e - cuts[-1] > max(1, (1 << 17) // d) and s > cuts[-1]:
            cuts.append(int(s))
    cuts.append(alpha.size)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        # log amplitudes of the terms with imag α >= 0; the term at α* has the same row
        upper = start + np.flatnonzero(~lower[start:stop])
        # scalar squares: an array square differs in the last bit for some |α|
        base = np.array([-0.5 * m**2 for m in mag[upper]])
        log_amp = (base[:, None] + n * log_mag[upper, None]) - log_fact_half
        # dropped: terms whose peak magnitude, with the coefficient, underflows
        lit = start + np.flatnonzero(mag[start:stop] != 0)
        log_c = np.array([math.log(abs(c)) for c in coeff[lit]])
        peak = log_amp.max(axis=1)
        low = lit[peak[np.searchsorted(upper, source[lit])] + log_c < -700.0]
        dropped += low.size
        for c in coeff[low]:
            dropped_weight += abs(c)
        used = np.setdiff1d(k[start:stop], low, assume_unique=True)
        need = np.unique(source[used])
        log_amp = log_amp[np.searchsorted(upper, need)]
        exps = np.empty((need.size, d), dtype=complex)
        exps.real, exps.imag = log_amp, theta[need, None] * n
        np.exp(exps, out=exps)
        exps[log_amp <= -745.0] = 0.0
        # out += c * amps in term order, 64 terms a block below the running sum in row 0
        for j in np.split(used, range(64, used.size, 64)):
            rows = np.empty((j.size + 1, d), dtype=complex)
            rows[0], terms = out, rows[1:]
            np.take(exps, np.searchsorted(need, source[j]), axis=0, out=terms)
            np.negative(terms.imag, out=terms.imag, where=lower[j, None])
            np.multiply(coeff[j, None], terms, out=terms)
            at_zero = mag[j] == 0
            terms[at_zero] = np.where(n == 0, coeff[j[at_zero], None], complex(-0.0, -0.0))
            out = np.add.reduce(rows, axis=0)
    return out, dropped, dropped_weight


def gkp_codeword(bit: int, delta: float, lam: float, d: int) -> np.ndarray:
    """Unnormalised approximate codeword of the rectangular code, as d complex
    number-basis amplitudes.

    Lattice-of-coherent-states form: the bit-b codeword is the sum over
    (m, n) of c_{mu,n} * phase * W(e^{-Δ²} (mu sqrt(λ/2), n/sqrt(2λ))) |vac>,
    with mu = 2m + b and c_{mu,n} = exp(-π(mu²λ + n²/λ)(1 - e^{-2Δ²})/4).
    The e^{-Δ²} contraction of the coherent centres comes from commuting the
    envelope through the displacement; without it the construction drifts
    from Env|comb> at the percent level.  The lattice is cut at
    `default_lattice_cut`, and the weight left out is checked against
    `MAX_DROPPED_WEIGHT`; non-finite amplitudes raise `NumericFailure`.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if d < 16:
        raise ValueError("d must be >= 16")
    cut_m, cut_n = default_lattice_cut(delta, lam)
    w = 1.0 - math.exp(-2.0 * delta**2)
    m = np.arange(-cut_m, cut_m + 1)
    n = np.arange(-cut_n, cut_n + 1)
    mm, nn = np.meshgrid(m, n, indexing="ij")
    mm = mm.ravel()
    nn = nn.ravel()
    mu = 2 * mm + bit
    v_q = mu * math.sqrt(lam / 2.0)
    v_p = nn / math.sqrt(2.0 * lam)
    c = np.exp(-math.pi * (mu**2 * lam + nn**2 / lam) * w / 4.0)
    if bit == 0:
        phase = np.where((mm * nn) % 2 == 0, 1.0, -1.0).astype(complex)
    else:
        phase = (1j) ** np.mod(2 * mm * nn - nn, 4)
    total = float(np.sum(c))
    # Corners of the lattice rectangle are far below the cut target; skip
    # them outright and charge them to the dropped-weight budget.
    keep = c > 1e-18
    skipped_weight = float(np.sum(c[~keep]))
    shrink = math.exp(-delta**2)
    alpha = math.sqrt(math.pi) * shrink * (v_q[keep] + 1j * v_p[keep])
    # c is even in n, so each m row keeps a run of terms closed under α -> α*
    runs = keep.reshape(m.size, n.size).sum(axis=1)
    amps, _, dropped_weight = _coherent_block(alpha, (c * phase)[keep], d, runs)
    dropped_weight += skipped_weight
    if total > 0 and dropped_weight / total > MAX_DROPPED_WEIGHT:
        raise TruncationLeakageError(
            f"dropped lattice weight {dropped_weight/total:.2e} exceeds {MAX_DROPPED_WEIGHT}"
        )
    if not np.all(np.isfinite(amps)):
        raise NumericFailure("non-finite codeword amplitudes")
    return amps


def orthonormalize(psi0: np.ndarray, psi1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Löwdin pair orthonormalisation of two codewords (complex amplitude arrays).

    With θ = arg<ψ0|ψ1>, the normalised states |±> ∝ |ψ0> ± e^{-iθ}|ψ1> are
    orthogonal; returns e0 = (|+>+|->)/√2 and e1 = e^{iθ}(|+>-|->)/√2.
    """
    norm0, norm1 = np.linalg.norm(psi0), np.linalg.norm(psi1)
    if norm0 == 0 or norm1 == 0:
        raise ValueError("cannot normalise the zero vector")
    a, b = psi0 / norm0, psi1 / norm1
    ov = np.vdot(a, b)
    if abs(abs(ov) - 1.0) < 1e-12:
        raise NumericFailure("codewords are numerically parallel")
    theta = np.angle(ov) if ov != 0 else 0.0
    plus = a + np.exp(-1j * theta) * b
    minus = a - np.exp(-1j * theta) * b
    plus /= np.linalg.norm(plus)
    minus /= np.linalg.norm(minus)
    e0 = (plus + minus) / math.sqrt(2.0)
    e1 = np.exp(1j * theta) * (plus - minus) / math.sqrt(2.0)
    return e0, e1


# ---------------------------------------------------------------------------
# Polynomial phase gates and Pauli measurement operators
# ---------------------------------------------------------------------------


def phase_profile(poly: RationalPolynomial, lam: float, x: np.ndarray) -> np.ndarray:
    """exp(2πi P(x / sqrt(λπ))) evaluated on an array of position values."""
    arg = x / math.sqrt(lam * math.pi)
    val = np.zeros_like(x)
    for c in reversed(poly.coeffs):
        val = val * arg + float(c)
    return np.exp(2j * math.pi * val)


# The displacement series of the Pauli measurement operators, cut at |2n+1| <= 59:
# odd displacements 2n+1 and their weights (-1)^n / ((n + 1/2) π).
_PAULI_NS = np.arange(-30, 30)
PAULI_ODD = 2 * _PAULI_NS + 1
PAULI_WEIGHTS = ((-1.0) ** _PAULI_NS) / (_PAULI_NS + 0.5) / math.pi


@lru_cache(maxsize=16)
def _kernel_halves(lam: float, x_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The u > 0 halves of the Z_m and X_m kernels at (λ, x), read-only; 16 (λ, x) held."""
    x, u = np.frombuffer(x_bytes), PAULI_ODD[PAULI_ODD.size // 2 :]
    z = np.exp((1j * SQRT2PI) * np.outer(x, u / math.sqrt(2.0 * lam)))
    p = np.exp((-1j * SQRT2PI) * np.outer(x, u * math.sqrt(lam / 2.0)))
    z.flags.writeable = p.flags.writeable = False
    return z, p


def pauli_kernels(lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(±i sqrt(2π) x u) of the Z_m and X_m displacement sums; free of Δ.

    Column 29 - i of `PAULI_ODD` is the negation of column 30 + i, so `np.exp`
    runs only for the 30 columns with u > 0 (`_kernel_halves`, kept per (λ, x))
    and the other 30 are their conjugates: bitwise the direct exponential of
    every column (tests/oracles.py).
    """
    h = PAULI_ODD.size // 2
    # both in one block: one allocation (huge pages from numpy's 4 MB) faults in fewer pages
    k = np.empty((2, len(x), 2 * h), dtype=complex)
    for full, half in zip(k, _kernel_halves(lam, np.asarray(x, dtype=float).tobytes())):
        full[:, h:] = half
        np.conjugate(half[:, ::-1], out=full[:, :h])
    k.imag[..., :h] += 0.0  # where x u = ±0 the direct form gives +0.0, not the conjugate's -0.0
    return k[0], k[1]


def pauli_profiles(lam: float, delta: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal profiles of Z_m (over q eigenvalues) and X_m (over p ones).

    Z_m^λ = (1/π) Σ (-1)^n/(n+1/2) W(0, (2n+1)/sqrt(2λ)) is a function of q;
    X_m^λ = (1/π) Σ (-1)^n/(n+1/2) W((2n+1) sqrt(λ/2), 0) a function of p.
    The readout smear Σ = tanh(Δ²/2) diag(λ, 1/λ) attenuates each displacement
    term u by the Gaussian channel's exp(-π u^T Ω^T Σ Ω u), which for these
    single-axis terms is exp(-π Σ_00 u_p²) and exp(-π Σ_11 u_q²).
    """
    u_p = PAULI_ODD / math.sqrt(2.0 * lam)
    u_q = PAULI_ODD * math.sqrt(lam / 2.0)
    t = math.tanh(delta**2 / 2.0)
    z_w = PAULI_WEIGHTS * np.exp(-math.pi * (t * lam * u_p**2))
    x_w = PAULI_WEIGHTS * np.exp(-math.pi * (t * (1.0 / lam) * u_q**2))
    z_kernel, x_kernel = pauli_kernels(lam, x)
    return z_kernel @ z_w, x_kernel @ x_w

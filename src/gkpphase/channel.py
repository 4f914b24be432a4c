"""Effective logical channel of a polynomial phase gate and its figures of merit.

The simulated channel, in the rectangular frame: encode a qubit state into
the orthonormalised approximate codewords of asymmetry λ, apply the gate
exp(2πi P(q/sqrt(λπ))) with output-dimension headroom, then read out the
ideal-QEC logical state through the smeared Pauli measurement operators with
Σ = tanh(Δ²/2) diag(λ, 1/λ) (the phenomenological measurement noise of the
surrounding QEC rounds).  Everything downstream — average gate fidelity
from one engine's readout, T-state fidelity, (n̄, λ) sweeps whose rows mark
each (gate, n̄)'s optimal λ, and the vacuum-state baseline — is assembled
from single-state Pauli expectations, range-checked where they are computed.
That readout model is the only one: the engine reads Σ from the config's
(Δ, λ) and each gate, of `GATE_TABLE`, the one gate vocabulary, from its caller.

The heavy objects, the position eigensystems at d_out and at the readout
dimension, depend only on the truncation; `fock.q_eigensystem` keeps them per
process and, given a cache directory, on disk, and a sweep solves them before
it pins numpy's BLAS and forks its workers.  A readout's four inputs share
each cache-sized column block of them, at the bits of one input at a time.
The Pauli diagonals are one matvec per (Δ, λ) with kernels that depend on λ
alone, which `fock` keeps for the last 16 λ: a sweep visits its points λ by λ,
so each worker builds each λ's kernels once.  The vacuum baseline keeps one
ranking of the posterior cells, that of the last (Δ, grid) (`_ranked_cells`),
so the match fraction and every postselection at one Δ share one posterior
evaluation and one sort.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import NumericFailure, analytic, fock
from .polyalg import GATE_TABLE, RationalPolynomial  # GATE_TABLE re-exported

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Pure-state inputs whose projectors span the qubit operator space, in readout order.
INPUT_STATES = {
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "plus_i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "zero": np.array([1.0, 0.0], dtype=complex),
}

NORM_LOSS_LIMIT = 1e-3

# Eigenvector-matrix columns a multi-input readout reads at a time (`_rmatvecs`): at d_init 256 a
# 768 x 256 block of v2 is 1.5 MB, inside a 2 MB L2 (384 columns ran slower, 128 and 192 no faster).
READOUT_BLOCK = 256

def target_unitary(label: str) -> np.ndarray:
    """2x2 target of a `GATE_TABLE` gate: diag(1, e^{2πi/2^m}) at its hierarchy level m."""
    m = GATE_TABLE[label][1]
    if m == 0:  # exactly the identity, not diag(1, e^{2πi})
        return np.eye(2, dtype=complex)
    return np.diag([1.0, np.exp(2j * math.pi / 2**m)]).astype(complex)


@dataclass(frozen=True)
class ChannelConfig:
    """One logical-channel instance: gate polynomial, code params, readout."""

    gate: RationalPolynomial
    params: fock.GkpParams
    plan: fock.TruncationPlan
    target: str = "I"


class ChannelEngine:
    """Matrix-free evaluator of Pauli expectations for one ChannelConfig.

    Uses the position eigenbasis twice: the gate is diagonal there at
    dimension d_out, and the smeared X/Z measurement operators are diagonal
    in the p/q eigenbases at dimension d_temp(d_out).  Only matrix-vector
    products with the first d_out rows of those eigenvector matrices touch the
    state.  At one BLAS thread a readout reads each matrix `READOUT_BLOCK` columns
    at a time for all four inputs (`_rmatvecs`), at the bits of numpy's per-input
    whole-matrix products; one input (`pauli_expectations`), more BLAS threads
    (whose row split moves those bits) or a BLAS without dgemv take the latter.

    The build (eigensystems, Pauli profiles, codeword pair) is gate-free, and
    each call takes its gate (`pauli_expectations` its phase), so one engine
    serves every gate at its (Δ, λ).  Its Pauli kernels come from `fock`'s
    per-process provider, so engines at one λ and any Δ exponentiate them once.
    """

    def __init__(self, config: ChannelConfig, cache_dir=None):
        self.config, plan, delta, lam = config, config.plan, config.params.delta, config.params.lam
        self.d_init = plan.d_init
        (self.d_temp, self.d_out), _ = plan.eigensystem_dims
        # the readout's (x2, v2) and the gate's (x1, v1), each its first d_out vector rows
        (self.x2, self.v2), (self.x1, self.v1) = (
            fock.q_eigensystem(d, rows, cache_dir) for d, rows in plan.eigensystem_dims)
        self.r2 = fock.number_parity_phases(self.d_temp)
        self.g_z, self.h_x = fock.pauli_profiles(lam, delta, self.x2)
        codewords = (fock.gkp_codeword(bit, delta, lam, self.d_init) for bit in (0, 1))
        self.e0, self.e1 = fock.orthonormalize(*codewords)
        self._gate_inputs: dict[str, np.ndarray] = {}  # input name -> V1[:d_init]ᵀ times the encoded input

    def gate_phase(self, gate: RationalPolynomial) -> np.ndarray:
        """Diagonal of a gate in the d_out q eigenbasis."""
        return fock.phase_profile(gate, self.config.params.lam, self.x1)

    def _expectations(self, names: list[str], phase: np.ndarray) -> dict[str, dict[str, float]]:
        """Input name -> <I, X, Y, Z> for each input of `names`; input by input, a
        leaking gate output raises, then a value past ±(1 + 1e-6)."""
        k, r = len(names), self.r2[: self.d_out]
        for name in set(names) - self._gate_inputs.keys():  # kept: every gate starts from them
            vec = INPUT_STATES[name][0] * self.e0 + INPUT_STATES[name][1] * self.e1
            self._gate_inputs[name] = _rmatvecs(self.v1[: self.d_init, :].T, [vec / np.linalg.norm(vec)])[0]
        psis = _rmatvecs(self.v1, [phase * self._gate_inputs[name] for name in names], k > 1)
        # Z_m is diagonal in the q eigenbasis, X_m in the p one (= R q R†).
        w = _rmatvecs(self.v2.T, psis + [r.conj() * psi for psi in psis], k > 1)
        back = _rmatvecs(self.v2, [self.g_z * wz for wz in w[:k]] + [self.h_x * wx for wx in w[k:]], k > 1)
        readout = {}
        for name, psi, z_psi, x_psi in zip(names, psis, back[:k], [r * x for x in back[k:]]):
            # The gate is exactly unitary at its build dimension, so norm loss proper is roundoff;
            # what signals an untrustworthy truncation is amplitude reaching the top of the output window.
            norm2 = float(np.vdot(psi, psi).real)
            loss, tail = abs(1.0 - norm2), float(np.sum(np.abs(psi[7 * self.d_out // 8 :]) ** 2))
            if max(loss, tail) > NORM_LOSS_LIMIT:
                raise fock.TruncationLeakageError(f"post-gate norm loss {loss:.2e} / edge mass {tail:.2e} "
                                                  f"exceeds {NORM_LOSS_LIMIT}")
            readout[name] = {"I": 1.0, "X": float(np.vdot(psi, x_psi).real) / norm2,
                             "Y": -float(np.vdot(x_psi, z_psi).imag) / norm2,
                             "Z": float(np.vdot(psi, z_psi).real) / norm2}
            for pauli, val in readout[name].items():
                if abs(val) > 1.0 + 1e-6:
                    raise NumericFailure(f"expectation <{pauli}> = {val} out of range for input {name}")
        return readout

    def pauli_expectations(self, name: str, phase: np.ndarray) -> dict[str, float]:
        """<I, X, Y, Z> of the channel output for the input `INPUT_STATES[name]`,
        through the gate of diagonal `phase` (from `gate_phase`).  A value outside
        [-1, 1] by more than 1e-6 raises `NumericFailure`."""
        return self._expectations([name], phase)[name]

    def readout(self, gate: RationalPolynomial) -> dict[str, dict[str, float]]:
        """The four basis inputs through a gate: input name -> its Pauli expectations."""
        return self._expectations(list(INPUT_STATES), self.gate_phase(gate))


def _rmatvecs(m: np.ndarray, vecs: list[np.ndarray], blocked: bool = False) -> list[np.ndarray]:
    """Real m times each complex vector, without promoting the (large) matrix: numpy's
    whole-matrix products, or `blocked`, their bits at one BLAS thread from numpy's own
    `dgemv` reading m's F-ordered storage (m, or mᵀ for a C-ordered m) `READOUT_BLOCK`
    columns at a time (Goto & van de Geijn, ACM TOMS 34(3), 2008), each part read at
    stride 2 as numpy passes it.  Transposed, each output is its own column's dot
    product; untransposed, OpenBLAS adds column groups into y in order, so blocks after
    the first continue the sums at β = 1, and the last rows mod 4, summed outside its
    4-row kernel, take one whole-width call."""
    dgemv = getattr(fock.NUMPY_BLAS, "scipy_dgemv_64_", None) if blocked else None
    if dgemv is None or fock.NUMPY_BLAS.scipy_openblas_get_num_threads64_() > 1:
        return [m @ vec.real + 1j * (m @ vec.imag) for vec in vecs]
    dgemv.restype, dgemv.argtypes = None, [ctypes.c_char_p, *[ctypes.c_void_p] * 10, ctypes.c_size_t]
    f, vecs = m.T if m.flags.c_contiguous else m, [np.ascontiguousarray(vec, dtype=complex) for vec in vecs]
    (rows, cols), ref, i64, dbl = f.shape, ctypes.byref, ctypes.c_int64, ctypes.c_double
    main = rows - rows % 4 if f is m else rows
    n_rows, n_main, one, inc_x, inc_y = ref(i64(rows)), ref(i64(main)), ref(dbl(1.0)), ref(i64(2)), ref(i64(1))
    beta = ref(dbl(0.0)), ref(dbl(1.0))
    out = np.zeros((2 * len(vecs), m.shape[0]))  # each vector's real part, then its imaginary part
    xs, ys = [vec.ctypes.data + 8 * part for vec in vecs for part in (0, 1)], [y.ctypes.data for y in out]
    for col in range(0, cols, READOUT_BLOCK):
        a, n = f.ctypes.data + 8 * col * rows, ref(i64(min(READOUT_BLOCK, cols - col)))
        for x, y in zip(xs, ys):
            if f is m:
                dgemv(b"N", n_main, n, one, a, n_rows, x + 16 * col, inc_x, beta[col > 0], y, inc_y, 1)
            else:
                dgemv(b"T", n_rows, n, one, a, n_rows, x, inc_x, beta[0], y + 8 * col, inc_y, 1)
    for x, y in zip(xs, ys) if main < rows else ():
        dgemv(b"N", ref(i64(rows - main)), ref(i64(cols)), one, f.ctypes.data + 8 * main, n_rows, x, inc_x,
              beta[0], y + 8 * main, inc_y, 1)
    return [re + 1j * im for re, im in zip(out[::2], out[1::2])]


# ---------------------------------------------------------------------------
# Fidelities
# ---------------------------------------------------------------------------


def _dual_frame():
    """The duals V_k = Σ_j α_{jk} σ_j / 2 of the input projectors, α solved from
    σ_j = Σ_k α_{jk}|ψ_k><ψ_k|."""
    basis = np.column_stack([np.outer(v, v.conj()).reshape(-1) for v in INPUT_STATES.values()])
    alpha = np.zeros((4, 4))
    for j, p in enumerate(("I", "X", "Y", "Z")):
        alpha[j] = np.linalg.solve(basis, PAULI[p].reshape(-1)).real
    return [sum(alpha[j, k] * PAULI[p] for j, p in enumerate(("I", "X", "Y", "Z"))) / 2.0
            for k in range(4)]


_DUALS = _dual_frame()


def average_gate_fidelity_from_readout(readout: dict[str, dict[str, float]], target: str) -> float:
    """F = 1/3 + (1/12) Σ_{k,l} tr(U V_k U† σ_l) tr(σ_l E(|ψ_k><ψ_k|)), from `readout`'s
    input name -> Pauli expectations."""
    u = target_unitary(target)
    total = 0.0
    for dual, name in zip(_DUALS, INPUT_STATES):
        conj = u @ dual @ u.conj().T
        row = readout[name]
        for p in ("I", "X", "Y", "Z"):
            total += float(np.trace(conj @ PAULI[p]).real) * row[p]
    return 1.0 / 3.0 + total / 12.0


def t_state_fidelity_from_expectations(exps: dict[str, float]) -> float:
    """F = <T| E(|+><+|) |T> = 1/2 + (<X> + <Y>)/(2 sqrt(2)), from the output's <X>, <Y>."""
    return 0.5 + (exps["X"] + exps["Y"]) / (2.0 * math.sqrt(2.0))


def t_state_fidelity(config: ChannelConfig) -> float:
    """<T| E(|+><+|) |T> through a fresh engine for the config's gate."""
    engine = ChannelEngine(config)
    exps = engine.pauli_expectations("plus", engine.gate_phase(config.gate))
    return t_state_fidelity_from_expectations(exps)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    gate: str
    n_bar: float
    delta: float
    delta_db: float
    lam: float
    avg_infidelity: float
    t_state_infidelity: float | None
    is_optimal: bool
    boundary_flag: bool


@dataclass(frozen=True)
class SweepResult:
    # each (gate, n_bar)'s optimum is its row with is_optimal set
    rows: tuple[SweepRow, ...]
    # failed grid points, (gate, n_bar, lam) -> reason
    failures: dict[tuple[str, float, float], str]


def _pin_blas_threads(threads: int = 1) -> int:
    """Set numpy's OpenBLAS to `threads` threads and return the count it had
    (at start-up `OPENBLAS_NUM_THREADS`, else the core count); without its
    ctypes symbols (another BLAS), set nothing and return 1.

    `sweep` pins it to one thread before its pool forks, so N workers use N
    cores, not N × (BLAS threads).  The q eigensolve runs there too, and its
    d = 2304 solve moves in the last bits at one thread, so it comes first."""
    get = getattr(fock.NUMPY_BLAS, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(fock.NUMPY_BLAS, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_threads is None:
        return 1
    before = get()
    set_threads(threads)
    return before


def _sweep_group(args) -> dict[str, tuple[float, float | None] | str]:
    """Every gate at one (n̄, λ) through one engine: gate -> (average, T-state
    infidelity), or the reason it failed.  Failures are reported, not raised; a
    failed build fails every gate, a post-gate failure only its own."""
    gates, config, cache_dir = args
    try:
        engine = ChannelEngine(config, cache_dir)
    except NumericFailure as exc:
        return dict.fromkeys(gates, str(exc))
    out = {}
    for label in gates:
        poly, level = GATE_TABLE[label]
        try:
            readout = engine.readout(poly)
        except NumericFailure as exc:
            out[label] = str(exc)
            continue
        t_inf = 1.0 - t_state_fidelity_from_expectations(readout["plus"])
        avg_inf = 1.0 - average_gate_fidelity_from_readout(readout, label)
        # the level-3 gates implement T, so only their rows carry a T-state infidelity
        out[label] = (avg_inf, t_inf if level == 3 else None)
    return out


def sweep(gates, n_bar_grid, lam_grid, plan: fock.TruncationPlan, workers: int = 1,
          cache_dir=None) -> SweepResult:
    """Average-gate / T-state infidelities over a (gate, n̄, λ) grid.

    Each point is keyed by its (gate, n̄, λ): a repeated gate, n̄ or λ is
    refused, and rows and failures come in (gate, n̄, λ) order of the given
    grids.  The order of the gates and of the n̄ changes no value, for any
    worker count.  The points of one (n̄, λ) form one work unit that builds
    one engine and runs every gate through it.  Each (gate, n̄)'s optimum is
    its λ-grid argmin row (`is_optimal`), a failed point counting as +inf,
    with `boundary_flag` set when it sits on the grid's boundary (so a one-λ
    grid's only row) or next to a failed λ, where the true optimum may lie.

    This process solves the plan's eigensystems, pins numpy's OpenBLAS to one
    thread and forks a pool of `workers` processes, or at one worker of as many
    as that BLAS had threads (1 where it is not numpy's OpenBLAS), never more
    than the units or the cores.  An error other than `NumericFailure` in a unit
    ends the sweep before the queued units start; the BLAS count is restored on every exit.
    """
    gates, n_bars, lams = list(gates), [float(x) for x in n_bar_grid], [float(x) for x in lam_grid]
    if not gates or not n_bars or not lams:
        raise ValueError("sweep needs nonempty gate, n_bar and lam grids")
    for g in gates:
        if g not in GATE_TABLE:
            raise ValueError(f"unknown gate {g!r}; known: {sorted(GATE_TABLE)}")
    for axis, values in (("gate", gates), ("n_bar", n_bars), ("lam", lams)):
        repeated = [v for v, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValueError(f"sweep repeats {axis} {repeated[0]!r}")

    # One task per (n̄, λ), λ-major, so a worker's consecutive engines share their λ's Pauli
    # kernels in `fock`'s provider (each worker builds its own, to the same bits).
    tasks = [(nb, lam) for lam in lams for nb in n_bars]
    groups = [(gates, ChannelConfig(GATE_TABLE[gates[0]][0], fock.GkpParams.from_n_bar(nb, lam), plan),
               cache_dir) for nb, lam in tasks]
    for d, rows in plan.eigensystem_dims:  # solved once here; every unit reads them
        fock.q_eigensystem(d, rows, cache_dir)
    threads = _pin_blas_threads()  # before any pool, so forked workers start pinned
    try:
        width = min(workers if workers > 1 else threads, len(tasks), multiprocessing.cpu_count())
        pool = ProcessPoolExecutor(max_workers=width, mp_context=multiprocessing.get_context("fork"))
        with pool:  # a unit's error cancels the units not yet started
            outcomes = list(pool.map(_sweep_group, groups))
    finally:
        _pin_blas_threads(threads)
    got = {(g, nb, lam): res for (nb, lam), group in zip(tasks, outcomes) for g, res in group.items()}

    rows, failures = [], {}
    for g, nb in itertools.product(gates, n_bars):
        line = [got[g, nb, lam] for lam in lams]
        scores = [math.inf if isinstance(res, str) else res[0] for res in line]
        best = int(np.argmin(scores))
        # off the grid and failed neighbours alike are +inf
        edged = [math.inf, *scores, math.inf]
        boundary = math.inf in (edged[best], edged[best + 2])
        params = fock.GkpParams.from_n_bar(nb)
        for li, (lam, res) in enumerate(zip(lams, line)):
            if isinstance(res, str):
                failures[g, nb, lam] = res
            else:
                rows.append(SweepRow(g, nb, params.delta, params.delta_db, lam, *res,
                                     is_optimal=(li == best), boundary_flag=(li == best and boundary)))
    return SweepResult(tuple(rows), failures)


# ---------------------------------------------------------------------------
# Vacuum-state magic-state baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacuumMethodConfig:
    delta: float
    grid: int
    postselect_fraction: float

    def __post_init__(self):  # Δ and the grid are checked where the posterior reads them
        if not 0.0 <= self.postselect_fraction <= 1.0:
            raise ValueError("postselect_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class VacuumResult:
    infidelity: float
    acceptance_probability: float


# Bloch vectors of the 12 states Clifford-equivalent to the T state, the orbit
# of (1, 1, 0)/√2 under <H, S>: the signed permutations of (a, a, 0), sorted,
# with a = 1/√2 rounded to 9 decimals as the recorded references have it.
_T_COMPONENT = 0.707106781
CLIFFORD_T_TARGETS = np.array(sorted({
    v for s in (_T_COMPONENT, -_T_COMPONENT) for r in (_T_COMPONENT, -_T_COMPONENT)
    for v in itertools.permutations((s, r, 0.0))}))
CLIFFORD_T_TARGETS.flags.writeable = False


@lru_cache(maxsize=1)
def _ranked_cells(delta: float, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome cells of the vacuum posterior, best first: each cell's fidelity
    to its nearest Clifford-equivalent T target, and its probability weight.

    One entry, read-only: the match fraction and every postselection at one
    (Δ, grid) share one posterior evaluation and one sort."""
    weights, bloch = analytic.vacuum_posterior_grid(delta, grid)
    # per 2^15 cells, the (12, cells) product and its max down the columns, bitwise
    # the (cells, 12) product's row max; then the monotone map 0.5 (1 + .), bitwise mapping first
    fid = np.concatenate([(CLIFFORD_T_TARGETS @ bloch[s : s + (1 << 15)].T).max(axis=0)
                          for s in range(0, len(bloch), 1 << 15)])
    fid = 0.5 * (1.0 + fid)
    order = np.argsort(-fid)
    fid, weights = fid[order], weights[order]
    fid.flags.writeable = weights.flags.writeable = False
    return fid, weights


def vacuum_state_method(config: VacuumMethodConfig) -> VacuumResult:
    """Magic-state infidelity of the vacuum + one-QEC-round scheme.

    Per syndrome cell the conditional Bloch vector is scored against the 12
    Clifford-equivalent T targets; cells are sorted by fidelity and the best
    `postselect_fraction` of the probability mass is kept (the boundary cell
    fractionally).  postselect_fraction -> 0 returns the single best cell.
    """
    fid, weights = _ranked_cells(config.delta, config.grid)
    if config.postselect_fraction == 0.0:
        best = float(fid[0])
        return VacuumResult(1.0 - best, float(weights[0]))
    cum = np.cumsum(weights)
    p = config.postselect_fraction
    k = int(np.searchsorted(cum, p, side="left"))
    k = min(k, len(weights) - 1)
    mass_before = cum[k] - weights[k]
    frac_weight = min(weights[k], p - mass_before)
    acc = mass_before + frac_weight
    mean_fid = (np.sum(fid[:k] * weights[:k]) + fid[k] * frac_weight) / acc
    return VacuumResult(float(1.0 - mean_fid), float(acc))


def vacuum_match_fraction(delta: float, target_infidelity: float, grid: int) -> float:
    """Largest postselection fraction at which the vacuum method still matches.

    Cells are ranked best first as in `vacuum_state_method`, but only whole
    cells are kept: the result is the cumulative weight of the longest
    best-first run of cells whose mean infidelity stays <= target_infidelity.
    The boundary cell is not split, so the value can sit below the fraction
    at which `vacuum_state_method` reaches the target, by less than one cell
    weight (0.2129937 against 0.2129938 at Delta = 0.25, grid 500).

    Returns 0 when even the best single cell cannot reach the target, and 1
    when no postselection is needed.  A target outside [0, 1] is refused.
    """
    if not 0.0 <= target_infidelity <= 1.0:
        raise ValueError(f"target_infidelity must lie in [0, 1], got {target_infidelity}")
    fid, weights = _ranked_cells(delta, grid)
    if 1.0 - fid[0] > target_infidelity:
        return 0.0
    cum_w = np.cumsum(weights)
    cum_f = np.cumsum(fid * weights) / cum_w
    ok = 1.0 - cum_f <= target_infidelity
    if ok[-1]:
        return 1.0
    last = int(np.nonzero(ok)[0][-1])
    return float(cum_w[last])

"""Effective logical channel of a polynomial phase gate and its figures of merit.

The simulated channel, in the rectangular frame: encode a qubit state into
the orthonormalised approximate codewords of asymmetry λ, apply the gate
exp(2πi P(q/sqrt(λπ))) with output-dimension headroom, then read out the
ideal-QEC logical state through the smeared Pauli measurement operators with
Σ = tanh(Δ²/2) diag(λ, 1/λ) (the phenomenological measurement noise of the
surrounding QEC rounds).  Everything downstream — average gate fidelity
from one engine's readout, T-state fidelity, (n̄, λ) sweeps whose rows mark
each (gate, n̄)'s optimal λ, and the vacuum-state baseline — is assembled
from single-state Pauli expectations.  That readout model is the only one: the
engine reads Σ from the config's (Δ, λ).

The heavy objects, the position eigensystems at d_out and at the readout
dimension, depend only on the truncation; they come from
`fock.q_eigensystem`, which keeps them per process and, given a cache
directory, on disk.  The Pauli diagonals are one matvec per (Δ, λ) with
kernels that depend on λ alone; a sweep visits its (n̄, λ) points λ by λ
and holds the last λ's kernels (`_sweep_kernels`), other callers build them
per engine.  The vacuum baseline keeps one ranking of the posterior cells,
that of the last (Δ, grid) (`_ranked_cells`), so the match fraction and every
postselection at one Δ share one posterior evaluation and one sort.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analytic, fock
from .polyalg import GATE_TABLE, RationalPolynomial  # GATE_TABLE re-exported

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Pure-state inputs whose projectors span the qubit operator space.
INPUT_STATES = {
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "plus_i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "zero": np.array([1.0, 0.0], dtype=complex),
}
INPUT_ORDER = ("one", "plus", "plus_i", "zero")

NORM_LOSS_LIMIT = 1e-3

T_IMPLEMENTING_GATES = ("T3", "TGKP", "T4")


def target_unitary(label: str) -> np.ndarray:
    """2x2 target for a gate label: diag(1, e^{2πi/2^m}) at hierarchy level m."""
    if label == "I":
        return np.eye(2, dtype=complex)
    levels = {"Z": 1, "S": 2, "T": 3, "T1/2": 4, "T1/4": 5, "T1/8": 6}
    if label in levels:
        m = levels[label]
    elif label in GATE_TABLE:
        m = GATE_TABLE[label][1]
    else:
        raise ValueError(f"unknown target label {label!r}")
    return np.diag([1.0, np.exp(2j * math.pi / 2**m)]).astype(complex)


@dataclass(frozen=True)
class ChannelConfig:
    """One logical-channel instance: gate polynomial, code params, readout."""

    gate: RationalPolynomial
    params: fock.GkpParams
    plan: fock.TruncationPlan = fock.TruncationPlan(d_init=256)
    target: str = "I"


class ExpectationRangeError(ValueError):
    """A Pauli expectation left [-1, 1] by more than roundoff."""


@dataclass(frozen=True)
class LogicalReadout:
    """Pauli expectations of the channel output for the four basis inputs."""

    expectations: dict[str, dict[str, float]]

    def __post_init__(self):
        for state, row in self.expectations.items():
            for pauli, val in row.items():
                if abs(val) > 1.0 + 1e-6:
                    raise ExpectationRangeError(
                        f"expectation <{pauli}> = {val} out of range for input {state}"
                    )


class ChannelEngine:
    """Matrix-free evaluator of Pauli expectations for one ChannelConfig.

    Uses the position eigenbasis twice: the gate is diagonal there at
    dimension d_out, and the smeared X/Z measurement operators are diagonal
    in the p/q eigenbases at dimension d_temp(d_out).  Only matrix-vector
    products of those eigenvector matrices touch the state, so a single
    evaluation costs a few d_temp² flops.

    The build (eigensystems, Pauli profiles, codeword pair) is gate-free; the
    gate enters per call, so one engine serves every gate at its (Δ, λ).
    `kernels` is handed to `fock.pauli_profiles` (default: built afresh).
    """

    def __init__(self, config: ChannelConfig, cache_dir=None, kernels=None):
        self.config = config
        plan = config.plan
        lam = config.params.lam
        self.d_init = plan.d_init
        self.d_temp, self.d_out = plan.eigensystem_dims
        # the readout's system (x2, v2) and the gate's (x1, v1), in the plan's order
        (self.x2, self.v2), (self.x1, self.v1) = (
            fock.q_eigensystem(d, cache_dir) for d in plan.eigensystem_dims)
        self.r2 = fock.number_parity_phases(self.d_temp)

        self.g_z, self.h_x = fock.pauli_profiles(lam, config.params.delta, self.x2, kernels)

        c0 = fock.gkp_codeword(0, config.params.delta, lam, self.d_init)
        c1 = fock.gkp_codeword(1, config.params.delta, lam, self.d_init)
        self.e0, self.e1 = fock.orthonormalize(c0, c1)
        self._gate_inputs: dict[bytes, np.ndarray] = {}

    @staticmethod
    def _rmatvec(m_real: np.ndarray, vec: np.ndarray) -> np.ndarray:
        # real matrix x complex vector without promoting the (large) matrix
        return m_real @ vec.real + 1j * (m_real @ vec.imag)

    def gate_phase(self, gate: RationalPolynomial | None = None) -> np.ndarray:
        """Diagonal of a gate (default: the config's) in the d_out q eigenbasis."""
        gate = self.config.gate if gate is None else gate
        return fock.phase_profile(gate, self.config.params.lam, self.x1)

    def _gate_input(self, qubit: np.ndarray) -> np.ndarray:
        """V1[:d_init]ᵀ times the encoded qubit, kept per input: every gate starts from it."""
        key = qubit.tobytes()
        if key not in self._gate_inputs:
            a, b = qubit
            vec = a * self.e0.amplitudes + b * self.e1.amplitudes
            self._gate_inputs[key] = self._rmatvec(self.v1[: self.d_init, :].T,
                                                   vec / np.linalg.norm(vec))
        return self._gate_inputs[key]

    def _apply_gate(self, w: np.ndarray, phase: np.ndarray) -> np.ndarray:
        out = self._rmatvec(self.v1, phase * w)
        # The gate is exactly unitary at its build dimension, so norm loss
        # proper is roundoff; what signals an untrustworthy truncation is
        # amplitude reaching the top of the output window.
        loss = abs(1.0 - float(np.vdot(out, out).real))
        tail = float(np.sum(np.abs(out[7 * self.d_out // 8 :]) ** 2))
        if max(loss, tail) > NORM_LOSS_LIMIT:
            raise fock.TruncationLeakageError(
                f"post-gate norm loss {loss:.2e} / edge mass {tail:.2e} "
                f"exceeds {NORM_LOSS_LIMIT}"
            )
        return out

    def pauli_expectations(self, qubit, phase: np.ndarray | None = None) -> dict[str, float]:
        """<I, X, Y, Z> of the channel output for a pure qubit input, through the
        gate of diagonal `phase` (from `gate_phase`; default: the config's gate)."""
        phase = self.gate_phase() if phase is None else phase
        psi = self._apply_gate(self._gate_input(np.asarray(qubit, dtype=complex)), phase)
        norm2 = float(np.vdot(psi, psi).real)
        # Z_m is diagonal in the q eigenbasis, X_m in the p one (= R q R†).
        head = self.v2[: self.d_out, :].T
        wz = self._rmatvec(head, psi)
        z_psi = self._rmatvec(self.v2[: self.d_out, :], self.g_z * wz)
        wx = self._rmatvec(head, self.r2[: self.d_out].conj() * psi)
        x_psi = self.r2[: self.d_out] * self._rmatvec(
            self.v2[: self.d_out, :], self.h_x * wx
        )
        exp_z = float(np.vdot(psi, z_psi).real) / norm2
        exp_x = float(np.vdot(psi, x_psi).real) / norm2
        exp_y = -float(np.vdot(x_psi, z_psi).imag) / norm2
        return {"I": 1.0, "X": exp_x, "Y": exp_y, "Z": exp_z}

    def readout(self, gate: RationalPolynomial | None = None) -> LogicalReadout:
        """The four basis inputs through a gate (default: the config's)."""
        phase = self.gate_phase(gate)
        return LogicalReadout(
            {name: self.pauli_expectations(INPUT_STATES[name], phase) for name in INPUT_ORDER}
        )


# ---------------------------------------------------------------------------
# Fidelities
# ---------------------------------------------------------------------------


def _dual_frame():
    """Coefficients α with σ_j = Σ_k α_{jk}|ψ_k><ψ_k| and the duals V_k."""
    basis = np.column_stack(
        [
            np.outer(INPUT_STATES[k], INPUT_STATES[k].conj()).reshape(-1)
            for k in INPUT_ORDER
        ]
    )
    alpha = np.zeros((4, 4))
    for j, p in enumerate(("I", "X", "Y", "Z")):
        alpha[j] = np.linalg.solve(basis, PAULI[p].reshape(-1)).real
    duals = [sum(alpha[j, k] * PAULI[p] for j, p in enumerate(("I", "X", "Y", "Z"))) / 2.0
             for k in range(4)]
    return alpha, duals


_DUALS = _dual_frame()[1]


def average_gate_fidelity_from_readout(readout: LogicalReadout, target: str) -> float:
    """F = 1/3 + (1/12) Σ_{k,l} tr(U V_k U† σ_l) tr(σ_l E(|ψ_k><ψ_k|))."""
    u = target_unitary(target)
    total = 0.0
    for k, name in enumerate(INPUT_ORDER):
        conj = u @ _DUALS[k] @ u.conj().T
        row = readout.expectations[name]
        for p in ("I", "X", "Y", "Z"):
            total += float(np.trace(conj @ PAULI[p]).real) * row[p]
    return 1.0 / 3.0 + total / 12.0


def t_state_fidelity_from_expectations(exps: dict[str, float]) -> float:
    """F = <T| E(|+><+|) |T> = 1/2 + (<X> + <Y>)/(2 sqrt(2)), from the output's <X>, <Y>."""
    return 0.5 + (exps["X"] + exps["Y"]) / (2.0 * math.sqrt(2.0))


def t_state_fidelity(config: ChannelConfig) -> float:
    """<T| E(|+><+|) |T> through a fresh engine for the config."""
    exps = ChannelEngine(config).pauli_expectations(INPUT_STATES["plus"])
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


# The numeric failures of one point.  Anything else is a bug and propagates.
POINT_ERRORS = (fock.TruncationLeakageError, fock.DegeneratePairError, ExpectationRangeError)


def _pin_blas_threads() -> None:
    """Pool initializer: numpy's OpenBLAS at one thread per worker; a no-op without it."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getattr(lib, "scipy_openblas_set_num_threads64_", lambda _n: None)(1)


_HELD_KERNELS: dict = {}


def _sweep_kernels(lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fock.pauli_kernels`, holding the last (λ, x) pair in this process
    until the sweep ends: the kernels are free of Δ and a sweep runs λ by λ."""
    key = (lam, x.tobytes())
    if key not in _HELD_KERNELS:
        _HELD_KERNELS.clear()
        _HELD_KERNELS[key] = fock.pauli_kernels(lam, x)
    return _HELD_KERNELS[key]


def _sweep_group(args) -> list[tuple[int, float | None, float | None, str | None]]:
    """Every gate at one (n̄, λ) through one engine; failures are reported, not
    raised.  A failed build fails every gate, a post-gate failure only its own."""
    points, config, cache_dir = args
    try:
        engine = ChannelEngine(config, cache_dir, _sweep_kernels)
    except POINT_ERRORS as exc:
        return [(idx, None, None, str(exc)) for idx, _label in points]
    out = []
    for idx, label in points:
        try:
            readout = engine.readout(GATE_TABLE[label][0])
        except POINT_ERRORS as exc:
            out.append((idx, None, None, str(exc)))
            continue
        t_inf = 1.0 - t_state_fidelity_from_expectations(readout.expectations["plus"])
        avg_inf = 1.0 - average_gate_fidelity_from_readout(readout, label)
        out.append((idx, avg_inf, t_inf if label in T_IMPLEMENTING_GATES else None, None))
    return out


def sweep(
    gates,
    n_bar_grid,
    lam_grid,
    plan: fock.TruncationPlan | None = None,
    workers: int = 1,
    cache_dir=None,
) -> SweepResult:
    """Average-gate / T-state infidelities over a (gate, n̄, λ) grid.

    The points of one (n̄, λ) form one work unit that builds one engine and
    runs every gate through it; results are merged by grid index so the
    output is deterministic for any worker count.  Each (gate, n̄)'s optimum
    is its λ-grid argmin row (`is_optimal`), with `boundary_flag` set when it
    sits on the grid's boundary.
    """
    plan = plan or fock.TruncationPlan(d_init=256)
    gates = list(gates)
    n_bars = [float(x) for x in n_bar_grid]
    lams = [float(x) for x in lam_grid]
    if not gates or not n_bars or not lams:
        raise ValueError("sweep needs nonempty gate, n_bar and lam grids")
    for g in gates:
        if g not in GATE_TABLE:
            raise ValueError(f"unknown gate {g!r}; known: {sorted(GATE_TABLE)}")

    # One task per (n̄, λ): (grid index, gate) of every gate, and the engine's
    # config.  λ-major, so consecutive engines share the held Pauli kernels;
    # pool workers take them in that order too.
    groups = [
        ([((gi * len(n_bars) + ni) * len(lams) + li, g) for gi, g in enumerate(gates)],
         ChannelConfig(GATE_TABLE[gates[0]][0], fock.GkpParams.from_n_bar(nb, lam), plan),
         cache_dir)
        for li, lam in enumerate(lams)
        for ni, nb in enumerate(n_bars)
    ]
    meta = [(g, nb, lam) for g in gates for nb in n_bars for lam in lams]

    results: list[tuple[float, float | None] | None] = [None] * len(meta)
    failures: dict[int, str] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
            outcomes = pool.map(_sweep_group, groups)
    else:
        outcomes = map(_sweep_group, groups)
    for idx, inf, t_inf, err in (point for group in outcomes for point in group):
        if err is not None:
            failures[idx] = err
        else:
            results[idx] = (inf, t_inf)
    _HELD_KERNELS.clear()

    rows: list[SweepRow] = []
    for gi, g in enumerate(gates):
        for ni, nb in enumerate(n_bars):
            base = (gi * len(n_bars) + ni) * len(lams)
            line = results[base : base + len(lams)]
            best = int(np.argmin([math.inf if res is None else res[0] for res in line]))
            boundary = best in (0, len(lams) - 1) and len(lams) > 1
            params = fock.GkpParams.from_n_bar(nb)
            rows.extend(
                SweepRow(gate=g, n_bar=nb, delta=params.delta, delta_db=params.delta_db,
                         lam=lam, avg_infidelity=res[0], t_state_infidelity=res[1],
                         is_optimal=(li == best), boundary_flag=(li == best and boundary))
                for li, (lam, res) in enumerate(zip(lams, line)) if res is not None
            )
    return SweepResult(tuple(rows), {meta[i]: failures[i] for i in sorted(failures)})


# ---------------------------------------------------------------------------
# Vacuum-state magic-state baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacuumMethodConfig:
    delta: float
    grid: int = 500
    postselect_fraction: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 <= self.postselect_fraction <= 1.0:
            raise ValueError("postselect_fraction must lie in [0, 1]")
        if self.grid < 2:
            raise ValueError("grid must be >= 2")


# Syndrome grids with fewer cells per axis are flagged as coarse.
COARSE_GRID = 100


@dataclass(frozen=True)
class VacuumResult:
    infidelity: float
    acceptance_probability: float
    coarse_grid_warning: bool  # grid < COARSE_GRID


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
    fid = 0.5 * (1.0 + bloch @ CLIFFORD_T_TARGETS.T).max(axis=1)
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
        return VacuumResult(1.0 - best, float(weights[0]), config.grid < COARSE_GRID)
    cum = np.cumsum(weights)
    p = config.postselect_fraction
    k = int(np.searchsorted(cum, p, side="left"))
    k = min(k, len(weights) - 1)
    mass_before = cum[k] - weights[k]
    frac_weight = min(weights[k], p - mass_before)
    acc = mass_before + frac_weight
    mean_fid = (np.sum(fid[:k] * weights[:k]) + fid[k] * frac_weight) / acc
    return VacuumResult(float(1.0 - mean_fid), float(acc), config.grid < COARSE_GRID)


def vacuum_match_fraction(delta: float, target_infidelity: float, grid: int = 500) -> float:
    """Largest postselection fraction at which the vacuum method still matches.

    Cells are ranked best first as in `vacuum_state_method`, but only whole
    cells are kept: the result is the cumulative weight of the longest
    best-first run of cells whose mean infidelity stays <= target_infidelity.
    The boundary cell is not split, so the value can sit below the fraction
    at which `vacuum_state_method` reaches the target, by less than one cell
    weight (0.2129937 against 0.2129938 at Delta = 0.25, grid 500).

    Returns 0 when even the best single cell cannot reach the target, and 1
    when no postselection is needed.
    """
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

"""Logical channel assembly, fidelities, sweeps, and the vacuum baseline."""

import ctypes
import functools
import itertools
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.fft
import scipy.special

import oracles
from gkpphase import NumericFailure, channel as ch, fock as fk
from gkpphase.polyalg import RationalPolynomial, control_gate_start, multivariate_reduce
from oracles import average_gate_fidelity_reconstructed, logical_expectation

PLAN_SMALL = fk.TruncationPlan(d_init=160)
PLAN_DESK = fk.TruncationPlan(d_init=256)


def cfg(gate="I", delta=0.25, lam=1.0, plan=PLAN_SMALL, **kw):
    poly, _ = ch.GATE_TABLE[gate]
    return ch.ChannelConfig(
        gate=poly, params=fk.GkpParams(delta, lam), plan=plan,
        target=kw.pop("target", gate), **kw
    )


def test_idle_channel_preserves_z():
    val = logical_expectation(cfg(), "zero", "Z")
    assert 0.9 < val <= 1.0 + 1e-9


def test_idle_channel_has_no_x_coherence_on_z_eigenstate():
    val = logical_expectation(cfg(), "zero", "X")
    assert abs(val) < 1e-3


def test_readout_within_bloch_ball():
    config = cfg("T3", lam=2.0)
    ro = ch.ChannelEngine(config).readout(config.gate)
    for row in ro.values():
        assert all(abs(v) <= 1.0 + 1e-6 for v in row.values())


def test_reconstructed_outputs_positive_semidefinite():
    config = cfg("T3", lam=2.0)
    ro = ch.ChannelEngine(config).readout(config.gate)
    for name in ch.INPUT_STATES:
        rho = oracles.output_density(ro, name)
        rho = rho / np.trace(rho).real
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        assert eigs.min() > -1e-6


def test_t3_rotates_plus_by_pi_over_4():
    config = cfg("T3", delta=0.2, lam=2.5, plan=PLAN_DESK)
    engine = ch.ChannelEngine(config)
    exps = engine.pauli_expectations("plus", engine.gate_phase(config.gate))
    assert exps["X"] > 0.6 and exps["Y"] > 0.6
    assert abs(math.atan2(exps["Y"], exps["X"]) - math.pi / 4) < 5e-3


def test_two_fidelity_routes_agree():
    config = cfg("T3", lam=2.0)
    ro = ch.ChannelEngine(config).readout(config.gate)
    f1 = ch.average_gate_fidelity_from_readout(ro, "T3")
    f2 = average_gate_fidelity_reconstructed(ro, "T3")
    assert abs(f1 - f2) < 1e-10


def test_exact_unitary_readout_gives_unit_fidelity():
    # synthetic readout of a perfect T gate channel
    u = ch.target_unitary("T3")
    exps = {}
    for name, vec in ch.INPUT_STATES.items():
        out = u @ vec
        exps[name] = {
            p: float(np.vdot(out, ch.PAULI[p] @ out).real) for p in ("I", "X", "Y", "Z")
        }
    assert abs(ch.average_gate_fidelity_from_readout(exps, "T3") - 1.0) < 1e-12
    # and a T state fidelity of one when fed |+>
    row = exps["plus"]
    f = 0.5 + (row["X"] + row["Y"]) / (2 * math.sqrt(2))
    assert abs(f - 1.0) < 1e-12


def test_t_state_two_routes_agree():
    config = cfg("T3", lam=2.0)
    f = ch.t_state_fidelity(config)
    ro = ch.ChannelEngine(config).readout(config.gate)
    rho = oracles.output_density(ro, "plus")
    t_state = ch.target_unitary("T3") @ ch.INPUT_STATES["plus"]
    f2 = float(np.vdot(t_state, rho @ t_state).real)
    assert abs(f - f2) < 1e-10


def test_mirror_polynomials_perform_identically():
    i1 = 1 - oracles.average_gate_fidelity(cfg("T4th", lam=1.8, target="T4th"))
    i2 = 1 - oracles.average_gate_fidelity(cfg("T4th-mirror", lam=1.8, target="T4th"))
    assert abs(i1 - i2) < 1e-8


def test_truncation_leakage_raises():
    # the strong cubic at low headroom pushes amplitude to the output edge
    poly, _ = ch.GATE_TABLE["TGKP"]
    config = ch.ChannelConfig(
        gate=poly, params=fk.GkpParams(0.35, 1.0),
        plan=fk.TruncationPlan(d_init=64), target="TGKP",
    )
    with pytest.raises(fk.TruncationLeakageError):
        ch.ChannelEngine(config).readout(config.gate)


def test_target_unitary_labels():
    assert np.allclose(ch.target_unitary("T3"), np.diag([1, np.exp(1j * math.pi / 4)]))
    assert np.allclose(ch.target_unitary("TGKP"), ch.target_unitary("T3"))
    assert np.allclose(ch.target_unitary("T8th"), np.diag([1, np.exp(1j * math.pi / 32)]))
    # level 0 is the identity exactly, not diag(1, e^{2πi}) rounded
    assert np.array_equal(ch.target_unitary("I"), np.eye(2))
    # GATE_TABLE is the one vocabulary: the old level aliases are unknown
    for label in ("bogus", "T", "T1/8"):
        with pytest.raises(KeyError):
            ch.target_unitary(label)


def test_sweep_deterministic_and_identity_optimum():
    n_bars = [3.0, 5.0]
    lams = [1.0, 1.8, 2.6]
    res1 = ch.sweep(["I"], n_bars, lams, PLAN_SMALL, workers=1)
    res2 = ch.sweep(["I"], n_bars, lams, PLAN_SMALL, workers=2)
    assert res1.rows == res2.rows
    for nb in n_bars:
        lam_opt, _inf, boundary = oracles.optima(res1)["I"][nb]
        assert lam_opt == 1.0
        assert boundary  # argmin on the lower grid edge


def test_sweep_t3_beats_tgkp():
    n_bars = [4.0, 7.5]
    lams = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]
    res = ch.sweep(["T3", "TGKP"], n_bars, lams, PLAN_SMALL)
    for nb in n_bars:
        assert oracles.optima(res)["T3"][nb][1] < oracles.optima(res)["TGKP"][nb][1]
    t3_rows = [r for r in res.rows if r.gate == "T3"]
    assert all(r.t_state_infidelity is not None for r in t3_rows)


def test_idle_fidelity_at_high_quality_states():
    # n_bar = 49.5 proxy for Delta -> 0.1: idling error shrinks with Delta
    f = oracles.average_gate_fidelity(cfg("I", delta=0.1, lam=1.0, plan=PLAN_DESK))
    assert f > 0.999


def test_t_state_perfect_channel_limit():
    config = cfg("T3", delta=0.15, lam=3.0, plan=PLAN_DESK)
    assert ch.t_state_fidelity(config) > 0.999


def test_truncation_robustness_spot_points():
    # doubling d_init moves reported infidelities by < 5% relative
    spots = [("T3", 7.5, 2.0), ("I", 5.0, 1.0), ("TGKP", 4.0, 3.0),
             ("sqrtT", 7.5, 1.5), ("T8th", 9.0, 1.8)]
    for gate, n_bar, lam in spots:
        infs = []
        for d_init in (128, 256):
            poly, _ = ch.GATE_TABLE[gate]
            config = ch.ChannelConfig(
                gate=poly, params=fk.GkpParams.from_n_bar(n_bar, lam),
                plan=fk.TruncationPlan(d_init=d_init), target=gate,
            )
            infs.append(1 - oracles.average_gate_fidelity(config))
        assert abs(infs[0] / infs[1] - 1.0) < 0.05, (gate, n_bar, lam, infs)


def test_sweep_uses_operator_cache(tmp_path):
    from gkpphase.opcache import OperatorCache

    n_bars, lams = [4.0], [1.0, 2.0]
    plain = ch.sweep(["I"], n_bars, lams, PLAN_SMALL)
    cached = ch.sweep(["I"], n_bars, lams, PLAN_SMALL, cache_dir=tmp_path)
    assert plain.rows == cached.rows
    cache = OperatorCache(tmp_path)
    d_temp = PLAN_SMALL.d_temp(PLAN_SMALL.d_out)
    assert cache.get("qeig-values", {"d": d_temp}) is not None
    block = cache.get("qeig-vectors", {"d": d_temp, "rows": PLAN_SMALL.d_out})
    assert block.shape == (PLAN_SMALL.d_out, d_temp)
    again = ch.sweep(["I"], n_bars, lams, PLAN_SMALL, cache_dir=tmp_path)
    assert again.rows == plain.rows


def _fresh_provider(monkeypatch):
    # an empty in-process map, so eigensystems come from disk or a new solve
    monkeypatch.setattr(fk, "_q_eigensystem",
                        functools.lru_cache(maxsize=6)(fk._q_eigensystem.__wrapped__))


def test_one_provider_entry_per_cache_directory(tmp_path, monkeypatch):
    _fresh_provider(monkeypatch)
    first = fk.q_eigensystem(32, 32, str(tmp_path))
    assert fk.q_eigensystem(32, 32, tmp_path) is first
    assert fk.q_eigensystem(32, 32, f"{tmp_path}/") is first


def test_sweep_rows_read_from_disk_equal_uncached(tmp_path, monkeypatch):
    plan = fk.TruncationPlan(d_init=128)
    n_bars, lams = [3.0, 6.0], [1.0, 1.8, 3.0]
    plain = ch.sweep(["T3"], n_bars, lams, plan)
    ch.sweep(["T3"], n_bars, lams[:1], plan, cache_dir=tmp_path)  # fills the files
    _fresh_provider(monkeypatch)
    cached = ch.sweep(["T3"], n_bars, lams, plan, cache_dir=tmp_path)
    assert len(plain.rows) >= 5
    assert cached.rows == plain.rows  # equal as floats, not just close
    (d, rows), _ = plan.eigensystem_dims
    mapped = fk.q_eigensystem(d, rows, tmp_path)[1]
    assert mapped.shape == (rows, d) and mapped.flags.f_contiguous
    assert mapped.tobytes() == fk.q_eigensystem(d, rows, None)[1].tobytes()


def test_no_eigensolve_after_prewarm(tmp_path, monkeypatch):
    from gkpphase import cli

    plan = fk.TruncationPlan(d_init=64)
    plain = ch.sweep(["T3", "I"], [4.0], [1.0, 2.0], plan)
    assert cli.dispatch(["cache", "prewarm", "--cache-dir", str(tmp_path), "--dinit", "64",
                         "--out", str(tmp_path / "prewarm.json")]) == 0
    assert json.loads((tmp_path / "prewarm.json").read_text())["prewarmed"] == 4
    assert sorted(np.load(path).shape for path in tmp_path.glob("qeig-vectors-*.opc")) == [
        (plan.d_out, plan.d_out), (plan.d_out, plan.d_temp(plan.d_out))]
    _fresh_provider(monkeypatch)

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve after prewarm")

    monkeypatch.setattr(fk, "_solve_q", no_solve)
    res = ch.sweep(["T3", "I"], [4.0], [1.0, 2.0], plan, cache_dir=tmp_path)
    assert len(res.rows) + len(res.failures) == 4 and res.rows
    assert res.rows == plain.rows  # equal as floats, not just close


def test_engine_holds_first_d_out_eigenvector_rows():
    engine = ch.ChannelEngine(cfg())
    d_out = PLAN_SMALL.d_out
    assert engine.v2.shape == (d_out, PLAN_SMALL.d_temp(d_out))
    assert engine.v1.shape == (d_out, d_out)


def test_engine_matches_dense_oracles():
    # the matrix-free engine against poly_phase_gate + pauli_measurement_operator
    config = cfg("T3", delta=0.35, lam=2.0, plan=fk.TruncationPlan(d_init=64))
    plan, lam = config.plan, config.params.lam
    engine = ch.ChannelEngine(config)
    gate = oracles.poly_phase_gate(config.gate, lam, plan).matrix
    smear = oracles.smear_matrix(config.params.delta, lam)
    paulis = {p: oracles.pauli_measurement_operator(p, lam, smear, plan.d_out).matrix
              for p in ("X", "Y", "Z")}
    e0 = fk.gkp_codeword(0, 0.35, lam, plan.d_init)
    e1 = fk.gkp_codeword(1, 0.35, lam, plan.d_init)
    e0, e1 = fk.orthonormalize(e0, e1)
    for name, (a, b) in ch.INPUT_STATES.items():
        vec = a * e0 + b * e1
        psi = gate @ (vec / np.linalg.norm(vec))
        exps = engine.pauli_expectations(name, engine.gate_phase(config.gate))
        for p, op in paulis.items():
            dense = np.vdot(psi, op @ psi).real / np.vdot(psi, psi).real
            assert abs(exps[p] - dense) <= 1e-12, (name, p, exps[p], dense)


# The position-grid oracle: N = 4096 points over [-40, 40), which holds the
# codewords at the n̄ below to far under 1e-12 of their mass, and whose p band
# (π/dx ≈ 161) holds what the cubic gate adds: over [-60, 60) the band is 107
# and the (T3, 9, 1) readout moved 8.8e-11 between N = 4096 and 8192.  Each
# value a test takes from the oracle asserts its window's edge masses.
GRID_N, GRID_HALF_WIDTH = 4096, 40.0


def _assert_window(readout):
    assert max(readout.x_edge, readout.p_edge) <= oracles.EDGE_LIMIT, (
        readout.n, readout.half_width, readout.x_edge, readout.p_edge)


def _fock_readout(gate, n_bar, lam, d_init):
    config = ch.ChannelConfig(ch.GATE_TABLE[gate][0], fk.GkpParams.from_n_bar(n_bar, lam),
                              fk.TruncationPlan(d_init=d_init))
    return ch.ChannelEngine(config).readout(config.gate)


def _infidelity(readout, gate):
    return 1.0 - ch.average_gate_fidelity_from_readout(readout, gate)


def _hex_readout(readout):
    return {name: {p: v.hex() for p, v in row.items()} for name, row in readout.items()}


# d_init 16-19 give every d_out mod 4, and at 16 columns a block each matrix spans
# several blocks; 256 is the benchmark's size at the fixed width
BLOCKED_READOUT_CASES = [*itertools.product((16, 17, 18, 19), (16, None)), (256, None)]


@pytest.mark.parametrize("path", ["dgemv", "fallback"])
def test_blocked_readout_is_bitwise_the_per_input_products(monkeypatch, path):
    # at one BLAS thread a readout's four inputs share each column block of v1 and v2:
    # every blocked product equals the whole-matrix one amplitude by amplitude, every
    # expectation the per-input oracle's, and each input's `pauli_expectations` (one
    # input, one block) its readout row; at 2 threads and without dgemv the same hold
    if path == "dgemv" and getattr(fk.NUMPY_BLAS, "scipy_dgemv_64_", None) is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    real, checked = ch._rmatvecs, []

    def spy(m, vecs, blocked=False):
        got = real(m, vecs, blocked)
        if blocked:
            checked.append([v.tobytes() for v in got] == [v.tobytes() for v in real(m, vecs)])
        return got

    before = ch._pin_blas_threads(1)
    try:
        for d_init, width in BLOCKED_READOUT_CASES:
            n_bar, lam = (1.0, 1.5) if d_init < 256 else (6.0, 2.0)
            engine = ch.ChannelEngine(cfg(delta=fk.GkpParams.from_n_bar(n_bar).delta, lam=lam,
                                          plan=fk.TruncationPlan(d_init)))
            for threads in (1, 2):
                ch._pin_blas_threads(threads)
                with monkeypatch.context() as mp:
                    mp.setattr(ch, "_rmatvecs", spy)
                    mp.setattr(ch, "READOUT_BLOCK", width or ch.READOUT_BLOCK)
                    if path == "fallback":
                        mp.setattr(fk, "NUMPY_BLAS", object())  # a BLAS without dgemv
                    for gate in ("T3", "TGKP", "I"):
                        poly = ch.GATE_TABLE[gate][0]
                        readout = _hex_readout(engine.readout(poly))
                        assert readout == _hex_readout(oracles.per_input_readout(engine, poly)), (d_init, gate)
                        phase = engine.gate_phase(poly)
                        singles = {name: engine.pauli_expectations(name, phase) for name in ch.INPUT_STATES}
                        assert _hex_readout(singles) == readout
    finally:
        ch._pin_blas_threads(before)
    assert len(checked) == 3 * 3 * 2 * len(BLOCKED_READOUT_CASES) and all(checked)


def test_readout_blocks_only_at_one_blas_thread():
    # at 2 threads OpenBLAS splits a product's rows between its threads, and at
    # d_out 765 blocked products would move the bits of whole-matrix ones
    if _blas_threads() is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    _, v1 = fk.q_eigensystem(*fk.TruncationPlan(255).eigensystem_dims[1], None)
    rng = np.random.default_rng(7)
    before = ch._pin_blas_threads(2)
    try:
        for m in (v1, v1.T):
            vecs = list(rng.standard_normal((4, m.shape[1])) + 1j * rng.standard_normal((4, m.shape[1])))
            whole = [m @ v.real + 1j * (m @ v.imag) for v in vecs]
            assert [v.tobytes() for v in ch._rmatvecs(m, vecs, True)] == [v.tobytes() for v in whole]
    finally:
        ch._pin_blas_threads(before)


def test_grid_oracle_pins_the_converged_fock_engine():
    # at (T3, n̄ 6, λ 2) the Fock engine has converged by d_init 400 (8.5e-14 measured)
    # (edge masses 5e-31 in x and 1e-31 in p)
    delta = fk.GkpParams.from_n_bar(6.0, 2.0).delta
    readout = oracles.grid_readout("T3", delta, 2.0, GRID_N, GRID_HALF_WIDTH)
    _assert_window(readout)
    grid = readout.infidelity
    fock = _infidelity(_fock_readout("T3", 6.0, 2.0, 400), "T3")
    assert abs(grid - fock) <= 1e-12 * grid, (grid, fock)


def test_grid_oracle_is_converged_in_its_point_count():
    # the rule holds on the N = 8192 side (p-edge 8e-20); at N = 4096 the p-edge
    # is 1.2e-10, above the rule, yet the two grids agree to 3.3e-14: it is
    # conservative here, and doubling N alone cannot show an L that is too small
    delta = fk.GkpParams.from_n_bar(9.0, 1.0).delta
    coarse, fine = (oracles.grid_readout("T3", delta, 1.0, n, GRID_HALF_WIDTH) for n in (4096, 8192))
    _assert_window(fine)
    for name in ch.INPUT_STATES:
        for p in ("X", "Y", "Z"):
            a, b = coarse.expectations[name][p], fine.expectations[name][p]
            assert abs(a - b) <= 1e-12, (name, p, a, b)


def test_fock_engine_approaches_the_grid_as_d_init_grows():
    # at (T3, n̄ 9, λ 1) d_init 256 is off by 1.3e-3 relative, d_init 400 by 1.9e-4.
    # No window assertion: at (4096, 40) the p-edge is 1.2e-10, above the rule,
    # while the value moves by 3.3e-14 at N = 8192, far below the 1e-4 scale
    # this ordering works at.
    delta = fk.GkpParams.from_n_bar(9.0, 1.0).delta
    grid = oracles.grid_readout("T3", delta, 1.0, GRID_N, GRID_HALF_WIDTH).infidelity
    off = {d: abs(_infidelity(_fock_readout("T3", 9.0, 1.0, d), "T3") - grid) for d in (256, 400)}
    assert off[400] < off[256], (grid, off)


# The default engine's own error.  Its 411 criterion-08 reference rows agree
# with the sized grid oracle to 2e-3 relative; these are the five worst, λ on
# that grid (1 + 4k/15).  Measured 1.343e-3, 1.159e-3, 6.29e-4, 5.76e-4 and
# 5.60e-4, the Fock value the higher each time; the bound 2e-3 has a 1.49×
# margin.  A failure is a finding about the engine, not a bound to move.
@pytest.mark.parametrize("gate, n_bar, lam", [
    ("T3", 9.0, 1.0), ("T3", 10.0, 1.0 + 4 / 15), ("TGKP", 10.0, 1.0 + 16 / 15),
    ("T3", 8.0, 1.0), ("TGKP", 8.0, 1.0 + 12 / 15),
])
def test_default_engine_error_is_bounded(gate, n_bar, lam):
    # the engine's window check is its post-gate leakage check, which raises
    fock = _infidelity(_fock_readout(gate, n_bar, lam, 256), gate)
    grid = oracles.sized_grid_readout(gate, fk.GkpParams.from_n_bar(n_bar, lam).delta, lam)
    _assert_window(grid)
    want = grid.infidelity
    assert abs(fock - want) <= 2e-3 * want, (fock, want)


@pytest.mark.parametrize("sigma", [0.1, 0.28, 1.0, math.sqrt(math.pi)])
def test_square_wave_complements_are_one_minus_and_plus_the_profile(sigma):
    # σ from Δ → 0 up to its cap √π (0.28 is n̄ 10); measured 6.7e-16 and
    # 7.2e-16 at most, against the bound 2e-15 (a 2.8x margin)
    theta = np.linspace(-20.0, 20.0, 20001)
    minus, plus = oracles._square_wave_complements(theta, sigma)
    assert (minus >= 0).all() and (plus >= 0).all()
    assert np.abs(minus + plus - 2.0).max() <= 2e-15
    assert np.abs(0.5 * (plus - minus) - oracles._smeared_square_wave(theta, sigma)).max() <= 2e-15


# The five criterion-08 rows with 1 - F < 3e-4, all gate I and all sized (4096, 60).
LOW_IDENTITY_ROWS = [(10.0, 1.0), (10.0, 1.0 + 4 / 15), (9.0, 1.0), (10.0, 1.0 + 8 / 15), (9.0, 1.0 + 4 / 15)]


def _longdouble_readout(gate, delta, lam, readout):
    """`grid_readout` on `readout`'s window, every array in np.longdouble."""
    n, half_width = readout.n, readout.half_width
    return oracles.grid_readout(gate, delta, lam, n, half_width,
                                oracles._grid_window(delta, lam, n, half_width, np.longdouble))


# The grid's 1 - F, a mean of nonnegative sums, at the low rows.  Measured:
# float64 against longdouble 0 to 4.0e-16 relative (the bound 1e-14 has a 25x
# margin; on a platform whose longdouble is float64 this check is vacuous); N
# against 2N 0 to 8.7e-16 relative (1e-14, 11x), where 1 - F formed from the
# expectations moves by up to 2.2e-12; and that formed value within 1.5e-16
# absolute of the longdouble one (1e-15, 6.7x).  It carries F's rounding,
# 1.1e-16 a unit below 1, so its bound is absolute.  A failure is a finding
# about the form, not a bound to move.
@pytest.mark.parametrize("n_bar, lam", LOW_IDENTITY_ROWS)
def test_six_axis_infidelity_keeps_float64_at_the_low_rows(n_bar, lam):
    delta = fk.GkpParams.from_n_bar(n_bar, lam).delta
    readout = oracles.sized_grid_readout("I", delta, lam)
    assert (readout.n, readout.half_width) == (4096, 60.0)
    wide, long = oracles.grid_readout("I", delta, lam, 8192, 60.0), _longdouble_readout("I", delta, lam, readout)
    for value in (readout, wide, long):
        _assert_window(value)
    want = long.infidelity
    assert abs(readout.infidelity - want) <= 1e-14 * want, (readout.infidelity, want)
    assert abs(wide.infidelity - readout.infidelity) <= 1e-14 * want, (wide.infidelity, readout.infidelity)
    assert abs(_infidelity(readout.expectations, "I") - want) <= 1e-15, want


# float64 against longdouble where the equatorial targets lie off the axes,
# at ϑ = π/4 + kπ/2, each on its sized window; 1 - F and the T-state 1 - F
# measured 1.25e-15 and 1.19e-15 relative at (T3, n̄ 9, λ 1), 3.2e-16 and
# 4.2e-16 at (TGKP, n̄ 10, λ 5), and 2.2e-16 and 2.9e-16 at the 12 dB headline
# point (T3, Δ of n̄ 7.42 at λ 1, λ 2.02).  The bound 5e-15 has a 4x margin.
@pytest.mark.parametrize("gate, delta, lam", [
    ("T3", fk.GkpParams.from_n_bar(9.0, 1.0).delta, 1.0),
    ("TGKP", fk.GkpParams.from_n_bar(10.0, 5.0).delta, 5.0),
    ("T3", fk.GkpParams.from_n_bar(7.42, 1.0).delta, 2.02),
])
def test_grid_rows_keep_float64_off_the_axes(gate, delta, lam):
    readout = oracles.sized_grid_readout(gate, delta, lam)
    long = _longdouble_readout(gate, delta, lam, readout)
    for value in (readout, long):
        _assert_window(value)
    for ours, want in ((readout.infidelity, long.infidelity), (readout.t_state_infidelity, long.t_state_infidelity)):
        assert abs(ours - want) <= 5e-15 * want, (ours, want)


@pytest.mark.parametrize("delta, lam, n, half_width", [
    (fk.GkpParams.from_n_bar(6.0, 2.0).delta, 2.0, 4096, 40.0),
    (0.05, ch.analytic.ft_lambda_ansatz(0.05), 8192, 120.0),
    (fk.GkpParams.from_n_bar(40.0, 1.0).delta, 1.0, 32768, 160.0),
])
def test_resummed_codeword_pins_the_direct_lattice_sum(delta, lam, n, half_width):
    # measured: 6.7e-16 and 1.1e-15, 4.7e-14 and 7.2e-14, 4.8e-15 and 9.5e-15
    # of the peak; the direct sum takes 0.1 to 1.5 s a codeword, the resummed
    # form 2 to 30 ms
    x = -half_width + np.arange(n) * (2.0 * half_width / n)
    for bit in (0, 1):
        direct = oracles._grid_codeword(bit, delta, lam, x)
        resummed = oracles._resummed_codeword(bit, delta, lam, x)
        peak = np.abs(direct).max()
        assert np.abs(resummed - direct).max() <= 1e-13 * peak, bit


def test_grid_readout_at_delta_0_05_is_fast():
    # on the direct sum this readout took about 13 s; best of three, after a warm-up
    lam = ch.analytic.ft_lambda_ansatz(0.05)
    oracles.grid_readout("T3", 0.05, lam, 8192, 120.0)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        oracles.grid_readout("T3", 0.05, lam, 8192, 120.0)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, times


def test_window_rule_flags_a_short_window_that_n_doubling_passes():
    # T3 at Δ = 0.05 and λ(Δ) = 49.2 over [-80, 80): N = 4096 and 8192 agree to
    # 1.7e-5 relative, yet both are off by 1.3e-3; the x-edge (9e-5) shows it.
    # The sized window is (18432, 135); below 32768 points n̄ 40 fails, naming both masses.
    lam = ch.analytic.ft_lambda_ansatz(0.05)
    short = oracles.grid_readout("T3", 0.05, lam, 8192, 80.0)
    sized = oracles.sized_grid_readout("T3", 0.05, lam)
    assert short.x_edge > oracles.EDGE_LIMIT
    assert abs(short.infidelity - sized.infidelity) > 1e-3 * sized.infidelity
    with pytest.raises(fk.TruncationLeakageError, match="edge masses x"):
        oracles.sized_grid_readout("T3", fk.GkpParams.from_n_bar(40.0, 1.0).delta, 1.0, max_n=16384)


def test_grid_readout_does_not_wrap_x_shifts_onto_the_codewords():
    # T3 at Δ = 0.1 and λ(Δ) = 21.41: the sized window is (6144, 90), where 2L is
    # 21.95 √(πλ).  On the bare period X_m's shifts by 21 and 23 √(πλ) wrap onto
    # about ±√(πλ) and 1 - F reads 5.0228844370e-3; padded, it reads 5.0234770409e-3
    # to 2.7e-12, as (4096, 80) to (32768, 400) do.  The bound 1e-9 sits 1e5 below
    # the wrapped value's 1.2e-4 offset.
    grid = oracles.sized_grid_readout("T3", 0.1, ch.analytic.ft_lambda_ansatz(0.1))
    _assert_window(grid)
    assert abs(grid.infidelity - 5.0234770409e-3) <= 1e-9 * 5.0234770409e-3, (grid.n, grid.half_width)


# The grid oracle in the shape the engine will ship: Φ from the `_ndtr` port,
# pad lengths from `_fast_len`, and `grid_unit`, each pinned to the form it
# replaces.  Criterion-08 points (n̄, λ = 1 + 4k/15) where every gate starts at
# (4096, 60): at (2, 0) TGKP grows to 8192 points, at (9, 0) T3 to 8192 and
# TGKP to 32768, and at (10, 15) no window grows.
CRITERION_08_SUBSET = [(2.0, 0), (9.0, 0), (10.0, 15)]
GRID_GATES = ("T3", "TGKP", "I")


def _criterion_08_point(n_bar, k):
    lam = 1.0 + 4 * k / 15
    return fk.GkpParams.from_n_bar(n_bar, lam).delta, lam


@pytest.mark.parametrize("n_bar, k", CRITERION_08_SUBSET)
def test_grid_unit_is_sized_grid_readout_for_every_gate(n_bar, k):
    delta, lam = _criterion_08_point(n_bar, k)
    assert oracles.grid_unit(GRID_GATES, delta, lam) == [
        oracles.sized_grid_readout(g, delta, lam) for g in GRID_GATES]


@pytest.mark.parametrize("n_bar, k", CRITERION_08_SUBSET)
def test_grid_rows_are_bitwise_with_scipy_ndtr(monkeypatch, n_bar, k):
    # the average and T-state infidelities formed from the expectations; single
    # expectations may move by an ulp (142 of the 432 criterion-08 readouts do),
    # no such row of the 432 does.  The readout's own `infidelity` and
    # `t_state_infidelity` keep that ulp: 5 of 432 and 2 of 288 move, by <= 2.9e-16
    def rows():
        return [(_infidelity(r.expectations, g), 1.0 - ch.t_state_fidelity_from_expectations(r.expectations["plus"]))
                for g, r in zip(GRID_GATES, oracles.grid_unit(GRID_GATES, *_criterion_08_point(n_bar, k)))]

    ported = rows()
    monkeypatch.setattr(oracles, "_ndtr", scipy.special.ndtr)
    assert rows() == ported


# Both row columns hold from (N, L) to (2N, L), N the sized count, to 1e-13
# relative: every gate at CRITERION_08_SUBSET and I at the low rows, where the
# columns formed from the expectations move by up to 2.2e-12.  Measured at most
# 8.7e-16; the bound has a 115x margin.
@pytest.mark.parametrize("gates, n_bar, lam", [
    *((GRID_GATES, n_bar, _criterion_08_point(n_bar, k)[1]) for n_bar, k in CRITERION_08_SUBSET),
    *((("I",), n_bar, lam) for n_bar, lam in LOW_IDENTITY_ROWS),
])
def test_grid_rows_hold_from_n_to_2n(gates, n_bar, lam):
    delta = fk.GkpParams.from_n_bar(n_bar, lam).delta
    for gate, readout in zip(gates, oracles.grid_unit(gates, delta, lam)):
        wide = oracles.grid_readout(gate, delta, lam, 2 * readout.n, readout.half_width)
        for value in (readout, wide):
            _assert_window(value)
        for a, b in ((readout.infidelity, wide.infidelity), (readout.t_state_infidelity, wide.t_state_infidelity)):
            assert (a is None and b is None) or abs(b - a) <= 1e-13 * a, (gate, a, b)


def test_ndtr_port_is_within_4_ulps_of_scipy():
    # The profiles take Φ at (π/2 + 2πk - θ)/σ and that plus π/σ, |k| <= 3 and
    # θ in [0, 2π): below 23.6/σ in size, 86.2 at the criterion-08 grid's least
    # σ, 0.2735.  Over these 2·10⁶ + 1 points across ±90 the port measured at
    # most 4 ulps (4 points; 159 at 3), those all below -1, where erfc takes
    # `np.exp`.  The bound is that maximum, with no margin: a fifth ulp is a finding.
    x = np.linspace(-90.0, 90.0, 2_000_001)
    ours, theirs = oracles._ndtr(x), scipy.special.ndtr(x)
    assert np.all(np.abs(ours - theirs) <= 4 * np.spacing(np.abs(theirs)))


def test_fast_len_is_next_fast_len():
    # every length the sized grid can ask for: up to 2¹⁷ points plus the widest
    # pad, `_x_reach` over the finest dx under 2¹⁷ points, 120/2¹⁷, at the
    # criterion-08 points (99568)
    pad = max(math.ceil(oracles._x_reach(*_criterion_08_point(n_bar, k)) / (120.0 / 2**17))
              for n_bar in range(2, 11) for k in range(16))
    assert [n for n in range(1, (1 << 17) + pad + 1) if oracles._fast_len(n) != scipy.fft.next_fast_len(n)] == []


# The two-mode grid channel at n̄ 6 and λ 2, one readout taking 3 to 6 s.
TWO_MODE_DELTA = fk.GkpParams.from_n_bar(6.0, 2.0).delta


def _assert_two_mode_window(readout):
    assert max(*readout.x_edges, *readout.p_edges) <= oracles.EDGE_LIMIT, (
        readout.n, readout.half_width, readout.x_edges, readout.p_edges)


def test_two_mode_readout_of_a_product_gate_is_the_product_of_one_mode_readouts():
    # T3 ⊗ I on the product codewords: F_e = (5F - 1)/4 is F_e(T3)·F_e(I), each
    # F_e = (3F - 1)/2 from `grid_readout` on the same window; measured 4.4e-16 relative
    t3 = ch.GATE_TABLE["T3"][0]
    poly = RationalPolynomial.from_terms(2, {(k, 0): c for (k,), c in t3.terms.items()})
    two = oracles.two_mode_grid_readout(poly, TWO_MODE_DELTA, 2.0, 1024, 30.0)
    _assert_two_mode_window(two)
    f_e = (5.0 * oracles.two_mode_average_fidelity(two, np.kron(ch.target_unitary("T3"), np.eye(2))) - 1.0) / 4.0
    product = 1.0
    for gate in ("T3", "I"):
        one = oracles.grid_readout(gate, TWO_MODE_DELTA, 2.0, 1024, 30.0)
        _assert_window(one)
        product *= (3.0 * (1.0 - one.infidelity) - 1.0) / 2.0
    assert abs(f_e - product) <= 1e-12 * product, (f_e, product)


def test_two_mode_readout_of_the_printed_cs_minimum_is_the_cs_gate():
    # `synth --qubits 2 --level 2` prints -(x1x2 + x1x2² + x1²x2)/4.  Its 1 - F
    # against CS, first measured as 5.8665e-2, is held to those five digits
    # (this window reads 5.86645469e-2, as (1024, 20), (1024, 22) and (1536, 30)
    # do to 1e-12); CS†, I and CZ read 0.598, 0.3283 and 0.3285, so the measured
    # gap to the nearest is 0.2697 and the bound 0.25.  At λ 2 no L holds both
    # edges at N = 1024 (p-edge 7.1e-9 at (1024, 30), 6.3e-11 at (1024, 24), and
    # x-edge 8.6e-11 at (1024, 22)); (1152, 24) does, at 4.4e-13 and 3.3e-12.
    cs = multivariate_reduce(control_gate_start(2, 2)).minimum
    assert str(cs) == "-x1^2*x2/4 - x1*x2^2/4 - x1*x2/4"
    readout = oracles.two_mode_grid_readout(cs, TWO_MODE_DELTA, 2.0, 1152, 24.0)
    _assert_two_mode_window(readout)
    infidelity = {name: 1.0 - oracles.two_mode_average_fidelity(readout, np.diag([1, 1, 1, phase]).astype(complex))
                  for name, phase in (("CS", 1j), ("CS†", -1j), ("I", 1), ("CZ", -1))}
    assert abs(infidelity["CS"] - 5.8665e-2) <= 1e-4 * 5.8665e-2, infidelity
    assert min(v for name, v in infidelity.items() if name != "CS") - infidelity["CS"] > 0.25, infidelity


GROUP_GATES = ["TGKP", "T3", "I"]
GROUP_PLAN = fk.TruncationPlan(d_init=64)


def test_sweep_groups_equal_single_point_path():
    # one engine per (n_bar, lam) gives each gate's row exactly as a
    # stand-alone engine for that point; the failures are the same points
    n_bars, lams = [2.0, 5.0], [1.0, 2.5, 4.0]
    res = ch.sweep(GROUP_GATES, n_bars, lams, GROUP_PLAN)
    rows = {(r.gate, r.n_bar, r.lam): r for r in res.rows}
    failed = set()
    for g in GROUP_GATES:
        for nb in n_bars:
            for lam in lams:
                config = ch.ChannelConfig(
                    gate=ch.GATE_TABLE[g][0], params=fk.GkpParams.from_n_bar(nb, lam),
                    plan=GROUP_PLAN, target=g,
                )
                try:
                    inf = 1.0 - oracles.average_gate_fidelity(config)
                except fk.TruncationLeakageError:
                    failed.add((g, nb, lam))
                    continue
                assert rows[(g, nb, lam)].avg_infidelity == inf
                t_inf = rows[(g, nb, lam)].t_state_infidelity
                assert t_inf == (1.0 - ch.t_state_fidelity(config) if g != "I" else None)
    assert failed and set(res.failures) == failed
    assert len(rows) + len(failed) == len(GROUP_GATES) * len(n_bars) * len(lams)


def test_sweep_values_do_not_depend_on_gate_or_n_bar_order():
    # the benchmark permutes both per seed: each key's row and failure must be the
    # same bits (a float's repr round-trips), and rows and failures follow the
    # given (gate, n_bar, lam) order
    gates, n_bars, lams = ["TGKP", "T3", "I"], [5.0, 2.0], [1.0, 2.5, 4.0]
    forward = ch.sweep(gates, n_bars, lams, GROUP_PLAN)
    backward = ch.sweep(gates[::-1], n_bars[::-1], lams, GROUP_PLAN)
    assert forward.failures and forward.failures == backward.failures
    assert ({(r.gate, r.n_bar, r.lam): repr(r) for r in forward.rows}
            == {(r.gate, r.n_bar, r.lam): repr(r) for r in backward.rows})
    keys = list(itertools.product(gates, n_bars, lams))
    assert [(r.gate, r.n_bar, r.lam) for r in forward.rows] == [k for k in keys if k not in forward.failures]
    assert list(forward.failures) == [k for k in keys if k in forward.failures]


CRITERION_10_LAMS = np.linspace(1.0, 5.0, 16).tolist()


def _t3_state_infidelities(delta, clear_each=False):
    out = []
    for lam in CRITERION_10_LAMS:
        if clear_each:
            fk._kernel_halves.cache_clear()
        config = cfg("T3", delta=delta, lam=lam, plan=PLAN_DESK)
        out.append(1.0 - ch.t_state_fidelity(config))
    return out


def test_criterion_10_builds_each_lambdas_kernels_once():
    # both Δ of criterion 10 over its 16 λ: 16 kernel misses, not 32, and the
    # same bits as an infidelity from a cleared provider
    fk._kernel_halves.cache_clear()
    warm = _t3_state_infidelities(0.25) + _t3_state_infidelities(0.24)
    info = fk._kernel_halves.cache_info()
    assert (info.misses, info.hits) == (16, 16)
    cold = _t3_state_infidelities(0.25, True) + _t3_state_infidelities(0.24, True)
    assert [repr(v) for v in warm] == [repr(v) for v in cold]
    fk._kernel_halves.cache_clear()


def test_sweep_rows_unchanged_by_kernels_warm_from_another_delta():
    n_bars, lams = [4.0, 6.0], [1.0, 2.0]
    fk._kernel_halves.cache_clear()
    cold = ch.sweep(["T3", "I"], n_bars, lams, PLAN_SMALL)
    fk._kernel_halves.cache_clear()
    for lam in lams:
        ch.t_state_fidelity(cfg("T3", delta=0.3, lam=lam))
    misses = fk._kernel_halves.cache_info().misses
    warm = ch.sweep(["T3", "I"], n_bars, lams, PLAN_SMALL)
    # the caller's provider, which the workers inherit warm at fork: one miss per λ
    assert fk._kernel_halves.cache_info().misses == misses == len(lams)
    assert len(cold.rows) == 8 and warm == cold  # equal as floats, not just close
    fk._kernel_halves.cache_clear()


def test_sweep_builds_codewords_once_per_group(monkeypatch, tmp_path):
    # the units run in forked workers, so each call leaves a line in a file
    real, log = fk.gkp_codeword, tmp_path / "codewords"

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(fk, "gkp_codeword", counting)
    ch.sweep(GROUP_GATES, [3.0, 4.0], [1.5, 2.5], GROUP_PLAN)
    assert len(log.read_text().splitlines()) == 2 * 2 * 2  # a codeword pair per (n_bar, lam), not per gate


def test_codeword_failure_fails_every_gate_of_its_group(monkeypatch):
    real = fk.gkp_codeword

    def failing_at_lam_2(bit, delta, lam, d):
        if lam == 2.0:
            raise fk.TruncationLeakageError("codeword probe failure")
        return real(bit, delta, lam, d)

    monkeypatch.setattr(fk, "gkp_codeword", failing_at_lam_2)
    res = ch.sweep(["T3", "I"], [3.0], [1.5, 2.0], GROUP_PLAN)
    assert res.failures == {(g, 3.0, 2.0): "codeword probe failure" for g in ("T3", "I")}
    assert sorted((r.gate, r.lam) for r in res.rows) == [("I", 1.5), ("T3", 1.5)]


def test_non_finite_codeword_fails_its_point(monkeypatch):
    # one codeword of (n̄ 4, λ 1.5) turns NaN: both gates fail there, with the
    # reason, and every other point reads as it does unpatched
    n_bars, lams, gates = [3.0, 4.0], [1.5, 2.5], ["T3", "I"]
    plain = ch.sweep(gates, n_bars, lams, GROUP_PLAN)
    real, target = fk._coherent_block, fk.GkpParams.from_n_bar(4.0, 1.5)
    seen = []
    with monkeypatch.context() as m:
        m.setattr(fk, "_coherent_block", lambda alpha, *rest: seen.append(alpha.tobytes()) or real(alpha, *rest))
        fk.gkp_codeword(1, target.delta, target.lam, GROUP_PLAN.d_init)

    def poisoned(alpha, *rest):
        amps, dropped, weight = real(alpha, *rest)
        if alpha.tobytes() == seen[0]:
            amps[1] = complex(math.nan, 0.0)
        return amps, dropped, weight

    monkeypatch.setattr(fk, "_coherent_block", poisoned)
    res = ch.sweep(gates, n_bars, lams, GROUP_PLAN)
    assert res.failures == {(g, 4.0, 1.5): "non-finite codeword amplitudes" for g in gates}

    def values(rows):
        return [(r.gate, r.n_bar, r.lam, r.avg_infidelity, r.t_state_infidelity) for r in rows]

    assert values(res.rows) == values(r for r in plain.rows if (r.n_bar, r.lam) != (4.0, 1.5))
    assert [r for r in res.rows if r.n_bar == 3.0] == [r for r in plain.rows if r.n_bar == 3.0]


def test_sweep_propagates_programming_errors(monkeypatch):
    # only the package's numeric failures become failed points
    def broken(*args):
        raise ValueError("not a numeric failure")

    monkeypatch.setattr(fk, "phase_profile", broken)
    with pytest.raises(ValueError, match="not a numeric failure"):
        ch.sweep(["T3"], [3.0], [1.5], GROUP_PLAN)


def test_expectation_range_error_is_a_point_failure(monkeypatch):
    # doubled Pauli profiles take <Z> of input one to about -1.96; the check sits
    # where the expectations are computed, so the T-state path (criterion 10's,
    # which reads input plus alone) refuses too, where it once returned F = 1.9
    real = fk.pauli_profiles
    monkeypatch.setattr(fk, "pauli_profiles", lambda *args: tuple(2.0 * v for v in real(*args)))
    res = ch.sweep(["T3"], [3.0], [1.5], GROUP_PLAN)
    assert res.rows == ()
    ((key, reason),) = res.failures.items()
    assert key == ("T3", 3.0, 1.5)
    assert reason.startswith("expectation <Z> = -1.9") and reason.endswith(" out of range for input one")
    with pytest.raises(NumericFailure, match=r"expectation <X> = 1\.\d+ out of range for input plus"):
        ch.t_state_fidelity(cfg("T3", lam=2.0, plan=GROUP_PLAN))


def test_optimum_next_to_a_failed_lam_is_flagged(monkeypatch):
    # T3 at n̄ 3 and d_init 64 has its optimum at λ 1.5 of 1 to 3 (4.69e-2, with
    # 5.62e-2 at λ 1): once λ 1 fails, it scores +inf in the argmin, so the true
    # optimum may lie there and the λ 1.5 optimum is flagged as on an edge
    real = fk.gkp_codeword

    def failing_at_lam_1(bit, delta, lam, d):
        if lam == 1.0:
            raise fk.TruncationLeakageError("codeword probe failure")
        return real(bit, delta, lam, d)

    lams = [1.0, 1.5, 2.0, 2.5, 3.0]
    assert oracles.optima(ch.sweep(["T3"], [3.0], lams, GROUP_PLAN))["T3"][3.0][::2] == (1.5, False)
    monkeypatch.setattr(fk, "gkp_codeword", failing_at_lam_1)
    res = ch.sweep(["T3"], [3.0], lams, GROUP_PLAN)
    assert list(res.failures) == [("T3", 3.0, 1.0)]
    assert oracles.optima(res)["T3"][3.0][::2] == (1.5, True)


def test_one_lam_grid_flags_its_only_row():
    # no λ on either side brackets the only row, so it is a boundary optimum
    res = ch.sweep(["T3", "I"], [3.0], [2.0], GROUP_PLAN)
    assert [(r.gate, r.is_optimal, r.boundary_flag) for r in res.rows] == [
        ("T3", True, True), ("I", True, True)]


@pytest.mark.parametrize("grid, message", [
    ((["T3"], [], [2.0]), "nonempty gate, n_bar and lam grids"),
    ((["T3", "T5"], [3.0], [2.0]), "unknown gate 'T5'"),
], ids=["empty-n_bar", "unknown-gate"])
def test_sweep_refuses_a_grid_it_cannot_run(monkeypatch, grid, message):
    def no_engine(*args, **kwargs):
        raise AssertionError("engine built")

    monkeypatch.setattr(ch, "ChannelEngine", no_engine)
    with pytest.raises(ValueError, match=message):
        ch.sweep(*grid, GROUP_PLAN)


def _blas_threads():
    """numpy's OpenBLAS thread count; None when numpy's BLAS is not scipy-openblas."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    return None if get is None else get()


def test_pool_workers_inherit_the_eigensystems(monkeypatch):
    # the calling process solves the plan's eigensystems before the pool forks;
    # a worker that solved one would fail its point here (a plan no other test uses)
    parent, solve = os.getpid(), fk._solve_q

    def parent_only(*args, **kwargs):
        assert os.getpid() == parent, "a pool worker solved an eigensystem"
        return solve(*args, **kwargs)

    monkeypatch.setattr(fk, "_solve_q", parent_only)
    plan = fk.TruncationPlan(d_init=40)
    pooled = ch.sweep(["T3", "I"], [2.0, 3.0], [1.0, 2.0], plan, workers=2)
    assert pooled == ch.sweep(["T3", "I"], [2.0, 3.0], [1.0, 2.0], plan, workers=1)


def test_sweep_pool_is_never_wider_than_its_units_or_the_cores(monkeypatch):
    # a stand-in pool records its width and runs the units in this process, so
    # a width of 10**6 forks nothing here; a real pool forks all of its workers
    # at the first unit, so an unbounded one would fork 10**6 for one unit
    widths = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            return map(fn, units)

    monkeypatch.setattr(ch, "ProcessPoolExecutor", InProcessPool)
    ch.sweep(["I"], [2.0], [1.0], GROUP_PLAN, workers=10**6)
    ch.sweep(["I"], [2.0, 3.0, 4.0], [1.0, 2.0], GROUP_PLAN, workers=10**6)
    assert widths == [1, min(6, os.cpu_count())]


def _hex_rows(res):
    return [tuple(v.hex() if isinstance(v, float) else v for v in vars(r).values()) for r in res.rows]


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at 2 threads, so a one-worker sweep forks a pool of 2 processes;
    yields that count (None without scipy-openblas) and restores the old one after."""
    before = ch._pin_blas_threads(2)
    yield _blas_threads()
    ch._pin_blas_threads(before)


def _log_units(monkeypatch, log):
    """Each engine build appends its process's PID and numpy BLAS count to `log`."""
    real = ch.ChannelEngine

    def engine(config, cache_dir=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_blas_threads()}\n")
        return real(config, cache_dir)

    monkeypatch.setattr(ch, "ChannelEngine", engine)
    return lambda: [tuple(line.split()) for line in log.read_text().splitlines()]


def test_one_worker_sweep_forks_as_many_processes_as_blas_threads(monkeypatch, tmp_path, two_blas_threads):
    # numpy's BLAS at 2 threads makes a pool of 2 forked processes, at one thread
    # a pool of one, which runs the units one at a time; both give the same bits,
    # with numpy's BLAS pinned to one thread inside every unit
    n_bars, lams, caller = [2.0, 5.0], [1.0, 2.5, 4.0], str(os.getpid())
    units = _log_units(monkeypatch, tmp_path / "units")
    ch._pin_blas_threads(1)
    serial = ch.sweep(GROUP_GATES, n_bars, lams, GROUP_PLAN)
    ch._pin_blas_threads(2)
    logged = units()
    (tmp_path / "units").unlink()
    pooled = ch.sweep(GROUP_GATES, n_bars, lams, GROUP_PLAN)
    for run, pool_size in ((logged, 1), (units(), 2)):
        pids = {pid for pid, _ in run}
        assert len(run) == 6 and 1 <= len(pids) <= pool_size and caller not in pids
        assert {pinned for _, pinned in run} <= {"1", "None"}
    assert _blas_threads() == two_blas_threads
    assert serial.failures and list(pooled.failures.items()) == list(serial.failures.items())
    assert _hex_rows(pooled) == _hex_rows(serial)


def test_cold_sweep_solves_each_eigensystem_once_in_the_caller(monkeypatch, tmp_path, two_blas_threads):
    # the caller solves both before its pool forks, so no worker solves one,
    # and the BLAS count comes back as it was
    solve, log = fk._solve_q, tmp_path / "solvers"

    def recording(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(*args, **kwargs)

    monkeypatch.setattr(fk, "_solve_q", recording)
    fk._q_eigensystem.cache_clear()
    ch.sweep(["T3", "I"], [2.0, 3.0], [1.0, 2.0], fk.TruncationPlan(d_init=48))
    assert fk._q_eigensystem.cache_info().misses == 2
    assert log.read_text().split() == [str(os.getpid())] * 2
    assert _blas_threads() == two_blas_threads


def test_sweep_pool_workers_inherit_the_blas_pin(monkeypatch, tmp_path, two_blas_threads):
    # the caller pins numpy's BLAS before its process pool forks, so every worker
    # runs its units at one thread, and the caller gets its count back after
    if two_blas_threads is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    units = _log_units(monkeypatch, tmp_path / "units")
    ch.sweep(["T3"], [2.0, 3.0], [1.0, 2.0], GROUP_PLAN, workers=2)
    assert len(units()) == 4
    assert {pid for pid, _ in units()} - {str(os.getpid())}
    assert {count for _, count in units()} == {"1"}
    assert _blas_threads() == two_blas_threads == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_unit_stops_the_sweep(monkeypatch, tmp_path, two_blas_threads, workers):
    # an error other than NumericFailure in the second unit ends the sweep, at
    # one worker or two: the units still queued when it arrives never start
    # (each started unit leaves a line in the log), and the BLAS count comes back
    real, log = ch.ChannelEngine, tmp_path / "built"
    n_bars, lams = [2.0, 3.0, 4.0, 5.0], [1.0, 1.5, 2.0, 2.5, 3.0]
    second = fk.GkpParams.from_n_bar(n_bars[1], lams[0])  # units run λ-major

    def engine(config, cache_dir=None):
        with open(log, "a") as fh:
            fh.write(f"{config.params}\n")
        if config.params == second:
            raise RuntimeError("unit probe failure")
        time.sleep(0.05)
        return real(config, cache_dir)

    monkeypatch.setattr(ch, "ChannelEngine", engine)
    with pytest.raises(RuntimeError, match="unit probe failure"):
        ch.sweep(["T3"], n_bars, lams, GROUP_PLAN, workers=workers)
    built = log.read_text().splitlines()
    assert f"{second}" in built and len(built) < len(n_bars) * len(lams)
    assert _blas_threads() == two_blas_threads


def test_clifford_t_orbit_size():
    targets = ch.CLIFFORD_T_TARGETS
    assert targets.shape == (12, 3)
    # the table is the <H, S> orbit, as uint64 words: signed zeros count
    assert np.array_equal(targets.view(np.uint64), oracles.clifford_t_orbit().view(np.uint64))
    norms = np.linalg.norm(targets, axis=1)
    assert np.allclose(norms, 1.0)
    # includes the canonical T direction and the Hadamard one
    assert any(np.allclose(t, [1, 1, 0] / np.sqrt(2)) for t in targets)
    assert any(np.allclose(t, [1, 0, 1] / np.sqrt(2)) for t in targets)


def test_vacuum_postselection_monotonicity():
    infs = [
        ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 150, p)).infidelity
        for p in (1.0, 0.5, 0.25, 0.1, 0.0)
    ]
    for a, b in zip(infs, infs[1:]):
        assert b <= a + 1e-12
    assert infs[0] > infs[2]  # strictly above at p=1 vs p=0.25


def test_vacuum_lower_bound_decreases_with_delta():
    lbs = [
        ch.vacuum_state_method(ch.VacuumMethodConfig(d, 150, 0.0)).infidelity
        for d in (0.35, 0.3, 0.25, 0.2)
    ]
    for a, b in zip(lbs, lbs[1:]):
        assert b < a


def test_vacuum_acceptance_probability_tracks_fraction():
    res = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 150, 0.3))
    assert abs(res.acceptance_probability - 0.3) < 1e-9
    res0 = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 150, 0.0))
    assert 0 < res0.acceptance_probability < 1e-3


@pytest.mark.parametrize("delta", [-0.25, 0.0, math.nan, math.inf, 1e300])
def test_vacuum_refuses_delta_where_the_posterior_reads_it(delta):
    # the match fraction used to read Δ = -0.25 as +0.25 (0.8177014796362414), return
    # 1.0 at Δ = 0 and end in an IndexError at NaN; both vacuum paths now refuse it
    with pytest.raises(ValueError, match="delta"):
        ch.vacuum_match_fraction(delta, 0.05, grid=80)
    with pytest.raises(ValueError, match="delta"):
        ch.vacuum_state_method(ch.VacuumMethodConfig(delta, 80, 1.0))


@pytest.mark.parametrize("target", [math.nan, -1e-3, 1.5])
def test_vacuum_match_fraction_refuses_target_outside_unit_interval(target):
    with pytest.raises(ValueError, match="target_infidelity must lie in"):
        ch.vacuum_match_fraction(0.25, target, grid=80)


def test_vacuum_match_fraction_consistency():
    # matching the p = 0.25 infidelity must require (about) fraction 0.25
    inf25 = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 200, 0.25)).infidelity
    frac = ch.vacuum_match_fraction(0.25, inf25, grid=200)
    assert abs(frac - 0.25) < 0.01
    assert ch.vacuum_match_fraction(0.25, 1e-9, grid=100) == 0.0
    assert ch.vacuum_match_fraction(0.25, 0.5, grid=100) == 1.0


@pytest.mark.parametrize("delta, grid", [(0.25, 500), (0.24, 500), (0.3, 90), (0.1, 300)])
def test_ranked_cells_bitwise_with_full_product(delta, grid):
    # 90² cells are one partial 2^15 chunk, 300² two full chunks and a partial
    # one, 500² seven full and a partial: each against the row max of the whole
    # (cells, 12) product, with 1 added after the max and before it
    weights, bloch = ch.analytic.vacuum_posterior_grid(delta, grid)
    products = bloch @ ch.CLIFFORD_T_TARGETS.T
    ch._ranked_cells.cache_clear()
    got = ch._ranked_cells(delta, grid)
    for fid in (0.5 * (1.0 + products.max(axis=1)), 0.5 * (1.0 + products).max(axis=1)):
        order = np.argsort(-fid)
        assert got[0].tobytes() == fid[order].tobytes()
        assert got[1].tobytes() == weights[order].tobytes()
    ch._ranked_cells.cache_clear()


# `vacuum_state_method` against the position-space cells ranked the same way.
# Measured relative gaps: at p = 0, 1.0e-13 and 0 (Δ 0.25, 0.3) for the best
# cell's 1 - F and ≤ 4.5e-16 for its weight; at p = 1, 6.7e-13 and 2.6e-13 for
# 1 - F (the boundary cell's kept weight comes from `np.cumsum`, which ends
# 5.1e-14 past 1 at Δ 0.25) and 0 for the acceptance.  2e-12 leaves 3×.
VACUUM_METHOD_TOL = 2e-12


@pytest.mark.parametrize("delta", [0.25, 0.3])
def test_vacuum_state_method_matches_position_space_cells(delta):
    weights, bloch = oracles.position_space_vacuum_cells(delta, 500)
    fid = 0.5 * (1.0 + (bloch @ ch.CLIFFORD_T_TARGETS.T).max(axis=1))
    best = int(np.argmax(fid))
    for p, infidelity, acceptance in ((1.0, 1.0 - np.sum(weights * fid), 1.0),
                                      (0.0, 1.0 - fid[best], weights[best])):
        got = ch.vacuum_state_method(ch.VacuumMethodConfig(delta, 500, p))
        assert abs(got.infidelity / infidelity - 1.0) <= VACUUM_METHOD_TOL, (p, got)
        assert abs(got.acceptance_probability / acceptance - 1.0) <= VACUUM_METHOD_TOL, (p, got)


def test_ranked_cells_one_posterior_per_delta_and_grid(monkeypatch):
    # the match fraction and two postselections at one (Δ, grid) evaluate the
    # posterior once; a new Δ or a new grid evaluates it again
    calls = []
    posterior = ch.analytic.vacuum_posterior_grid

    def counting(delta, grid):
        calls.append((delta, grid))
        return posterior(delta, grid)

    ch._ranked_cells.cache_clear()
    monkeypatch.setattr(ch.analytic, "vacuum_posterior_grid", counting)
    frac = ch.vacuum_match_fraction(0.25, 0.05, grid=80)
    full = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 80, 1.0))
    part = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 80, 0.2))
    assert calls == [(0.25, 80)]
    ch.vacuum_state_method(ch.VacuumMethodConfig(0.3, 80, 1.0))
    ch.vacuum_state_method(ch.VacuumMethodConfig(0.3, 90, 1.0))
    assert calls == [(0.25, 80), (0.3, 80), (0.3, 90)]

    fid, weights = ch._ranked_cells(0.3, 90)
    assert len(calls) == 3
    for arr in (fid, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    held = (fid.tobytes(), weights.tobytes())
    ch._ranked_cells.cache_clear()
    assert tuple(a.tobytes() for a in ch._ranked_cells(0.3, 90)) == held
    ch._ranked_cells.cache_clear()
    assert ch.vacuum_match_fraction(0.25, 0.05, grid=80) == frac
    assert ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 80, 1.0)) == full
    assert ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 80, 0.2)) == part
    assert len(calls) == 5
    ch._ranked_cells.cache_clear()

"""Logical channel assembly, fidelities, sweeps, and the vacuum baseline."""

import ctypes
import functools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg

import oracles
from gkpphase import channel as ch, fock as fk
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
    val = logical_expectation(cfg(), (1.0, 0.0), "Z")
    assert 0.9 < val <= 1.0 + 1e-9


def test_idle_channel_has_no_x_coherence_on_z_eigenstate():
    val = logical_expectation(cfg(), (1.0, 0.0), "X")
    assert abs(val) < 1e-3


def test_readout_within_bloch_ball():
    ro = ch.ChannelEngine(cfg("T3", lam=2.0)).readout()
    for row in ro.expectations.values():
        assert all(abs(v) <= 1.0 + 1e-6 for v in row.values())


def test_reconstructed_outputs_positive_semidefinite():
    ro = ch.ChannelEngine(cfg("T3", lam=2.0)).readout()
    for name in ch.INPUT_ORDER:
        rho = oracles.output_density(ro, name)
        rho = rho / np.trace(rho).real
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        assert eigs.min() > -1e-6


def test_t3_rotates_plus_by_pi_over_4():
    exps = ch.ChannelEngine(cfg("T3", delta=0.2, lam=2.5, plan=PLAN_DESK)).pauli_expectations(
        ch.INPUT_STATES["plus"]
    )
    assert exps["X"] > 0.6 and exps["Y"] > 0.6
    assert abs(math.atan2(exps["Y"], exps["X"]) - math.pi / 4) < 5e-3


def test_two_fidelity_routes_agree():
    ro = ch.ChannelEngine(cfg("T3", lam=2.0)).readout()
    f1 = ch.average_gate_fidelity_from_readout(ro, "T3")
    f2 = average_gate_fidelity_reconstructed(ro, "T3")
    assert abs(f1 - f2) < 1e-10


def test_exact_unitary_readout_gives_unit_fidelity():
    # synthetic readout of a perfect T gate channel
    u = ch.target_unitary("T")
    exps = {}
    for name, vec in ch.INPUT_STATES.items():
        out = u @ vec
        exps[name] = {
            p: float(np.vdot(out, ch.PAULI[p] @ out).real) for p in ("I", "X", "Y", "Z")
        }
    ro = ch.LogicalReadout(exps)
    assert abs(ch.average_gate_fidelity_from_readout(ro, "T") - 1.0) < 1e-12
    # and a T state fidelity of one when fed |+>
    row = ro.expectations["plus"]
    f = 0.5 + (row["X"] + row["Y"]) / (2 * math.sqrt(2))
    assert abs(f - 1.0) < 1e-12


def test_t_state_two_routes_agree():
    config = cfg("T3", lam=2.0)
    f = ch.t_state_fidelity(config)
    ro = ch.ChannelEngine(config).readout()
    rho = oracles.output_density(ro, "plus")
    t_state = ch.target_unitary("T") @ ch.INPUT_STATES["plus"]
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
        plan=fk.TruncationPlan(d_init=64), target="T",
    )
    with pytest.raises(fk.TruncationLeakageError):
        ch.ChannelEngine(config).readout()


def test_target_unitary_labels():
    assert np.allclose(ch.target_unitary("T"), np.diag([1, np.exp(1j * math.pi / 4)]))
    assert np.allclose(ch.target_unitary("T3"), ch.target_unitary("T"))
    assert np.allclose(ch.target_unitary("T1/8"), np.diag([1, np.exp(1j * math.pi / 32)]))
    with pytest.raises(ValueError):
        ch.target_unitary("bogus")


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
    again = ch.sweep(["I"], n_bars, lams, PLAN_SMALL, cache_dir=tmp_path)
    assert again.rows == plain.rows


def _fresh_provider(monkeypatch):
    # an empty in-process map, so eigensystems come from disk or a new solve
    monkeypatch.setattr(fk, "_q_eigensystem",
                        functools.lru_cache(maxsize=6)(fk._q_eigensystem.__wrapped__))


def test_one_provider_entry_per_cache_directory(tmp_path, monkeypatch):
    _fresh_provider(monkeypatch)
    first = fk.q_eigensystem(32, str(tmp_path))
    assert fk.q_eigensystem(32, tmp_path) is first
    assert fk.q_eigensystem(32, f"{tmp_path}/") is first


def test_sweep_rows_read_from_disk_equal_uncached(tmp_path, monkeypatch):
    plan = fk.TruncationPlan(d_init=128)
    n_bars, lams = [3.0, 6.0], [1.0, 1.8, 3.0]
    plain = ch.sweep(["T3"], n_bars, lams, plan)
    ch.sweep(["T3"], n_bars, lams[:1], plan, cache_dir=tmp_path)  # fills the files
    _fresh_provider(monkeypatch)
    cached = ch.sweep(["T3"], n_bars, lams, plan, cache_dir=tmp_path)
    assert len(plain.rows) >= 5
    assert cached.rows == plain.rows  # equal as floats, not just close


def test_no_eigensolve_after_prewarm(tmp_path, monkeypatch):
    from gkpphase import cli

    assert cli.dispatch(["cache", "prewarm", "--cache-dir", str(tmp_path),
                         "--dinit", "64", "--out", str(tmp_path / "p.json")]) == 0
    _fresh_provider(monkeypatch)

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve after prewarm")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_solve)
    res = ch.sweep(["T3", "I"], [4.0], [1.0, 2.0], fk.TruncationPlan(d_init=64),
                   cache_dir=tmp_path)
    assert len(res.rows) + len(res.failures) == 4 and res.rows


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
    for name in ch.INPUT_ORDER:
        a, b = ch.INPUT_STATES[name]
        vec = a * e0.amplitudes + b * e1.amplitudes
        psi = gate @ (vec / np.linalg.norm(vec))
        exps = engine.pauli_expectations(ch.INPUT_STATES[name])
        for p, op in paulis.items():
            dense = np.vdot(psi, op @ psi).real / np.vdot(psi, psi).real
            assert abs(exps[p] - dense) <= 1e-12, (name, p, exps[p], dense)


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


def test_sweep_held_pauli_kernels_match_fresh_evaluation():
    # the kernels held across λ and x changes against the profiles from scratch
    delta = 0.25

    def fresh(lam, x):
        smear = oracles.smear_matrix(delta, lam)
        odd, wts = fk.PAULI_ODD, fk.PAULI_WEIGHTS
        u_p, u_q = odd / math.sqrt(2.0 * lam), odd * math.sqrt(lam / 2.0)
        z_w = wts * np.exp(-math.pi * (smear[0, 0] * u_p**2))
        x_w = wts * np.exp(-math.pi * (smear[1, 1] * u_q**2))
        return [(np.exp(1j * fk.SQRT2PI * np.outer(x, u_p)) @ z_w).tobytes(),
                (np.exp(-1j * fk.SQRT2PI * np.outer(x, u_q)) @ x_w).tobytes()]

    x = fk.q_eigensystem(192)[0]
    other = np.linspace(-9.0, 9.0, x.size)
    for lam, xs in ((1.3, x), (2.6, x), (1.3, x), (1.3, other), (1.3, x.copy())):
        assert [p.tobytes() for p in fk.pauli_profiles(lam, delta, xs)] == fresh(lam, xs)
        held = fk.pauli_profiles(lam, delta, xs, kernels=ch._sweep_kernels)
        assert [p.tobytes() for p in held] == fresh(lam, xs), (lam, xs is other)
    ch._HELD_KERNELS.clear()


def test_sweep_holds_no_kernels_after_it_returns():
    ch.sweep(["I"], [2.0], [1.0, 1.4], PLAN_SMALL)
    assert ch._HELD_KERNELS == {}


def test_sweep_builds_codewords_once_per_group(monkeypatch):
    calls = []
    real = fk.gkp_codeword

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fk, "gkp_codeword", counting)
    ch.sweep(GROUP_GATES, [3.0, 4.0], [1.5, 2.5], GROUP_PLAN)
    assert len(calls) == 2 * 2 * 2  # a codeword pair per (n_bar, lam), not per gate


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


def test_sweep_propagates_programming_errors(monkeypatch):
    # only the package's numeric failures become failed points
    def broken(*args):
        raise ValueError("not a numeric failure")

    monkeypatch.setattr(fk, "phase_profile", broken)
    with pytest.raises(ValueError, match="not a numeric failure"):
        ch.sweep(["T3"], [3.0], [1.5], GROUP_PLAN)


def test_expectation_range_error_is_a_point_failure():
    with pytest.raises(ch.ExpectationRangeError):
        ch.LogicalReadout({"plus": {"I": 1.0, "X": 1.5, "Y": 0.0, "Z": 0.0}})
    assert ch.ExpectationRangeError in ch.POINT_ERRORS


def _blas_threads():
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return lib.scipy_openblas_get_num_threads64_()


def test_pool_workers_pin_blas_to_one_thread():
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    before = _blas_threads()
    with ProcessPoolExecutor(max_workers=1, initializer=ch._pin_blas_threads) as pool:
        assert pool.submit(_blas_threads).result() == 1
    assert _blas_threads() == before  # the calling process keeps its threads


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


def test_vacuum_coarse_grid_warning():
    assert ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 60, 1.0)).coarse_grid_warning
    assert not ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 150, 1.0)).coarse_grid_warning


def test_vacuum_match_fraction_consistency():
    # matching the p = 0.25 infidelity must require (about) fraction 0.25
    inf25 = ch.vacuum_state_method(ch.VacuumMethodConfig(0.25, 200, 0.25)).infidelity
    frac = ch.vacuum_match_fraction(0.25, inf25, grid=200)
    assert abs(frac - 0.25) < 0.01
    assert ch.vacuum_match_fraction(0.25, 1e-9, grid=100) == 0.0
    assert ch.vacuum_match_fraction(0.25, 0.5, grid=100) == 1.0


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

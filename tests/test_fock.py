"""Truncated-Fock engine: operators, codewords, orthonormalisation, gates."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from gkpphase import NumericFailure, fock as fk
from gkpphase.polyalg import RationalPolynomial

T3 = RationalPolynomial([0, F(-1, 12), F(1, 8), F(1, 12)])


def test_quadrature_contracts():
    q, p = oracles.quadratures(48)
    vac = np.zeros(48)
    vac[0] = 1.0
    assert abs(vac @ (q.matrix @ q.matrix) @ vac - 0.5) < 1e-12
    one = np.zeros(48)
    one[1] = 1.0
    assert abs(one @ q.matrix @ vac - 1.0 / math.sqrt(2.0)) < 1e-12
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    # truncation breaks only the last diagonal entry of [q, p] = i
    assert np.allclose(np.diag(comm)[:-1], 1j, atol=1e-12)


def test_truncation_plan_defaults():
    plan = fk.TruncationPlan()
    assert (plan.d_init, plan.d_out, plan.d_temp(plan.d_out)) == (400, 1200, 3600)
    assert plan.eigensystem_dims == ((3600, 1200), (1200, 1200))
    with pytest.raises(ValueError):
        fk.TruncationPlan(d_init=8)


def test_displacement_matches_expm_oracle():
    # scipy's expm of the truncated generator at d_temp, cut back to d
    import scipy.linalg

    d = 24
    plan = fk.TruncationPlan(d_init=d)
    q, p = oracles.quadratures(plan.d_temp(d))
    for v_q, v_p in [(0.0, 0.0), (0.3, 0.0), (0.0, -0.4), (0.25, 0.35), (-0.45, 0.2)]:
        gen = 1j * fk.SQRT2PI * (v_p * q.matrix - v_q * p.matrix)
        oracle = scipy.linalg.expm(gen)[:d, :d]
        got = oracles.displacement((v_q, v_p), d, plan).matrix
        assert np.max(np.abs(got - oracle)) < 1e-12, (v_q, v_p)


def test_displacement_identity_and_unitarity():
    plan = fk.TruncationPlan(d_init=128)
    w0 = oracles.displacement((0.0, 0.0), 128, plan)
    assert np.allclose(w0.matrix, np.eye(128))
    w = oracles.displacement((0.3, 0.0), 128, plan)
    gram = w.matrix.conj().T @ w.matrix
    assert np.max(np.abs(gram[:96, :96] - np.eye(128)[:96, :96])) < 1e-10


def test_displacement_composition_rule():
    plan = fk.TruncationPlan(d_init=128)
    u, v = (0.3, 0.0), (0.0, 0.4)
    wu = oracles.displacement(u, 128, plan).matrix
    wv = oracles.displacement(v, 128, plan).matrix
    wuv = oracles.displacement((0.3, 0.4), 128, plan).matrix
    phase = np.exp(-1j * math.pi * (u[0] * v[1] - u[1] * v[0]))
    resid = np.max(np.abs((wu @ wv - phase * wuv)[:96, :96]))
    assert resid < 1e-8


def test_displacement_composition_seeded_pairs():
    plan = fk.TruncationPlan(d_init=128)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = tuple(rng.uniform(-0.5, 0.5, size=2))
        v = tuple(rng.uniform(-0.5, 0.5, size=2))
        wu = oracles.displacement(u, 128, plan).matrix
        wv = oracles.displacement(v, 128, plan).matrix
        wuv = oracles.displacement((u[0] + v[0], u[1] + v[1]), 128, plan).matrix
        phase = np.exp(-1j * math.pi * (u[0] * v[1] - u[1] * v[0]))
        assert np.max(np.abs((wu @ wv - phase * wuv)[:96, :96])) < 1e-8


def test_codeword_parity_and_diagnostics():
    for bit in (0, 1):
        vec = fk.gkp_codeword(bit, 0.3, 1.7, 128)
        assert np.max(np.abs(vec.amplitudes[1::2])) < 1e-12
        assert vec.meta["dropped_weight"] <= 1e-6 * vec.meta["total_weight"]


def test_codeword_vacuum_limit():
    vec = fk.gkp_codeword(0, 1.2, 1.0, 64).normalized()
    assert abs(vec.amplitudes[0]) ** 2 > 0.99


def test_codeword_overlap_decays_with_smaller_delta():
    o25 = abs(oracles.overlap(fk.gkp_codeword(0, 0.25, 1.0, 256).normalized(),
                              fk.gkp_codeword(1, 0.25, 1.0, 256).normalized()))
    o45 = abs(oracles.overlap(fk.gkp_codeword(0, 0.45, 1.0, 256).normalized(),
                              fk.gkp_codeword(1, 0.45, 1.0, 256).normalized()))
    assert o25 < o45


def test_codeword_matches_position_grid_oracle():
    for lam in (1.0, 2.0):
        lattice = fk.gkp_codeword(0, 0.35, lam, 256).normalized()
        oracle = oracles.gkp_codeword_position_oracle(0, 0.35, lam, 256)
        assert abs(oracles.overlap(oracle, lattice)) ** 2 > 1.0 - 1e-6


def _loop_oracle(alpha, coeff, d, _run_sizes, dropped=None):
    out = oracles.coherent_block(alpha, coeff, d)
    if dropped is not None:
        dropped.append(out[1])
    return out


@pytest.mark.parametrize("delta", [1 / math.sqrt(2 * nb + 1) for nb in (2, 6, 10)] + [0.24, 0.25])
def test_codeword_bitwise_equals_one_term_loop(monkeypatch, delta):
    # the blocked, conjugate-paired sum against the per-term loop, to the bit
    for lam in (1.0, 2.6, 5.0):
        for d in (64, 256):
            for bit in (0, 1):
                got = fk.gkp_codeword(bit, delta, lam, d)
                with monkeypatch.context() as m:
                    m.setattr(fk, "_coherent_block", _loop_oracle)
                    want = fk.gkp_codeword(bit, delta, lam, d)
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), (lam, d, bit)
                assert repr(got.meta) == repr(want.meta)


def test_codeword_bitwise_with_dropped_terms(monkeypatch):
    # Δ = 0.1 at d = 64 drops far lattice terms by their peak; bit 0 holds the α = 0 term
    monkeypatch.setattr(fk, "MAX_DROPPED_WEIGHT", 1.0)
    for bit in (0, 1):
        got = fk.gkp_codeword(bit, 0.1, 1.0, 64)
        dropped = []
        with monkeypatch.context() as m:
            m.setattr(fk, "_coherent_block",
                      lambda *args: _loop_oracle(*args, dropped=dropped))
            want = fk.gkp_codeword(bit, 0.1, 1.0, 64)
        assert dropped[0] > 0
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert repr(got.meta) == repr(want.meta)


def test_number_parity_phases_shared_and_read_only():
    r = fk.number_parity_phases(40)
    assert r is fk.number_parity_phases(40)
    assert r.tobytes() == (1j ** np.arange(40)).tobytes()
    with pytest.raises(ValueError):
        r[0] = 2.0


def test_q_eigensystem_block_is_leading_rows_of_full_solve():
    # the block is packed from the solve: bitwise its first rows, column-major, read-only
    x_full, v_full = fk.q_eigensystem(288, 288)
    x, v = fk.q_eigensystem(288, 96)
    assert x.tobytes() == x_full.tobytes()
    assert v.shape == (96, 288) and v.flags.f_contiguous and not v.flags.writeable
    assert v.tobytes() == v_full[:96].tobytes()
    for rows in (0, 289):
        with pytest.raises(ValueError):
            fk.q_eigensystem(288, rows)


def test_orthonormalize_contract():
    c0 = fk.gkp_codeword(0, 0.35, 1.0, 256)
    c1 = fk.gkp_codeword(1, 0.35, 1.0, 256)
    e0, e1 = fk.orthonormalize(c0, c1)
    assert abs(oracles.overlap(e0, e1)) < 1e-12
    assert abs(e0.norm() - 1.0) < 1e-12
    assert abs(e1.norm() - 1.0) < 1e-12
    # parity survives the symmetric orthogonalisation
    assert np.max(np.abs(e0.amplitudes[1::2])) < 1e-12


def test_orthonormalize_is_symmetric_up_to_phase():
    c0 = fk.gkp_codeword(0, 0.3, 1.0, 256)
    c1 = fk.gkp_codeword(1, 0.3, 1.0, 256)
    e0, e1 = fk.orthonormalize(c0, c1)
    f1, f0 = fk.orthonormalize(c1, c0)
    assert abs(abs(oracles.overlap(e0, f0)) - 1.0) < 1e-10
    assert abs(abs(oracles.overlap(e1, f1)) - 1.0) < 1e-10


def test_orthonormalize_rejects_parallel():
    c0 = fk.gkp_codeword(0, 0.3, 1.0, 128)
    with pytest.raises(NumericFailure, match="numerically parallel"):
        fk.orthonormalize(c0, fk.FockVector(2.0 * c0.amplitudes))


def test_already_orthonormal_pair_unchanged():
    a = np.zeros(32, dtype=complex)
    b = np.zeros(32, dtype=complex)
    a[0] = 1.0
    b[3] = 1.0j
    e0, e1 = fk.orthonormalize(fk.FockVector(a), fk.FockVector(b))
    assert abs(abs(np.vdot(e0.amplitudes, a)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(e1.amplitudes, b)) - 1.0) < 1e-12


def test_poly_phase_gate_zero_is_identity_embedding():
    plan = fk.TruncationPlan(d_init=32)
    gate = oracles.poly_phase_gate(RationalPolynomial([]), 1.0, plan)
    assert gate.matrix.shape == (96, 32)
    assert np.max(np.abs(gate.matrix - np.eye(96, 32))) < 1e-10


def test_poly_phase_gate_linear_acts_as_logical_z():
    plan = fk.TruncationPlan(d_init=192)
    gate = oracles.poly_phase_gate(RationalPolynomial([0, F(1, 2)]), 1.0, plan)
    c0 = fk.gkp_codeword(0, 0.25, 1.0, 192)
    c1 = fk.gkp_codeword(1, 0.25, 1.0, 192)
    e0, e1 = fk.orthonormalize(c0, c1)
    pad = plan.d_out - 192
    ip0 = np.vdot(np.pad(e0.amplitudes, (0, pad)), gate.matrix @ e0.amplitudes)
    ip1 = np.vdot(np.pad(e1.amplitudes, (0, pad)), gate.matrix @ e1.amplitudes)
    # +norm² / -norm² action up to the finite-Delta contraction; the logical
    # content is the relative phase, which must be pi to 1e-2
    assert ip0.real > 0.9
    assert ip1.real < -0.9
    assert abs(np.angle(-ip1 / ip0)) < 1e-2


def test_poly_phase_gate_columns_orthonormal():
    plan = fk.TruncationPlan(d_init=160)
    gate = oracles.poly_phase_gate(T3, 2.0, plan)
    gram = gate.matrix.conj().T @ gate.matrix
    assert np.max(np.abs(gram - np.eye(160))) < 1e-6


def test_pauli_operator_validation():
    with pytest.raises(ValueError):
        oracles.pauli_measurement_operator("Z", 1.0, None, 64, n_cut=10)
    with pytest.raises(ValueError):
        oracles.pauli_measurement_operator("Q", 1.0, None, 64)


def test_pauli_operators_hermitian_and_contracting():
    for which in ("X", "Y", "Z"):
        op = oracles.pauli_measurement_operator(which, 1.3, None, 96)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10
        smear = math.tanh(0.25**2 / 2) * np.eye(2)
        sm = oracles.pauli_measurement_operator(which, 1.3, smear, 96)
        assert np.linalg.norm(sm.matrix, 2) <= np.linalg.norm(op.matrix, 2) + 1e-9


def test_pauli_z_eigenstate_contract():
    delta, lam, d = 0.25, 1.0, 512
    zm = oracles.pauli_measurement_operator("Z", lam, None, d)
    for bit, sign in ((0, 1.0), (1, -1.0)):
        c = fk.gkp_codeword(bit, delta, lam, d)
        val = np.vdot(c.amplitudes, zm.matrix @ c.amplitudes).real / c.norm() ** 2
        assert abs(val - sign) < 2e-3


def test_pauli_z_sign_stable_inside_patch():
    delta, lam, d = 0.25, 1.0, 360
    plan = fk.TruncationPlan(d_init=d)
    zm = oracles.pauli_measurement_operator("Z", lam, None, d)
    w = oracles.displacement((0.05, 0.08), d, plan)  # inside the correctable patch
    vec = fk.FockVector(w.matrix @ fk.gkp_codeword(0, delta, lam, d).normalized().amplitudes)
    val = np.vdot(vec.amplitudes, zm.matrix @ vec.amplitudes).real / vec.norm() ** 2
    assert val > 0.9


def test_smear_rescales_leading_coefficient():
    # Z_m leading terms W(0, ±1/sqrt(2 lam)) pick up exp(-pi tanh /(2 lam));
    # with n_cut = 1 only those two terms survive, so the profile ratio is
    # the rescaling factor pointwise.
    delta, lam = 0.25, 1.0
    smear = math.tanh(delta**2 / 2) * np.eye(2)
    x = np.linspace(-3.0, 3.0, 11)
    g_plain, h_plain = oracles.pauli_series_profiles(lam, None, x, n_cut=1)
    g_smear, h_smear = oracles.pauli_series_profiles(lam, smear, x, n_cut=1)
    expected = math.exp(-math.pi * math.tanh(delta**2 / 2) / (2 * lam))
    assert np.allclose(g_smear / g_plain, expected, atol=1e-12)
    assert np.allclose(h_smear / h_plain, expected, atol=1e-12)


@pytest.mark.parametrize("lam", [1.3, 3.7])
def test_pauli_profiles_equal_series_at_59_bitwise(lam):
    # fock's one series against the oracle's at n_cut 59, with the readout smear
    x = fk.q_eigensystem(240, 240)[0]
    got = fk.pauli_profiles(lam, 0.3, x)
    want = oracles.pauli_series_profiles(lam, oracles.smear_matrix(0.3, lam), x, n_cut=59)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert fk.PAULI_ODD.size == 60 and fk.PAULI_ODD.min() == -59 and fk.PAULI_ODD.max() == 59


def test_pauli_kernels_equal_direct_exponential_bitwise():
    # half the columns exponentiated and mirrored as conjugates, against one
    # np.exp per column, as uint64 words: signed zeros count
    xs = [fk.q_eigensystem(d, d)[0] for d in (768, 2304)]
    xs.append(np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 0.5, -0.5, 40.0, -40.0]))
    for x in xs:
        for lam in (1.0, 1.267, 2.6, 4.4, 6.5):
            got = fk.pauli_kernels(lam, x)
            want = oracles.pauli_series_kernels(lam, x, n_cut=59)
            for g, w in zip(got, want):
                assert g.shape == (x.size, 60)
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (x.size, lam)


def test_pauli_kernel_provider_matches_fresh_evaluation():
    # the provider's kernels across λ and x changes and x copies, cold and
    # warm, against the profiles from scratch
    delta = 0.25

    def fresh(lam, x):
        smear = oracles.smear_matrix(delta, lam)
        odd, wts = fk.PAULI_ODD, fk.PAULI_WEIGHTS
        u_p, u_q = odd / math.sqrt(2.0 * lam), odd * math.sqrt(lam / 2.0)
        z_w = wts * np.exp(-math.pi * (smear[0, 0] * u_p**2))
        x_w = wts * np.exp(-math.pi * (smear[1, 1] * u_q**2))
        return [(np.exp(1j * fk.SQRT2PI * np.outer(x, u_p)) @ z_w).tobytes(),
                (np.exp(-1j * fk.SQRT2PI * np.outer(x, u_q)) @ x_w).tobytes()]

    x = fk.q_eigensystem(192, 192)[0]
    other = np.linspace(-9.0, 9.0, x.size)
    fk._kernel_halves.cache_clear()
    for rounds in (1, 2):
        for lam, xs in ((1.3, x), (2.6, x), (1.3, x), (1.3, other), (1.3, x.copy())):
            got = fk.pauli_profiles(lam, delta, xs)
            assert [p.tobytes() for p in got] == fresh(lam, xs), (rounds, lam, xs is other)
        info = fk._kernel_halves.cache_info()
        assert (info.misses, info.hits) == (3, 5 * rounds - 3)
    fk._kernel_halves.cache_clear()


def test_pauli_kernel_provider_is_bounded_and_read_only():
    x = np.linspace(-6.0, 6.0, 40)
    fk._kernel_halves.cache_clear()
    for lam in np.linspace(1.0, 5.0, 17):
        fk.pauli_kernels(float(lam), x)
    info = fk._kernel_halves.cache_info()
    assert info.maxsize == 16 and info.currsize == 16 and info.misses == 17
    halves = fk._kernel_halves(5.0, x.tobytes())
    assert fk._kernel_halves.cache_info().misses == 17  # the newest λ is held
    for half in halves:
        assert half.shape == (40, 30)
        with pytest.raises(ValueError):
            half[0, 0] = 0.0
    fk.pauli_kernels(1.0, x)
    assert fk._kernel_halves.cache_info().misses == 18  # the oldest λ went
    fk._kernel_halves.cache_clear()


def test_pauli_n_cut_convergence():
    # Doubling the displacement cut leaves smeared-operator expectations
    # unchanged at 1e-8 (the smear suppresses tail terms exponentially; the
    # unsmeared square-wave partial sum keeps a ~1e-5 Gibbs ripple instead).
    delta, lam, d = 0.25, 1.3, 256
    smear = math.tanh(delta**2 / 2) * np.diag([lam, 1 / lam])
    c0 = fk.gkp_codeword(0, delta, lam, d).normalized()
    vals = []
    ripple = []
    for n_cut in (59, 119):
        zm = oracles.pauli_measurement_operator("Z", lam, smear, d, n_cut=n_cut)
        vals.append(np.vdot(c0.amplitudes, zm.matrix @ c0.amplitudes).real)
        zu = oracles.pauli_measurement_operator("Z", lam, None, d, n_cut=n_cut)
        ripple.append(np.vdot(c0.amplitudes, zu.matrix @ c0.amplitudes).real)
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(ripple[0] - ripple[1]) < 1e-4


def test_gkp_params():
    p = fk.GkpParams(0.25, 2.0)
    assert abs(1.0 / (2.0 * p.delta**2) - 0.5 - 7.5) < 1e-12  # n_bar
    assert abs(p.delta_db - 12.0411) < 1e-3
    assert abs(fk.GkpParams.from_n_bar(7.5).delta - 0.25) < 1e-12
    with pytest.raises(ValueError):
        fk.GkpParams(1.2, 1.0)
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            fk.GkpParams(0.25, lam)
    with pytest.raises(ValueError):
        fk.GkpParams(math.nan, 1.0)

"""Truncated-Fock engine: operators, codewords, orthonormalisation, gates."""

import math
import types
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from gkpphase import NumericFailure, fock as fk
from gkpphase.polyalg import GATE_TABLE, RationalPolynomial

T3 = RationalPolynomial([0, F(-1, 12), F(1, 8), F(1, 12)])


def _normalized(vec):
    return vec / np.linalg.norm(vec)


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
    plan = fk.TruncationPlan(d_init=400)
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


@pytest.mark.parametrize("d, u, v", [
    pytest.param(128, (0.3, 0.0), (0.0, 0.4), id="d128"),
])
def test_displacement_composition_rule(d, u, v):
    plan = fk.TruncationPlan(d_init=d)
    wu = oracles.displacement(u, d, plan).matrix
    wv = oracles.displacement(v, d, plan).matrix
    wuv = oracles.displacement((u[0] + v[0], u[1] + v[1]), d, plan).matrix
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


def test_log_factorial_is_gammaln_bitwise():
    # cephes `lgam(n + 1)` through each branch: exact below n = 12, five series
    # terms below x = n + 1 = 1000, three from there, and past x = 1e8 none
    import scipy.special

    ns = [*range(2**15), 10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1, 3 * 10**9, 2**53]
    assert [fk._log_factorial(n).hex() for n in ns] == [
        float(v).hex() for v in scipy.special.gammaln(np.array(ns) + 1.0)]


def test_half_log_factorials_is_one_read_only_table_per_d():
    import scipy.special

    fk._half_log_factorials.cache_clear()
    table = fk._half_log_factorials(40)
    assert table.tobytes() == (0.5 * scipy.special.gammaln(np.arange(40) + 1.0)).tobytes()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table.flags.writeable = True
    for bit in (0, 1):
        fk.gkp_codeword(bit, 0.3, 1.0, 40)
    assert fk._half_log_factorials(40) is table
    assert fk._half_log_factorials.cache_info().misses == 1


def test_codeword_parity_and_diagnostics(monkeypatch):
    # parity, and the weight `_coherent_block` drops against the weight it was given
    real, seen = fk._coherent_block, []

    def recording(alpha, coeff, d, run_sizes):
        out = real(alpha, coeff, d, run_sizes)
        seen.append((out[2], float(np.abs(coeff).sum())))
        return out

    monkeypatch.setattr(fk, "_coherent_block", recording)
    for bit in (0, 1):
        vec = fk.gkp_codeword(bit, 0.3, 1.7, 128)
        assert vec.shape == (128,) and vec.dtype == complex
        assert np.max(np.abs(vec[1::2])) < 1e-12
    assert len(seen) == 2 and all(weight <= 1e-6 * total for weight, total in seen)


def test_non_finite_codeword_is_a_numeric_failure(monkeypatch):
    # a point failure in a sweep, not a ValueError that ends it
    real = fk._coherent_block

    def poisoned(*args):
        amps, dropped, weight = real(*args)
        amps[2] = complex(math.nan, 0.0)
        return amps, dropped, weight

    monkeypatch.setattr(fk, "_coherent_block", poisoned)
    with pytest.raises(NumericFailure, match="non-finite codeword amplitudes"):
        fk.gkp_codeword(0, 0.3, 1.0, 64)


def test_codeword_vacuum_limit():
    vec = _normalized(fk.gkp_codeword(0, 1.2, 1.0, 64))
    assert abs(vec[0]) ** 2 > 0.99


def test_codeword_overlap_decays_with_smaller_delta():
    o25 = abs(oracles.overlap(_normalized(fk.gkp_codeword(0, 0.25, 1.0, 256)),
                              _normalized(fk.gkp_codeword(1, 0.25, 1.0, 256))))
    o45 = abs(oracles.overlap(_normalized(fk.gkp_codeword(0, 0.45, 1.0, 256)),
                              _normalized(fk.gkp_codeword(1, 0.45, 1.0, 256))))
    assert o25 < o45


def test_codeword_matches_position_grid_oracle():
    for lam in (1.0, 2.0):
        lattice = _normalized(fk.gkp_codeword(0, 0.35, lam, 256))
        oracle = oracles.gkp_codeword_position_oracle(0, 0.35, lam, 256)
        assert abs(oracles.overlap(oracle, lattice)) ** 2 > 1.0 - 1e-6


def _recording(block, log):
    """`block` (a `_coherent_block`), appending each call's (dropped terms, dropped weight) to `log`."""
    def run(*args):
        out = block(*args)
        log.append(out[1:])
        return out
    return run


def _loop_oracle(alpha, coeff, d, _run_sizes):
    return oracles.coherent_block(alpha, coeff, d)


@pytest.mark.parametrize("delta", [1 / math.sqrt(2 * nb + 1) for nb in (2, 6, 10)] + [0.24, 0.25])
def test_codeword_bitwise_equals_one_term_loop(monkeypatch, delta):
    # the blocked, conjugate-paired sum against the per-term loop, to the bit,
    # amplitudes and the dropped-term count and weight
    for lam in (1.0, 2.6, 5.0):
        for d in (64, 256):
            for bit in (0, 1):
                got_drops, want_drops = [], []
                with monkeypatch.context() as m:
                    m.setattr(fk, "_coherent_block", _recording(fk._coherent_block, got_drops))
                    got = fk.gkp_codeword(bit, delta, lam, d)
                    m.setattr(fk, "_coherent_block", _recording(_loop_oracle, want_drops))
                    want = fk.gkp_codeword(bit, delta, lam, d)
                assert got.tobytes() == want.tobytes(), (lam, d, bit)
                assert repr(got_drops) == repr(want_drops)


def test_codeword_bitwise_with_dropped_terms(monkeypatch):
    # Δ = 0.1 at d = 64 drops far lattice terms by their peak; bit 0 holds the α = 0 term
    monkeypatch.setattr(fk, "MAX_DROPPED_WEIGHT", 1.0)
    for bit in (0, 1):
        got_drops, want_drops = [], []
        with monkeypatch.context() as m:
            m.setattr(fk, "_coherent_block", _recording(fk._coherent_block, got_drops))
            got = fk.gkp_codeword(bit, 0.1, 1.0, 64)
            m.setattr(fk, "_coherent_block", _recording(_loop_oracle, want_drops))
            want = fk.gkp_codeword(bit, 0.1, 1.0, 64)
        assert want_drops[0][0] > 0
        assert got.tobytes() == want.tobytes()
        assert repr(got_drops) == repr(want_drops)


@pytest.mark.parametrize("d", [17, 67, 1023, 1024])
def test_codeword_bitwise_at_odd_and_wide_dimensions(monkeypatch, d):
    # odd d reach the SIMD loops' tails; at d = 1024 a cut block holds about 128
    # terms, so the sum's 64-term blocks split it
    for delta in (0.25, 1 / math.sqrt(5)):
        for lam in (1.0, 5.0):
            for bit in (0, 1):
                got_drops, want_drops = [], []
                with monkeypatch.context() as m:
                    m.setattr(fk, "_coherent_block", _recording(fk._coherent_block, got_drops))
                    got = fk.gkp_codeword(bit, delta, lam, d)
                    m.setattr(fk, "_coherent_block", _recording(_loop_oracle, want_drops))
                    want = fk.gkp_codeword(bit, delta, lam, d)
                assert got.tobytes() == want.tobytes(), (delta, lam, bit)
                assert repr(got_drops) == repr(want_drops)


def test_number_parity_phases_shared_and_read_only():
    r = fk.number_parity_phases(40)
    assert r is fk.number_parity_phases(40)
    assert r.tobytes() == (1j ** np.arange(40)).tobytes()
    with pytest.raises(ValueError):
        r[0] = 2.0


def test_q_eigensystem_block_is_leading_rows_of_full_solve():
    # the block is packed from the solve: bitwise its first rows, column-major, read-only
    x_full, v_full = fk.q_eigensystem(288, 288, None)
    x, v = fk.q_eigensystem(288, 96, None)
    assert x.tobytes() == x_full.tobytes()
    assert v.shape == (96, 288) and v.flags.f_contiguous and not v.flags.writeable
    assert v.tobytes() == v_full[:96].tobytes()
    for rows in (0, 289):
        with pytest.raises(ValueError):
            fk.q_eigensystem(288, rows, None)


Q_SOLVE_DIMS = (16, 97, 288, 768, 2304)  # 16 is below dstevd's divide-and-conquer cut-off; 2304 a readout solve


@pytest.fixture(scope="module")
def scipy_q_solves():
    import scipy.linalg

    return {d: scipy.linalg.eigh_tridiagonal(np.zeros(d), np.sqrt(np.arange(1.0, d) / 2.0)) for d in Q_SOLVE_DIMS}


@pytest.mark.parametrize("path", ["dstevd", "fallback"])
def test_solve_q_is_eigh_tridiagonal_bitwise(monkeypatch, scipy_q_solves, path):
    # each path's solves run back to back: on 2 cores, alternating numpy's and
    # scipy's OpenBLAS call by call cost up to 0.3 s a call
    if path == "dstevd" and getattr(fk.NUMPY_BLAS, "scipy_dstevd_64_", None) is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    if path == "fallback":
        monkeypatch.setattr(fk, "NUMPY_BLAS", object())  # a BLAS without the symbol
    for d, (x, v) in ((d, fk._solve_q(d)) for d in Q_SOLVE_DIMS):
        want_x, want_v = scipy_q_solves[d]
        assert x.tobytes() == want_x.tobytes(), d
        assert v.flags.f_contiguous and v.tobytes(order="F") == want_v.tobytes(order="F"), d


def test_solve_q_failure_is_a_linalg_error(monkeypatch):
    # scipy's wrapper arguments (JOBZ V, LWORK 1 + 4d + d², LIWORK 3 + 5d), and info != 0 raises
    seen = []

    def dstevd(jobz, n, *args):
        seen.append((jobz, n._obj.value, args[5]._obj.value, args[7]._obj.value))
        args[8]._obj.value = 3

    monkeypatch.setattr(fk, "NUMPY_BLAS", types.SimpleNamespace(scipy_dstevd_64_=dstevd))
    with pytest.raises(np.linalg.LinAlgError, match="info 3"):
        fk._solve_q(20)
    assert seen == [(b"V", 20, 1 + 4 * 20 + 20**2, 3 + 5 * 20)]


def test_orthonormalize_contract():
    c0 = fk.gkp_codeword(0, 0.35, 1.0, 256)
    c1 = fk.gkp_codeword(1, 0.35, 1.0, 256)
    e0, e1 = fk.orthonormalize(c0, c1)
    assert abs(oracles.overlap(e0, e1)) < 1e-12
    assert abs(np.linalg.norm(e0) - 1.0) < 1e-12
    assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
    # parity survives the symmetric orthogonalisation
    assert np.max(np.abs(e0[1::2])) < 1e-12


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
        fk.orthonormalize(c0, 2.0 * c0)


def test_orthonormalize_rejects_zero():
    c0 = fk.gkp_codeword(0, 0.3, 1.0, 128)
    for pair in ((c0, np.zeros_like(c0)), (np.zeros_like(c0), c0)):
        with pytest.raises(ValueError, match="cannot normalise the zero vector"):
            fk.orthonormalize(*pair)


def test_already_orthonormal_pair_unchanged():
    a = np.zeros(32, dtype=complex)
    b = np.zeros(32, dtype=complex)
    a[0] = 1.0
    b[3] = 1.0j
    e0, e1 = fk.orthonormalize(a, b)
    assert abs(abs(np.vdot(e0, a)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(e1, b)) - 1.0) < 1e-12


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
    ip0 = np.vdot(np.pad(e0, (0, pad)), gate.matrix @ e0)
    ip1 = np.vdot(np.pad(e1, (0, pad)), gate.matrix @ e1)
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


def test_identity_gate_phase_is_exactly_one():
    """Horner over gate I's empty coefficient list is exp(2πi·0): bitwise 1 + 0j, imaginary part +0.0."""
    x = fk.q_eigensystem(288, 288, None)[0]
    for lam in (0.5, 1.0, 2.0):
        phase = fk.phase_profile(GATE_TABLE["I"][0], lam, x)
        assert phase.tobytes() == np.ones_like(x, dtype=complex).tobytes()


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
        val = np.vdot(c, zm.matrix @ c).real / np.linalg.norm(c) ** 2
        assert abs(val - sign) < 2e-3


def test_pauli_z_sign_stable_inside_patch():
    delta, lam, d = 0.25, 1.0, 360
    plan = fk.TruncationPlan(d_init=d)
    zm = oracles.pauli_measurement_operator("Z", lam, None, d)
    w = oracles.displacement((0.05, 0.08), d, plan)  # inside the correctable patch
    vec = w.matrix @ _normalized(fk.gkp_codeword(0, delta, lam, d))
    val = np.vdot(vec, zm.matrix @ vec).real / np.linalg.norm(vec) ** 2
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
    x = fk.q_eigensystem(240, 240, None)[0]
    got = fk.pauli_profiles(lam, 0.3, x)
    want = oracles.pauli_series_profiles(lam, oracles.smear_matrix(0.3, lam), x, n_cut=59)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert fk.PAULI_ODD.size == 60 and fk.PAULI_ODD.min() == -59 and fk.PAULI_ODD.max() == 59


def test_pauli_kernels_equal_direct_exponential_bitwise():
    # half the columns exponentiated and mirrored as conjugates, against one
    # np.exp per column, as uint64 words: signed zeros count
    xs = [fk.q_eigensystem(d, d, None)[0] for d in (768, 2304)]
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

    x = fk.q_eigensystem(192, 192, None)[0]
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
    c0 = _normalized(fk.gkp_codeword(0, delta, lam, d))
    vals = []
    ripple = []
    for n_cut in (59, 119):
        zm = oracles.pauli_measurement_operator("Z", lam, smear, d, n_cut=n_cut)
        vals.append(np.vdot(c0, zm.matrix @ c0).real)
        zu = oracles.pauli_measurement_operator("Z", lam, None, d, n_cut=n_cut)
        ripple.append(np.vdot(c0, zu.matrix @ c0).real)
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

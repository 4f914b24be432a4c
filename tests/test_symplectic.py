"""Gaussian circuit algebra: generators, identities, conditioning, no-go."""

import math

import numpy as np
import pytest

import oracles
from gkpphase import symplectic as sp


def test_squeezer_matrix():
    op = sp.squeezer(2.0, 0, 1)
    assert np.allclose(op.S, np.diag([2.0, 0.5]))
    with pytest.raises(ValueError):
        sp.squeezer(-1.0, 0, 1)


def test_beam_splitter_zero_is_identity():
    op = sp.beam_splitter(0.0, 0, 1, 2)
    assert np.allclose(op.S, np.eye(4))


def test_cx_action_matches_bch_derivation():
    # conjugating quadratures by exp(-i q_1 p_2): q_2 += q_1, p_1 -= p_2
    op = sp.cx(1.0, 0, 1, 2)
    expected = np.eye(4)
    expected[1, 0] = 1.0
    expected[2, 3] = -1.0
    assert np.allclose(op.S, expected)


def test_generators_are_symplectic():
    om = sp.omega(2)
    for op in (
        sp.beam_splitter(0.7, 0, 1, 2),
        sp.squeezer(3.1, 1, 2),
        sp.cx(1.4, 0, 1, 2),
        sp.feedforward(-0.6, 1, 0, 2),
    ):
        assert np.max(np.abs(op.S.T @ om @ op.S - om)) < 1e-12


def test_generator_dispatch_and_errors():
    op = sp.squeezer(alpha=2.0, i=0, n_modes=1)
    assert np.allclose(op.S, np.diag([2.0, 0.5]))
    with pytest.raises(ValueError):
        sp.beam_splitter(0.3, 0, 5, 2)


def test_compose_inverse_is_identity():
    a = sp.compose([sp.beam_splitter(0.4, 0, 1, 2), sp.squeezer(1.7, 0, 2)])
    both = sp.compose([a, oracles.symplectic_inverse(a)])
    assert np.max(np.abs(both.S - np.eye(4))) < 1e-12


def test_rejects_non_symplectic():
    with pytest.raises(ValueError):
        sp.GaussianOp(np.diag([2.0, 2.0]))


def test_compose_refuses_mixed_mode_counts():
    with pytest.raises(ValueError, match="mode-count mismatch"):
        sp.compose([sp.squeezer(2.0, 0, 1), sp.beam_splitter(0.3, 0, 1, 2)])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: sp.GaussianOp(np.eye(2)[:, :1]), r"square 2N x 2N", id="op-not-square"),
    pytest.param(lambda: sp.beam_splitter(0.3, 1, 1, 2), "beam splitter needs two distinct modes",
                 id="bs-same-mode"),
    pytest.param(lambda: sp.cx(1.0, 0, 0, 2), "cx needs two distinct modes", id="cx-same-mode"),
    pytest.param(lambda: sp.feedforward(0.5, 1, 1, 2), "feedforward needs two distinct modes",
                 id="ff-same-mode"),
    pytest.param(lambda: sp.squeezer(2.0, 1, 1), "mode index 1 out of range for 1 modes",
                 id="squeezer-mode"),
    pytest.param(lambda: sp.cx(1.0, 0, -1, 2), "mode index -1 out of range for 2 modes", id="cx-mode"),
    pytest.param(lambda: sp.compose([]), "compose needs at least one op", id="compose-empty"),
    pytest.param(lambda: sp.CovState(np.ones((2, 3))), "Sigma must be square", id="cov-not-square"),
    pytest.param(lambda: sp.CovState(np.array([[1.0, 0.5], [0.0, 1.0]])), "Sigma must be symmetric",
                 id="cov-asymmetric"),
    pytest.param(lambda: sp.CovState(np.diag([1.0, -1.0])), "positive semi-definite", id="cov-not-psd"),
    pytest.param(lambda: sp.condition_on_homodyne(sp.CovState(np.eye(4)), [4]),
                 r"measured indices \[4\] out of range for dim 4", id="homodyne-index"),
    # a one-mode circuit has no ancilla to measure
    pytest.param(lambda: sp.nogo_check(sp.squeezer(2.0, 0, 1), 0.25),
                 "condition_on_homodyne needs at least one measured index", id="nogo-mode-count"),
    pytest.param(lambda: sp.condition_on_homodyne(sp.CovState(np.eye(4)), []),
                 "condition_on_homodyne needs at least one measured index", id="homodyne-empty"),
])
def test_refusals_name_their_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# a NaN passes the residual, symmetry and eigenvalue tests; squeezer(inf) was diag(inf, 0)
@pytest.mark.parametrize("build", [
    pytest.param(lambda: sp.squeezer(math.inf, 0, 1), id="squeezer-inf"),
    pytest.param(lambda: sp.cx(math.nan, 0, 1, 2), id="cx-nan"),
    pytest.param(lambda: sp.GaussianOp(np.full((2, 2), np.nan)), id="op-nan"),
    pytest.param(lambda: sp.CovState(np.full((2, 2), np.nan)), id="cov-nan"),
    pytest.param(lambda: sp.CovState(np.diag([math.inf, 1.0])), id="cov-inf"),
])
def test_non_finite_gaussian_objects_are_refused(build):
    with pytest.raises(ValueError, match="non-finite entry"):
        build()


# lam = 1 is the q-Steane rewrite
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0, 7.0]
                         # 1/lam: the breeding round from asymmetry lam (lam 1 and 2 are above)
                         + [pytest.param(1.0 / lam, id=f"1/{lam}") for lam in (3.0, 7.0)])
def test_rearrangement_identity(lam):
    assert sp.morphing_identity_residual(lam) < 1e-12


def test_morphing_params_values():
    assert np.allclose(sp.morphing_params(1.0), [0.5, math.pi / 4, math.sqrt(2)])
    assert np.allclose(sp.morphing_params(2.0), [math.sqrt(2) / 3, math.atan(math.sqrt(2)), math.sqrt(3)])
    assert np.allclose(sp.morphing_params(3.0), [math.sqrt(3) / 4, math.pi / 3, 2.0])
    for lam in (0.0, math.nan, math.inf):  # NaN used to return NaNs
        with pytest.raises(ValueError):
            sp.morphing_params(lam)


def test_biasing_update_values():
    # the biased round with ancilla asymmetry lam leaves the data at BiasParams(delta, 1 + lam)
    bp = sp.BiasParams(1.0, 1.0 + 1.0)
    assert np.allclose([bp.delta_q, bp.delta_p], [1 / math.sqrt(2), math.sqrt(2)])
    bp = sp.BiasParams(0.2, 1.0 + 3.0)
    assert np.allclose([bp.delta_q, bp.delta_p], (0.1, 0.4))
    bp = sp.BiasParams(0.31, 1.0 + 1e-9)  # lam -> 0: no measurement information
    assert np.allclose([bp.delta_q, bp.delta_p], [0.31, 0.31], atol=1e-8)
    # product saturates the trade-off bound
    for lam in (0.3, 1.0, 4.2):
        bp = sp.BiasParams(0.27, 1.0 + lam)
        assert abs(bp.delta_q * bp.delta_p - 0.27**2) < 1e-15
    # lam 0 gives the unbiased split at 1; NaN and inf lam are refused
    for delta, lam in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.2, math.nan), (0.2, math.inf)):
        with pytest.raises(ValueError):
            sp.BiasParams(delta, 1.0 + lam)


def test_condition_no_correlation_leaves_data_unchanged():
    delta = 0.23
    state = sp.CovState(delta**2 * np.eye(4))
    cond, gain = sp.condition_on_homodyne(state, [1])
    assert np.allclose(cond.Sigma, delta**2 * np.eye(3))
    assert np.allclose(gain, 0.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0, 7.0])
def test_conditioning_matches_biasing_update(lam):
    delta = 0.2
    split = sp.BiasParams(delta, 1.0 + lam)
    dq, dp = split.delta_q, split.delta_p
    # biased ancilla + unit-gain cx
    state = sp.CovState(
        np.diag([delta**2, delta**2 / lam, delta**2, lam * delta**2])
    ).propagate(sp.cx(1.0, 0, 1, 2))
    cond, _ = sp.condition_on_homodyne(state, [1])
    assert abs(cond.Sigma[0, 0] - dq**2) < 1e-12
    assert abs(cond.Sigma[1, 1] - dp**2) < 1e-12
    # unbiased ancilla + sqrt(lam)-gain cx, the rectangular-ancilla form
    state2 = sp.CovState(delta**2 * np.eye(4)).propagate(
        sp.cx(math.sqrt(lam), 0, 1, 2)
    )
    cond2, _ = sp.condition_on_homodyne(state2, [1])
    assert abs(cond2.Sigma[0, 0] - dq**2) < 1e-12
    assert abs(cond2.Sigma[1, 1] - dp**2) < 1e-12


def test_conditional_covariance_outcome_independent():
    rng = np.random.default_rng(5)
    circ = sp.random_circuit(3, 8, rng)
    state = sp.CovState(0.04 * np.eye(6)).propagate(circ)
    cond, gain = sp.condition_on_homodyne(state, [1, 2])
    # the gain maps outcomes to mean shifts; Sigma never sees the outcome
    shift_a = gain @ np.array([0.3, -0.1])
    shift_b = gain @ np.array([-2.0, 4.0])
    assert not np.allclose(shift_a, shift_b)
    assert cond.Sigma.shape == (4, 4)
    assert np.allclose(cond.Sigma, cond.Sigma.T)


def test_singular_conditioning_reports_indices():
    sigma = np.zeros((4, 4))
    sigma[0, 0] = sigma[2, 2] = 1.0  # measured block (q2) is singular
    with pytest.raises(sp.SingularConditioningError) as err:
        sp.condition_on_homodyne(sp.CovState(sigma), [1])
    assert err.value.indices == (1,)


def test_nogo_identity_circuit():
    delta = 0.25
    det = sp.nogo_check(sp.GaussianOp(np.eye(4)), delta)
    assert abs(det - delta**4) / delta**4 < 1e-12


def test_nogo_biased_qsteane_saturates():
    for lam in (1.0, 2.5, 6.0):
        det = sp.nogo_check(sp.cx(math.sqrt(lam), 0, 1, 2), 0.2)
        assert abs(det - 0.2**4) / 0.2**4 < 1e-10


def test_nogo_random_circuits_three_ancillas():
    rng = np.random.default_rng(99)
    for _ in range(10):
        circ = sp.random_circuit(4, 10, rng)
        det = sp.nogo_check(circ, 0.25)
        assert abs(det - 0.25**4) / 0.25**4 < 1e-10


def test_bias_params_fields():
    bp = sp.BiasParams(0.2, 4.0)
    assert abs(bp.delta_q - 0.1) < 1e-15
    assert abs(bp.delta_p - 0.4) < 1e-15
    assert abs(bp.delta_q * bp.delta_p - 0.2**2) < 1e-15

"""Closed-form moments, twirled density, FT bound, vacuum posterior."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from gkpphase import analytic as an
from gkpphase.polyalg import RationalPolynomial

T3 = RationalPolynomial([0, F(-1, 12), F(1, 8), F(1, 12)])
TGKP = RationalPolynomial([0, F(-1, 4), F(1, 8), F(1, 4)])
QUARTIC = RationalPolynomial([0, 0, F(1, 12), 0, F(-1, 48)])


# -- moments ------------------------------------------------------------------


def test_bare_envelope_moments():
    ms = an.moments(RationalPolynomial([]), 0.2, 0.3)
    assert abs(ms.e_vq2 - 0.2**2 / (4 * math.pi)) < 1e-15
    assert abs(ms.e_vp2 - 0.3**2 / (4 * math.pi)) < 1e-15
    assert ms.e_vqvp == 0.0
    # degree <= 1 is still the bare envelope
    ms1 = an.moments(RationalPolynomial([0, F(1, 2)]), 0.2, 0.3)
    assert abs(ms1.e_vp2 - ms.e_vp2) < 1e-18


def test_shear_variance_ratio_is_nine_exactly():
    assert oracles.shear_variance_ratio(TGKP, T3) == F(9)


def test_gate_shear_scales_with_leading_coefficient_squared():
    doubled = RationalPolynomial([0, F(-1, 12), F(1, 8), F(1, 6)])
    assert oracles.shear_variance_ratio(doubled, T3) == F(4)
    base = an.moments(T3, 0.1, 0.2)
    big = an.moments(doubled, 0.1, 0.2)
    envelope = 0.2**2 / (4 * math.pi)
    # the k=j=3 part quadruples; isolate it through the k=2 cross terms
    gate_base = base.e_vp2 - envelope
    gate_big = big.e_vp2 - envelope
    const_part = an.moments(
        RationalPolynomial([0, 0, F(1, 8)]), 0.1, 0.2
    ).e_vp2 - envelope
    assert abs((gate_big - const_part) / (gate_base - const_part) - 4.0) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_widths_must_be_positive_and_finite(bad):
    for call in (lambda: an.moments(T3, bad, 0.3), lambda: an.moments(T3, 0.2, bad),
                 lambda: an.TwirledCubicDensity(bad, 2.0), lambda: an.TwirledCubicDensity(0.25, bad),
                 lambda: an.ft_lower_bound(bad)):
        with pytest.raises(ValueError):
            call()
    # finite widths whose Γ((1 + k)/2) is past float range, at k = 396: an
    # OverflowError from `math.gamma`, refused as the inf it stands for
    with pytest.raises(ValueError, match="take e_vp2 out of float range"):
        an.moments(RationalPolynomial([0] * 200 + [1]), 0.3, 0.3)


@pytest.mark.parametrize("delta", [1e155, 1e-160])
def test_ft_lower_bound_refuses_out_of_range_numpy_delta(delta):
    # an np.float64 is refused as a float of the same value is
    for value in (delta, np.float64(delta)):
        with pytest.raises(ValueError):
            an.ft_lower_bound(value)


def test_moments_match_cubic_density_quadrature():
    for delta in (0.25, 0.35):
        for lam in (1.5, 2.5):
            dq, dp = delta / math.sqrt(lam), delta * math.sqrt(lam)
            ms = an.moments(T3, dq, dp)
            dens = an.TwirledCubicDensity(delta, lam)
            vq = np.linspace(-0.7, 0.7, 1401)
            vp = np.linspace(-1.6, 1.6, 1601)
            qq, pp = np.meshgrid(vq, vp, indexing="ij")
            w = dens(qq, pp)
            da = (vq[1] - vq[0]) * (vp[1] - vp[0])
            assert abs(np.sum(w) * da - 1.0) < 1e-6
            assert abs(np.sum(w * qq**2) * da / ms.e_vq2 - 1.0) < 0.01
            assert abs(np.sum(w * pp**2) * da / ms.e_vp2 - 1.0) < 0.01
            assert abs(np.sum(w * qq * pp) * da / ms.e_vqvp - 1.0) < 0.01


# -- cubic twirled density ------------------------------------------------------


def test_density_marginal_is_normal():
    dens = an.TwirledCubicDensity(0.25, 2.0)
    v_q = 0.13
    vp = np.linspace(-2.0, 2.0, 40001)
    row = dens(np.full_like(vp, v_q), vp)
    dp_ = vp[1] - vp[0]
    mass = np.sum(row) * dp_
    marginal_expected = float(an._normal_1d(dens.sigma_q, v_q))
    assert abs(mass - marginal_expected) < 1e-9 * marginal_expected
    mean = np.sum(row * vp) * dp_ / mass
    var = np.sum(row * (vp - mean) ** 2) * dp_ / mass
    assert abs(mean - dens.mean_p(v_q)) < 1e-9
    assert abs(var - dens.sigma_p(v_q) / (2 * math.pi)) < 1e-9


def test_density_peak_at_zero_shear():
    dens = an.TwirledCubicDensity(0.2, 2.0)
    # at v_q = 0 the shear shift vanishes: maximal along v_p at v_p = 0
    vp = np.linspace(-0.3, 0.3, 601)
    row = dens(np.zeros_like(vp), vp)
    assert np.argmax(row) == 300


def test_patch_mass_maximal_near_optimal_bias():
    delta = 0.2
    lam_opt = oracles.lambda_opt_asymptotic(T3, delta)
    masses = {
        lam: oracles.patch_probability(an.TwirledCubicDensity(delta, lam))
        for lam in (1.8, lam_opt, 5.0, 12.0)
    }
    assert masses[lam_opt] > masses[1.8]
    assert masses[lam_opt] > masses[12.0]


def test_chi_norm_constant_limits():
    # C -> 1 from above as Delta -> 0
    assert an.chi_norm_constant(1e-3, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert an.chi_norm_constant(0.25, 2.0) > 1.0


# -- optimal bias ---------------------------------------------------------------


def test_lambda_opt_scaling_exponents():
    for poly, slope_expected in ((T3, -2.0 / 3.0), (QUARTIC, -1.0)):
        l1 = oracles.lambda_opt_asymptotic(poly, 1e-3)
        l2 = oracles.lambda_opt_asymptotic(poly, 1e-4)
        slope = math.log(l2 / l1) / math.log(0.1)
        assert abs(slope / slope_expected - 1.0) < 0.02


def test_lambda_opt_matches_golden_section():
    for poly in (T3, QUARTIC):
        for delta in (0.25, 0.1):
            lo = oracles.lambda_opt_asymptotic(poly, delta)
            lg, _ = oracles.golden_section(lambda l: oracles.vp2_leading(poly, delta, l),
                                           lo / 10, lo * 10, 1e-12)
            assert abs(lo / lg - 1.0) < 0.005


def test_lambda_opt_rejects_low_degree():
    with pytest.raises(oracles.NotApplicableError):
        oracles.lambda_opt_asymptotic(RationalPolynomial([0, 0, F(1, 4)]), 0.2)


# -- FT bound ---------------------------------------------------------------------


def test_ft_bound_validity_boundary():
    assert abs(an.FT_VALIDITY_DELTA - 0.372) < 1e-3
    assert an.ft_lower_bound(an.FT_VALIDITY_DELTA - 1e-6).validity
    assert not an.ft_lower_bound(an.FT_VALIDITY_DELTA + 1e-6).validity


def test_ft_bound_monotone_toward_one():
    vals = [an.ft_lower_bound(d).f_lower_bound for d in (0.3, 0.2, 0.1, 0.05, 0.01, 0.001)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-15
    assert all(v <= 1.0 for v in vals)
    assert vals[-1] > 0.99


def test_ft_bound_lambda_ansatz():
    b = an.ft_lower_bound(0.2)
    expected = 3.0**0.4 / 2.0**0.8 * math.tanh(0.02) ** (-0.6)
    assert abs(b.lam_of_delta - expected) < 1e-12


# -- vacuum posterior ------------------------------------------------------------------

# The whole grid against the position-space cells, weights by relative and Bloch
# vectors by absolute error: at most 1.11e-15 and 1.0e-15 measured over
# Δ ∈ {0.05, 0.1, 0.2, 0.24, 0.25, 0.3} at grids 21 and 500, so 1e-14 leaves 9×.
POSTERIOR_GRID_TOL = 1e-14


@pytest.mark.parametrize("grid", [21, 500])
@pytest.mark.parametrize("delta", [0.05, 0.25, 0.3])
def test_posterior_grid_matches_position_space_cells(delta, grid):
    weights, bloch = an.vacuum_posterior_grid(delta, grid)
    want_w, want_b = oracles.position_space_vacuum_cells(delta, grid)
    assert np.max(np.abs(weights / want_w - 1.0)) <= POSTERIOR_GRID_TOL
    assert np.max(np.abs(bloch - want_b)) <= POSTERIOR_GRID_TOL


def test_posterior_origin_symmetry_and_hadamard_direction():
    # the centre cell of an odd grid sits at v = 0
    weights, bloch = an.vacuum_posterior_grid(0.25, 21)
    w, b = weights[10 * 21 + 10], bloch[10 * 21 + 10]
    assert w > 0
    # q<->p symmetry of the thermal state exchanges X and Z
    assert abs(b[0] - b[2]) < 1e-12
    assert abs(b[1]) < 1e-12
    assert np.linalg.norm(b) <= 1.0 + 1e-9


def test_posterior_grid_normalised_and_physical():
    w, bloch = an.vacuum_posterior_grid(0.3, 51)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(np.linalg.norm(bloch, axis=1) <= 1.0 + 1e-9)


def test_posterior_cut_4_equals_cut_6_bitwise(monkeypatch):
    # kappa = tanh(Delta^2/2) + 1/2 stays in [1/2, 3/2), so the shells past
    # VACUUM_LATTICE_CUT = 4 never reach a bit of the criterion-10 grid
    centers = (np.arange(500) + 0.5) / 500 * 2 * an.PATCH_HALF - an.PATCH_HALF
    assert an.VACUUM_LATTICE_CUT == 4
    for delta in (1e-4, 0.05, 0.25, 0.5, 0.99, 3.0):
        cut4 = an._posterior_sums(delta, centers, centers)
        monkeypatch.setattr(an, "VACUUM_LATTICE_CUT", 6)
        cut6 = an._posterior_sums(delta, centers, centers)
        monkeypatch.undo()
        for mu in ("I", "X", "Y", "Z"):
            assert cut4[mu].tobytes() == cut6[mu].tobytes(), (delta, mu)


def test_posterior_sums_are_contiguous_real_copies():
    centers = np.linspace(-0.5, 0.5, 30)
    for mu, g in an._posterior_sums(0.25, centers, centers).items():
        assert g.dtype == np.float64 and g.flags.c_contiguous and g.base is None, mu


@pytest.mark.parametrize("delta", [0.25, 0.24])
def test_posterior_bloch_columns_bitwise_stacked_quotients(delta):
    # the Bloch array filled column by column, against stacking the quotients
    n = 500
    centers = (np.arange(n) + 0.5) / n * 2.0 * an.PATCH_HALF - an.PATCH_HALF
    sums = an._posterior_sums(delta, centers, centers)
    want = np.stack([(sums[mu] / sums["I"]).ravel() for mu in ("X", "Y", "Z")], axis=1)
    weights, bloch = an.vacuum_posterior_grid(delta, n)
    assert bloch.shape == (n * n, 3) and bloch.tobytes() == want.tobytes()
    assert weights.tobytes() == (sums["I"] / sums["I"].sum()).ravel().tobytes()



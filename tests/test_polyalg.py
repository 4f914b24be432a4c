"""Exact-arithmetic tests for the polynomial stabilizer algebra."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gkpphase import polyalg as pa
from gkpphase.polyalg import RationalPolynomial as Poly
from oracles import LexOrder


def poly(*coeffs) -> Poly:
    return Poly([F(c) for c in coeffs])


T3 = poly(0, "-1/12", "1/8", "1/12")
TGKP = poly(0, "-1/4", "1/8", "1/4")
SQRT_T = poly(0, 0, "1/12", 0, "-1/48")
T4 = poly(0, 0, "1/6", 0, "-1/24")
T4TH = poly(0, "1/60", "1/24", "-1/48", "-1/96", "1/240")
T4TH_MIRROR = poly(0, "-1/60", "1/24", "1/48", "-1/96", "-1/240")
T8TH = poly(0, 0, "17/720", 0, "-5/576", 0, "1/1440")


# -- basis polynomials -------------------------------------------------------


def test_basis_small_cases():
    assert oracles.basis(1) == poly(0, 1)
    # expand (1/2) x (x+1) from the even-case product
    assert oracles.basis(2) == poly(0, "1/2", "1/2")
    # the cubic stabilizer: (x^3 - x)/6
    assert oracles.basis(3) == poly(0, "-1/6", 0, "1/6")


def test_basis_leading_coefficient_and_integrality():
    for n in range(1, 13):
        ln = oracles.basis(n)
        assert ln.degree == n
        assert ln.coeff(n) == F(1, factorial(n))
        for k in range(-100, 101):
            assert ln(k).denominator == 1


def test_basis_built_factor_by_factor_equals_dense_product():
    for n in range(1, 41):
        assert pa._basis(n) == oracles.basis(n)


@pytest.mark.parametrize("bad", [0, -1, -5])
def test_basis_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        oracles.basis(bad)


# -- integer-valued membership ----------------------------------------------


def test_is_integer_valued_examples():
    assert oracles.is_integer_valued(oracles.basis(6))
    assert not oracles.is_integer_valued(poly(0, 0, "1/4"))  # P(1) = 1/4
    combo = 5 * oracles.basis(4) - 2 * oracles.basis(1)
    assert oracles.is_integer_valued(combo)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
    st.integers(min_value=-50, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_integer_combinations_are_integer_valued(coeffs, probe):
    p = Poly(())
    for n, c in enumerate(coeffs, start=1):
        if c:
            p = p + c * oracles.basis(n)
    assert oracles.is_integer_valued(p)
    assert p(probe).denominator == 1


# -- starting representations and lifts ---------------------------------------


def test_starting_representation_values():
    assert pa.starting_representation(1) == poly(0, "1/2")
    assert pa.starting_representation(2) == poly(0, 0, "1/4")
    assert pa.starting_representation(4) == Poly.monomial(8, F(1, 16))
    with pytest.raises(ValueError):
        pa.starting_representation(0)


def test_lift_worked_example():
    # squaring the minimal cubic T gate: 4 P^2
    lifted = pa.lift_representation(T3, 3)
    assert lifted == poly(0, 0, "1/36", "-1/12", "1/144", "1/12", "1/36")


def test_lift_low_levels():
    assert pa.lift_representation(poly(0, "1/2"), 1) == poly(0, 0, "1/4")
    assert pa.lift_representation(poly(0, 0, "1/4"), 2) == Poly.monomial(4, F(1, 8))


def test_lift_rejects_wrong_level():
    with pytest.raises(ValueError):
        pa.lift_representation(oracles.basis(3), 3)


# -- gate verification ---------------------------------------------------------


def test_verify_gate_examples():
    assert pa.verify_gate(T3, 3)
    assert not pa.verify_gate(oracles.basis(3), 3)  # stabilizer: phase 0
    assert pa.verify_gate(SQRT_T, 4)
    assert pa.verify_gate(T4TH, 5)
    assert pa.verify_gate(T4TH_MIRROR, 5)
    assert pa.verify_gate(T8TH, 6)
    assert not pa.verify_gate(T3, 4)


# -- lexicographic order --------------------------------------------------------


def test_lex_compare_examples():
    assert oracles.lex_compare(T3, TGKP) is LexOrder.LESS
    assert oracles.lex_compare(TGKP, T3) is LexOrder.GREATER
    assert oracles.lex_compare(T3, T3) is LexOrder.EQUAL
    other = poly(0, "1/12", "1/8", "-1/12")
    assert oracles.lex_compare(other, T3) is LexOrder.EQUAL  # magnitude tie


# -- coefficient reduction -------------------------------------------------------


def test_reduce_sqrt_t_worked_example():
    start = poly(0, 0, "1/36", "-1/12", "1/144", "1/12", "1/36")
    out = pa.reduce(start)
    assert SQRT_T in out.minima
    assert out.minima == (SQRT_T,)


def test_reduce_tgkp_boundary_tie():
    out = pa.reduce(TGKP)
    assert T3 in out.minima
    assert poly(0, "1/12", "1/8", "-1/12") in out.minima
    assert out.tied
    assert any(step.boundary for step in out.branch_log)


def test_reduce_trivial_fixed_point():
    out = pa.reduce(poly(0, "1/2"))
    assert poly(0, "1/2") in out.minima


def test_reduce_t4_reaches_t3():
    # the even quartic T gate is not minimal; it reduces back to the cubic
    assert T3 in pa.reduce(T4).minima


def test_minimal_table_entries_are_fixed_points():
    for p in (T3, SQRT_T, T4TH, T8TH):
        assert p in pa.reduce(p).minima


def test_degree_theorem_and_leading_law():
    for m in range(1, 9):
        out = pa.reduce(pa.starting_representation(m))
        for p in out.minima:
            assert p.degree == m
            assert abs(p.coeff(m)) == F(1, 2 * factorial(m))
            for k in range(1, m + 1):
                assert abs(p.coeff(k)) <= F(1, 2 * factorial(k))
            assert pa.verify_gate(p, m)


def test_degree_theorem_and_leading_law_at_level_10():
    # start degree 512; the integer reduction takes about a second
    out = pa.reduce(pa.starting_representation(10))
    for p in out.minima:
        assert p.degree == 10
        assert abs(p.coeff(10)) == F(1, 2 * factorial(10))
        for k in range(1, 11):
            assert abs(p.coeff(k)) <= F(1, 2 * factorial(k))
        assert pa.verify_gate(p, 10)


@pytest.mark.parametrize("m", range(1, 8))
def test_reduce_equals_fraction_oracle_up_the_hierarchy(m):
    start = pa.starting_representation(m)
    assert pa.reduce(start) == oracles.reduce(start)  # minima and branch_log
    lifted = pa.lift_representation(pa.reduce(start).minima[0], m)
    assert pa.reduce(lifted) == oracles.reduce(lifted)


def test_reflection_symmetry_of_tied_minima():
    out = pa.reduce(pa.starting_representation(5))
    assert T4TH in out.minima and T4TH_MIRROR in out.minima
    assert oracles.lex_compare(T4TH, T4TH_MIRROR) is LexOrder.EQUAL
    assert T4TH_MIRROR == oracles.scale_argument(T4TH, -1)


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=48),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_reduce_bound_and_gate_preservation(coeffs):
    p = Poly([F(0)] + list(coeffs))
    out = pa.reduce(p)
    for q in out.minima:
        for k in range(1, q.degree + 1):
            assert abs(q.coeff(k)) <= F(1, 2 * factorial(k))
        # P - Q is a stabilizer up to the dropped constant phase
        diff = p - q
        assert oracles.is_integer_valued(diff - Poly((diff.coeff(0),)))


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=48),
        min_size=2,
        max_size=6,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=48),
)
@settings(max_examples=60, deadline=None)
def test_reduce_equals_fraction_oracle(coeffs, constant):
    p = Poly([constant] + list(coeffs))
    assert pa.reduce(p) == oracles.reduce(p)


# -- multivariate ------------------------------------------------------------------


def test_control_gate_start():
    cs = pa.control_gate_start(2, 2)
    assert cs.coeff((2, 2)) == F(1, 4)
    ccz = pa.control_gate_start(3, 1)
    assert ccz.coeff((1, 1, 1)) == F(1, 2)
    assert pa.control_gate_start(1, 3).coeff((4,)) == F(1, 8)
    with pytest.raises(ValueError):
        pa.control_gate_start(0, 1)


def test_multivariate_reduce_cs():
    out = pa.multivariate_reduce(pa.control_gate_start(2, 2))
    expected = pa.MultiRationalPolynomial(
        2, {(2, 1): F(-1, 4), (1, 2): F(-1, 4), (1, 1): F(-1, 4)}
    )
    assert out.minimum == expected
    assert out.tie_monomials  # boundary remainders on the cubic monomials
    assert oracles.verify_control_gate(out.minimum, 2)


def test_multivariate_reduce_ccz_and_cz_fixed_points():
    ccz = pa.multivariate_reduce(pa.control_gate_start(3, 1))
    assert ccz.minimum == pa.control_gate_start(3, 1)
    assert oracles.verify_control_gate(ccz.minimum, 1, k_range=3)
    cz = pa.MultiRationalPolynomial(2, {(1, 1): F(1, 2)})
    assert pa.multivariate_reduce(cz).minimum == cz


def test_multivariate_bound_holds():
    out = pa.multivariate_reduce(pa.control_gate_start(2, 3))
    for exp, c in out.minimum.terms.items():
        bound = F(1, 2)
        for d in exp:
            bound /= factorial(d)
        assert abs(c) <= bound
    assert oracles.verify_control_gate(out.minimum, 3, k_range=4)

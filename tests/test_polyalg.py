"""Exact-arithmetic tests for the polynomial stabilizer algebra."""

import functools
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gkpphase import polyalg as pa
from gkpphase.polyalg import RationalPolynomial as Poly


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
            assert oracles.value(ln, k).denominator == 1


def test_basis_built_factor_by_factor_equals_dense_product():
    bases = pa._scaled_bases(40)  # n!·L_n
    for n in range(1, 41):
        assert Poly([F(c, factorial(n)) for c in bases[n]]) == oracles.basis(n)


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
    # L_3 built on the half-integer shift s = 3/2: P(0) = -1/16; an expansion
    # that subtracts `basis` would accept it were `basis` built this way
    half_shifted = poly("-1/2", 1) * poly("1/2", 1) * poly("3/2", 1) * F(1, 6)
    assert not oracles.is_integer_valued(half_shifted)


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
    assert oracles.value(p, probe).denominator == 1


# -- starting representations and lifts ---------------------------------------


def test_starting_representation_values():
    # the start of Λ_m is the N = 1 case of C^{N-1}Λ_m: x^(2^(m-1))/2^m
    assert pa.control_gate_start(1, 1) == poly(0, "1/2")
    assert pa.control_gate_start(1, 2) == poly(0, 0, "1/4")
    assert pa.control_gate_start(1, 4) == Poly.from_terms(1, {(8,): F(1, 16)})
    with pytest.raises(ValueError):
        pa.control_gate_start(1, 0)


def test_lift_worked_example():
    # squaring the minimal cubic T gate: 4 P^2
    lifted = pa.lift_representation(T3, 3)
    assert lifted == poly(0, 0, "1/36", "-1/12", "1/144", "1/12", "1/36")


def test_lift_low_levels():
    assert pa.lift_representation(poly(0, "1/2"), 1) == poly(0, 0, "1/4")
    assert pa.lift_representation(poly(0, 0, "1/4"), 2) == Poly.from_terms(1, {(4,): F(1, 8)})


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


def test_verify_gate_is_exact_above_degree_49():
    # L_101/2 = C(x+50, 101)/2 vanishes on |k| <= 50, so no scan of those
    # integers tells a gate plus it from the gate, yet it adds 1/2 at k = 51
    wrong = oracles.basis(101) * F(1, 2)
    assert all(oracles.value(wrong, k) == 0 for k in range(-50, 51))
    assert oracles.value(wrong, 51) == F(1, 2)
    assert not pa.verify_gate(Poly.from_terms(1, {(128,): F(1, 256)}) + wrong, 8)
    assert not pa.verify_gate(T3 + wrong, 3)
    assert pa.verify_gate(Poly.from_terms(1, {(128,): F(1, 256)}), 8)
    assert pa.verify_gate(T3 + wrong + wrong, 3)  # L_101 itself is a stabilizer


# -- lexicographic order --------------------------------------------------------


def _magnitudes(p: Poly) -> tuple[F, ...]:
    """|coefficients| from the highest degree down, the lexicographic order's key."""
    return tuple(abs(c) for c in reversed(p.coeffs))


def test_lex_compare_examples():
    assert _magnitudes(T3) < _magnitudes(TGKP)
    assert _magnitudes(TGKP) > _magnitudes(T3)
    assert _magnitudes(T3) == _magnitudes(T3)
    other = poly(0, "1/12", "1/8", "-1/12")
    assert _magnitudes(other) == _magnitudes(T3)  # magnitude tie


# -- coefficient reduction -------------------------------------------------------


@functools.cache
def _enumerated(start: Poly) -> pa.ReductionOutcome:
    """The unpruned enumeration's outcome in the order the package documents:
    `reduce`'s (one variable, positive leading coefficient first) or
    `multivariate_reduce`'s (fork order), with the first minimum's steps.
    Cached: the hierarchy test and the printed-minimum test share starts."""
    minima = oracles.multivariate_minima(start)
    order = list(minima)
    if start.n_vars == 1:
        order.sort(key=lambda p: (p.coeff(p.degree) < 0, p.coeffs))
    return pa.ReductionOutcome(tuple(order), minima[order[0]])


def test_reduce_sqrt_t_worked_example():
    start = poly(0, 0, "1/36", "-1/12", "1/144", "1/12", "1/36")
    out = pa.reduce(start)
    assert SQRT_T in out.minima
    assert out.minima == (SQRT_T,)


def test_reduce_tgkp_boundary_tie():
    out = pa.reduce(TGKP)
    sign_variant = poly(0, "1/12", "1/8", "-1/12")
    assert T3 in out.minima
    assert sign_variant in out.minima
    assert _magnitudes(T3) < _magnitudes(TGKP)
    assert _magnitudes(sign_variant) == _magnitudes(T3)  # a magnitude tie
    assert out.tied
    assert any(step.boundary for step in out.branch_log)


def test_reduce_trivial_fixed_point():
    out = pa.reduce(poly(0, "1/2"))
    assert poly(0, "1/2") in out.minima


def test_reduce_logs_a_constant_like_multivariate_reduce():
    # a constant is a global phase: it reduces to 0, its integer part logged
    for c, n0 in ((3, 3), ("-1/3", -1), ("5/2", 2)):
        out = pa.reduce(poly(c))
        assert out == pa.multivariate_reduce(poly(c)) == _enumerated(poly(c))
        assert out.minima == (Poly(),)
        assert out.branch_log == (pa.BranchStep((0,), n0, False),)


def test_reduce_t4_reaches_t3():
    # the even quartic T gate is not minimal; it reduces back to the cubic
    assert T3 in pa.reduce(T4).minima


def test_minimal_table_entries_are_fixed_points():
    for p in (T3, SQRT_T, T4TH, T8TH):
        assert p in pa.reduce(p).minima


def test_degree_theorem_and_leading_law():
    for m in range(1, 9):
        out = pa.reduce(pa.control_gate_start(1, m))
        for p in out.minima:
            assert p.degree == m
            assert abs(p.coeff(m)) == F(1, 2 * factorial(m))
            for k in range(1, m + 1):
                assert abs(p.coeff(k)) <= F(1, 2 * factorial(k))
            assert pa.verify_gate(p, m)


def test_degree_theorem_and_leading_law_at_level_10():
    # start degree 512; the integer reduction takes about a second
    out = pa.reduce(pa.control_gate_start(1, 10))
    for p in out.minima:
        assert p.degree == 10
        assert abs(p.coeff(10)) == F(1, 2 * factorial(10))
        for k in range(1, 11):
            assert abs(p.coeff(k)) <= F(1, 2 * factorial(k))
        assert pa.verify_gate(p, 10)


@pytest.mark.parametrize("m", range(1, 8))
def test_reduce_equals_fraction_oracle_up_the_hierarchy(m):
    start = pa.control_gate_start(1, m)
    assert pa.reduce(start) == _enumerated(start)  # minima and branch_log
    lifted = pa.lift_representation(pa.reduce(start).minima[0], m)
    assert pa.reduce(lifted) == _enumerated(lifted)


def _printed_start(m: int, start: str) -> Poly:
    """The power start of Λ_m, or the lift of the printed level-(m-1) minimum."""
    if start == "power":
        return pa.control_gate_start(1, m)
    return pa.lift_representation(pa.reduce(pa.control_gate_start(1, m - 1)).minimum, m - 1)


@pytest.mark.parametrize("n_qubits, m, start", [
    *((1, m, "power") for m in range(1, 10)),
    *((1, m, "lift") for m in range(2, 10)),
    *((n, m, "power") for n, m in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))),
])
def test_branch_log_reproduces_the_printed_minimum(n_qubits, m, start):
    # the minima in order and the printed log with its boundary flags are the
    # unpruned enumeration's, whose steps reach each minimum from the start on
    # the dense-product basis, not the scaled one
    if n_qubits == 1:
        begin = _printed_start(m, start)
        out = pa.reduce(begin)
    else:
        begin = pa.control_gate_start(n_qubits, m)
        out = pa.multivariate_reduce(begin)
    assert out == _enumerated(begin)


def test_reflection_symmetry_of_tied_minima():
    out = pa.reduce(pa.control_gate_start(1, 5))
    assert T4TH in out.minima and T4TH_MIRROR in out.minima
    assert _magnitudes(T4TH) == _magnitudes(T4TH_MIRROR)
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
    assert pa.reduce(p) == _enumerated(p)


# -- multivariate ------------------------------------------------------------------


def test_control_gate_start():
    assert pa.control_gate_start(2, 2).terms == {(2, 2): F(1, 4)}
    assert pa.control_gate_start(3, 1).terms == {(1, 1, 1): F(1, 2)}
    assert pa.control_gate_start(1, 3).terms == {(4,): F(1, 8)}
    with pytest.raises(ValueError):
        pa.control_gate_start(0, 1)


def test_from_terms_checks_n_vars_and_exponent_tuples():
    assert pa.RationalPolynomial.from_terms(1, {(3,): F(1, 6), (1,): F(-1, 6)}) == oracles.basis(3)
    zero = pa.RationalPolynomial.from_terms(2, {(1, 1): 0})
    assert zero.terms == {} and zero.degree == -1 and str(zero) == "0"
    for n_vars, exp in ((0, ()), (2, (1,)), (2, (1, 1, 0)), (2, (-1, 2))):
        with pytest.raises(ValueError):
            pa.RationalPolynomial.from_terms(n_vars, {exp: F(1, 2)})


def test_multivariate_reduce_cs():
    out = pa.multivariate_reduce(pa.control_gate_start(2, 2))
    expected = pa.RationalPolynomial.from_terms(
        2, {(2, 1): F(-1, 4), (1, 2): F(-1, 4), (1, 1): F(-1, 4)}
    )
    assert out.minimum == expected
    assert len(out.minima) == 4  # every sign pattern with an even count of + on the cubics
    # boundary remainders on the cubic monomials
    assert [s.monomial for s in out.branch_log if s.boundary] == [(2, 1), (1, 2)]
    assert oracles.phase_check_on_box(out.minimum, 2)


def test_multivariate_reduce_ccz_and_cz_fixed_points():
    ccz = pa.multivariate_reduce(pa.control_gate_start(3, 1))
    assert ccz.minimum == pa.control_gate_start(3, 1)
    assert oracles.phase_check_on_box(ccz.minimum, 1, k_range=3)
    cz = pa.RationalPolynomial.from_terms(2, {(1, 1): F(1, 2)})
    assert pa.multivariate_reduce(cz).minimum == cz


def test_multivariate_bound_holds():
    out = pa.multivariate_reduce(pa.control_gate_start(2, 3))
    for p in out.minima:
        for exp, c in p.terms.items():
            bound = F(1, 2)
            for d in exp:
                bound /= factorial(d)
            assert abs(c) <= bound
        assert oracles.phase_check_on_box(p, 3, k_range=4)


@pytest.mark.parametrize("n_qubits,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_multivariate_reduce_equals_tie_enumeration(n_qubits, m):
    start = pa.control_gate_start(n_qubits, m)
    out = pa.multivariate_reduce(start)
    # its outcome equals the enumeration's in test_branch_log_reproduces_the_printed_minimum
    assert len(set(out.minima)) == len(out.minima)
    assert pa.verify_gate(out.minimum, m)
    assert oracles.phase_check_on_box(out.minimum, m, k_range=4 if n_qubits == 2 else 3)


_two_var_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-2, max_value=2, max_denominator=24),
    max_size=4,
)


@given(_two_var_terms)
@settings(max_examples=40, deadline=None)
def test_multivariate_reduce_equals_tie_enumeration_on_random_inputs(terms):
    p = pa.RationalPolynomial.from_terms(2, terms)
    assert pa.multivariate_reduce(p) == _enumerated(p)


def test_verify_control_gate_needs_both_parities():
    # x1 x2/4 has the CS phases on {0, 1}^2, its degree-1 box, but gives 1/2 at (2, 1)
    p = pa.RationalPolynomial.from_terms(2, {(1, 1): F(1, 4)})
    assert not pa.verify_gate(p, 2)
    assert not oracles.phase_check_on_box(p, 2, k_range=2)


@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=4),
    st.dictionaries(st.integers(0, 6), st.integers(-3, 3), max_size=4),
    st.integers(1, 3),
    st.integers(0, 1),
)
@settings(max_examples=40, deadline=None)
def test_verify_gate_equals_box_oracle(stabilizer, stabilizer_1, m, broken):
    # the gate plus an integer combination of basis products keeps the phase
    # action; an added x1 x2/2^(m+1) (x/2^(m+1) for one qubit) breaks it
    p = pa.multivariate_reduce(pa.control_gate_start(2, m)).minimum
    terms = dict(p.terms)
    for (a, b), n in stabilizer.items():
        for i, x in enumerate(oracles.basis(a).coeffs if a else (F(1),)):
            for j, y in enumerate(oracles.basis(b).coeffs if b else (F(1),)):
                terms[(i, j)] = terms.get((i, j), 0) + n * x * y
    terms[(1, 1)] = terms.get((1, 1), 0) + F(broken, 2 ** (m + 1))
    q = pa.RationalPolynomial.from_terms(2, terms)
    assert pa.verify_gate(q, m) == oracles.phase_check_on_box(q, m, k_range=5) == (not broken)
    single = pa.reduce(pa.control_gate_start(1, m)).minimum + poly(0, F(broken, 2 ** (m + 1)))
    for a, n in stabilizer_1.items():
        single = single + n * (oracles.basis(a) if a else poly(1))
    assert pa.verify_gate(single, m) == oracles.phase_check_on_box(single, m, k_range=8) == (not broken)

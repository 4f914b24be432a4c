"""Exact rational algebra for polynomial phase stabilizers.

A polynomial phase gate exp(2πi P(x)) acts on a grid code through the values
P takes on the integers, so everything here is exact: `Fraction` at the API,
Python ints over one common denominator inside the reduction.  It provides

* the integer-valued basis polynomials L_n (Pólya's binomial-type basis,
  leading coefficient exactly 1/n!), built one linear factor at a time,
* starting representations x^(2^(m-1))/2^m of the level-m diagonal gate and
  the squaring lift between levels,
* the coefficient-reduction procedure that subtracts integer multiples of
  L_n from the highest degree downward until every |a_k| <= 1/(2 k!),
  forking at exact boundary remainders and keeping all lexicographic minima,
* the multivariate generalisation used for CS / CCZ synthesis,
* `GATE_TABLE`, the simulated gate polynomials.

The dense-product L_n, the integer-valued membership test, the
lexicographic comparison and the multivariate phase check are test oracles
(`tests/oracles.py`).

Conventions: coefficients are indexed by degree with the constant term at
index 0; constant terms are global phases and are reduced mod 1 and dropped
by the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable, Mapping

# Hard safety cap on simultaneous reduction branches.  Boundary remainders
# are exact-rational events, so in practice a handful of branches survive.
MAX_BRANCHES = 65536


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RationalPolynomial:
    """Dense univariate polynomial with exact Fraction coefficients.

    Immutable; trailing zero coefficients are trimmed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        cs = [_as_fraction(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -----------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalPolynomial":
        c = _as_fraction(coefficient)
        if c == 0:
            return cls(())
        return cls((0,) * degree + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            if self.is_zero() or other.is_zero():
                return RationalPolynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        c = _as_fraction(other)
        return RationalPolynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def drop_constant(self) -> "RationalPolynomial":
        if not self.coeffs:
            return self
        return RationalPolynomial((Fraction(0),) + self.coeffs[1:])

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if mag == 1:
                    term = xs
                elif mag.numerator == 1:
                    term = f"{xs}/{mag.denominator}"
                else:
                    term = f"{mag.numerator}{xs}/{mag.denominator}" if mag.denominator != 1 else f"{mag.numerator}{xs}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        head_sign, head = parts[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def fraction_strings(self) -> list[str]:
        """Coefficients by degree as "num/den" strings (CLI wire format)."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


@dataclass(frozen=True)
class BranchStep:
    """One reduction step: subtracted multiplier n_j of L_j at degree j."""

    degree: int
    multiplier: int
    boundary: bool


@dataclass(frozen=True)
class ReductionOutcome:
    """All lexicographically minimal survivors of a coefficient reduction."""

    minima: tuple[RationalPolynomial, ...]
    branch_log: tuple[BranchStep, ...]

    @property
    def tied(self) -> bool:
        return len(self.minima) > 1


# ---------------------------------------------------------------------------
# Integer-valued basis
# ---------------------------------------------------------------------------


def _scaled_basis(n: int) -> list[int]:
    """n!·L_n as integer coefficients, constant term first, built one linear factor
    at a time: k!·L_k = (k-1)!·L_{k-1}·(x + a_k), a_k = (-1)^k·floor(k/2)."""
    b = [1]
    for k in range(1, n + 1):
        a = (-1) ** k * (k // 2)
        b = [a * b[0], *(lo + a * hi for lo, hi in zip(b, b[1:])), b[-1]]
    return b


@lru_cache(maxsize=None)
def _basis(n: int) -> RationalPolynomial:
    """L_n for n >= 1, plus L_0 = 1 used internally by the multivariate basis."""
    return RationalPolynomial(Fraction(c, factorial(n)) for c in _scaled_basis(n))


# ---------------------------------------------------------------------------
# Gate representations
# ---------------------------------------------------------------------------


def starting_representation(m: int) -> RationalPolynomial:
    """Trivial representation x^(2^(m-1)) / 2^m of the level-m diagonal gate."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"starting_representation requires m >= 1, got {m!r}")
    return RationalPolynomial.monomial(2 ** (m - 1), Fraction(1, 2**m))


def lift_representation(poly: RationalPolynomial, m: int) -> RationalPolynomial:
    """Square a level-m representation into a level-(m+1) starting point.

    Returns 2^(m-1) * P(x)^2, which picks up half the phase of P on odd
    integers.  Requires that P actually implements the level-m gate.
    """
    if not verify_gate(poly, m):
        raise ValueError(
            f"lift_representation: polynomial does not implement the level-{m} gate"
        )
    return Fraction(2 ** (m - 1)) * (poly * poly)


VERIFY_RANGE = 50  # verify_gate checks the integers |k| <= this


def verify_gate(poly: RationalPolynomial, m: int) -> bool:
    """Check the defining phase action: P(k) ≡ 0 (even k), 2^-m (odd k) mod 1.

    A degree-d polynomial integer-valued on d+1 consecutive integers is
    integer-valued everywhere, so |k| <= deg+2 would suffice; |k| <=
    `VERIFY_RANGE` is a safety margin, not a correctness requirement.
    """
    if m < 1:
        raise ValueError(f"verify_gate requires m >= 1, got {m!r}")
    target = Fraction(1, 2**m)
    for k in range(-VERIFY_RANGE, VERIFY_RANGE + 1):
        val = poly(k)
        frac = val - (val.numerator // val.denominator)
        want = Fraction(0) if k % 2 == 0 else target
        if frac != want:
            return False
    return True


# Gate table: label -> (polynomial, hierarchy level of the implemented gate).
# The polynomials are the simulated set, exact rationals by degree.
GATE_TABLE: dict[str, tuple[RationalPolynomial, int]] = {
    "I": (RationalPolynomial([]), 0),
    "T3": (RationalPolynomial([0, "-1/12", "1/8", "1/12"]), 3),
    "TGKP": (RationalPolynomial([0, "-1/4", "1/8", "1/4"]), 3),
    "T4": (RationalPolynomial([0, 0, "1/6", 0, "-1/24"]), 3),
    "sqrtT": (RationalPolynomial([0, 0, "1/12", 0, "-1/48"]), 4),
    "T4th": (RationalPolynomial([0, "1/60", "1/24", "-1/48", "-1/96", "1/240"]), 5),
    "T4th-mirror": (RationalPolynomial([0, "-1/60", "1/24", "1/48", "-1/96", "-1/240"]), 5),
    "T8th": (RationalPolynomial([0, 0, "17/720", 0, "-5/576", 0, "1/1440"]), 6),
}


def _multipliers(c: int, q: int) -> list[tuple[int, bool]]:
    """Integers n with |c - n*q| <= q/2 (q > 0) as (n, boundary) choices; both
    neighbours at an exact boundary remainder, the smaller |n| first."""
    n, r = divmod(c, q)
    if 2 * r == q:
        return [(n, True), (n + 1, True)] if abs(n) <= abs(n + 1) else [(n + 1, True), (n, True)]
    return [(n if 2 * r < q else n + 1, False)]


def reduce(poly: RationalPolynomial) -> ReductionOutcome:
    """Coefficient reduction to the lexicographically minimal gate polynomial.

    Walks from the highest degree down to 1.  At degree j it writes
    a_j = n_j/j! + r_j with |r_j| <= 1/(2 j!) and subtracts n_j L_j.  When
    |r_j| hits the boundary exactly both choices of n_j are explored; after
    each degree only branches whose fixed (degree >= j) magnitude profile is
    minimal survive, since lower-degree subtractions cannot change it.  The
    constant term is reduced mod 1 and dropped (a global phase).

    The walk runs on ints A_k = D*a_k, D = lcm(deg!, input denominators), so
    D*L_j = (D/j!)*(j!*L_j) is integral; survivors already agree in |A_k| for
    k > j, so pruning at degree j compares |A_j| alone.
    """
    deg = poly.degree
    if deg <= 0:
        return ReductionOutcome((poly.drop_constant(),), ())

    denom = lcm(factorial(deg), *(c.denominator for c in poly.coeffs))
    start = [c.numerator * (denom // c.denominator) for c in poly.coeffs]
    basis = _scaled_basis(deg)  # j!·L_j, divided down by (x + a_j) after each degree
    branches: list[tuple[list[int], tuple[BranchStep, ...]]] = [(start, ())]
    q = denom // factorial(deg)  # D/j!: D*L_j = q*(j!*L_j), and |r_j| <= q/2
    for j in range(deg, 0, -1):
        grown: list[tuple[list[int], tuple[BranchStep, ...]]] = []
        for cur, log in branches:
            for n_j, boundary in _multipliers(cur[j], q):
                s = n_j * q
                nxt = [c - s * b for c, b in zip(cur, basis)] + cur[j + 1 :] if s else cur
                grown.append((nxt, log + (BranchStep(j, n_j, boundary),)))
        # Distinct multiplier sequences leave distinct polynomials (the L_j are
        # independent), so survivors never coincide and need no deduplication.
        best = min(abs(cur[j]) for cur, _ in grown)
        branches = [(cur, log) for cur, log in grown if abs(cur[j]) == best]
        if len(branches) > min(MAX_BRANCHES, 2**deg):
            raise RuntimeError(f"reduction branch explosion: {len(branches)} active branches")
        q *= j
        a, low = (-1) ** j * (j // 2), [basis[j]]
        for c in reversed(basis[1:j]):
            low.append(c - a * low[-1])
        basis = low[::-1]

    # q is now D: the constant term's integer part is a global phase.
    n0 = branches[0][0][0] // q
    log0 = branches[0][1] + ((BranchStep(0, n0, False),) if n0 else ())
    # Deduplicate (dropping constants can merge branches) and order tied
    # minima deterministically, positive leading coefficient first.
    uniq = list(dict.fromkeys(RationalPolynomial([0, *(Fraction(c, q) for c in cur[1:])])
                              for cur, _log in branches))
    uniq.sort(key=lambda p: (p.coeff(p.degree) < 0, p.coeffs))
    return ReductionOutcome(tuple(uniq), log0)


# ---------------------------------------------------------------------------
# Multivariate gates
# ---------------------------------------------------------------------------

Exponent = tuple[int, ...]


class MultiRationalPolynomial:
    """Sparse polynomial in N variables with exact rational coefficients."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Exponent, object] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        clean: dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for n_vars={n_vars}")
            c = _as_fraction(c)
            if c != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(
            self, "terms", {e: c for e, c in clean.items() if c != 0}
        )

    def coeff(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __sub__(self, other: "MultiRationalPolynomial") -> "MultiRationalPolynomial":
        if other.n_vars != self.n_vars:
            raise ValueError("variable-count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MultiRationalPolynomial(self.n_vars, out)

    def __call__(self, xs) -> Fraction:
        acc = Fraction(0)
        for exp, c in self.terms.items():
            t = c
            for x, e in zip(xs, exp):
                t *= Fraction(x) ** e
            acc += t
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiRationalPolynomial)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiRationalPolynomial(0)"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e > 0
            )
            bits.append(f"({self.terms[exp]})*{mono or '1'}")
        return "MultiRationalPolynomial(" + " + ".join(bits) + ")"


def control_gate_start(n_qubits: int, m: int) -> MultiRationalPolynomial:
    """Starting representation (x1···xN)^(2^(m-1)) / 2^m of C^{N-1}Λ_m."""
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValueError(f"control_gate_start requires N >= 1, got {n_qubits!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"control_gate_start requires m >= 1, got {m!r}")
    e = 2 ** (m - 1)
    return MultiRationalPolynomial(
        n_qubits, {(e,) * n_qubits: Fraction(1, 2**m)}
    )


def _basis_product(exps: Exponent) -> MultiRationalPolynomial:
    """Product L_{d1}(x1)···L_{dN}(xN) expanded into the sparse form."""
    factors = [_basis(d) for d in exps]
    acc: dict[Exponent, Fraction] = {(): Fraction(1)}
    for f in factors:
        nxt: dict[Exponent, Fraction] = {}
        for exp, c in acc.items():
            for k, fk in enumerate(f.coeffs):
                if fk == 0:
                    continue
                ne = exp + (k,)
                nxt[ne] = nxt.get(ne, Fraction(0)) + c * fk
        acc = nxt
    return MultiRationalPolynomial(len(exps), acc)


@dataclass(frozen=True)
class MultiReductionOutcome:
    """Minimal multivariate representative plus boundary-tie metadata."""

    minimum: MultiRationalPolynomial
    tie_monomials: tuple[Exponent, ...] = ()


def multivariate_reduce(poly: MultiRationalPolynomial) -> MultiReductionOutcome:
    """Reduce monomial coefficients from the highest total degree downward.

    Within one total degree the monomials reduce independently (the basis
    product for exponent d only touches monomials <= d componentwise).  At
    an exact boundary remainder the multiplier closer to zero is kept — the
    coefficient stays put — and the monomial is recorded as a tie.
    """
    cur = poly
    ties: list[Exponent] = []
    for total in range(cur.total_degree, 0, -1):
        monos = sorted(
            (e for e in cur.terms if sum(e) == total),
            key=lambda e: tuple(-x for x in e),
        )
        for exp in monos:
            a = cur.coeff(exp)
            if a == 0:
                continue
            lead = Fraction(1)
            for d in exp:
                lead /= factorial(d)
            t = a / lead
            n, boundary = _multipliers(t.numerator, t.denominator)[0]  # half rounds to zero
            if boundary:
                ties.append(exp)
            if n:
                cur = cur - MultiRationalPolynomial(
                    cur.n_vars,
                    {e: n * c for e, c in _basis_product(exp).terms.items()},
                )
    # Constant term: global phase, reduced mod 1 and dropped.
    zero_exp = (0,) * cur.n_vars
    c0 = cur.coeff(zero_exp)
    if c0 != 0:
        cur = cur - MultiRationalPolynomial(cur.n_vars, {zero_exp: c0})
    return MultiReductionOutcome(cur, tuple(ties))

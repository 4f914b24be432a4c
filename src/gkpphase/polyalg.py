"""Exact rational algebra for polynomial phase stabilizers.

A polynomial phase gate exp(2πi P(x)) acts on a grid code through the values
P takes on the integers, so everything here is exact: `Fraction` at the API,
Python ints over one common denominator inside the reduction.  It provides

* the integer-valued basis polynomials L_n (Pólya's binomial-type basis,
  leading coefficient exactly 1/n!), built one linear factor at a time,
* starting representations x^(2^(m-1))/2^m of the level-m diagonal gate,
  the squaring lift between levels, and (x1···xN)^(2^(m-1))/2^m of the
  controlled gate C^{N-1}Λ_m,
* one coefficient reduction for one and for many variables: it subtracts
  integer multiples of L_{e1}(x1)···L_{eN}(xN) from the highest monomial
  downward until every |a_e| <= 1/(2 e1!···eN!), forking at exact boundary
  remainders and keeping all lexicographic minima,
* one exact phase check for the single-qubit gate Λ_m and the controlled
  gate C^{N-1}Λ_m alike (Λ_m is the N = 1 case), read from the terms,
* `GATE_TABLE`, the simulated gate polynomials.

The dense-product L_n, the integer-valued membership test, the
lexicographic comparison, the reduction in `Fraction` arithmetic, the
brute-force tie enumeration and the phase check on a symmetric box are
test oracles (`tests/oracles.py`).

Conventions: coefficients are indexed by degree with the constant term at
index 0 (a multivariate term by its exponent tuple); constant terms are
global phases and are reduced mod 1 and dropped by the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod
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


Exponent = tuple[int, ...]


class RationalPolynomial:
    """Dense univariate polynomial with exact Fraction coefficients.

    Immutable; trailing zero coefficients are trimmed on construction.
    `terms` and `n_vars` read it as a polynomial in one variable.
    """

    __slots__ = ("coeffs",)
    n_vars = 1

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

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Nonzero coefficients keyed by the exponent tuple (k,)."""
        return {(k,): c for k, c in enumerate(self.coeffs) if c}

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


# ---------------------------------------------------------------------------
# Multivariate polynomials
# ---------------------------------------------------------------------------


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

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

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


@dataclass(frozen=True)
class BranchStep:
    """One reduction step: n·L_{e1}(x1)···L_{eN}(xN) subtracted at the monomial
    with exponents e; the constant's step carries its dropped integer part."""

    monomial: Exponent
    multiplier: int
    boundary: bool


@dataclass(frozen=True)
class ReductionOutcome:
    """All lexicographically minimal survivors of a coefficient reduction."""

    minima: tuple
    branch_log: tuple[BranchStep, ...]

    @property
    def minimum(self):
        """The representative a command prints: the first minimum."""
        return self.minima[0]

    @property
    def tied(self) -> bool:
        return len(self.minima) > 1


# ---------------------------------------------------------------------------
# Integer-valued basis
# ---------------------------------------------------------------------------


def _scaled_bases(n: int) -> list[list[int]]:
    """k!·L_k for k = 0..n as integer coefficients, constant term first, built one
    linear factor at a time: k!·L_k = (k-1)!·L_{k-1}·(x + a_k), a_k = (-1)^k·floor(k/2)."""
    bases = [[1]]
    for k in range(1, n + 1):
        a, b = (-1) ** k * (k // 2), bases[-1]
        bases.append([a * b[0], *(lo + a * hi for lo, hi in zip(b, b[1:])), b[-1]])
    return bases


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
    integers.  P must implement the level-m gate, which `verify_gate` checks
    exactly at any degree; a P that does not is refused with ValueError.
    """
    if not verify_gate(poly, m):
        raise ValueError(
            f"lift_representation: polynomial does not implement the level-{m} gate"
        )
    return Fraction(2 ** (m - 1)) * (poly * poly)


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


def verify_gate(poly: RationalPolynomial | MultiRationalPolynomial, m: int) -> bool:
    """Check the phase action of C^{N-1}Λ_m, N = `poly.n_vars` (Λ_m for N = 1):
    P(x) ≡ 2^-m mod 1 when every x_i is odd, 0 otherwise.

    Exact at every degree on the box x_i = 0 .. 2d_i + 1, d_i the degree of P
    in x_i.  For a parity class r in {0,1}^N with target t_r,
    Q(j) = P(2j + r) - t_r has degree <= d_i in j_i, and such a polynomial is
    integer-valued on Z^N once it is on d_i + 1 consecutive j_i per variable:
    its Newton expansion in the binomials C(j_1, k_1)···C(j_N, k_N),
    k_i <= d_i, has the box's finite differences, integers, as coefficients.
    The 2(d_i + 1) consecutive x_i hold d_i + 1 consecutive j_i of each
    parity.  P is evaluated from `poly.terms`.
    """
    target = Fraction(1, 2**m)
    terms = poly.terms
    degrees = [max((e[i] for e in terms), default=0) for i in range(poly.n_vars)]
    for xs in product(*(range(2 * d + 2) for d in degrees)):
        want = target if all(x % 2 for x in xs) else 0
        value = sum(c * prod(x**k for x, k in zip(xs, e)) for e, c in terms.items())
        if (value - want).denominator != 1:
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


# ---------------------------------------------------------------------------
# Coefficient reduction
# ---------------------------------------------------------------------------


def _multipliers(c: int, q: int) -> list[tuple[int, bool]]:
    """Integers n with |c - n*q| <= q/2 (q > 0) as (n, boundary) choices; both
    neighbours at an exact boundary remainder, the smaller |n| first."""
    n, r = divmod(c, q)
    if 2 * r == q:
        return [(n, True), (n + 1, True)] if abs(n) <= abs(n + 1) else [(n + 1, True), (n, True)]
    return [(n if 2 * r < q else n + 1, False)]


def _reduce(
    terms: Mapping[Exponent, Fraction], n_vars: int
) -> tuple[list[dict[Exponent, Fraction]], tuple[BranchStep, ...]]:
    """Branch-and-prune reduction of the polynomial sum_e a_e x^e in N variables.

    Visits every monomial e <= some start monomial componentwise, by total
    degree and then by exponent tuple, both descending (one variable: degree
    deg down to 1).  At e it writes a_e = n/(e1!···eN!) + r with
    |r| <= 1/(2 e1!···eN!) and subtracts n L_{e1}(x1)···L_{eN}(xN); when |r|
    hits the boundary exactly both n are explored, the smaller |n| first.
    That subtraction touches only monomials <= e componentwise, which the walk
    visits later, so after e the branches agree in every earlier |a| and
    keeping those with the smallest |a_e| keeps exactly the lexicographic
    minima.  Distinct multiplier sequences leave distinct non-constant parts
    (at the first e where they differ the difference keeps an x^e term), so
    survivors never coincide.  The constant is a global phase: its integer
    part is logged and the term dropped.

    The walk runs on ints A_e = D*a_e, D = lcm(e1!···eN! over the start's
    monomials, input denominators), so with q = D/(e1!···eN!) the subtracted
    D*L_{e1}···L_{eN} = q*(e1!·L_{e1})···(eN!·L_{eN}) is integral and
    |r| <= 1/(2 e1!···eN!) reads |A_e - n*q| <= q/2.

    Returns the minima in fork order and the first survivor's steps.
    """
    zero = (0,) * n_vars
    monos = sorted({f for e in terms for f in product(*(range(k + 1) for k in e))} | {zero},
                   key=lambda f: (sum(f), f), reverse=True)  # the walk, then the constant
    denom = lcm(*(prod(map(factorial, e)) for e in terms), *(c.denominator for c in terms.values()))
    bases = _scaled_bases(max((k for e in terms for k in e), default=0))
    start = {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}
    branches = [([start.get(f, 0) for f in monos], ())]
    for i, e in enumerate(monos[:-1]):
        q = denom // prod(map(factorial, e))
        basis = {(): 1}  # (e1!·L_{e1})···(eN!·L_{eN}) by monomial
        for k in e:
            basis = {f + (j,): c * b for f, c in basis.items() for j, b in enumerate(bases[k]) if b}
        tail = [basis.get(f, 0) for f in monos[i:]]  # it touches no earlier monomial
        grown = []
        for cur, log in branches:
            for n, boundary in _multipliers(cur[i], q):
                s = n * q
                nxt = cur[:i] + [a - s * b for a, b in zip(cur[i:], tail)] if s else cur
                grown.append((nxt, log + (BranchStep(e, n, boundary),)))
        best = min(abs(cur[i]) for cur, _ in grown)
        branches = [(cur, log) for cur, log in grown if abs(cur[i]) == best]
        if len(branches) > MAX_BRANCHES:
            raise RuntimeError(f"reduction branch explosion: {len(branches)} active branches")

    first, log = branches[0]
    n0 = first[-1] // denom
    log += (BranchStep(zero, n0, False),) if n0 else ()
    minima = [{f: Fraction(c, denom) for f, c in zip(monos[:-1], cur) if c} for cur, _ in branches]
    return minima, log


def reduce(poly: RationalPolynomial) -> ReductionOutcome:
    """The lexicographically minimal gate polynomials of one variable
    (`_reduce`), positive leading coefficient first."""
    deg = poly.degree
    if deg <= 0:
        return ReductionOutcome((poly.drop_constant(),), ())
    minima, log = _reduce(poly.terms, 1)
    polys = [RationalPolynomial([t.get((k,), 0) for k in range(deg + 1)]) for t in minima]
    polys.sort(key=lambda p: (p.coeff(p.degree) < 0, p.coeffs))
    return ReductionOutcome(tuple(polys), log)


def multivariate_reduce(poly: MultiRationalPolynomial) -> ReductionOutcome:
    """The lexicographically minimal polynomials of N variables (`_reduce`),
    in fork order: the smaller |n| at each tie first."""
    minima, log = _reduce(poly.terms, poly.n_vars)
    return ReductionOutcome(tuple(MultiRationalPolynomial(poly.n_vars, t) for t in minima), log)

"""Exact rational algebra for polynomial phase stabilizers.

A polynomial phase gate exp(2πi P(x)) acts on a grid code through the values
P takes on the integers, so everything here is exact: `Fraction` at the API,
Python ints over one common denominator inside the reduction.  It provides

* `RationalPolynomial`, the one polynomial type: a sparse map from exponent
  tuples to nonzero `Fraction`s in N variables, a single-qubit gate being
  the N = 1 case,
* the integer-valued basis polynomials L_n (Pólya's binomial-type basis,
  leading coefficient exactly 1/n!), built one linear factor at a time,
* one starting representation, (x1···xN)^(2^(m-1))/2^m of the controlled
  gate C^{N-1}Λ_m (the level-m diagonal gate Λ_m is the N = 1 case), and
  the squaring lift between levels,
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

Conventions: a term is keyed by its exponent tuple, (k,) in one variable,
where dense coefficient lists run by degree with the constant at index 0;
constant terms are global phases and are reduced mod 1 and dropped by the
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod
from typing import Iterable, Mapping

from . import NumericFailure

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
    """Polynomial in `n_vars` variables with exact Fraction coefficients.

    Sparse and never changed after construction: `terms` maps each exponent
    tuple to its nonzero coefficient.  `RationalPolynomial([c0, c1, ...])` is
    c0 + c1·x + ... in one variable, and `coeffs` and `coeff(k)` read such a
    polynomial densely.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, coefficients: Iterable = ()):
        self.n_vars = 1
        self.terms = {(k,): c for k, c in enumerate(map(_as_fraction, coefficients)) if c}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_terms(cls, n_vars: int, terms: Mapping[Exponent, object]) -> "RationalPolynomial":
        """sum_e c_e x^e over exponent tuples e of length n_vars, each checked."""
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        out: dict[Exponent, Fraction] = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for n_vars={n_vars}")
            out[exp] = out.get(exp, 0) + _as_fraction(c)
        poly = cls()
        poly.n_vars, poly.terms = n_vars, {e: c for e, c in out.items() if c}
        return poly

    # -- queries ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def coeff(self, k: int) -> Fraction:
        """The coefficient of x^k in one variable."""
        if self.n_vars != 1:
            raise ValueError(f"coeff reads a polynomial in one variable, not {self.n_vars}")
        return self.terms.get((k,), Fraction(0))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in one variable by degree, the constant first."""
        return tuple(self.coeff(k) for k in range(self.degree + 1))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self.from_terms(self.n_vars, out)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + -1 * other

    def __mul__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            c = _as_fraction(other)
            return self.from_terms(self.n_vars, {e: c * a for e, a in self.terms.items()})
        out: dict[Exponent, Fraction] = {}
        for e, a in self.terms.items():
            for f, b in other.terms.items():
                g = tuple(i + j for i, j in zip(e, f, strict=True))  # refuses other n_vars
                out[g] = out.get(g, 0) + a * b
        return self.from_terms(self.n_vars, out)

    __rmul__ = __mul__

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalPolynomial) and self.n_vars == other.n_vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"

    def __str__(self) -> str:
        """Highest total degree first: "x^3/12 + x^2/8 - x/12", "-x1^2*x2/4 - x1*x2/4"."""
        names = ["x"] if self.n_vars == 1 else [f"x{i}" for i in range(1, self.n_vars + 1)]
        out = ""
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            xs = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)
            num, den = abs(c.numerator), c.denominator
            term = (str(abs(c)) if not xs else
                    f"{num if num != 1 else ''}{xs}{f'/{den}' if den != 1 else ''}")
            out += ("-" if c < 0 else "") + term if not out else f" {'-' if c < 0 else '+'} {term}"
        return out or "0"


@dataclass(frozen=True)
class BranchStep:
    """One reduction step: n·L_{e1}(x1)···L_{eN}(xN) subtracted at the monomial
    with exponents e; the constant's step carries its dropped integer part."""

    monomial: Exponent
    multiplier: int
    boundary: bool


@dataclass(frozen=True)
class ReductionOutcome:
    """The lexicographically minimal survivors of a reduction and the first one's steps."""

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


def lift_representation(poly: RationalPolynomial, m: int) -> RationalPolynomial:
    """Square a level-m representation into a level-(m+1) starting point.

    Returns 2^(m-1) * P(x)^2, which picks up half the phase of P on odd
    integers.  P must implement the level-m gate, which `verify_gate` checks
    exactly at any degree, and its lift may not pass 2^m, the level-(m+1)
    power start's degree, which every minimum's lift meets (a minimum at level
    m has degree <= 2^(m-1)).  A P that fails either is refused with ValueError.
    """
    if not verify_gate(poly, m):
        raise ValueError(
            f"lift_representation: polynomial does not implement the level-{m} gate"
        )
    if 2 * poly.degree > 2**m:
        raise ValueError(f"lift_representation: the degree-{poly.degree} input lifts to degree "
                         f"{2 * poly.degree}, above the level-{m + 1} power start's {2**m}")
    return Fraction(2 ** (m - 1)) * (poly * poly)


def control_gate_start(n_qubits: int, m: int) -> RationalPolynomial:
    """Power start (x1···xN)^(2^(m-1)) / 2^m of C^{N-1}Λ_m; N = 1 is Λ_m's."""
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValueError(f"control_gate_start requires N >= 1, got {n_qubits!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"control_gate_start requires m >= 1, got {m!r}")
    e = 2 ** (m - 1)
    return RationalPolynomial.from_terms(n_qubits, {(e,) * n_qubits: Fraction(1, 2**m)})


def verify_gate(poly: RationalPolynomial, m: int) -> bool:
    """Check the phase action of C^{N-1}Λ_m, N = `poly.n_vars` (Λ_m for N = 1):
    P(x) ≡ 2^-m mod 1 when every x_i is odd, 0 otherwise.

    Exact at every degree on the box x_i = 0 .. 2d_i + 1, d_i the degree of P
    in x_i.  For a parity class r in {0,1}^N with target t_r,
    Q(j) = P(2j + r) - t_r has degree <= d_i in j_i, and such a polynomial is
    integer-valued on Z^N once it is on d_i + 1 consecutive j_i per variable:
    its Newton expansion in the binomials C(j_1, k_1)···C(j_N, k_N),
    k_i <= d_i, has the box's finite differences, integers, as coefficients.
    The 2(d_i + 1) consecutive x_i hold d_i + 1 consecutive j_i of each
    parity.

    It runs in integers, D·(P(x) - t) mod D with D the common denominator,
    grouping D·P by the exponents of x_1..x_{N-1} and Horner's rule in x_N.
    """
    den = lcm(2**m, *(c.denominator for c in poly.terms.values()))
    degrees = [max((e[i] for e in poly.terms), default=0) for i in range(poly.n_vars)]
    rows: dict[Exponent, list[int]] = {}
    for e, c in poly.terms.items():
        rows.setdefault(e[:-1], [0] * (degrees[-1] + 1))[e[-1]] = c.numerator * (den // c.denominator)
    for xs in product(*(range(2 * d + 2) for d in degrees)):
        value = -(den >> m) if all(x % 2 for x in xs) else 0
        for head, row in rows.items():
            horner = 0
            for n in reversed(row):
                horner = horner * xs[-1] + n
            value += horner * prod(x**k for x, k in zip(xs, head))
        if value % den:
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


def _reduce(poly: RationalPolynomial) -> list[tuple[RationalPolynomial, tuple[BranchStep, ...]]]:
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

    Returns each minimum with its own steps, the constant's last, in fork order.
    """
    terms, zero = poly.terms, (0,) * poly.n_vars
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
            raise NumericFailure(f"reduction branch explosion: {len(branches)} active branches")

    minima = []
    for cur, log in branches:
        n0 = cur[-1] // denom
        minimum = {f: Fraction(c, denom) for f, c in zip(monos[:-1], cur) if c}
        minima.append((RationalPolynomial.from_terms(poly.n_vars, minimum),
                       log + ((BranchStep(zero, n0, False),) if n0 else ())))
    return minima


def reduce(poly: RationalPolynomial) -> ReductionOutcome:
    """The lexicographically minimal gate polynomials of one variable (`_reduce`),
    positive leading coefficient first, with its steps; a constant reduces to 0."""
    if poly.degree <= 0:
        return ReductionOutcome((RationalPolynomial(),), ())
    minima = sorted(_reduce(poly), key=lambda pair: (pair[0].coeff(pair[0].degree) < 0,
                                                     pair[0].coeffs))
    return ReductionOutcome(tuple(p for p, _ in minima), minima[0][1])


def multivariate_reduce(poly: RationalPolynomial) -> ReductionOutcome:
    """The lexicographically minimal polynomials of N variables (`_reduce`),
    in fork order (the smaller |n| at each tie first), with the first one's steps."""
    minima = _reduce(poly)
    return ReductionOutcome(tuple(p for p, _ in minima), minima[0][1])

"""Exact integer power series and polynomials, and rank extraction.

This is the one place their arithmetic lives: TruncatedSeries and
IntPolynomial share one product, repeated squaring, unit division,
coefficient sum and term printer, all in integers, with no floating point.
Series carry their truncation order; mixing orders is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul

from .errors import IntegralityError

__all__ = [
    "TruncatedSeries",
    "IntPolynomial",
    "one",
    "linear_factor",
    "expand_product",
    "expand_lcs_product",
    "phi_from_exponents",
    "ranks_from_power_sums",
    "moebius",
]


def _product(a, b, n: int) -> list:
    """The first n coefficients of a * b, skipping zero terms of either."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                if y:
                    out[j] += x * y
    return out


def _power(a, k: int, n: int) -> list:
    """The first n coefficients of a ** k, k >= 0, by repeated squaring."""
    result = [1] + [0] * (n - 1)
    while k:
        if k & 1:
            result = _product(result, a, n)
        k >>= 1
        if k:
            a = _product(a, a, n)
    return result


def _quotient(p, s) -> list:
    """p / s to len(p) coefficients, in one exact pass, for s_0 = 1 or -1.

    q_k = s_0 (p_k - sum_{i >= 1} s_i q_(k-i)); s has at least len(p) terms.
    """
    s0, rest = s[0], s[1:]
    q: list = []
    for x in p:
        q.append(s0 * (x - sum(map(mul, rest, reversed(q)))))
    return q


def _sum(a, b, sign: int) -> list:
    """a + sign * b coefficient-wise, the shorter one padded with zeros."""
    return [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]


def _terms(pairs) -> str:
    """Print (exponent, coefficient) pairs in the order given, zeros skipped."""
    text = ""
    for i, c in pairs:
        if c == 0:
            continue
        mono = str(abs(c))
        if i:
            mag = "" if abs(c) == 1 else mono + "*"
            mono = mag + ("t" if i == 1 else f"t^{i}")
        if text:
            text += (" - " if c < 0 else " + ") + mono
        else:
            text = ("-" if c < 0 else "") + mono
    return text or "0"


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series modulo t^(order+1).

    coeffs has length order + 1, constant term first; any sequence is
    stored as a tuple.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(self.order, _sum(self.coeffs, other.coeffs, 1))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(self.order, _sum(self.coeffs, other.coeffs, -1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, _product(self.coeffs, other.coeffs, self.order + 1)
        )

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            return self.reciprocal() ** (-k)
        return TruncatedSeries(self.order, _power(self.coeffs, k, self.order + 1))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"series is not a unit over Z (constant term {c0})")
        unit = (1,) + (0,) * self.order
        return TruncatedSeries(self.order, _quotient(unit, self.coeffs))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __str__(self):
        return f"{_terms(enumerate(self.coeffs))} + O(t^{self.order + 1})"


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, constant term first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_sum(self.coeffs, other.coeffs, 1))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_sum(self.coeffs, other.coeffs, -1))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        return IntPolynomial(_product(a, b, len(a) + len(b) - 1))

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        # a ** k has degree k * deg(a), and no coefficient above it is needed
        return IntPolynomial(_power(self.coeffs, k, k * max(self.degree, 0) + 1))

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def substitute_negated(self) -> "IntPolynomial":
        """The polynomial p(-t)."""
        return IntPolynomial(
            tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        )

    def as_series(self, order: int) -> TruncatedSeries:
        coeffs = [self.coefficient(i) for i in range(order + 1)]
        return TruncatedSeries(order, tuple(coeffs))

    def __str__(self):
        return _terms(reversed(list(enumerate(self.coeffs))))


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (1,) + (0,) * order)


def linear_factor(j: int, order: int) -> TruncatedSeries:
    """The polynomial 1 - j*t as a truncated series."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    if order >= 1:
        coeffs[1] = -j
    return TruncatedSeries(order, tuple(coeffs))


def _times_binomial(coeffs: list, x: int, p: int, k: int):
    """Multiply coeffs in place by (1 - x*t^k)^p, truncated to their length.

    The factor is the binomial series sum_j C(p, j) (-x)^j t^(kj), exact for
    any integer p: each term is the one before times (p - j + 1) * (-x),
    divided by j, and that division has no remainder.
    """
    order = len(coeffs) - 1
    terms = []  # C(p, j) (-x)^j, the coefficient of t^(kj), for j >= 1
    c = 1
    for j in range(1, order // k + 1):
        c = c * (p - j + 1) * -x // j
        if c == 0:
            break
        terms.append(c)
    # descending, so coeffs[i - k], coeffs[i - 2k], ... still hold the
    # previous product
    for i in range(order, k - 1, -1):
        coeffs[i] += sum(map(mul, terms, coeffs[i - k :: -k]))


def expand_product(exponents, order: int) -> TruncatedSeries:
    """Expand prod_j (1 - j*t)^(e_j) to the given order.

    exponents[j-1] is the (possibly negative) exponent of (1 - j*t).  Each
    factor is multiplied in as its binomial series, so no factor is raised
    to a power and no reciprocal is taken.
    """
    coeffs = [1] + [0] * order
    for j, e in enumerate(exponents, start=1):
        if e:
            _times_binomial(coeffs, j, e, 1)
    return TruncatedSeries(order, tuple(coeffs))


def expand_lcs_product(phi, order: int) -> TruncatedSeries:
    """Expand prod_k (1 - t^k)^(phi_k) to the given order.

    Requires order <= len(phi): factors beyond the supplied ranks would
    change coefficients at or below the truncation order.  Each factor is
    multiplied in as its binomial series, exact for any integer phi_k.
    """
    if order > len(phi):
        raise ValueError(
            f"order {order} needs {order} ranks, got {len(phi)}"
        )
    coeffs = [1] + [0] * order
    for k, p in enumerate(phi[:order], start=1):
        if p:
            _times_binomial(coeffs, 1, p, k)
    return TruncatedSeries(order, tuple(coeffs))


def moebius(n: int) -> int:
    """Mobius function by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def ranks_from_power_sums(psums) -> tuple[int, ...]:
    """Invert p_n = sum_{d|n} d*r_d for integer ranks r.

    psums[n-1] is the n-th power sum.  Raises IntegralityError when the
    Mobius-inverted value is not divisible by n, which no sequence of the
    form p_n = sum_j e_j * j^n with integer e can trigger.
    """
    n_max = len(psums)
    ranks = []
    for n in range(1, n_max + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0:
                acc += moebius(n // d) * psums[d - 1]
        if acc % n:
            raise IntegralityError(n, acc % n)
        ranks.append(acc // n)
    return tuple(ranks)


def phi_from_exponents(exponents, up_to: int) -> tuple[int, ...]:
    """Ranks phi_1..phi_up_to with prod_k (1-t^k)^(phi_k) = prod_j (1-j*t)^(e_j).

    Taking logs turns the identity into power sums p_n = sum_j e_j * j^n
    with sum_{d|n} d*phi_d = p_n, solved by Mobius inversion.
    """
    psums = [
        sum(e * j**n for j, e in enumerate(exponents, start=1))
        for n in range(1, up_to + 1)
    ]
    return ranks_from_power_sums(psums)

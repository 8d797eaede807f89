"""Exact truncated integer power series and rank extraction.

Everything here is integer arithmetic; there is no floating point in the
package.  Series are immutable and carry their truncation order; mixing
orders in arithmetic is an error rather than a silent re-truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import IntegralityError

__all__ = [
    "TruncatedSeries",
    "one",
    "linear_factor",
    "expand_product",
    "expand_lcs_product",
    "phi_from_exponents",
    "ranks_from_power_sums",
    "moebius",
]


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
        return TruncatedSeries(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, tuple(out))

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            return self.reciprocal() ** (-k)
        result = one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"series is not a unit over Z (constant term {c0})")
        n = self.order
        inv = [c0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                acc += self.coeffs[i] * inv[k - i]
            inv[k] = -c0 * acc
        return TruncatedSeries(n, tuple(inv))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                t = "t" if i == 1 else f"t^{i}"
                terms.append(("-" if c < 0 else "+") + f" {mag}{t}"
                             if terms else ("-" if c < 0 else "") + f"{mag}{t}")
        body = " ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.order + 1})"


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

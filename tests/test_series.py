"""Truncated series arithmetic and rank extraction."""

import random

import pytest

import reference
from glcs import (
    IntPolynomial,
    IntegralityError,
    TruncatedSeries,
    expand_lcs_product,
    expand_product,
    moebius,
    phi_from_exponents,
    ranks_from_power_sums,
)
from glcs.series import linear_factor, one


def test_construction_validates():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())


def test_coefficients_stored_as_tuple():
    s = TruncatedSeries(1, [1, 0])
    assert s.coeffs == (1, 0)
    assert s == one(1)
    assert hash(s) == hash(one(1))


def test_arithmetic_basics():
    a = TruncatedSeries(3, (1, 2, 3, 4))
    b = TruncatedSeries(3, (1, -1, 0, 2))
    assert (a + b).coeffs == (2, 1, 3, 6)
    assert (a - b).coeffs == (0, 3, 3, 2)
    assert (a * b).coeffs == (1, 1, 1, 3)
    assert (a * b) == (b * a)


def test_order_mismatch_rejected():
    a = one(3)
    b = one(4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()


def test_reciprocal():
    f = linear_factor(1, 6)  # 1 - t
    inv = f.reciprocal()
    assert inv.coeffs == (1, 1, 1, 1, 1, 1, 1)  # geometric series
    assert (f * inv) == one(6)
    g = TruncatedSeries(4, (-1, 3, -2, 1, 0))
    assert (g * g.reciprocal()) == one(4)


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (2, 0, 0)).reciprocal()
    with pytest.raises(ValueError):
        TruncatedSeries(2, (0, 1, 0)).reciprocal()


def test_power():
    f = linear_factor(2, 5)
    assert (f ** 0) == one(5)
    assert (f ** 3).coeffs == (1, -6, 12, -8, 0, 0)
    assert (f ** -2) == (f.reciprocal() ** 2)
    assert ((f ** -2) * (f ** 2)) == one(5)


def test_truncate():
    f = TruncatedSeries(4, (1, 2, 3, 4, 5))
    assert f.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        f.truncate(9)


def test_expand_product_braid():
    # (1-t)(1-2t)(1-3t) for the complete graph on four vertices
    u = expand_product((1, 1, 1), 4)
    assert u.coeffs == (1, -6, 11, -6, 0)


def test_expand_product_example():
    # (1-2t)^4 (1-3t)
    u = expand_product((0, 4, 1), 5)
    assert u.coeffs == (1, -11, 48, -104, 112, -48)


def test_expand_product_negative_exponents():
    # octahedron: (1-t)^(-4) (1-2t)^8
    u = expand_product((-4, 8), 2)
    assert u.coeffs == (1, -12, 58)


def test_expand_product_matches_reference():
    # seeded exponent vectors in -40..40, a third of the entries zero, at
    # every order 0..30
    rng = random.Random(19)
    for order in range(31):
        vectors = [(), (0,), (0, 0, 3), (-40,), (40,), (0, -40, 0, 40)]
        for _ in range(6):
            vectors.append(tuple(
                0 if rng.random() < 0.33 else rng.randint(-40, 40)
                for _ in range(rng.randint(1, 6))
            ))
        for e in vectors:
            want = reference.expand_product(e, order)
            assert expand_product(e, order) == want, (e, order)


def test_expand_lcs_product():
    u = expand_lcs_product((3, 1, 2, 3, 6), 5)
    assert u.coeffs == expand_product((1, 1), 5).coeffs


def test_expand_lcs_product_needs_enough_ranks():
    with pytest.raises(ValueError):
        expand_lcs_product((3, 1), 5)


def test_expand_lcs_product_negative_ranks():
    # formal inverse: (1-t)^(-1) expanded through the same route
    u = expand_lcs_product((-1, 0, 0), 3)
    assert u.coeffs == (1, 1, 1, 1)


def test_moebius_small_values():
    values = [moebius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        moebius(0)


def test_phi_triangle():
    assert phi_from_exponents((1, 1), 5) == (3, 1, 2, 3, 6)


def test_phi_k4():
    assert phi_from_exponents((1, 1, 1), 4) == (6, 4, 10, 21)


def test_phi_example():
    assert phi_from_exponents((0, 4, 1), 4) == (11, 7, 16, 30)


def test_phi_triangle_free():
    # a single exponent e_1 = m gives the free-ish pattern (m, 0, 0, ...)
    assert phi_from_exponents((7,), 5) == (7, 0, 0, 0, 0)


def test_phi_empty():
    assert phi_from_exponents((), 3) == (0, 0, 0)


def test_phi_round_trip_with_negatives():
    for e in [(-4, 8), (2, -1, 3), (0, 0, 5)]:
        phi = phi_from_exponents(e, 10)
        assert expand_lcs_product(phi, 10) == expand_product(e, 10)


def test_ranks_from_power_sums_integrality_error():
    # p = (1, 0): degree 2 requires (p_2 - p_1) divisible by 2
    with pytest.raises(IntegralityError) as exc:
        ranks_from_power_sums((1, 0))
    assert exc.value.degree == 2
    assert exc.value.remainder == 1


def test_ranks_from_power_sums_inverts():
    # p_n = sum_{d|n} d * r_d for r = (2, 3, 1, 0)
    r = (2, 3, 1, 0)
    p = []
    for n in range(1, 5):
        p.append(sum(d * r[d - 1] for d in range(1, n + 1) if n % d == 0))
    assert ranks_from_power_sums(tuple(p)) == r


def test_series_str():
    assert str(expand_product((1, 1), 3)) == "1 - 3*t + 2*t^2 + O(t^4)"
    assert str(one(2)) == "1 + O(t^3)"


def _random_coeffs(rng, length):
    return tuple(
        0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(length)
    )


def test_polynomial_operators_match_reference():
    # seeded coefficient tuples of 0..order+1 entries, trailing zeros
    # included, at every order 0..20, against the earlier operator bodies
    rng = random.Random(2020)
    for order in range(21):
        for _ in range(4):
            a = _random_coeffs(rng, rng.randint(0, order + 1))
            b = _random_coeffs(rng, rng.randint(0, order + 1))
            p, q = IntPolynomial(a), IntPolynomial(b)
            assert (p + q).coeffs == reference.poly_add(a, b), (a, b)
            assert (p - q).coeffs == reference.poly_sub(a, b), (a, b)
            assert (p * q).coeffs == reference.poly_mul(a, b), (a, b)
            assert str(p) == reference.poly_str(a), a
            for k in range(6):
                assert (p ** k).coeffs == reference.poly_pow(a, k), (a, k)


def test_polynomial_edge_cases():
    zero, t = IntPolynomial(()), IntPolynomial((0, 1))
    assert (zero + zero).coeffs == ()
    assert (zero - t).coeffs == (0, -1)
    assert (zero * t).coeffs == ()
    assert (t * zero).coeffs == ()
    assert (zero ** 0).coeffs == (1,)
    assert (t ** 0).coeffs == (1,)
    assert (zero ** 1).coeffs == ()
    assert (zero ** 4).coeffs == ()
    assert str(zero) == "0"
    assert str(IntPolynomial((-1, 0, -2, -1))) == "-t^3 - 2*t^2 - 1"
    assert str(IntPolynomial((5,))) == "5"
    for p in (zero, t, IntPolynomial((1, 1))):
        with pytest.raises(ValueError):
            p ** -1


def test_series_operators_match_reference():
    # seeded series at every order 0..20; the units take constant term 1
    # and -1, and powers run over -4..4
    rng = random.Random(2021)
    for order in range(21):
        for _ in range(4):
            a = _random_coeffs(rng, order + 1)
            b = _random_coeffs(rng, order + 1)
            f, g = TruncatedSeries(order, a), TruncatedSeries(order, b)
            assert (f + g).coeffs == reference.series_add(a, b), (a, b)
            assert (f - g).coeffs == reference.series_sub(a, b), (a, b)
            assert (f * g).coeffs == reference.series_mul(a, b), (a, b)
            assert str(f) == reference.series_str(a), a
            for k in range(5):
                assert (f ** k).coeffs == reference.series_pow(a, k), (a, k)
            for c0 in (1, -1):
                unit = (c0,) + a[1:]
                u = TruncatedSeries(order, unit)
                want = reference.series_reciprocal(unit)
                assert u.reciprocal().coeffs == want, unit
                for k in range(-4, 5):
                    want = reference.series_pow(unit, k)
                    assert (u ** k).coeffs == want, (unit, k)
            for c0 in (0, 2):
                s = TruncatedSeries(order, (c0,) + a[1:])
                with pytest.raises(ValueError):
                    s.reciprocal()
                with pytest.raises(ValueError):
                    s ** -1


def test_series_str_cases():
    cases = {
        (0, 0, 0): "0 + O(t^3)",
        (-3, 0, 0, 0): "-3 + O(t^4)",
        (7,): "7 + O(t^1)",
        (0, -1, 2): "-t + 2*t^2 + O(t^3)",
        (0, 0, -4, 1): "-4*t^2 + t^3 + O(t^4)",
        (-1, -1, 1, -12): "-1 - t + t^2 - 12*t^3 + O(t^4)",
    }
    for coeffs, text in cases.items():
        s = TruncatedSeries(len(coeffs) - 1, coeffs)
        assert str(s) == text == reference.series_str(coeffs)

"""Field arithmetic in Q(i): canonical form, axioms, conjugation, powers,
hashing consistent with equality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcube.scalar import GaussRat, I, ONE, ZERO, as_gauss

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
gauss = st.builds(GaussRat, rationals, rationals)
gauss_nonzero = gauss.filter(lambda g: not g.is_zero())


def test_product_of_conjugate_units():
    assert GaussRat(1, 1) * GaussRat(1, -1) == GaussRat(2)


def test_i_squared():
    assert I * I == GaussRat(-1)


def test_half_square_of_one_plus_i_is_i():
    assert (GaussRat(1, 1) ** 2) / 2 == I


def test_conj_examples():
    assert GaussRat(Fraction(3, 2), 5).conj() == GaussRat(Fraction(3, 2), -5)
    assert GaussRat(1, -1).conj() * GaussRat(1, -1) == GaussRat(2)


def test_int_power_examples():
    assert GaussRat(1, 1) ** 4 == GaussRat(-4)
    assert I ** -1 == -I
    assert (GaussRat(1, -1) ** 2) * (GaussRat(1, 1) ** 2) == GaussRat(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_float_rejected():
    with pytest.raises(TypeError):
        GaussRat(0.5)
    with pytest.raises(TypeError):
        as_gauss(1.0)


def test_canonical_form_via_fraction():
    g = GaussRat(Fraction(2, 4), Fraction(-6, 9))
    assert g.re == Fraction(1, 2) and g.im == Fraction(-2, 3)
    assert g.re.denominator > 0 and g.im.denominator > 0


def test_a_real_value_hashes_as_the_number_it_equals():
    assert len({GaussRat(1), 1}) == 1
    assert hash(GaussRat(Fraction(1, 2))) == hash(Fraction(1, 2))


@given(rationals, rationals)
def test_equal_values_have_equal_hashes(re, im):
    x = GaussRat(re, im)
    real = GaussRat(re)
    equal = [(x, GaussRat(re, im)), (x, x * I / I), (real, re),
             (real, GaussRat(re, 0)), (real, x - GaussRat(0, im))]
    if re.denominator == 1:
        equal.append((real, re.numerator))
    for a, b in equal:
        assert a == b and hash(a) == hash(b)


@given(gauss, gauss, gauss)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gauss_nonzero)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@given(gauss, gauss)
def test_conj_is_ring_automorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(gauss)
def test_conj_involution(a):
    assert a.conj().conj() == a


@given(gauss_nonzero)
def test_norm_real_positive(a):
    n = a * a.conj()
    assert n.is_real()
    assert n.re > 0
    assert n.re == a.abs_sq()


@settings(max_examples=40)
@given(gauss_nonzero, st.integers(min_value=-6, max_value=6))
def test_int_power_matches_repeated_multiplication(a, n):
    expect = ONE
    base = a if n >= 0 else ONE / a
    for _ in range(abs(n)):
        expect = expect * base
    assert a ** n == expect


@given(gauss, gauss)
def test_hash_consistent_with_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)

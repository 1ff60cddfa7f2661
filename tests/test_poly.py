from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ainfkit.poly import (
    Poly,
    matrix_rank_fraction_field,
    rational_matrix_rank,
    smith_normal_form,
)
from test_sparse_linalg import sparse_matrix

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(coeffs, max_size=4).map(Poly)


def test_normalization_and_queries():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree() == 1
    assert Poly().degree() == -1
    assert Poly.monomial(3, 2).is_monomial()
    assert not Poly([1, 0, 3]).is_monomial()
    with pytest.raises(ValueError):
        Poly().lead()


def test_truth_value_is_nonzero():
    assert bool(Poly.ZERO) is False
    assert bool(Poly([0, 0])) is False
    assert bool(Poly.ONE) is True
    assert bool(Poly.T) is True


def test_evaluation():
    p = Poly([1, 0, 2])  # 1 + 2 t^2
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    # composition with another polynomial
    assert p(Poly.T + Poly.ONE) == Poly([3, 4, 2])


def test_divmod_and_exact_div():
    a = Poly([-1, 0, 1])  # t^2 - 1
    b = Poly([1, 1])      # t + 1
    q, r = divmod(a, b)
    assert r.is_zero() and q == Poly([-1, 1])
    assert a.exact_div(b) == q
    with pytest.raises(ValueError):
        (a + Poly.ONE).exact_div(b)
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.ZERO)


def test_calculus():
    p = Poly([0, 0, 3])  # 3 t^2
    assert p.derivative() == Poly([0, 6])
    assert p.antiderivative() == Poly([0, 0, 0, 1])
    # integral over [tau, 1] of 3 t^2 is 1 - tau^3
    assert p.integral_from_to_one() == Poly([1, 0, 0, -1])


@given(polys, polys)
def test_divmod_identity(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()


@given(polys)
def test_fundamental_theorem(p):
    assert p.antiderivative().derivative() == p


def _to_sympy(rows):
    q = sympy.Symbol("q")
    return sympy.Matrix([
        [sympy.Poly(list(reversed([sympy.Rational(c) for c in e.coeffs])) or [0],
                    q).as_expr() for e in row]
        for row in rows
    ])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(polys, min_size=3, max_size=3), min_size=3, max_size=3))
def test_poly_rank_matches_sympy(rows):
    ours = matrix_rank_fraction_field(sparse_matrix(rows))
    assert ours == _to_sympy(rows).rank()


@given(st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rational_rank_matches_sympy(rows):
    assert rational_matrix_rank(sparse_matrix(rows)) == \
        sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def test_smith_normal_form_divisibility():
    q = Poly.T
    rows = [[q * q, Poly.ZERO, Poly.ZERO],
            [Poly.ZERO, q, Poly.ZERO],
            [Poly.ZERO, Poly.ZERO, Poly.ONE]]
    factors = smith_normal_form(sparse_matrix(rows))
    assert [f.coeffs for f in factors] == [(1,), (0, 1), (0, 0, 1)]
    for a, b in zip(factors, factors[1:]):
        assert (b % a).is_zero()


def test_smith_normal_form_coupling():
    # a matrix whose invariant factors need actual row/column reduction
    q = Poly.T
    rows = [[q, q], [q, q * q]]
    factors = smith_normal_form(sparse_matrix(rows))
    # det = q^3 - q^2, gcd of entries = q, so factors are q and q(q - 1)
    assert [f.coeffs for f in factors] == [(0, 1), (0, -1, 1)]
    assert sum(f.degree() for f in factors) == 3


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(polys, min_size=2, max_size=2), min_size=2, max_size=2))
def test_snf_rank_consistency(rows):
    factors = smith_normal_form(sparse_matrix(rows))
    assert len(factors) == matrix_rank_fraction_field(sparse_matrix(rows))
    for a, b in zip(factors, factors[1:]):
        assert (b % a).is_zero()

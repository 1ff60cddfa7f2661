import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfkit.torus import (
    QI,
    TorusForm,
    TorusMap,
    appendix_suite,
    fiber_integrate,
    fiber_pushforward,
    form_d,
    form_wedge,
    projection_orientation_sign,
    pullback,
    random_form,
    total_integral,
)


def test_qi_arithmetic():
    a = QI(1, 2)
    b = QI(Fraction(1, 2), -1)
    assert a * b == QI(Fraction(5, 2), 0)
    assert (a - a).is_zero()
    assert QI.from_json(a.to_json()) == a


def test_wedge_antisymmetry_and_square():
    dx1 = TorusForm.dx(2, 1)
    dx2 = TorusForm.dx(2, 2)
    assert form_wedge(dx1, dx2) == -form_wedge(dx2, dx1)
    assert form_wedge(dx1, dx1).is_zero()


def _rand_forms(seed, dim, count, degree=None):
    rng = random.Random(seed)
    return [random_form(rng, dim, degree=degree) for _ in range(count)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_d_squared_zero(seed, dim):
    (alpha,) = _rand_forms(seed, dim, 1)
    assert form_d(form_d(alpha)).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 2))
def test_leibniz(seed, dim, deg):
    alpha, beta = _rand_forms(seed, dim, 2, degree=min(deg, dim))
    k = alpha.degree() if not alpha.is_zero() else 0
    lhs = form_d(form_wedge(alpha, beta))
    rhs = form_wedge(form_d(alpha), beta) + form_wedge(alpha, form_d(beta)
                                                       ).scale((-1) ** k)
    assert lhs == rhs


def test_pullback_is_a_dga_map():
    rng = random.Random(5)
    phi = TorusMap.linear(3, [[1, 0, 2], [0, 1, -1]])
    a = random_form(rng, 2, degree=1)
    b = random_form(rng, 2, degree=1)
    assert pullback(phi, form_wedge(a, b)) == \
        form_wedge(pullback(phi, a), pullback(phi, b))
    assert pullback(phi, form_d(a)) == form_d(pullback(phi, a))


def test_adjunction_small():
    # integral over the total space of alpha ^ pi* beta equals the base
    # integral of (pi_* alpha) ^ beta
    rng = random.Random(11)
    pi = TorusMap.projection(3, (1,))
    for _ in range(10):
        alpha = random_form(rng, 3)
        beta = random_form(rng, 1)
        lhs = total_integral(form_wedge(alpha, pullback(pi, beta)))
        rhs = total_integral(form_wedge(fiber_pushforward(pi, alpha), beta))
        assert lhs == rhs


def test_fiber_integrate_degree_drop():
    pi = TorusMap.projection(2, (1,))
    vol = form_wedge(TorusForm.dx(2, 1), TorusForm.dx(2, 2))
    out = fiber_integrate(pi, vol)
    assert out.degree() == 1


def test_appendix_suite_deterministic():
    r1 = appendix_suite(3, 10)
    r2 = appendix_suite(3, 10)
    assert r1 == r2
    assert r1["status"] == "PASS"
    assert len(r1["groups"]) == 8
    assert all(g["failures"] == [] or g["failures"] == 0 or not g["failures"]
               for g in r1["groups"])


def inversion_orientation_sign(pi):
    """`projection_orientation_sign` before it read `signs.merge_wedge`: the
    parity of the inversions of (fiber coords, base coords)."""
    fiber = list(pi.fiber_coords())
    base = list(pi.proj_coords)
    order = fiber + base
    inversions = sum(
        1 for a in range(len(order)) for b in range(a + 1, len(order))
        if order[a] > order[b]
    )
    return -1 if inversions % 2 else 1


def test_orientation_sign_matches_the_inversion_count():
    for m in range(1, 6):
        for r in range(m + 1):
            for coords in itertools.combinations(range(1, m + 1), r):
                pi = TorusMap.projection(m, coords)
                assert projection_orientation_sign(pi) == \
                    inversion_orientation_sign(pi)

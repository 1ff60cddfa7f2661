from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ainfkit.scalars import (
    BETA_ZERO,
    EnergyMonoid,
    NovikovElement,
    frac,
    frac_str,
    monoid_sum,
)

energies = st.fractions(min_value=0, max_value=4, max_denominator=6)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
novikovs = st.lists(st.tuples(energies, coeffs), max_size=5).map(NovikovElement)


def test_frac_roundtrip():
    assert frac("3/4") == Fraction(3, 4)
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(5)) == "5"
    with pytest.raises(TypeError):
        frac(0.5)


def test_novikov_merges_and_sorts():
    x = NovikovElement([(1, 2), (Fraction(1, 2), 3), (1, -2)])
    assert x.terms == ((Fraction(1, 2), Fraction(3)),)
    assert x.valuation() == Fraction(1, 2)
    assert x.coefficient(1) == 0


def test_truncation_drops_boundary():
    x = NovikovElement([(0, 1), (1, 5)], truncation=1)
    assert x.terms == ((Fraction(0), Fraction(1)),)
    with pytest.raises(ValueError):
        NovikovElement([(0, 1)], truncation=0)
    with pytest.raises(ValueError):
        NovikovElement([(-1, 1)])


def test_mixed_truncation_rejected():
    x = NovikovElement.scalar(1, truncation=1)
    y = NovikovElement.scalar(1)
    with pytest.raises(ValueError):
        x + y


def test_retruncate():
    x = NovikovElement([(0, 3), (Fraction(3, 2), 1)], truncation=2)
    assert x.retruncate(1).terms == ((Fraction(0), Fraction(3)),)
    assert x.retruncate(None).truncation is None


@given(novikovs, novikovs, novikovs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + NovikovElement.zero() == a
    assert a * NovikovElement.scalar(1) == a
    assert (a + -a).is_zero()


@given(novikovs, novikovs)
def test_multiplication_valuations_add(a, b):
    p = a * b
    if a.is_zero() or b.is_zero():
        assert p.is_zero()
    elif not p.is_zero():
        # cancellation can only raise the valuation
        assert p.valuation() >= a.valuation() + b.valuation()


def test_monoid_discreteness_rules():
    with pytest.raises(ValueError):
        EnergyMonoid([(0, 2)])
    with pytest.raises(ValueError):
        EnergyMonoid([(1, 1)])
    with pytest.raises(ValueError):
        EnergyMonoid([(-1, 0)])
    assert EnergyMonoid([(0, 0)]).generators == ()


def test_monoid_enumerate():
    g = EnergyMonoid([(1, 0), (Fraction(1, 2), 2)])
    out = g.enumerate(1)
    assert BETA_ZERO in out
    assert (Fraction(1, 2), 2) in out
    assert (Fraction(1), 4) in out
    assert (Fraction(1), 0) in out
    assert all(e <= 1 for e, _ in out)
    assert out == sorted(out)


def test_monoid_contains_and_sum():
    g1 = EnergyMonoid([(1, 0)])
    g2 = EnergyMonoid([(Fraction(1, 2), 2)])
    s = monoid_sum(g1, g2)
    assert (Fraction(3, 2), 2) in s
    assert (Fraction(3, 2), 2) not in g1
    assert (Fraction(1, 3), 0) not in s


def test_json_roundtrip():
    x = NovikovElement([(Fraction(1, 2), Fraction(-3, 7))])
    assert NovikovElement.from_json(x.to_json()) == x
    g = EnergyMonoid([(1, 0), (Fraction(1, 2), -2)])
    assert EnergyMonoid.from_json(g.to_json()) == g


# -- the regex-free parser against the Fraction(str) parser it replaced ---------------

def oracle_frac(x) -> Fraction:
    """`frac` as it was before "p" and "p/q" were read with int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def outcome(parse, text):
    """(value, None) or (None, (exception type, message))."""
    try:
        value = parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return None, (type(exc), str(exc))
    assert type(value) is Fraction
    return value, None


PARSER_CASES = ["0", "-0", "+3", " 1/2 ", "3/-4", "1/0", "0/0", "1.5", "1e3",
                "007", "1/007", "", "abc", "1_000", "-12/18", "5", "-7/1",
                "1 / 2", "/2", "2/", "-", "--1", "1/2/3", "١/2", "²",
                "1/٢", "-1/-2", "12345678901234567890/3"]


@pytest.mark.parametrize("text", PARSER_CASES)
def test_frac_parses_like_fraction_str(text):
    assert outcome(frac, text) == outcome(oracle_frac, text)


@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789-+/ ._eE", max_size=8),
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 10 ** 6))))
def test_frac_parses_like_fraction_str_on_any_text(text):
    assert outcome(frac, text) == outcome(oracle_frac, text)

"""AlgElement helpers that only tests and the oracles use: the zero and
basis elements, scaling, coefficient lookup, subtraction and the image of
a basis name under a subalgebra embedding."""

from ainfkit.ainf import AlgElement
from ainfkit.scalars import NovikovElement, frac


def zero_element(truncation=None) -> AlgElement:
    return AlgElement({}, truncation)


def basis_element(name, truncation=None) -> AlgElement:
    return AlgElement({name: NovikovElement.scalar(1, truncation)}, truncation)


def scale(element: AlgElement, factor) -> AlgElement:
    """Multiply by a Fraction or a NovikovElement."""
    if isinstance(factor, NovikovElement):
        if factor.truncation != element.truncation:
            factor = factor.retruncate(element.truncation)
        return AlgElement({n: v * factor for n, v in element.coeffs.items()},
                          element.truncation)
    return AlgElement({n: v * frac(factor) for n, v in element.coeffs.items()},
                      element.truncation)


def apply_name(emb, name) -> AlgElement:
    """iota(name) of a subalgebra embedding, read off its iota table."""
    trunc = emb.target.truncation
    return AlgElement({tgt: NovikovElement.scalar(c, trunc)
                       for tgt, c in emb.iota[name].items()}, trunc)


def coefficient(element: AlgElement, name) -> NovikovElement:
    return element.coeffs.get(name, NovikovElement.zero(element.truncation))


def minus(a: AlgElement, b: AlgElement) -> AlgElement:
    return a + (-b)

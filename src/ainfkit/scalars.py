"""Exact scalars, truncated Novikov-ring elements and energy monoids.

Scalars are `fractions.Fraction` throughout.  A Novikov element is a finite
sum  sum_i  a_i * T^{lambda_i}  with nonnegative rational energies lambda_i.
Truncation at E keeps only energies strictly below E (the quotient by the
energy filtration at level E), while *operation families* indexed by the
energy monoid keep beta with E(beta) <= E; both conventions live side by
side and the assembly map therefore sends boundary-energy operations to
zero after truncation.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; a boolean is
    refused, as `json_int` refuses it.

    The two shapes `frac_str` writes, "p" and "p/q" with ASCII decimal
    integers (p optionally negative), are split and read with `int`; any
    other string goes to `Fraction(str)`, which accepts and rejects the same
    strings with the same messages.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if not (_is_decimal(digits) and (not slash or _is_decimal(den))):
                return Fraction(x)
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {x!r}") from None
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and type(x) is not bool:
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def located(field, parse, raw):
    """parse(raw), a refusal of the parser named by field."""
    try:
        return parse(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{field}: {exc}") from None


def json_int(x, what) -> int:
    """x, which a document must give as a JSON integer: a float, a string or
    a boolean is refused rather than truncated or read as a number."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _is_decimal(s: str) -> bool:
    """s is a nonempty run of ASCII digits."""
    return s.isdigit() and s.isascii()


def frac_str(x) -> str:
    """Serialize a Fraction or an int as 'p/q' (or 'p' when q == 1)."""
    p, q = x.numerator, x.denominator
    return f"{p}/{q}" if q != 1 else str(p)


class NovikovElement:
    """Immutable truncated formal sum of T-powers with rational coefficients.

    terms: tuple of (energy, coefficient) pairs, energies strictly increasing,
    no zero coefficients.  truncation: None (untruncated) or a positive
    rational E; every stored energy is then < E.
    """

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: Iterable = (), truncation: Optional[Fraction] = None):
        if truncation is not None:
            truncation = frac(truncation)
            if truncation <= 0:
                raise ValueError("truncation energy must be positive")
        merged = {}
        for energy, coeff in terms:
            energy, coeff = frac(energy), frac(coeff)
            if energy < 0:
                raise ValueError("negative energy in Novikov element")
            merged[energy] = merged.get(energy, Fraction(0)) + coeff
        clean = tuple(
            (e, c) for e, c in sorted(merged.items())
            if c != 0 and (truncation is None or e < truncation)
        )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, *a):
        raise AttributeError("NovikovElement is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(truncation=None) -> "NovikovElement":
        return NovikovElement((), truncation)

    @staticmethod
    def scalar(c, truncation=None) -> "NovikovElement":
        return NovikovElement([(Fraction(0), frac(c))], truncation)

    @staticmethod
    def monomial(coeff, energy, truncation=None) -> "NovikovElement":
        return NovikovElement([(frac(energy), frac(coeff))], truncation)

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Optional[Fraction]:
        """Smallest energy present, or None for the zero element."""
        return self.terms[0][0] if self.terms else None

    def coefficient(self, energy) -> Fraction:
        energy = frac(energy)
        for e, c in self.terms:
            if e == energy:
                return c
        return Fraction(0)

    def retruncate(self, truncation) -> "NovikovElement":
        return NovikovElement(self.terms, truncation)

    # -- arithmetic --------------------------------------------------------
    def _check_mode(self, other: "NovikovElement"):
        if self.truncation != other.truncation:
            raise ValueError(
                f"mismatched truncation modes: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        self._check_mode(other)
        return NovikovElement(self.terms + other.terms, self.truncation)

    def __neg__(self) -> "NovikovElement":
        return NovikovElement([(e, -c) for e, c in self.terms], self.truncation)

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        return self + (-other)

    def __mul__(self, other) -> "NovikovElement":
        if isinstance(other, NovikovElement):
            self._check_mode(other)
            prods = [
                (e1 + e2, c1 * c2)
                for e1, c1 in self.terms
                for e2, c2 in other.terms
            ]
            return NovikovElement(prods, self.truncation)
        c = frac(other)
        return NovikovElement([(e, c * a) for e, a in self.terms], self.truncation)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovElement)
            and self.terms == other.terms
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.terms, self.truncation))

    def __repr__(self):
        if not self.terms:
            return "Nov(0)"
        body = " + ".join(f"{c}*T^{e}" for e, c in self.terms)
        mode = "" if self.truncation is None else f" mod T^{self.truncation}"
        return f"Nov({body}{mode})"

    # -- serialization -----------------------------------------------------
    def to_json(self):
        return [[frac_str(e), frac_str(c)] for e, c in self.terms]

    @staticmethod
    def from_json(data, truncation=None) -> "NovikovElement":
        """An array of [energy, coefficient] pairs; a string or any other
        term is refused rather than read letter by letter."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("Novikov element must be an array of "
                             f"[energy, coefficient] pairs, got {data!r}")
        for term in data:
            if not isinstance(term, (list, tuple)) or len(term) != 2:
                raise ValueError(f"Novikov term {term!r} is not an "
                                 "[energy, coefficient] pair")
        return NovikovElement([(frac(e), frac(c)) for e, c in data], truncation)


# The most elements one monoid enumeration may produce; a denser request is
# refused with a ValueError (bundled inputs need at most a few hundred).
ENUMERATION_BUDGET = 100_000


class EnergyMonoid:
    """Finitely generated discrete submonoid of R_{>=0} x 2Z.

    Elements are pairs beta = (E, mu) with E a nonnegative rational and mu an
    even integer.  Discreteness requires that no generator has E = 0 with
    mu != 0 (otherwise enumeration below a cutoff would be infinite).

    The monoid is enumerated on integers: with L the lcm of the generator
    denominators, every element has an integer E*L, and the generators are
    kept as integer pairs (E*L, mu).  One enumeration is kept (the integer
    pairs, their set, and the same elements as sorted (Fraction, int) pairs,
    each converted once) and answers every smaller request.  A larger request
    extends it: every generator has E > 0, so each element above the kept
    energy is a generator plus an element either kept or itself new, and the
    new ones are the sums that start from a kept element and never pass above
    the requested energy.
    """

    __slots__ = ("generators", "_scale", "_steps", "_top", "_pairs",
                 "_members", "_elements")

    def __init__(self, generators: Iterable = ()):
        gens = []
        for g in generators:
            e, mu = frac(g[0]), int(g[1])
            if e < 0:
                raise ValueError("generator with negative energy")
            if mu % 2 != 0:
                raise ValueError("generator with odd Maslov component")
            if e == 0 and mu != 0:
                raise ValueError("generator with E=0, mu!=0 breaks discreteness")
            if (e, mu) != (0, 0):
                gens.append((e, mu))
        gens = tuple(sorted(set(gens)))
        scale = lcm(*(e.denominator for e, _ in gens))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_steps", tuple(
            (e.numerator * (scale // e.denominator), mu) for e, mu in gens))
        # The kept enumeration: every element of integer energy <= _top.
        object.__setattr__(self, "_top", 0)
        object.__setattr__(self, "_pairs", [(0, 0)])
        object.__setattr__(self, "_members", {(0, 0)})
        object.__setattr__(self, "_elements", [BETA_ZERO])

    def __setattr__(self, *a):
        raise AttributeError("EnergyMonoid is immutable")

    def __eq__(self, other):
        return isinstance(other, EnergyMonoid) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"EnergyMonoid({list(self.generators)})"

    def _reach(self, cutoff: Fraction) -> int:
        """Extend the kept enumeration to every element of energy <= cutoff;
        returns floor(cutoff * L), the integer energy reached."""
        top = cutoff.numerator * self._scale // cutoff.denominator
        old = self._top
        if top <= old:
            return top
        pairs, members, steps = self._pairs, self._members, self._steps
        # A kept element that one generator lifts above the kept energy.
        reach = max((step for step, _ in steps), default=0)
        frontier = pairs[bisect_left(pairs, (old - reach + 1,)):]
        fresh = set()
        while frontier:
            nxt = []
            for e, mu in frontier:
                for step, shift in steps:
                    cand = (e + step, mu + shift)
                    if cand[0] <= top and cand not in fresh \
                            and cand not in members:
                        fresh.add(cand)
                        nxt.append(cand)
                if len(members) + len(fresh) > ENUMERATION_BUDGET:
                    raise ValueError(
                        f"energy monoid has more than {ENUMERATION_BUDGET} "
                        f"elements of energy <= {frac_str(cutoff)}")
            frontier = nxt
        fresh = sorted(fresh)
        scale = self._scale
        pairs.extend(fresh)
        members.update(fresh)
        self._elements.extend((Fraction(e, scale), mu) for e, mu in fresh)
        object.__setattr__(self, "_top", top)
        return top

    def enumerate(self, cutoff) -> list:
        """All distinct generator sums with total energy <= cutoff, sorted."""
        cutoff = frac(cutoff)
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        top = self._reach(cutoff)
        return self._elements[:bisect_left(self._pairs, (top + 1,))]

    def __contains__(self, beta) -> bool:
        e, mu = frac(beta[0]), int(beta[1])
        if e < 0 or self._scale % e.denominator:  # off the lattice
            return False
        return (self._reach(e), mu) in self._members

    def to_json(self):
        return [[frac_str(e), mu] for e, mu in self.generators]

    @staticmethod
    def from_json(data) -> "EnergyMonoid":
        if not isinstance(data, list) or not all(
                isinstance(g, list) and len(g) == 2 for g in data):
            raise ValueError(f"monoid must be an array of [energy, maslov] "
                             f"generators, got {data!r}")
        return EnergyMonoid([(located("monoid", frac, e),
                              json_int(mu, "monoid Maslov index"))
                             for e, mu in data])


def monoid_sum(G1: EnergyMonoid, G2: EnergyMonoid) -> EnergyMonoid:
    """Monoid generated by both generator sets (the sum submonoid)."""
    return EnergyMonoid(G1.generators + G2.generators)


BETA_ZERO = (Fraction(0), 0)

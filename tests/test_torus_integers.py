"""The integer torus calculus against the Fraction calculus it replaced.

`QI` keeps a Gaussian rational as an integer triple in lowest terms, and
`form_wedge`, `form_d`, `pullback`, `fiber_integrate` and the linear
structure build their results without re-validating them. The code below is
the previous calculus, verbatim: `QI` on two Fractions, `TorusForm`
validating every key of every result, and `pullback` built from
`form_wedge`. It stays as a differential oracle, because a torus-suite
report that passes lists only its groups and trial counts: a kernel that
returned the zero form, or lost a sign, would still pass every identity.
Both calculi must give the same term dicts, with coefficients compared as
(re, im) Fractions. Likewise `compose`, `fiber_product_assemble` and the
random maps of the suite build their `TorusMap`s unchecked; the validating
constructor and the previous builders stay as their oracle.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfkit import torus
from ainfkit.scalars import frac, frac_str
from ainfkit.torus import TorusMap

from reorder import reorder_sign


# -- the replaced calculus, kept as the oracle --------------------------------------

class QI:
    """Gaussian rational a + b*i with exact components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", frac(re))
        object.__setattr__(self, "im", frac(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    @staticmethod
    def coerce(x) -> "QI":
        if isinstance(x, QI):
            return x
        return QI(frac(x))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        other = QI.coerce(other)
        return QI(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.coerce(other))

    def __mul__(self, other):
        other = QI.coerce(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QI):
            try:
                other = QI.coerce(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})" if self.im else f"QI({self.re})"

    def to_json(self):
        return [frac_str(self.re), frac_str(self.im)]

    @staticmethod
    def from_json(data) -> "QI":
        return QI(frac(data[0]), frac(data[1]))


QI_ZERO = QI(0)
QI_ONE = QI(1)


def _merge_wedge(I, J):
    """Merge two sorted index tuples; returns (sign, merged) or None on clash."""
    if set(I) & set(J):
        return None
    merged = tuple(sorted(I + J))
    # Koszul sign of the merge: one (-1) per pair (i in I, j in J) with j < i.
    inversions = sum(1 for a in I for b in J if b < a)
    return (-1 if inversions % 2 else 1), merged


class TorusForm:
    """Differential form on T^n; terms may have mixed degrees."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        clean = {}
        for key, coeff in (terms or {}).items():
            freq, idx = tuple(int(f) for f in key[0]), tuple(int(i) for i in key[1])
            if len(freq) != dim:
                raise ValueError("frequency vector length mismatch")
            if list(idx) != sorted(set(idx)) or any(not (1 <= i <= dim) for i in idx):
                raise ValueError(f"bad index set {idx} on T^{dim}")
            coeff = QI.coerce(coeff)
            if coeff.is_zero():
                continue
            k = (freq, idx)
            acc = clean.get(k)
            clean[k] = coeff if acc is None else acc + coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("TorusForm is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "TorusForm":
        return TorusForm(dim)

    @staticmethod
    def term(dim: int, freq, idx, coeff=QI_ONE) -> "TorusForm":
        return TorusForm(dim, {(tuple(freq), tuple(idx)): QI.coerce(coeff)})

    @staticmethod
    def one(dim: int) -> "TorusForm":
        return TorusForm.term(dim, (0,) * dim, ())

    @staticmethod
    def dx(dim: int, i: int) -> "TorusForm":
        return TorusForm.term(dim, (0,) * dim, (i,))

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Degree of a homogeneous form (0 for the zero form)."""
        degs = {len(idx) for _, idx in self.terms}
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop() if degs else 0

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __eq__(self, other):
        return (isinstance(other, TorusForm) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"TorusForm(T^{self.dim}, 0)"
        bits = []
        for (freq, idx), c in self.sorted_terms():
            dxs = "".join(f"dx{i}" for i in idx) or "1"
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)e{list(freq)}{dxs}")
        return f"TorusForm(T^{self.dim}, " + " + ".join(bits) + ")"

    # -- linear structure ---------------------------------------------------
    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("forms on tori of different dimensions")

    def __add__(self, other: "TorusForm") -> "TorusForm":
        self._check_dim(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, QI_ZERO) + c
        return TorusForm(self.dim, out)

    def __neg__(self):
        return TorusForm(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TorusForm":
        c = QI.coerce(c)
        return TorusForm(self.dim, {k: c * v for k, v in self.terms.items()})

    # -- serialization -----------------------------------------------------
    def to_json(self):
        return {
            "dim": self.dim,
            "terms": [[list(freq), list(idx), c.to_json()]
                      for (freq, idx), c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(data) -> "TorusForm":
        return TorusForm(data["dim"], {
            (tuple(freq), tuple(idx)): QI.from_json(c)
            for freq, idx, c in data["terms"]
        })


def form_wedge(alpha: TorusForm, beta: TorusForm) -> TorusForm:
    alpha._check_dim(beta)
    out = {}
    for (f1, I), c1 in alpha.terms.items():
        for (f2, J), c2 in beta.terms.items():
            merged = _merge_wedge(I, J)
            if merged is None:
                continue
            sign, idx = merged
            freq = tuple(a + b for a, b in zip(f1, f2))
            k = (freq, idx)
            out[k] = out.get(k, QI_ZERO) + c1 * c2 * sign
    return TorusForm(alpha.dim, out)


def form_d(alpha: TorusForm) -> TorusForm:
    """Rescaled exterior derivative: d(c e_f dx_I) = sum_j c f_j e_f dx_j^dx_I."""
    out = {}
    for (freq, I), c in alpha.terms.items():
        for j, fj in enumerate(freq, start=1):
            if fj == 0 or j in I:
                continue
            # Sign to insert dx_j at the front of dx_I and resort.
            before = sum(1 for i in I if i < j)
            sign = -1 if before % 2 else 1
            idx = tuple(sorted(I + (j,)))
            k = (freq, idx)
            out[k] = out.get(k, QI_ZERO) + c * (fj * sign)
    return TorusForm(alpha.dim, out)


def pullback(phi: TorusMap, alpha: TorusForm) -> TorusForm:
    """phi^* alpha; alpha lives on the target of phi."""
    if alpha.dim != phi.target_dim:
        raise ValueError("form does not live on the target of the map")
    n = phi.source_dim
    out = TorusForm.zero(n)
    for (freq, I), c in alpha.terms.items():
        # Characters pull back through the transpose matrix.
        new_freq = tuple(
            sum(freq[i] * phi.rows[i][j] for i in range(phi.target_dim))
            for j in range(n)
        )
        piece = TorusForm.term(n, new_freq, (), c)
        for i in I:
            row = phi.rows[i - 1]
            dxi = TorusForm(n, {
                ((0,) * n, (j,)): QI(row[j - 1])
                for j in range(1, n + 1) if row[j - 1] != 0
            })
            piece = form_wedge(piece, dxi)
            if piece.is_zero():
                break
        out = out + piece
    return out


def fiber_integrate(pi: TorusMap, alpha: TorusForm) -> TorusForm:
    """Local-coordinate fiber integration along a coordinate projection.

    Each term is reordered so its fiber differentials come first in
    ascending order (Koszul sign); terms missing a fiber differential or
    carrying a nonzero fiber frequency integrate to zero; the fiber factors
    are then stripped and the remaining differentials relabeled to target
    coordinates.
    """
    if not pi.is_projection():
        raise ValueError("fiber integration requires a coordinate projection")
    if alpha.dim != pi.source_dim:
        raise ValueError("form does not live on the source of the projection")
    fiber = pi.fiber_coords()
    fiber_set = set(fiber)
    target_pos = {c: t for t, c in enumerate(pi.proj_coords, start=1)}
    out = {}
    for (freq, I), c in alpha.terms.items():
        if any(freq[f - 1] != 0 for f in fiber):
            continue
        if not fiber_set <= set(I):
            continue
        fiber_part = [i for i in I if i in fiber_set]
        base_part = [i for i in I if i not in fiber_set]
        reordered = fiber_part + base_part
        # Sign of rearranging dx_I into fiber-first order; every dx is odd.
        sign = reorder_sign([1] * len(I), [list(I).index(x) for x in reordered])
        new_freq = tuple(freq[c0 - 1] for c0 in pi.proj_coords)
        new_idx = tuple(target_pos[i] for i in base_part)
        k = (new_freq, new_idx)
        out[k] = out.get(k, QI_ZERO) + c * sign
    return TorusForm(pi.target_dim, out)


# -- the validating map constructors, kept as the oracle of the trusted ones --------
# `compose`, `fiber_product_assemble`, `_random_linear` and `_random_projection`
# build their maps unchecked; below, verbatim, they go through the validating
# `TorusMap` constructor, as before.

def projection(source_dim: int, coords) -> TorusMap:
    coords = tuple(coords)
    rows = [tuple(1 if j == c else 0 for j in range(1, source_dim + 1))
            for c in coords]
    return TorusMap(source_dim, len(coords), rows, proj_coords=coords)


def compose(self, other: "TorusMap") -> "TorusMap":
    """self after other (source of self = target of other)."""
    if self.source_dim != other.target_dim:
        raise ValueError("composition dimension mismatch")
    rows = [
        tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(self.source_dim))
              for j in range(other.source_dim))
        for i in range(self.target_dim)
    ]
    pc = None
    if self.is_projection() and other.is_projection():
        pc = tuple(other.proj_coords[c - 1] for c in self.proj_coords)
    return TorusMap(other.source_dim, self.target_dim, rows, proj_coords=pc)


def fiber_product_assemble(pi: TorusMap, g: TorusMap):
    """Fiber product of pi: M -> N (projection) with g: N1 -> N.

    Returns (P, p1, p2) with P = T^{k + dim N1}, p1(t, y) = (t, g(y)) into M
    and p2(t, y) = y onto N1; the square pi p1 = g p2 commutes.
    """
    if not pi.is_projection():
        raise ValueError("first map must be a coordinate projection")
    if pi.target_dim != g.target_dim:
        raise ValueError("maps must share a target")
    fiber = pi.fiber_coords()
    k, n1 = len(fiber), g.source_dim
    pdim = k + n1
    rows = []
    fiber_slot = {c: t for t, c in enumerate(fiber, start=1)}
    base_slot = {c: t for t, c in enumerate(pi.proj_coords, start=1)}
    for c in range(1, pi.source_dim + 1):
        if c in fiber_slot:
            rows.append(tuple(1 if j == fiber_slot[c] else 0 for j in range(1, pdim + 1)))
        else:
            grow = g.rows[base_slot[c] - 1]
            rows.append((0,) * k + tuple(grow))
    p1 = TorusMap(pdim, pi.source_dim, rows)
    p2 = projection(pdim, range(k + 1, pdim + 1))
    return pdim, p1, p2


def _random_projection(rng, source_dim: int, target_dim: int) -> TorusMap:
    coords = sorted(rng.sample(range(1, source_dim + 1), target_dim))
    return projection(source_dim, coords)


def _random_linear(rng, source_dim: int, target_dim: int) -> TorusMap:
    rows = [[rng.randint(-2, 2) for _ in range(source_dim)] for _ in range(target_dim)]
    return TorusMap(source_dim, target_dim, rows)


# -- random forms and maps ------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
dims = st.integers(1, 4)


@st.composite
def term_dicts(draw, dim):
    """{(freq, idx): (re, im)} with frequencies in [-2, 2], mixed degrees."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        freq = tuple(draw(st.lists(st.integers(-2, 2), min_size=dim,
                                   max_size=dim)))
        idx = tuple(sorted(draw(st.sets(st.integers(1, dim), max_size=dim))))
        terms[(freq, idx)] = (draw(coeffs), draw(coeffs))
    return terms


def both(dim, terms):
    """The same form in the oracle calculus and in the integer one."""
    return (TorusForm(dim, {k: QI(re, im) for k, (re, im) in terms.items()}),
            torus.TorusForm(dim, {k: torus.QI(re, im)
                                  for k, (re, im) in terms.items()}))


def pairs(form):
    """Terms with coefficients as (re, im) Fractions; each coefficient must
    also be in lowest terms, which equality and hashing rely on."""
    for c in form.terms.values():
        again = type(c)(c.re, c.im)
        assert c == again and hash(c) == hash(again)
    return form.dim, {k: (c.re, c.im) for k, c in form.terms.items()}


@st.composite
def linear_maps(draw, target_dim):
    source_dim = draw(dims)
    rows = [draw(st.lists(st.integers(-2, 2), min_size=source_dim,
                          max_size=source_dim)) for _ in range(target_dim)]
    return TorusMap(source_dim, target_dim, rows)


@st.composite
def projections(draw, source_dim):
    coords = draw(st.sets(st.integers(1, source_dim), max_size=source_dim))
    return TorusMap.projection(source_dim, sorted(coords))


# -- the integer calculus agrees with the oracle -------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.data(), dims)
def test_wedge_d_and_linear_structure_match_oracle(data, dim):
    a_old, a_new = both(dim, data.draw(term_dicts(dim)))
    b_old, b_new = both(dim, data.draw(term_dicts(dim)))
    assert pairs(torus.form_wedge(a_new, b_new)) == pairs(form_wedge(a_old, b_old))
    assert pairs(torus.form_d(a_new)) == pairs(form_d(a_old))
    assert pairs(a_new + b_new) == pairs(a_old + b_old)
    assert pairs(a_new - b_new) == pairs(a_old - b_old)
    assert pairs(-a_new) == pairs(-a_old)
    re, im = data.draw(coeffs), data.draw(coeffs)
    assert pairs(a_new.scale(torus.QI(re, im))) == pairs(a_old.scale(QI(re, im)))
    n = data.draw(st.integers(-3, 3))
    assert pairs(a_new.scale(n)) == pairs(a_old.scale(n))
    assert a_new == torus.TorusForm.from_json(a_new.to_json())
    assert a_new.to_json() == a_old.to_json()


@settings(max_examples=150, deadline=None)
@given(st.data(), dims)
def test_pullback_matches_oracle(data, dim):
    old, new = both(dim, data.draw(term_dicts(dim)))
    phi = data.draw(st.one_of(linear_maps(dim), st.builds(
        TorusMap.projection, st.just(dim), st.just(range(1, dim + 1)))))
    assert pairs(torus.pullback(phi, new)) == pairs(pullback(phi, old))


@settings(max_examples=150, deadline=None)
@given(st.data(), dims)
def test_fiber_integrate_matches_oracle(data, dim):
    old, new = both(dim, data.draw(term_dicts(dim)))
    pi = data.draw(projections(dim))
    assert pairs(torus.fiber_integrate(pi, new)) == \
        pairs(fiber_integrate(pi, old))


@settings(max_examples=200, deadline=None)
@given(coeffs, coeffs, coeffs, coeffs, st.integers(-3, 3))
def test_qi_arithmetic_matches_oracle(r1, i1, r2, i2, n):
    x, y = torus.QI(r1, i1), torus.QI(r2, i2)
    ox, oy = QI(r1, i1), QI(r2, i2)
    for new, old in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                     (-x, -ox), (x * n, ox * n), (n * x, n * ox), (x + n, ox + n)):
        assert (new.re, new.im) == (old.re, old.im)
        assert new.is_zero() == old.is_zero()
        assert repr(new) == repr(old)
        assert new.to_json() == old.to_json()
        assert new == torus.QI(old.re, old.im)
        assert hash(new) == hash(torus.QI(old.re, old.im))
    assert (x == r1) == (ox == r1)


def test_qi_is_kept_in_lowest_terms():
    half = torus.QI(Fraction(2, 4), 0)
    assert half == torus.QI(Fraction(1, 2))
    assert hash(half) == hash(torus.QI(Fraction(1, 2)))
    assert (half.re, half.im) == (Fraction(1, 2), Fraction(0))
    assert torus.QI(Fraction(1, 6), Fraction(1, 3)) * 3 == \
        torus.QI(Fraction(1, 2), 1)
    assert torus.QI(Fraction(1, 2), Fraction(1, 2)) * 0 == torus.QI(0)
    assert torus.QI(1, 2) == torus.QI("1", "2") == torus.QI.from_json(["1", "2"])
    assert torus.QI(Fraction(3, 2)) == Fraction(3, 2)
    assert repr(torus.QI(Fraction(-1, 2), 3)) == "QI(-1/2, 3)"


@settings(max_examples=200, deadline=None)
@given(coeffs, coeffs)
def test_equal_values_hash_alike(re, im):
    """A real QI equals its Fraction and, when integral, its int; so it must
    hash as they do, or sets and dicts would tell equal keys apart."""
    x = torus.QI(re, im)
    assert hash(x) == hash(torus.QI(re * 2, im * 2) * torus.QI(Fraction(1, 2)))
    if im == 0:
        assert x == re and hash(x) == hash(re) and x in {re} and re in {x: 0}
        if re.denominator == 1:
            n = int(re)
            assert x == n and hash(x) == hash(n) and x in {n}
    assert torus.QI(Fraction(3, 2)) in {Fraction(3, 2)}
    assert hash(torus.QI(1)) == hash(1) and hash(torus.QI(0)) == hash(0)
    # Only ints and Fractions compare equal: not the strings that `frac`
    # parses, nor booleans.
    assert torus.QI(Fraction(1, 2)) != "1/2" and "1" != torus.QI(1)
    assert torus.QI(1) != True and torus.QI(0) != False


def slots(phi):
    return tuple(getattr(phi, slot) for slot in TorusMap.__slots__)


def checked(phi):
    """phi's slots after the validating constructor, which raises on a
    malformed map and normalizes rows to tuples of int tuples."""
    return slots(TorusMap(phi.source_dim, phi.target_dim, phi.rows,
                          phi.proj_coords))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4), st.data())
def test_trusted_maps_match_validating_constructor(seed, m, data):
    n = data.draw(st.integers(1, m - 1))
    q = data.draw(st.integers(0, n))
    n1 = data.draw(st.integers(1, 3))
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    f_new, f_old = torus._random_projection(new_rng, m, n), \
        _random_projection(old_rng, m, n)
    g_new, g_old = torus._random_projection(new_rng, n, q), \
        _random_projection(old_rng, n, q)
    h_new, h_old = torus._random_linear(new_rng, n1, n), \
        _random_linear(old_rng, n1, n)
    l_new, l_old = torus._random_linear(new_rng, m, n1), \
        _random_linear(old_rng, m, n1)
    pairs_ = [(f_new, f_old), (g_new, g_old), (h_new, h_old), (l_new, l_old),
              (g_new.compose(f_new), compose(g_old, f_old)),
              (h_new.compose(l_new), compose(h_old, l_old)),
              (TorusMap.projection(m, range(1, n + 1)),
               projection(m, range(1, n + 1)))]
    pdim, p1, p2 = torus.fiber_product_assemble(f_new, h_new)
    pdim_old, p1_old, p2_old = fiber_product_assemble(f_old, h_old)
    assert pdim == pdim_old
    pairs_ += [(p1, p1_old), (p2, p2_old)]
    for new, old in pairs_:
        assert slots(new) == slots(old) == checked(new)

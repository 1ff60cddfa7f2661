"""Exact de Rham calculus on tori with character-basis coefficients.

A form on T^n is a finite sum of terms  c * e_f dx_I  where f is an integer
frequency vector (the character e^{2 pi i <f,x>}), I a strictly increasing
index set, and c a Gaussian rational.  The exterior derivative is rescaled
to drop the 2 pi i factor: d(e_f) = sum_j f_j e_f dx_j.  Every identity
tested here is homogeneous in the number of d's per term, so the rescaling
is harmless and keeps all coefficients in Q(i).

A coefficient `QI` is stored as three integers (a, b, d) in lowest terms,
meaning (a + b i) / d, and all arithmetic of the calculus runs on them;
`QI.re`, `QI.im` and `to_json` give Fractions back at the boundary.  The
public `TorusForm` constructors validate their terms; the operations below
build their results through `_form`, which trusts its keys and only drops
zero coefficients.  The pullback of dx_I through an integer matrix is
expanded with integer coefficients before the form's own coefficient is
applied.

Two fiber-integration conventions are provided.  `fiber_integrate` is the
local-coordinate rule: reorder fiber differentials to the front in ascending
order (Koszul sign), keep only terms carrying every fiber differential with
zero fiber frequency, and strip them.  `fiber_pushforward` multiplies by the
orientation sign of moving the fiber coordinates to the front of the full
coordinate list; that normalization is exactly the operator characterized by
the adjunction  int_M alpha ^ pi^* beta = int_N pi_* alpha ^ beta  with the
standard (ascending-coordinate) orientation on every torus, and it is the
one under which all the global identities of the suite hold verbatim.

The suite draws as `random.Random`'s randint, choice and sample do, but from
`getrandbits` directly.  A bounded cache keeps each coordinate projection
with its fiber and target positions; pullback along one is a relabelling.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul

from ainfkit.scalars import frac, frac_str
from ainfkit.signs import merge_wedge


class QI:
    """Gaussian rational (a + b*i) / d, kept as integers in lowest terms:
    gcd(a, b, d) = 1 and d > 0, so equal values have equal triples.  `re`
    and `im` read the parts back as Fractions.  Multiplying by an int (the
    signs and frequency factors of the calculus) skips the Gaussian
    product."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = frac(re), frac(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "QI":
        if isinstance(x, QI):
            return x
        return QI(frac(x))

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __add__(self, other):
        other = QI.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _qi(self._a + other._a, self._b + other._b, d1)
        return _qi(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1,
                   d1 * d2)

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-QI.coerce(other))

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            if other == -1:
                return _qi(-self._a, -self._b, self._d)
            return _qi(self._a * other, self._b * other, self._d)
        other = QI.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _qi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QI):
            if type(other) not in (int, Fraction):
                return NotImplemented
            other = QI.coerce(other)
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # A real QI equals its Fraction, and an integral one its int.
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})" if self._b else f"QI({self.re})"

    def to_json(self):
        return [frac_str(self.re), frac_str(self.im)]

    @staticmethod
    def from_json(data) -> "QI":
        return QI(frac(data[0]), frac(data[1]))


_set_a, _set_b, _set_d = QI._a.__set__, QI._b.__set__, QI._d.__set__


def _qi(a: int, b: int, d: int) -> QI:
    """The QI (a + b*i) / d for any integers with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    q = object.__new__(QI)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


QI_ZERO = QI(0)
QI_ONE = QI(1)


class TorusForm:
    """Differential form on T^n; terms may have mixed degrees.

    The constructor validates and merges its terms.  The operations below
    build their results through `_form`, which trusts its keys and only
    drops zero coefficients.
    """

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
            out[k] = out[k] + c if k in out else c
        return _form(self.dim, out)

    def __neg__(self):
        return _form(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TorusForm":
        if type(c) is not int:
            c = QI.coerce(c)
        return _form(self.dim, {k: v * c for k, v in self.terms.items()})

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


_set_dim, _set_terms = TorusForm.dim.__set__, TorusForm.terms.__set__


def _form(dim: int, terms: dict) -> TorusForm:
    """The form with these terms, which must already be valid on T^dim:
    (freq, idx) keys of int tuples, idx ascending, QI coefficients.  Zero
    coefficients are dropped; nothing else is checked."""
    form = object.__new__(TorusForm)
    _set_dim(form, dim)
    _set_terms(form, {k: c for k, c in terms.items() if c._a or c._b})
    return form


def form_wedge(alpha: TorusForm, beta: TorusForm) -> TorusForm:
    alpha._check_dim(beta)
    out = {}
    for (f1, I), c1 in alpha.terms.items():
        for (f2, J), c2 in beta.terms.items():
            merged = merge_wedge(I, J)
            if merged is None:
                continue
            sign, idx = merged
            k = (tuple(map(add, f1, f2)), idx)
            c = c1 * c2 * sign
            out[k] = out[k] + c if k in out else c
    return _form(alpha.dim, out)


def form_d(alpha: TorusForm) -> TorusForm:
    """Rescaled exterior derivative: d(c e_f dx_I) = sum_j c f_j e_f dx_j^dx_I."""
    out = {}
    for (freq, I), c in alpha.terms.items():
        for j, fj in enumerate(freq, start=1):
            if fj == 0 or j in I:
                continue
            sign, idx = merge_wedge((j,), I)
            k = (freq, idx)
            v = c * (fj * sign)
            out[k] = out[k] + v if k in out else v
    return _form(alpha.dim, out)


class TorusMap:
    """Linear map between tori, x -> A x with A an integer matrix.

    Coordinate projections additionally remember their ordered (strictly
    ascending) list of kept source coordinates, which is what fiber
    integration requires.
    """

    __slots__ = ("source_dim", "target_dim", "rows", "proj_coords")

    def __init__(self, source_dim: int, target_dim: int, rows, proj_coords=None):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if len(rows) != target_dim or any(len(r) != source_dim for r in rows):
            raise ValueError("matrix shape mismatch")
        if proj_coords is not None:
            proj_coords = tuple(int(c) for c in proj_coords)
            if list(proj_coords) != sorted(set(proj_coords)) or any(
                not (1 <= c <= source_dim) for c in proj_coords
            ):
                raise ValueError("projection coordinates must be ascending source coords")
        object.__setattr__(self, "source_dim", source_dim)
        object.__setattr__(self, "target_dim", target_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "proj_coords", proj_coords)

    def __setattr__(self, *a):
        raise AttributeError("TorusMap is immutable")

    @staticmethod
    def linear(source_dim: int, rows) -> "TorusMap":
        return TorusMap(source_dim, len(rows), rows)

    @staticmethod
    def projection(source_dim: int, coords) -> "TorusMap":
        phi = _projection(source_dim, coords)
        return TorusMap(source_dim, phi.target_dim, phi.rows, phi.proj_coords)

    @staticmethod
    def identity(dim: int) -> "TorusMap":
        return TorusMap.projection(dim, range(1, dim + 1))

    def is_projection(self) -> bool:
        return self.proj_coords is not None

    def fiber_coords(self):
        if not self.is_projection():
            raise ValueError("fiber coordinates only defined for projections")
        return _projection_data(self.source_dim, self.proj_coords)[1]

    def compose(self, other: "TorusMap") -> "TorusMap":
        """self after other (source of self = target of other)."""
        if self.source_dim != other.target_dim:
            raise ValueError("composition dimension mismatch")
        if self.is_projection() and other.is_projection():
            return _projection(other.source_dim, tuple(
                other.proj_coords[c - 1] for c in self.proj_coords))
        rows = tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(self.source_dim))
                  for j in range(other.source_dim))
            for i in range(self.target_dim)
        )
        return _map(other.source_dim, self.target_dim, rows)

    def __eq__(self, other):
        return (isinstance(other, TorusMap) and self.source_dim == other.source_dim
                and self.target_dim == other.target_dim and self.rows == other.rows)

    def __repr__(self):
        if self.is_projection():
            return f"TorusMap(T^{self.source_dim} -> T^{self.target_dim}, proj {self.proj_coords})"
        return f"TorusMap(T^{self.source_dim} -> T^{self.target_dim}, {self.rows})"


def _map(source_dim: int, target_dim: int, rows, proj_coords=None) -> TorusMap:
    """The map with these rows, which must already be valid: a tuple of
    target_dim tuples of source_dim ints, and proj_coords None or a tuple of
    ascending source coordinates.  Nothing is checked."""
    phi = object.__new__(TorusMap)
    for slot, value in zip(TorusMap.__slots__,
                           (source_dim, target_dim, rows, proj_coords)):
        object.__setattr__(phi, slot, value)
    return phi


@lru_cache(maxsize=1024)
def _projection_data(source_dim: int, coords: tuple):
    """(map, fiber, {kept coordinate: target position}, gather) for ascending
    coords, unchecked; gather[j] indexes coordinate j + 1's frequency in the
    target frequencies followed by a 0."""
    src = range(1, source_dim + 1)
    pos = {c: t for t, c in enumerate(coords, start=1)}
    fiber = tuple(c for c in src if c not in pos)
    phi = _map(source_dim, len(coords),
               tuple(tuple(int(j == c) for j in src) for c in coords), coords)
    return phi, fiber, pos, tuple(pos.get(c, 0) - 1 for c in src)


def _projection(source_dim: int, coords) -> TorusMap:
    return _projection_data(source_dim, tuple(coords))[0]


def pullback(phi: TorusMap, alpha: TorusForm) -> TorusForm:
    """phi^* alpha; alpha lives on the target of phi."""
    if alpha.dim != phi.target_dim:
        raise ValueError("form does not live on the target of the map")
    n = phi.source_dim
    if phi.proj_coords is not None:
        # A relabelling: no sign, no two terms meet.
        gather, rename = _projection_data(n, phi.proj_coords)[3], (0,) + phi.proj_coords
        return _form(n, {(tuple(map((freq + (0,)).__getitem__, gather)),
                          tuple(map(rename.__getitem__, I))): c
                         for (freq, I), c in alpha.terms.items()})
    # Characters pull back through the transpose matrix.
    cols = [tuple(row[j] for row in phi.rows) for j in range(n)]
    out = {}
    for (freq, I), c in alpha.terms.items():
        new_freq = tuple(sum(map(mul, freq, col)) for col in cols)
        for J, m in _pullback_dx(phi.rows, I).items():
            k = (new_freq, J)
            v = c * m
            out[k] = out[k] + v if k in out else v
    return _form(n, out)


def _pullback_dx(rows, I) -> dict:
    """phi^* dx_I = phi^* dx_{i_1} ^ ... ^ phi^* dx_{i_k} as {J: integer
    coefficient}, where phi^* dx_i = sum_j rows[i-1][j-1] dx_j."""
    acc = {(): 1}
    for i in I:
        nxt = {}
        for J, m in acc.items():
            for j, r in enumerate(rows[i - 1], start=1):
                merged = merge_wedge(J, (j,))
                if r and merged is not None:
                    sign, K = merged
                    nxt[K] = nxt.get(K, 0) + sign * r * m
        acc = {K: m for K, m in nxt.items() if m}
    return acc


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
    _, fiber, target_pos, _ = _projection_data(pi.source_dim, pi.proj_coords)
    out = {}
    for (freq, I), c in alpha.terms.items():
        if any(freq[f - 1] for f in fiber):
            continue
        base_part = tuple(i for i in I if i in target_pos)
        if len(I) - len(base_part) != len(fiber):
            continue
        # Sign of moving the fiber, which I holds, to the front.  No two
        # terms meet: the dropped part of each key is the same.
        out[(tuple(freq[c0 - 1] for c0 in pi.proj_coords),
             tuple(target_pos[i] for i in base_part))] = \
            c * merge_wedge(fiber, base_part)[0]
    return _form(pi.target_dim, out)


def projection_orientation_sign(pi: TorusMap) -> int:
    """Sign of the permutation carrying (1..m) to (fiber coords, base coords).

    This is the discrepancy between the local fiber-first rule and the
    pushforward characterized by the adjunction with standard orientations,
    and also between the fiber-product orientation of M x_N N1 and its (t, y)
    coordinate model, which lists the fiber coordinates of pi first.
    """
    return merge_wedge(pi.fiber_coords(), pi.proj_coords)[0]


def fiber_pushforward(pi: TorusMap, alpha: TorusForm) -> TorusForm:
    """Adjunction-normalized pushforward: int_M a^pi*b = int_N pi_*a^b."""
    res = fiber_integrate(pi, alpha)
    return res if projection_orientation_sign(pi) == 1 else -res


def total_integral(alpha: TorusForm) -> QI:
    """Integral over the torus: coefficient of the zero-frequency top term."""
    return alpha.terms.get(((0,) * alpha.dim, tuple(range(1, alpha.dim + 1))), QI_ZERO)


def cross_product(alpha: TorusForm, beta: TorusForm) -> TorusForm:
    """alpha x beta = p1^* alpha ^ p2^* beta on the product torus."""
    n1, n2 = alpha.dim, beta.dim
    p1 = _projection(n1 + n2, range(1, n1 + 1))
    p2 = _projection(n1 + n2, range(n1 + 1, n1 + n2 + 1))
    return form_wedge(pullback(p1, alpha), pullback(p2, beta))


def fiber_product_assemble(pi: TorusMap, g: TorusMap):
    """Fiber product of pi: M -> N (projection) with g: N1 -> N.

    Returns (P, p1, p2) with P = T^{k + dim N1}, p1(t, y) = (t, g(y)) into M
    and p2(t, y) = y onto N1; the square pi p1 = g p2 commutes.
    """
    if not pi.is_projection():
        raise ValueError("first map must be a coordinate projection")
    if pi.target_dim != g.target_dim:
        raise ValueError("maps must share a target")
    _, fiber, base_slot, _ = _projection_data(pi.source_dim, pi.proj_coords)
    k = len(fiber)
    pdim = k + g.source_dim
    unit = _projection(pdim, range(1, pdim + 1)).rows
    p1 = _map(pdim, pi.source_dim, tuple(
        (0,) * k + g.rows[base_slot[c] - 1] if c in base_slot
        else unit[fiber.index(c)] for c in range(1, pi.source_dim + 1)))
    p2 = _projection(pdim, range(k + 1, pdim + 1))
    return pdim, p1, p2


def correspondence(f: TorusMap, g: TorusMap, xi: TorusForm) -> TorusForm:
    """Corr(f, X, g)(xi) = g_*(f^* xi) for f: X -> M, g: X -> N."""
    if f.source_dim != g.source_dim:
        raise ValueError("correspondence legs must share their source")
    return fiber_pushforward(g, pullback(f, xi))


# ---------------------------------------------------------------------------
# Randomized identity suite
# ---------------------------------------------------------------------------

def _below(bits, n: int) -> int:
    """`Random._randbelow(n)` from its getrandbits: randint(a, b) is
    a + _below(bits, b - a + 1) and choice(s) is s[_below(bits, len(s))]."""
    if n < 1:
        raise ValueError("empty range")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(bits, n: int, k: int) -> list:
    """`Random.sample(range(1, n + 1), k)` for n <= 21, its pool branch."""
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    pool, out = list(range(1, n + 1)), []
    for i in range(n, n - k, -1):
        j = _below(bits, i)
        out.append(pool[j])
        pool[j] = pool[i - 1]
    return out


def random_form(rng, dim: int, degree=None, max_terms=3) -> TorusForm:
    """Random form with frequencies in [-2, 2], homogeneous if degree given,
    and coefficients a/p + (b/q) i, a in [-3, 3], b in [-2, 2], p, q in {1, 2}."""
    bits = rng.getrandbits
    terms = {}
    for _ in range(1 + _below(bits, max_terms)):
        freq = tuple([_below(bits, 5) - 2 for _ in range(dim)])
        deg = degree if degree is not None else _below(bits, dim + 1)
        idx = tuple(sorted(_sample(bits, dim, deg)))
        a, p = _below(bits, 7) - 3, 1 + _below(bits, 2)
        b, q = _below(bits, 5) - 2, 1 + _below(bits, 2)
        terms[(freq, idx)] = _qi(a * q, b * p, p * q)
    return _form(dim, terms)


def _random_projection(rng, source_dim: int, target_dim: int) -> TorusMap:
    return _projection(source_dim, sorted(
        _sample(rng.getrandbits, source_dim, target_dim)))


def _random_linear(rng, source_dim: int, target_dim: int) -> TorusMap:
    return _map(source_dim, target_dim, tuple(
        tuple([_below(rng.getrandbits, 5) - 2 for _ in range(source_dim)])
        for _ in range(target_dim)))


def _run_group(name, trials, instance):
    failures = []
    for trial in range(trials):
        residual_zero, detail = instance(trial)
        if not residual_zero:
            failures.append({"trial": trial, "detail": detail})
    return {"group": name, "trials": trials, "failures": failures,
            "status": "PASS" if not failures else "FAIL"}


def appendix_suite(seed: int, trials: int) -> dict:
    """Randomized exact verification of the fiber-integration identities.

    Eight groups: pushforward functoriality, the two projection formulas,
    base change, the product-pushforward sign, composite-through-smaller
    vanishing, closed-manifold Stokes, correspondence composition, and the
    defining adjunction.  Every residual must be exactly zero.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    bits = rng.getrandbits

    def g_functoriality(trial):
        m = 2 + _below(bits, 2)
        p = 1 + _below(bits, m - 1)
        q = _below(bits, p + 1)
        f = _random_projection(rng, m, p)
        g = _random_projection(rng, p, q)
        alpha = random_form(rng, m)
        lhs = fiber_pushforward(g.compose(f), alpha)
        rhs = fiber_pushforward(g, fiber_pushforward(f, alpha))
        return lhs == rhs, "(g f)_* vs g_* f_*"

    def g_projection_formula(trial):
        m = 2 + _below(bits, 2)
        n = 1 + _below(bits, m - 1)
        pi = _random_projection(rng, m, n)
        k = m - n
        alpha = random_form(rng, m)
        gamma = random_form(rng, n, degree=_below(bits, n + 1))
        lhs1 = fiber_pushforward(pi, form_wedge(alpha, pullback(pi, gamma)))
        rhs1 = form_wedge(fiber_pushforward(pi, alpha), gamma)
        sign = -1 if (gamma.degree() * k) % 2 else 1
        lhs2 = fiber_pushforward(pi, form_wedge(pullback(pi, gamma), alpha))
        rhs2 = form_wedge(gamma, fiber_pushforward(pi, alpha))
        rhs2 = rhs2 if sign == 1 else -rhs2
        return lhs1 == rhs1 and lhs2 == rhs2, "projection formula"

    def g_base_change(trial):
        m = 2 + _below(bits, 2)
        n = 1 + _below(bits, m - 1)
        pi = _random_projection(rng, m, n)
        n1 = 1 + _below(bits, 2)
        g = _random_linear(rng, n1, n)
        _, p1, p2 = fiber_product_assemble(pi, g)
        alpha = random_form(rng, m)
        lhs = pullback(g, fiber_pushforward(pi, alpha))
        # The pushforward along p2 lives in the fiber-product orientation.
        rhs = fiber_pushforward(p2, pullback(p1, alpha))
        if projection_orientation_sign(pi) == -1:
            rhs = -rhs
        return lhs == rhs, "base change"

    def g_product_sign(trial):
        n1, k1 = _below(bits, 2), 1 + _below(bits, 2)
        n2, k2 = _below(bits, 2), 1 + _below(bits, 2)
        m1, m2 = n1 + k1, n2 + k2
        pi1 = _projection(m1, range(k1 + 1, m1 + 1))
        pi2 = _projection(m2, range(k2 + 1, m2 + 1))
        rho1 = random_form(rng, m1, degree=_below(bits, m1 + 1))
        rho2 = random_form(rng, m2, degree=_below(bits, m2 + 1))
        fibers = tuple(range(1, k1 + 1)) + tuple(range(m1 + 1, m1 + k2 + 1))
        kept = tuple(c for c in range(1, m1 + m2 + 1) if c not in fibers)
        prod = _projection(m1 + m2, kept)
        lhs = fiber_pushforward(prod, cross_product(rho1, rho2))
        sign = -1 if (k2 * (n1 + k1 + rho1.degree())) % 2 else 1
        rhs = cross_product(fiber_pushforward(pi1, rho1), fiber_pushforward(pi2, rho2))
        rhs = rhs if sign == 1 else -rhs
        return lhs == rhs, "product pushforward sign"

    def g_vanishing(trial):
        n = _below(bits, 2)
        k = 1 + _below(bits, 3 - n)
        l = _below(bits, k)
        m = n + k
        f = _random_projection(rng, m, n + l)
        base = sorted(_sample(bits, n + l, n))
        g = _projection(n + l, base)
        pi = g.compose(f)
        alpha = random_form(rng, n + l)
        res = fiber_pushforward(pi, pullback(f, alpha))
        return res.is_zero(), "composite-through-smaller vanishing"

    def g_stokes(trial):
        m = 2 + _below(bits, 2)
        n = _below(bits, m)
        pi = _random_projection(rng, m, n)
        k = m - n
        alpha = random_form(rng, m)
        lhs = form_d(fiber_pushforward(pi, alpha))
        corr = fiber_pushforward(pi, form_d(alpha))
        corr = corr if (k + 1) % 2 == 0 else -corr
        return (lhs + corr).is_zero(), "closed Stokes"

    def g_correspondence(trial):
        nM, k1 = 1, 1
        x1 = nM + k1
        pi1 = _random_projection(rng, x1, nM)
        x2 = 2
        pi2 = _random_projection(rng, x2, nM)
        nN = _below(bits, 2)
        g = _random_projection(rng, x2, nN)
        dL, dM1, dM2 = 1, 1, 1
        f = _random_linear(rng, x1, dL)
        phi1 = _random_linear(rng, x2, dM1)
        phi2 = _random_linear(rng, x2, dM2)
        xi1 = random_form(rng, dM1, degree=_below(bits, dM1 + 1))
        xi2 = random_form(rng, dL)
        xi3 = random_form(rng, dM2)
        _, p1, p2 = fiber_product_assemble(pi1, pi2)
        # Push-pull through the fiber product in its fiber-product orientation.
        lhs = fiber_pushforward(
            g.compose(p2),
            form_wedge(
                form_wedge(pullback(phi1.compose(p2), xi1),
                           pullback(f.compose(p1), xi2)),
                pullback(phi2.compose(p2), xi3),
            ),
        )
        inner = correspondence(f, pi1, xi2)
        rhs = fiber_pushforward(
            g,
            form_wedge(
                form_wedge(pullback(phi1, xi1), pullback(pi2, inner)),
                pullback(phi2, xi3),
            ),
        )
        if (k1 * xi1.degree()) % 2:
            rhs = -rhs
        if projection_orientation_sign(pi1) == -1:
            lhs = -lhs
        return lhs == rhs, "correspondence composition"

    def g_adjunction(trial):
        m = 2 + _below(bits, 2)
        n = _below(bits, m)
        pi = _random_projection(rng, m, n)
        alpha = random_form(rng, m)
        beta = random_form(rng, n)
        lhs = total_integral(form_wedge(alpha, pullback(pi, beta)))
        rhs = total_integral(form_wedge(fiber_pushforward(pi, alpha), beta))
        return lhs == rhs, "defining adjunction"

    groups = [
        ("pushforward-functoriality", g_functoriality),
        ("projection-formula", g_projection_formula),
        ("base-change", g_base_change),
        ("product-pushforward-sign", g_product_sign),
        ("composite-vanishing", g_vanishing),
        ("closed-stokes", g_stokes),
        ("correspondence-composition", g_correspondence),
        ("defining-adjunction", g_adjunction),
    ]
    report = {
        "suite": "torus-identities",
        "seed": seed,
        "trials": trials,
        "groups": [_run_group(name, trials, fn) for name, fn in groups],
    }
    report["status"] = "PASS" if all(g["status"] == "PASS" for g in report["groups"]) else "FAIL"
    return report

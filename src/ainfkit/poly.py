"""Univariate polynomials over exact rationals, plus exact linear algebra.

One polynomial class serves two roles: t-polynomials for isotopy families
(needing d/dt and definite integrals with a symbolic lower endpoint) and
q-polynomials for Novikov-field linear algebra (needing exact division,
fraction-free rank, and Smith normal form over the PID Q[q]).

Every matrix here is {row: {column: entry}} with zeros absent, and every
vector {index: entry}: only nonzero entries are stored, read or formed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ainfkit.scalars import frac, frac_str


class Poly:
    """Polynomial with Fraction coefficients, stored low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly([frac(c)])

    @staticmethod
    def monomial(coeff, power: int) -> "Poly":
        return Poly([Fraction(0)] * power + [frac(coeff)])

    ZERO: "Poly"
    ONE: "Poly"
    T: "Poly"

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs[:-1])

    def __call__(self, x):
        x = frac(x) if not isinstance(x, Poly) else x
        acc = Poly.ZERO if isinstance(x, Poly) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + (Poly.const(c) if isinstance(x, Poly) else c)
        return acc

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = frac(other)
            return Poly([c * a for a in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, lead = other.degree(), other.lead()
        quo = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quo[i - dn] = q
            for j, c in enumerate(other.coeffs):
                rem[i - dn + j] -= q * c
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c}" if i == 0 else (f"{c}*t^{i}" if c != 1 else f"t^{i}")
            for i, c in enumerate(self.coeffs) if c != 0
        ) + ")"

    # -- calculus ----------------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integral_from_to_one(self) -> "Poly":
        """Definite integral over [tau, 1] as a polynomial in tau.

        Returns F(1) - F(tau) where F is the antiderivative.
        """
        F = self.antiderivative()
        return Poly.const(F(Fraction(1))) - F

    # -- serialization -----------------------------------------------------
    def to_json(self):
        return [frac_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Poly":
        if not isinstance(data, (list, tuple)):
            raise ValueError(
                f"polynomial must be an array of coefficients, got {data!r}")
        return Poly([frac(c) for c in data])


Poly.ZERO = Poly()
Poly.ONE = Poly([1])
Poly.T = Poly([0, 1])


def _pivot(active, lag):
    """(row, column) of an entry of lowest q-degree, a row's degrees raised
    by lag.get(row, 0); ties go to the row with the fewest nonzeros."""
    best = key = None
    for i, row in active.items():
        shift, size = lag.get(i, 0), len(row)
        for j, x in row.items():
            k = (len(x.coeffs) + shift, size)
            if key is None or k < key:
                best, key = (i, j), k
    return best


def matrix_rank_fraction_field(matrix) -> int:
    """Rank of a matrix of Poly entries over the fraction field Q(q).

    Fraction-free Bareiss elimination on the rows of a {row: {column:
    Poly}} matrix: exact, no rational-function blowup, and only entries
    facing a nonzero are formed.  Each pivot is an entry of lowest
    q-degree, ties going to the row with the fewest nonzeros.  A row
    the pivot column misses would only be scaled by p_k / p_{k-1}; that
    scaling is deferred, so a row keeps the step `stamp` its entries belong
    to, and catching up from step s to step k multiplies by p_k / p_s.
    """
    active = {i: dict(row) for i, row in matrix.items() if row}
    pivots = [Poly.ONE]
    stamp = dict.fromkeys(active, 0)
    while active:
        prev = pivots[-1]
        lag = {i: prev.degree() - pivots[s].degree() for i, s in stamp.items()}
        r, c = _pivot(active, lag)
        top, s = active.pop(r), stamp.pop(r)
        if s != len(pivots) - 1:
            top = {j: (x * prev).exact_div(pivots[s]) for j, x in top.items()}
        p = top.pop(c)
        for i in [i for i, row in active.items() if c in row]:
            row, den = active[i], pivots[stamp[i]]
            x = row.pop(c)
            new = {j: p * y for j, y in row.items()}
            _subtract(new, x, top)
            new = {j: y.exact_div(den) for j, y in new.items()}
            if new:
                active[i], stamp[i] = new, len(pivots)
            else:
                del active[i], stamp[i]
        pivots.append(p)
    return len(pivots) - 1


def sparse_product(a, b) -> dict:
    """The exact product ab of two {row: {column: entry}} matrices over any
    ring, in the same form.  Row i is the sum over a[i][k] of a[i][k] times
    row k of b: only products of two nonzero entries are formed."""
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def squares_to_zero(mat) -> bool:
    """Whether the square {row: {column: entry}} matrix mat composes with
    itself to zero (exactly, forming only products of nonzero entries)."""
    return not sparse_product(mat, mat)


def _subtract(v, f, row) -> None:
    """v -= f * row on sparse {index: entry} vectors, dropping zeros."""
    for i, x in row.items():
        y = v[i] - f * x if i in v else -(f * x)
        if y:
            v[i] = y
        else:
            v.pop(i, None)


class EchelonSpan:
    """A growing span of rational vectors, kept as an echelon basis.

    Each basis row is sparse ({index: Fraction}), is 1 at its leading
    (smallest) index, and no two rows share a leading index.  This is the
    one Gaussian elimination over Q: the rank of what was added is
    len(self.rows), and `kernel` reads the null space off the basis.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.add(row)

    def add(self, vec) -> bool:
        """Add vec to the span; True exactly when it was not already in it.

        vec is an {index: entry} dict; its indices need only be comparable
        with each other, so basis names will do.  A vector raises the rank
        exactly when its reduction against the basis is nonzero; the reduced
        vector then joins the basis.
        """
        v = {i: frac(x) for i, x in vec.items() if x}
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                inv = 1 / v[lead]
                self.rows[lead] = {i: x * inv for i, x in v.items()}
                return True
            _subtract(v, v[lead], row)
        return False

    def kernel(self, columns) -> list:
        """A basis of the vectors on `columns` (which hold every row's
        entries) orthogonal to every row: one {index: Fraction} vector per
        free column (no row leads there), in the order of columns, 1 there
        and 0 at the other free columns.

        The rows are first back-substituted to the (unique) reduced echelon
        form of the same span, each 0 at every other row's lead.
        """
        for lead in sorted(self.rows, reverse=True):
            row = self.rows[lead]
            for other in [i for i in row if i != lead and i in self.rows]:
                _subtract(row, row[other], self.rows[other])
        basis = {j: {j: Fraction(1)} for j in columns if j not in self.rows}
        for lead, row in self.rows.items():
            for j, x in row.items():
                if j != lead:
                    basis[j][lead] = -x
        return list(basis.values())


def rational_matrix_rank(matrix) -> int:
    """Rank of a {row: {column: Fraction}} matrix: the size of its echelon
    basis."""
    return len(EchelonSpan(matrix.values()).rows)


def transpose(matrix) -> dict:
    """The transpose of a {row: {column: entry}} matrix, in the same form."""
    out = {}
    for i, row in matrix.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def graded_spans(matrix, grading):
    """A degree +1 {row: {column: Fraction}} matrix on a basis with integer
    degrees `grading`, reduced once: its rows of degree d + 1 are the block
    from degree d to d + 1.  Returns ({d: (indices of degree d, echelon span
    of that block)}, {d: cohomology dimension}, rank), in ascending degree;
    a block's kernel is its span's kernel on the indices of degree d.
    """
    by_deg = {}
    for i, d in enumerate(grading):
        by_deg.setdefault(d, []).append(i)
    spans = {d: (idxs, EchelonSpan(matrix[i] for i in by_deg.get(d + 1, ())
                                   if i in matrix))
             for d, idxs in sorted(by_deg.items())}
    ranks = {d: len(span.rows) for d, (_, span) in spans.items()}
    dims = {d: len(idxs) - ranks[d] - ranks.get(d - 1, 0)
            for d, (idxs, _) in spans.items()}
    return spans, dims, sum(ranks.values())


def _gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, a % b
    return a


def smith_normal_form(matrix):
    """Invariant factors of a Poly matrix over the Euclidean domain Q[q].

    Returns the nonzero diagonal entries, made monic, sorted by degree;
    divisibility d_1 | d_2 | ... holds.  The matrix is {row: {column:
    Poly}}.  Each pivot is an entry of lowest q-degree, ties
    going to the row with the fewest nonzeros.  Row operations reduce the
    pivot column modulo the pivot p; once that column is clear, column
    operations, which then touch only the pivot row, reduce that row modulo
    p.  A remainder has a lower degree than p and is the next pivot; when
    none is left, p is a diagonal entry.  The diagonal is then brought to
    divisibility by replacing each pair (a, b) with (gcd, lcm).
    """
    active = {i: dict(row) for i, row in matrix.items() if row}
    diagonal = []
    while active:
        r, c = _pivot(active, {})
        top = active.pop(r)
        p = top[c]
        for i in [i for i, row in active.items() if c in row]:
            _subtract(active[i], active[i][c] // p, top)
            if not active[i]:
                del active[i]
        if p.degree():
            if any(c in row for row in active.values()):
                active[r] = top
                continue
            reduced = {j: y for j, x in top.items() if (y := x % p)}
            if reduced:
                active[r] = {**reduced, c: p}
                continue
        diagonal.append(p)
    diagonal.sort(key=Poly.degree)
    units = sum(not d.degree() for d in diagonal)
    for i, j in combinations(range(units, len(diagonal)), 2):
        a, b = diagonal[i], diagonal[j]
        g = _gcd(a, b)
        if g.degree() < a.degree():
            diagonal[i], diagonal[j] = g, (a * b) // g
    return [d * (1 / d.lead()) for d in diagonal]

"""Univariate polynomials over exact rationals, plus exact linear algebra.

One polynomial class serves two roles: t-polynomials for isotopy families
(needing d/dt and definite integrals with a symbolic lower endpoint) and
q-polynomials for Novikov-field linear algebra (needing exact division,
fraction-free rank, and Smith normal form over the PID Q[q]).
"""

from __future__ import annotations

from fractions import Fraction

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


def matrix_rank_fraction_field(rows) -> int:
    """Rank of a matrix of Poly entries over the fraction field Q(q).

    Fraction-free Bareiss elimination: exact, no rational-function blowup.
    An entry that is zero while its cross term vanishes stays zero, so only
    structurally nonzero updates are computed.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = Poly.ONE
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, p = m[r], m[r][c]
        for i in range(r + 1, nrows):
            row, x = m[i], m[i][c]
            cross = not x.is_zero()
            for j in range(c + 1, ncols):
                if cross and not top[j].is_zero():
                    row[j] = (p * row[j] - x * top[j]).exact_div(prev)
                elif not row[j].is_zero():
                    row[j] = (p * row[j]).exact_div(prev)
            row[c] = Poly.ZERO
        prev = p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def sparse_product(a, b, zero) -> dict:
    """The exact product a*b as {(row, column): nonzero entry}, over any ring
    whose zero is `zero`.  Column j is the sum over nonzero b[k][j] of b[k][j]
    times column k of a: only products of two nonzero entries are formed."""
    a_cols = [[(i, row[k]) for i, row in enumerate(a) if row[k] != zero]
              for k in range(len(b))]
    out = {}
    for j in range(len(b[0]) if b else 0):
        acc = {}
        for k, row in enumerate(b):
            y = row[j]
            if y == zero:
                continue
            for i, x in a_cols[k]:
                acc[i] = acc[i] + x * y if i in acc else x * y
        out.update(((i, j), v) for i, v in acc.items() if v != zero)
    return out


def squares_to_zero(mat, zero) -> bool:
    """Whether the square matrix mat composes with itself to zero (exactly,
    forming only products of nonzero entries)."""
    return not sparse_product(mat, mat, zero)


def _subtract(v, f, row) -> None:
    """v -= f * row on sparse {index: entry} vectors, dropping zeros."""
    for i, x in row.items():
        y = v.get(i, 0) - f * x
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

        vec is a dense list or a sparse {index: entry} dict; sparse indices
        need only be comparable with each other, so basis names will do.
        A vector raises the rank exactly when its reduction against the
        basis is nonzero; the reduced vector then joins the basis.
        """
        entries = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {i: y for i, x in entries if x and (y := frac(x))}
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                inv = 1 / v[lead]
                self.rows[lead] = {i: x * inv for i, x in v.items()}
                return True
            _subtract(v, v[lead], row)
        return False

    def kernel(self, ncols) -> list:
        """A basis of the vectors of length ncols orthogonal to every row:
        one dense Fraction vector per free column (no row leads there), in
        ascending order, 1 there and 0 at the other free columns.

        The rows are first back-substituted to the (unique) reduced echelon
        form of the same span, each 0 at every other row's lead.
        """
        for lead in sorted(self.rows, reverse=True):
            row = self.rows[lead]
            for other in [i for i in row if i != lead and i in self.rows]:
                _subtract(row, row[other], self.rows[other])
        basis = {j: [Fraction(0)] * ncols
                 for j in range(ncols) if j not in self.rows}
        for j, vec in basis.items():
            vec[j] = Fraction(1)
        for lead, row in self.rows.items():
            for j, x in row.items():
                if j != lead:
                    basis[j][lead] = -x
        return list(basis.values())


def rational_matrix_rank(rows) -> int:
    """Rank of a matrix of Fractions: the size of its echelon basis."""
    return len(EchelonSpan(rows).rows)


def graded_dims(names, degrees, diff):
    """Per-degree cohomology dimensions of a degree-respecting differential."""
    by_deg = {}
    for i, nm in enumerate(names):
        by_deg.setdefault(degrees[nm], []).append(i)
    ranks = {}
    for d, idxs in by_deg.items():
        tgt = by_deg.get(d + 1, [])
        block = [[diff[i][j] for j in idxs] for i in tgt]
        ranks[d] = rational_matrix_rank(block) if tgt else 0
    dims = {}
    for d, idxs in by_deg.items():
        dims[d] = len(idxs) - ranks.get(d, 0) - ranks.get(d - 1, 0)
    return {d: dims[d] for d in sorted(dims)}


def smith_normal_form(rows):
    """Invariant factors of a Poly matrix over the Euclidean domain Q[q].

    Returns the nonzero diagonal entries, made monic, sorted by degree;
    divisibility d_1 | d_2 | ... holds by construction.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    factors = []
    top = 0
    while top < min(nrows, ncols):
        # Find a nonzero entry of minimal degree in the remaining block.
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if not m[i][j].is_zero():
                    if best is None or m[i][j].degree() < m[best[0]][best[1]].degree():
                        best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        # Reduce the pivot row and column until the pivot divides everything
        # it meets; each pass strictly drops some degree, so this terminates.
        # Entries facing a zero in the pivot row or column are left alone.
        while True:
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                if not m[i][top].is_zero():
                    q = m[i][top] // piv
                    for j in range(top, ncols):
                        if not m[top][j].is_zero():
                            m[i][j] = m[i][j] - q * m[top][j]
                    if not m[i][top].is_zero():
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, ncols):
                if not m[top][j].is_zero():
                    q = m[top][j] // piv
                    for i in range(top, nrows):
                        if not m[i][top].is_zero():
                            m[i][j] = m[i][j] - q * m[i][top]
                    if not m[top][j].is_zero():
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if dirty:
                continue
            # Pivot clears its row and column; enforce divisibility into the
            # remaining block by folding any non-multiple onto the pivot row.
            offender = None
            for i in range(top + 1, nrows):
                for j in range(top + 1, ncols):
                    if not m[i][j].is_zero() and not (m[i][j] % piv).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(top, ncols):
                m[top][j] = m[top][j] + m[offender][j]
        piv = m[top][top]
        factors.append(piv * (1 / piv.lead()))
        top += 1
    return factors

"""Differential tests: the sparse linear-algebra kernels against the dense
ones they replaced, kept here as oracles (the dense d^2 check, the dense
matrix product of the chain-map test, the dense Gauss-Jordan rank and kernel,
the repeated-rank picker, the old scalar_cohomology, and the dense Bareiss
rank and Smith normal form over Q[q]).

The strategies draw dense lists with sparse entries (each entry zero with
probability 0.7), so the zero-skipping branches of Bareiss, Smith form and
the d^2 check are actually taken; dense random entries almost never reach
them.  The oracles read the lists; the kernels read the same matrices in
their one form, {row: {column: entry}} with zeros absent (sparse_matrix).
"""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ainfkit.ainf import AlgElement, differential_matrix
from ainfkit.floer import deformed_differential_matrix, scalar_cohomology
from ainfkit.models import derham_model
from ainfkit.poly import (
    EchelonSpan,
    Poly,
    matrix_rank_fraction_field,
    rational_matrix_rank,
    smith_normal_form,
    sparse_product,
    squares_to_zero,
)
from ainfkit.scalars import frac, frac_str

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(coeffs, max_size=3).map(Poly)


def sparse_vector(vec) -> dict:
    """{index: entry} of the nonzero entries of a dense list."""
    return {j: x for j, x in enumerate(vec) if x}


def sparse_matrix(mat) -> dict:
    """{row: {column: entry}} of the nonzero entries of a dense matrix."""
    return {i: row for i, r in enumerate(mat) if (row := sparse_vector(r))}


def dense_matrix(mat, nrows, ncols, zero) -> list:
    """The dense nrows x ncols lists of a {row: {column: entry}} matrix."""
    return [[mat.get(i, {}).get(j, zero) for j in range(ncols)]
            for i in range(nrows)]


def dense_vectors(vectors, size) -> list:
    return [[v.get(j, Fraction(0)) for j in range(size)] for v in vectors]


def sparse(entries, zero):
    """Entries that are `zero` with probability 0.7."""
    return st.tuples(st.integers(0, 9), entries).map(
        lambda t: t[1] if t[0] >= 7 else zero)


def square_matrices(entries, zero, min_size=2, max_size=7):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(st.lists(sparse(entries, zero), min_size=n,
                                    max_size=n), min_size=n, max_size=n))


@st.composite
def split_square_zero(draw, entries, zero):
    """Nonzero entries only in rows R and columns C with R, C disjoint,
    so that the square is zero whatever the entries are."""
    n = draw(st.integers(2, 7))
    in_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [[draw(sparse(entries, zero)) if in_rows[i] and not in_rows[j]
             else zero for j in range(n)] for i in range(n)]


# -- oracles: the dense kernels that the sparse ones replaced ----------------

def dense_squares_to_zero(mat, zero):
    n = len(mat)
    square = [[sum((mat[i][k] * mat[k][j] for k in range(n)), zero)
               for j in range(n)] for i in range(n)]
    return all(x == zero for row in square for x in row)


def _mat_mul(a, b, zero=0):
    """The dense product check_kunneth_hypothesis used for its chain-map test."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_rank(rows) -> int:
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    m = [[frac(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, r = 0, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def dense_kernel_basis(mat):
    """Column vectors spanning the kernel, by exact Gaussian elimination."""
    if not mat:
        return []
    nrows, ncols = len(mat), len(mat[0])
    m = [row[:] for row in mat]
    pivots = {}
    r = 0
    for cidx in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][cidx] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][cidx]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][cidx] != 0:
                f = m[i][cidx]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots[cidx] = r
        r += 1
        if r == nrows:
            break
    basis = []
    free = [cidx for cidx in range(ncols) if cidx not in pivots]
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for pcol, prow in pivots.items():
            vec[pcol] = -m[prow][fcol]
        basis.append(vec)
    return basis


def dense_graded_dims(names, degrees, diff):
    """Per-degree cohomology dimensions of a degree-respecting differential."""
    by_deg = {}
    for i, nm in enumerate(names):
        by_deg.setdefault(degrees[nm], []).append(i)
    ranks = {}
    for d, idxs in by_deg.items():
        tgt = by_deg.get(d + 1, [])
        block = [[diff[i][j] for j in idxs] for i in tgt]
        ranks[d] = dense_rank(block) if tgt else 0
    dims = {}
    for d, idxs in by_deg.items():
        dims[d] = len(idxs) - ranks.get(d, 0) - ranks.get(d - 1, 0)
    return {d: dims[d] for d in sorted(dims)}


def repeated_rank_pick(image_vectors, kernel):
    """Keep each kernel vector that raises the rank of what is kept so far."""
    size = len(kernel[0]) if kernel else 0
    chosen = []
    for vec in kernel:
        trial = image_vectors + chosen + [vec]
        rows = [[col[i] for col in trial] for i in range(size)]
        if dense_rank(rows) > dense_rank(
                [[col[i] for col in image_vectors + chosen]
                 for i in range(size)]):
            chosen.append(vec)
    return chosen


def dense_scalar_cohomology(matrix, grading):
    """scalar_cohomology as it was: dense d^2 and repeated-rank picking."""
    n = len(grading)
    if not dense_squares_to_zero(matrix, Fraction(0)):
        raise ValueError("differential does not square to zero")
    dims = dense_graded_dims(list(range(n)), dict(enumerate(grading)), matrix)
    by_deg = {}
    for i in range(n):
        by_deg.setdefault(grading[i], []).append(i)
    reps = {}
    for d, idxs in sorted(by_deg.items()):
        tgt = by_deg.get(d + 1, [])
        block = [[matrix[i][j] for j in idxs] for i in tgt]
        kernel = dense_kernel_basis(block) if tgt else [
            [Fraction(1) if t == s else Fraction(0) for s in range(len(idxs))]
            for t in range(len(idxs))
        ]
        image = [[matrix[i][j] for i in idxs] for j in by_deg.get(d - 1, [])]
        reps[d] = [
            {str(idxs[i]): frac_str(v[i]) for i in range(len(idxs)) if v[i] != 0}
            for v in repeated_rank_pick(image, kernel)
        ]
    return {
        "dims": {str(d): v for d, v in sorted(dims.items())},
        "total": sum(dims.values()),
        "representatives": {str(d): reps[d] for d in sorted(reps) if reps[d]},
    }


def dense_matrix_rank_fraction_field(rows) -> int:
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


def dense_smith_normal_form(rows):
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


def sympy_rank(rows):
    q = sympy.Symbol("q")
    mat = sympy.Matrix([[sum((sympy.Rational(c.numerator, c.denominator) * q**i
                              for i, c in enumerate(e.coeffs)), sympy.S.Zero)
                         for e in row] for row in rows])
    return DomainMatrix.from_Matrix(mat).to_field().rank()


@st.composite
def graded_complexes(draw):
    """(matrix, grading) of a random sparse complex with d^2 = 0.

    A direct sum of isolated vectors and pairs x -> c*y with |y| = |x| + 1,
    conjugated by a few elementary changes of basis inside single degrees.
    """
    n = draw(st.integers(2, 7))
    grading = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nonzero = st.fractions(min_value=-3, max_value=3,
                           max_denominator=3).filter(bool)
    d = [[Fraction(0)] * n for _ in range(n)]
    used = set()
    for x in range(n):
        for y in range(n):
            if (grading[y] == grading[x] + 1 and not {x, y} & used
                    and draw(st.booleans())):
                d[y][x] = draw(nonzero)
                used |= {x, y}
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        peers = [j for j in range(n) if j != i and grading[j] == grading[i]]
        if not peers:
            continue
        j, c = draw(st.sampled_from(peers)), draw(nonzero)
        # d <- E d E^{-1} with E = 1 + c e_ij: row i += c row j, then
        # column j -= c column i.
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]
        for row in d:
            row[j] -= c * row[i]
    return d, grading


def cancelling(zero, one):
    """d^2 e0 = d(e1 + e2) = (e3) + (-e3 + e4) = e4: the first nonzero of
    each column cancels, and only the last term of column 2 shows d^2 != 0."""
    mat = [[zero] * 5 for _ in range(5)]
    mat[1][0] = mat[2][0] = mat[3][1] = mat[4][2] = one
    mat[3][2] = -one
    return mat


# -- the d^2 check -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.one_of(square_matrices(coeffs, Fraction(0)),
                 split_square_zero(coeffs, Fraction(0))))
@example([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
@example([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
@example(cancelling(Fraction(0), Fraction(1)))
def test_squares_to_zero_matches_dense_over_fractions(mat):
    assert squares_to_zero(sparse_matrix(mat)) == \
        dense_squares_to_zero(mat, Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.one_of(square_matrices(polys, Poly.ZERO),
                 split_square_zero(polys, Poly.ZERO)))
@example([[Poly.ZERO, Poly.ZERO], [Poly.T, Poly.ZERO]])
@example([[Poly.T, Poly.ZERO], [Poly.ZERO, Poly.ZERO]])
@example(cancelling(Poly.ZERO, Poly.T))
def test_squares_to_zero_matches_dense_over_polys(mat):
    assert squares_to_zero(sparse_matrix(mat)) == \
        dense_squares_to_zero(mat, Poly.ZERO)


@settings(max_examples=40, deadline=None)
@given(graded_complexes(), st.integers(0, 48), coeffs)
def test_squares_to_zero_on_perturbed_complexes(complex_, where, c):
    mat, _ = complex_
    assert squares_to_zero(sparse_matrix(mat))
    # One changed entry of a complex whose d^2 vanishes by cancellation.
    n = len(mat)
    mat[where // 7 % n][where % n] += c
    assert squares_to_zero(sparse_matrix(mat)) == \
        dense_squares_to_zero(mat, Fraction(0))


@st.composite
def factor_pairs(draw, entries, zero):
    """(a, b) with a of shape m x k and b of shape k x n, 1 <= m, k, n <= 5."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(sparse(entries, zero), min_size=cols,
                                      max_size=cols), min_size=rows,
                             max_size=rows))
    return matrix(m, k), matrix(k, n)


@settings(max_examples=60, deadline=None)
@given(factor_pairs(coeffs, Fraction(0)))
@example(([[Fraction(1), Fraction(1)]], [[Fraction(1)], [Fraction(-1)]]))
def test_sparse_product_matches_dense_over_fractions(pair):
    a, b = pair
    assert sparse_product(sparse_matrix(a), sparse_matrix(b)) == \
        sparse_matrix(_mat_mul(a, b))


@settings(max_examples=40, deadline=None)
@given(factor_pairs(polys, Poly.ZERO))
@example(([[Poly.T, Poly.T]], [[Poly.T], [-Poly.T]]))
def test_sparse_product_matches_dense_over_polys(pair):
    a, b = pair
    assert sparse_product(sparse_matrix(a), sparse_matrix(b)) == \
        sparse_matrix(_mat_mul(a, b, Poly.ZERO))


# -- Bareiss and Smith form --------------------------------------------------

@st.composite
def scrambled_diagonals(draw):
    """A rows x cols matrix U * D * V: D has diagonal entries drawn from
    small products of q, q + 1 and 2q - 1 in any order (so the invariant
    factors must be regrouped by gcd and lcm), and U, V are a few elementary
    row and column operations with polynomial multipliers."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    q = Poly.T
    atoms = [Poly.ONE, q, q + Poly.ONE, q * 2 - Poly.ONE, Poly.const(3)]
    m = [[Poly.ZERO] * ncols for _ in range(nrows)]
    for i in range(min(nrows, ncols)):
        factors = draw(st.lists(st.sampled_from(atoms), max_size=3))
        if draw(st.integers(0, 4)):
            m[i][i] = Poly.ONE
            for f in factors:
                m[i][i] = m[i][i] * f
    multipliers = st.sampled_from([Poly.ONE, -Poly.ONE, q, q + Poly.ONE,
                                   Poly.const(Fraction(1, 2))])
    for _ in range(draw(st.integers(0, 4))):
        f = draw(multipliers)
        if draw(st.booleans()) and nrows > 1:
            i, j = draw(st.permutations(range(nrows)))[:2]
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif ncols > 1:
            i, j = draw(st.permutations(range(ncols)))[:2]
            for row in m:
                row[i] = row[i] + f * row[j]
    return m


def zero_curvature_matrix(alg):
    mat, _ = deformed_differential_matrix(alg, AlgElement({}, alg.truncation))
    return mat


@settings(max_examples=40, deadline=None)
@given(square_matrices(polys, Poly.ZERO))
def test_bareiss_rank_matches_sympy_on_sparse(rows):
    assert matrix_rank_fraction_field(sparse_matrix(rows)) == \
        sympy_rank(rows) == dense_matrix_rank_fraction_field(rows)


@settings(max_examples=40, deadline=None)
@given(square_matrices(polys, Poly.ZERO))
def test_smith_factors_match_sympy_rank_on_sparse(rows):
    factors = smith_normal_form(sparse_matrix(rows))
    assert len(factors) == sympy_rank(rows)
    assert factors == dense_smith_normal_form(rows)
    for a, b in zip(factors, factors[1:]):
        assert (b % a).is_zero()


@settings(max_examples=40, deadline=None)
@given(scrambled_diagonals())
@example([[Poly.T * Poly.T, Poly.ZERO], [Poly.ZERO, Poly.T + Poly.ONE]])
@example([[Poly.T + Poly.ONE, Poly.ZERO, Poly.ZERO],
          [Poly.ZERO, Poly.T, Poly.ZERO]])
def test_bareiss_and_smith_match_dense_on_scrambled_diagonals(rows):
    factors = smith_normal_form(sparse_matrix(rows))
    assert factors == dense_smith_normal_form(rows)
    assert matrix_rank_fraction_field(sparse_matrix(rows)) == len(factors) == \
        dense_matrix_rank_fraction_field(rows) == sympy_rank(rows)


@settings(max_examples=40, deadline=None)
@given(st.one_of(square_matrices(polys, Poly.ZERO), scrambled_diagonals()))
def test_bareiss_and_smith_take_sparse_rows(rows):
    sparse_rows = sparse_matrix(rows)
    copy = {i: dict(r) for i, r in sparse_rows.items()}
    assert matrix_rank_fraction_field(sparse_rows) == \
        dense_matrix_rank_fraction_field(rows)
    assert smith_normal_form(sparse_rows) == dense_smith_normal_form(rows)
    assert sparse_rows == copy


def test_bareiss_and_smith_match_dense_on_torus_models():
    for w in (1, 2, 4, 8):
        alg = derham_model(1, w)
        mat = zero_curvature_matrix(alg)
        n = len(alg.names)
        dense = dense_matrix(mat, n, n, Poly.ZERO)
        rank = matrix_rank_fraction_field(mat)
        assert rank == dense_matrix_rank_fraction_field(dense)
        assert smith_normal_form(mat) == dense_smith_normal_form(dense)
        assert n - 2 * rank == 2


# -- rank and kernel over Q --------------------------------------------------

@st.composite
def rectangular_matrices(draw):
    """(ncols, rows): a sparse Fraction matrix of 0-6 rows and 1-7 columns,
    sometimes with a repeated row or an all-zero row put in."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(sparse(coeffs, Fraction(0)), min_size=ncols,
                   max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return ncols, rows


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
@example((3, []))
@example((3, [[Fraction(0)] * 3, [Fraction(0)] * 3]))
@example((3, [[Fraction(1), Fraction(2), Fraction(0)]] * 2))
@example((4, [[Fraction(0), Fraction(1), Fraction(1), Fraction(0)],
              [Fraction(1), Fraction(1), Fraction(0), Fraction(2)],
              [Fraction(1), Fraction(0), Fraction(-1), Fraction(2)]]))
def test_echelon_rank_and_kernel_match_dense(matrix):
    ncols, rows = matrix
    span = EchelonSpan(map(sparse_vector, rows))
    kernel = span.kernel(range(ncols))
    assert dense_vectors(kernel, ncols) == \
        (dense_kernel_basis(rows) if rows else identity(ncols))
    assert all(type(x) is Fraction and x for vec in kernel
               for x in vec.values())
    assert rational_matrix_rank(sparse_matrix(rows)) == dense_rank(rows) == \
        len(span.rows) == ncols - len(kernel)
    # Back-substitution leaves a reduced echelon basis of the same span.
    for lead, row in span.rows.items():
        assert min(row) == lead and row[lead] == 1
        assert not (set(row) - {lead}) & set(span.rows)
    assert not any(span.add(sparse_vector(r)) for r in rows)


@settings(max_examples=60, deadline=None)
@given(rectangular_matrices())
def test_echelon_span_takes_sparse_rows(matrix):
    ncols, rows = matrix
    sparse_rows = [sparse_vector(r) for r in rows]
    assert dense_vectors(EchelonSpan(sparse_rows).kernel(range(ncols)),
                         ncols) == \
        (dense_kernel_basis(rows) if rows else identity(ncols))


# -- representative picking --------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda size: st.tuples(
    st.lists(st.lists(sparse(coeffs, Fraction(0)), min_size=size,
                      max_size=size), max_size=4),
    st.lists(st.lists(sparse(coeffs, Fraction(0)), min_size=size,
                      max_size=size), min_size=1, max_size=5))))
def test_echelon_pick_matches_repeated_rank(vectors):
    image, candidates = vectors
    span = EchelonSpan()
    for vec in image:
        span.add(sparse_vector(vec))
    assert [v for v in candidates if span.add(sparse_vector(v))] == \
        repeated_rank_pick(image, candidates)


@settings(max_examples=60, deadline=None)
@given(graded_complexes())
def test_scalar_cohomology_matches_dense_on_random_complexes(complex_):
    mat, grading = complex_
    assert scalar_cohomology(sparse_matrix(mat), grading) == \
        dense_scalar_cohomology(mat, grading)


def test_scalar_cohomology_matches_dense_on_torus_models():
    for w in (1, 2, 4):
        alg = derham_model(1, w)
        mat = differential_matrix(alg)
        grading = [alg.degree(nm) for nm in alg.names]
        out = scalar_cohomology(mat, grading)
        n = len(grading)
        assert out == dense_scalar_cohomology(
            dense_matrix(mat, n, n, Fraction(0)), grading)
        assert out["dims"] == {"0": 1, "1": 1}

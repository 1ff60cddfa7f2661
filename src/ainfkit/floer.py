"""Cohomology of deformed differentials, over exact scalars.

For a gapped algebra with energies in (1/N) * Z_{>=0} and a bounding cochain
b, the deformed differential m^b_1 has matrix entries in Q[q] with q = T^{1/N}.
Its rank over the fraction field Q(q) gives the cohomology dimension, and a
Smith normal form over the PID Q[q] gives the torsion-module barcode: each
invariant factor q^e contributes a bar of length e/N.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    deformed_table,
    differential_matrix,
    mc_defect,
    validate_bounding_candidate,
)
from ainfkit.kunneth import SubalgebraEmbedding, box_product
from ainfkit.poly import (
    EchelonSpan,
    Poly,
    matrix_rank_fraction_field,
    smith_normal_form,
    squares_to_zero,
)
from ainfkit.scalars import frac_str


def scalar_cohomology(matrix, grading) -> dict:
    """Cohomology of a degree +1 differential on a finite graded Q-space.

    matrix: square, columns are images of basis vectors, Fraction entries;
    grading: list of integer degrees, one per basis vector.  Returns the
    per-degree dimensions and a representative basis of each degree's
    cohomology (kernel vectors reduced against the incoming image).
    """
    n = len(grading)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape does not match the grading")
    if not squares_to_zero(matrix, 0):
        raise ValueError("differential does not square to zero")
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != 0 and grading[i] != grading[j] + 1:
                raise ValueError("differential does not have degree +1")
    # Per degree, one echelon basis of the outgoing block's rows gives its
    # rank and its kernel.  Representatives are the kernel vectors that are
    # independent modulo the incoming image: one echelon basis of the image
    # grows by each chosen vector, and a kernel vector is chosen exactly
    # when it does not reduce to zero against it.
    by_deg = {}
    for i in range(n):
        by_deg.setdefault(grading[i], []).append(i)
    ranks, dims, reps = {}, {}, {}
    for d, idxs in sorted(by_deg.items()):
        outgoing = EchelonSpan([[matrix[i][j] for j in idxs]
                                for i in by_deg.get(d + 1, [])])
        ranks[d] = len(outgoing.rows)
        dims[d] = len(idxs) - ranks[d] - ranks.get(d - 1, 0)
        image = EchelonSpan([[matrix[i][j] for i in idxs]
                             for j in by_deg.get(d - 1, [])])
        chosen = [v for v in outgoing.kernel(len(idxs)) if image.add(v)]
        reps[d] = [
            {str(idxs[i]): frac_str(v[i]) for i in range(len(idxs)) if v[i] != 0}
            for v in chosen
        ]
    return {
        "dims": {str(d): v for d, v in sorted(dims.items())},
        "total": sum(dims.values()),
        "representatives": {str(d): reps[d] for d in sorted(reps) if reps[d]},
    }


def algebra_cohomology(alg: AInfAlgebra) -> dict:
    """Cohomology of the undeformed beta = 0 differential of an algebra."""
    return scalar_cohomology(differential_matrix(alg),
                             [alg.degree(nm) for nm in alg.names])


def _energy_denominator(alg: AInfAlgebra, b: AlgElement) -> int:
    dens = [1]
    dens += [beta[0].denominator for _, beta in alg.ops]
    for nov in b.coeffs.values():
        dens += [e.denominator for e, _ in nov.terms]
    return lcm(*dens)


def deformed_differential_matrix(alg: AInfAlgebra, b: AlgElement):
    """(matrix of m^b_1 over Q[q], N) with q = T^{1/N}.

    Requires a gapped algebra with a genuine bounding cochain (zero
    curvature remainder).  Checks (m^b_1)^2 = 0 exactly before returning,
    composing only nonzero entries, and raises ValueError when it fails.
    """
    return _deformed_matrix(alg, b)


def _deformed_matrix(alg: AInfAlgebra, b: AlgElement, flat=None):
    """deformed_differential_matrix; flat says whether the curvature
    remainder of b vanishes, for a caller that has validated b and computed
    that remainder already (None validates and computes it here)."""
    if alg.mode != "gapped":
        raise ValueError("exact cohomology needs a gapped algebra; "
                         "truncated data only determines it up to the cutoff")
    if flat is None:
        # b is validated before mc_defect asks for a unit, so its message
        # comes first.
        validate_bounding_candidate(alg, b)
        flat = mc_defect(alg, b, validated=True)[1].is_zero()
    if not flat:
        raise ValueError("b does not satisfy the weak Maurer-Cartan equation")
    n_den = _energy_denominator(alg, b)
    names = alg.names
    idx = {nm: i for i, nm in enumerate(names)}
    mat = [[Poly.ZERO] * len(names) for _ in names]
    for (nm,), column in deformed_table(alg, b, 1).items():
        for out, nov in column.items():
            coeffs = {}
            for e, cf in nov.terms:
                power = e * n_den
                if power.denominator != 1:
                    raise ValueError("energy outside (1/N)Z lattice")
                coeffs[power.numerator] = cf
            mat[idx[out]][idx[nm]] = Poly([coeffs.get(p, Fraction(0))
                                           for p in range(max(coeffs) + 1)])
    if not squares_to_zero(mat, Poly.ZERO):
        raise ValueError("deformed differential does not square to zero")
    return mat, n_den


def hf_dimension(alg: AInfAlgebra, b: AlgElement) -> int:
    """dim over the Novikov field of the m^b_1 cohomology."""
    mat, _ = deformed_differential_matrix(alg, b)
    rank = matrix_rank_fraction_field(mat)
    return len(alg.names) - 2 * rank


def barcode(alg: AInfAlgebra, b: AlgElement) -> dict:
    """Bar lengths of the torsion part of the m^b_1 cohomology over Q[q].

    Monomial invariant factors q^e give finite bars of length e/N; any
    non-monomial factor is reported verbatim rather than converted.
    """
    mat, n_den = deformed_differential_matrix(alg, b)
    factors = smith_normal_form(mat)
    bars = []
    nonmonomial = []
    for f in factors:
        if f.is_monomial():
            bars.append(Fraction(f.degree(), n_den))
        else:
            nonmonomial.append(f.to_json())
    bars = [x for x in bars if x != 0]
    rank = len(factors)
    free_rank = len(alg.names) - 2 * rank
    return {
        "check": "barcode",
        "N": n_den,
        "bars": [frac_str(x) for x in sorted(bars)],
        "free_rank": free_rank,
        "nonmonomial_factors": nonmonomial,
        "status": "PASS" if not nonmonomial else "FAIL",
    }


def check_hf_kunneth(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding,
                     b1: AlgElement, b2: AlgElement) -> dict:
    """Floer cohomology dimension is multiplicative under the box product."""
    box = box_product(embA, embB, b1, b2)
    # box_product has validated each cochain and computed its curvature
    # remainder; the three dimensions reuse them.
    dim_a, dim_b, dim_c = (
        len(alg.names) - 2 * matrix_rank_fraction_field(
            _deformed_matrix(alg, b, box[f"remainder_{tag}_zero"])[0])
        for tag, alg, b in (("A", embA.source, b1), ("B", embB.source, b2),
                            ("C", embA.target, box["element"])))
    ok = box["status"] == "PASS" and dim_c == dim_a * dim_b
    return {
        "check": "hf-kunneth",
        "status": "PASS" if ok else "FAIL",
        "box_status": box["status"],
        "dim_A": dim_a,
        "dim_B": dim_b,
        "dim_C": dim_c,
        "multiplicative": dim_c == dim_a * dim_b,
    }
